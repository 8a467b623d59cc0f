import os

import pytest

from sortnetopt.solver import default_config, reference_solver


@pytest.fixture(scope="session")
def solver_config():
    """The solver named by SAT_SOLVER, else the reference solver that the
    package builds (cached once per source hash)."""
    exe = os.environ.get("SAT_SOLVER") or reference_solver()
    if exe is None:
        pytest.skip("no C compiler to build the reference solver (or set SAT_SOLVER)")
    return default_config(timeout=600.0, executable=exe)

import os
import shutil
import subprocess
from pathlib import Path

import pytest

from sortnetopt.solver import default_config

REFSAT = Path(__file__).resolve().parent.parent / "bench" / "refsat" / "refsat.c"


@pytest.fixture(scope="session")
def solver_config(tmp_path_factory):
    """The solver named by SAT_SOLVER, else the reference solver built from source."""
    exe = os.environ.get("SAT_SOLVER")
    if not exe:
        cc = shutil.which("cc")
        if cc is None:
            pytest.skip("no C compiler to build the reference solver (or set SAT_SOLVER)")
        exe = str(tmp_path_factory.mktemp("refsat") / "refsat")
        subprocess.run([cc, "-O2", "-std=c11", "-o", exe, str(REFSAT)], check=True)
    return default_config(timeout=600.0, executable=exe)

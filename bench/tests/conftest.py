"""Tests of the benchmark's own parts: python3 -m pytest bench/tests"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture(scope="session")
def refsat(tmp_path_factory) -> Path:
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    exe = tmp_path_factory.mktemp("refsat") / "refsat"
    subprocess.run([cc, "-O2", "-std=c11", "-Wall", "-Werror", "-o", str(exe),
                    str(BENCH / "refsat" / "refsat.c")], check=True)
    return exe

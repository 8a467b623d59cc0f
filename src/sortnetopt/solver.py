"""External SAT solver orchestration over DIMACS files."""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .encoding import Cnf, parse_solver_output, to_dimacs

# candidate binaries, tried in order when SAT_SOLVER is not set
KNOWN_SOLVERS = ("splr", "kissat", "cadical", "cryptominisat5", "glucose", "minisat", "picosat")

# per-solver arguments that force plain machine-readable output
DEFAULT_ARGS = {
    "splr": ("-q", "-C", "-r", "-"),
    "kissat": ("-q",),
    "cadical": ("-q",),
    "cryptominisat5": ("--verb", "0"),
}

_EXTRA_DIRS = ("~/.local/bin", "~/.cargo/bin")


def find_solver() -> Optional[str]:
    """Locate a DIMACS solver: $SAT_SOLVER, then PATH, then user bin dirs."""
    env = os.environ.get("SAT_SOLVER")
    if env:
        return env
    for name in KNOWN_SOLVERS:
        path = shutil.which(name)
        if path:
            return path
        for d in _EXTRA_DIRS:
            cand = Path(d).expanduser() / name
            if cand.is_file() and os.access(cand, os.X_OK):
                return str(cand)
    return None


@dataclass(frozen=True)
class SolverConfig:
    executable: str
    args: tuple[str, ...] = ()
    timeout: float = 600.0
    workdir: Optional[str] = None   # None: fresh temp dir per call

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


def default_config(timeout: float = 600.0, executable: Optional[str] = None,
                   **kw) -> SolverConfig:
    """Config for the given binary, or the one find_solver() locates."""
    exe = executable or find_solver()
    if exe is None:
        raise RuntimeError(
            "no SAT solver found: set SAT_SOLVER to a DIMACS-conformant binary "
            "(e.g. `cargo install splr`, or any of " + ", ".join(KNOWN_SOLVERS) + ")")
    args = DEFAULT_ARGS.get(Path(exe).name, ())
    return SolverConfig(executable=exe, args=args, timeout=timeout, **kw)


@dataclass
class SolveResult:
    verdict: str                               # SAT | UNSAT | TIMEOUT | CANCELLED
    true_vars: Optional[frozenset[int]] = None
    solve_time: float = 0.0
    log: str = ""


class StopEvent(threading.Event):
    """A threading.Event whose set() also kills the solver runs it watches.

    A run that starts watching after set() is killed at once; a killed run
    comes back CANCELLED.
    """

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self._running: set[subprocess.Popen] = set()

    def set(self) -> None:
        with self._lock:
            super().set()
            running = list(self._running)
        for proc in running:
            proc.kill()

    def _watch(self, proc: subprocess.Popen, on: bool) -> None:
        """Register (on) or drop a running solver; kill it if already set."""
        with self._lock:
            (self._running.add if on else self._running.discard)(proc)
            if not (on and self.is_set()):
                return
        proc.kill()


def run_solver(cnf: Cnf | str, config: SolverConfig, name: str = "instance",
               stop: Optional[StopEvent] = None) -> SolveResult:
    """Solve one CNF in a subprocess; wall-clock timeout kills the solver.

    A SAT or UNSAT run deletes its CNF file.  Unparseable or crashed runs
    come back as TIMEOUT-class failures with the captured log, and a timed-out
    or failed run keeps its CNF for post-mortem.  A run killed by stop settled
    nothing: it comes back CANCELLED, without its CNF.
    """
    text = cnf if isinstance(cnf, str) else to_dimacs(cnf)
    owns_dir = config.workdir is None
    workdir = Path(config.workdir) if config.workdir else Path(tempfile.mkdtemp(prefix="sortnetopt-"))
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{name}.cnf"
    path.write_text(text)
    cmd = [config.executable, *config.args, str(path)]
    start = time.monotonic()
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except OSError as exc:
        raise RuntimeError(f"failed to launch solver {config.executable!r}: {exc}") from exc
    stop = stop or StopEvent()
    with proc:
        stop._watch(proc, True)
        try:
            stdout, stderr = proc.communicate(timeout=config.timeout)
        except subprocess.TimeoutExpired:
            return SolveResult("TIMEOUT", None, time.monotonic() - start, "wall-clock timeout")
        finally:
            stop._watch(proc, False)
            if proc.returncode is None:  # timed out or interrupted
                proc.kill()
    elapsed = time.monotonic() - start
    if stop.is_set() and proc.returncode < 0:
        verdict, true_vars = "CANCELLED", None
    else:
        verdict, true_vars = parse_solver_output(stdout)
        if verdict == "UNKNOWN" and proc.returncode == 20:
            verdict = "UNSAT"  # SAT-competition exit code, for quiet solvers
        if verdict == "UNKNOWN":
            log = f"cmd: {' '.join(cmd)}\nexit: {proc.returncode}\n{stdout}\n{stderr}"
            return SolveResult("TIMEOUT", None, elapsed, log)
    try:
        path.unlink()
        if owns_dir:
            workdir.rmdir()
    except OSError:
        pass
    return SolveResult(verdict, true_vars, elapsed, "")

"""External SAT solver orchestration over DIMACS files.

The solver is found by find_solver: $SAT_SOLVER, a known solver on PATH
or in a user bin dir, and last the package's own reference solver
refsat, which reference_solver compiles from the refsat.c shipped with
the package when a C compiler `cc` is on PATH.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .encoding import _LIT_CHUNK, Cnf, to_dimacs

# the known solvers, in lookup order, each with the arguments that force
# plain machine-readable output
KNOWN_SOLVERS = {"splr": ("-q", "-C", "-r", "-"), "kissat": ("-q",), "cadical": ("-q",),
                 "cryptominisat5": ("--verb", "0"), "glucose": (), "minisat": (), "picosat": ()}

_EXTRA_DIRS = ("~/.local/bin", "~/.cargo/bin")

REFSAT_SOURCE = Path(__file__).with_name("refsat.c")

DEFAULT_TIMEOUT = 600.0   # seconds of wall clock per solver run


def reference_solver() -> Optional[str]:
    """The reference solver refsat, compiled from REFSAT_SOURCE with
    `cc -O2 -std=c11`, or None when there is no source or no `cc` on PATH.

    The build is cached once per source SHA-256, in
    ~/.cache/sortnetopt/refsat-<first 16 hex digits>/refsat, a directory
    of mode 0700: the package runs what it finds there, so the cache is
    never a shared temp dir.  The compiler writes refsat.<pid>.tmp, which
    is renamed into place, so processes that build at once do not clash.
    A failed compile raises RuntimeError with the compiler's stderr and
    leaves no file behind.
    """
    import hashlib   # here, so that importing the package leaves it out

    cc = shutil.which("cc")
    if cc is None or not REFSAT_SOURCE.is_file():
        return None
    digest = hashlib.sha256(REFSAT_SOURCE.read_bytes()).hexdigest()
    exe = Path.home() / ".cache" / "sortnetopt" / f"refsat-{digest[:16]}" / "refsat"
    if exe.is_file():
        return str(exe)
    exe.parent.mkdir(parents=True, exist_ok=True)
    exe.parent.chmod(0o700)
    tmp = exe.with_name(f"refsat.{os.getpid()}.tmp")
    try:
        proc = subprocess.run([cc, "-O2", "-std=c11", "-o", str(tmp), str(REFSAT_SOURCE)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"refsat failed to compile with {cc}:\n{proc.stderr}")
        os.replace(tmp, exe)
    finally:
        tmp.unlink(missing_ok=True)
    return str(exe)


def find_solver() -> Optional[str]:
    """Locate a DIMACS solver: $SAT_SOLVER, then the names of KNOWN_SOLVERS
    in order, each on PATH, then in the user bin dirs, and last the
    reference solver that reference_solver() builds."""
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
    return reference_solver()


@dataclass(frozen=True)
class SolverConfig:
    """What a caller chooses: the binary, its wall-clock timeout and where
    its CNF files go.  The arguments come from the binary's name
    (KNOWN_SOLVERS, read by solve_file)."""
    executable: str
    timeout: float = DEFAULT_TIMEOUT
    workdir: Optional[str] = None   # None: a temp dir per call, always removed

    def __post_init__(self):
        if not self.timeout > 0:   # NaN too
            raise ValueError("timeout must be positive")


def default_config(timeout: float = DEFAULT_TIMEOUT, executable: Optional[str] = None,
                   **kw) -> SolverConfig:
    """Config for the given binary, or the one find_solver() locates (the
    reference solver last, which a first call compiles); it only resolves
    the executable, whose flags solve_file looks up.  RuntimeError when
    no solver is found, or when the reference solver fails to compile."""
    exe = executable or find_solver()
    if exe is None:
        raise RuntimeError(
            "no SAT solver found: set SAT_SOLVER to a DIMACS-conformant binary "
            "(e.g. `cargo install splr`, or any of " + ", ".join(KNOWN_SOLVERS) + "), "
            "or install a C compiler `cc` to build the reference solver refsat")
    return SolverConfig(exe, timeout, **kw)


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


_ANSI = re.compile(r"\x1b\[[0-9;]*[A-Za-z]")


def _lines(text: str) -> list[str]:
    """The lines of solver output without decorations (colors, blanks)."""
    return [_ANSI.sub("", raw).strip() for raw in text.splitlines()]


def parse_solver_output(text: str) -> tuple[str, Optional[frozenset[int]]]:
    """SAT-competition output: verdict plus the set of true variables.

    Returns one of ("SAT", vars), ("UNSAT", None), ("UNKNOWN", None); the
    status line may carry solver decorations (colors, a file name suffix).
    Output with a second status line contradicts itself: UNKNOWN.
    """
    verdict = "UNKNOWN"
    true_vars: set[int] = set()
    saw_model = False
    statuses = 0
    for line in _lines(text):
        if line.startswith("s "):
            statuses += 1
            if "UNSATISFIABLE" in line:
                verdict = "UNSAT"
            elif "SATISFIABLE" in line:
                verdict = "SAT"
        elif line.startswith("v ") or line == "v":
            saw_model = True
            for tok in line[1:].split():
                try:
                    lit = int(tok)
                except ValueError:
                    return "UNKNOWN", None
                if lit > 0:
                    true_vars.add(lit)
    if statuses > 1 or (verdict == "SAT" and not saw_model):
        return "UNKNOWN", None
    return verdict, frozenset(true_vars) if verdict == "SAT" else None


def dimacs_chunks(cnf: Cnf) -> Iterator[str]:
    """The DIMACS text of cnf in pieces of _LIT_CHUNK literals, the header
    with the first, so a writer holds one piece at a time."""
    for start in range(0, max(cnf.lits.size, 1), _LIT_CHUNK):
        yield to_dimacs(cnf, start, start + _LIT_CHUNK)


def solve_file(path: str | Path, config: SolverConfig,
               stop: Optional[StopEvent] = None) -> SolveResult:
    """Run the solver on the DIMACS file at path; wall-clock timeout kills it.

    The command is the executable, the arguments that KNOWN_SOLVERS holds
    for its file name (none for another name), then path.  solve_file is
    the one reader of those arguments.

    solve_file neither writes nor removes path, so the caller decides
    whether the file stays.  Unparseable or crashed runs come back as
    TIMEOUT-class failures with the captured log, whose cmd: line names
    path.  A run is crashed when a signal that stop did not send ends it,
    or when its exit code 10 (SAT) or 20 (UNSAT) contradicts its status
    line; exit 20 without a status line is UNSAT.  A run killed by stop
    settled nothing: it comes back CANCELLED.  A solver that fails to
    launch raises RuntimeError.
    """
    stop = stop or StopEvent()
    cmd = [config.executable, *KNOWN_SOLVERS.get(Path(config.executable).name, ()), str(path)]
    start = time.monotonic()
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except OSError as exc:
        raise RuntimeError(f"failed to launch solver {config.executable!r}: {exc}") from exc
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
        return SolveResult("CANCELLED", None, elapsed, "")
    verdict, true_vars = parse_solver_output(stdout)
    exit_verdict = {10: "SAT", 20: "UNSAT"}.get(proc.returncode)
    if exit_verdict == "UNSAT" and not any(line.startswith("s ") for line in _lines(stdout)):
        verdict = "UNSAT"  # SAT-competition exit code, for quiet solvers
    if proc.returncode < 0 or exit_verdict not in (None, verdict):
        verdict = "UNKNOWN"  # a crash, or an exit code against the status line
    if verdict == "UNKNOWN":
        log = f"cmd: {' '.join(cmd)}\nexit: {proc.returncode}\n{stdout}\n{stderr}"
        return SolveResult("TIMEOUT", None, elapsed, log)
    return SolveResult(verdict, true_vars, elapsed, "")


def run_solver(cnf: Cnf, config: SolverConfig, name: str = "instance",
               stop: Optional[StopEvent] = None) -> SolveResult:
    """Write cnf to {name}.cnf in config.workdir and solve_file it.

    The CNF goes to its file through dimacs_chunks, one piece at a time,
    so no whole-formula text is held.  One rule decides whether the file
    stays: a CNF is kept only beside a TIMEOUT-class result, for
    post-mortem.  Every other outcome removes it: SAT, UNSAT, CANCELLED,
    and a write, a launch or a run that raises, an interrupt included.
    Without a workdir the run works in a temporary directory that it
    removes whatever the outcome, so only a workdir that the caller names
    keeps a CNF.

    The log of a TIMEOUT-class run is in the result: a direct caller of
    run_solver or solve_file gets it, sortnetopt solve prints it, and a
    campaign keeps its cmd: and exit: lines and its tail in the report.
    Without a workdir, its cmd: line names a CNF that has already been
    removed, so the log ends with a line that says so: sortnetopt encode
    rebuilds an instance's CNF from its spec, for a rerun with sortnetopt
    solve.
    """
    temp = config.workdir is None
    with (tempfile.TemporaryDirectory(prefix="sortnetopt-") if temp
          else nullcontext(config.workdir)) as workdir:
        path = Path(workdir) / f"{name}.cnf"
        path.parent.mkdir(parents=True, exist_ok=True)
        res = None
        try:
            with path.open("w") as out:
                out.writelines(dimacs_chunks(cnf))
            res = solve_file(path, config, stop)
        finally:
            if res is None or res.verdict != "TIMEOUT":   # the one outcome that keeps a CNF
                path.unlink(missing_ok=True)
    if temp and res.verdict == "TIMEOUT":
        res.log += f"\n{name}.cnf was not kept: sortnetopt encode rebuilds it from its spec"
    return res

"""External SAT solver orchestration over DIMACS files.

The solver is found by find_solver: $SAT_SOLVER, a known solver on PATH
or in a user bin dir, and last the package's own reference solver
refsat, which reference_solver compiles from the refsat.c shipped with
the package when a C compiler `cc` is on PATH.

Every solver run is a SolverRun, which writes its CNF, starts the solver
and classifies the finished run, and reap is the one wait: it reads the
output of any number of runs and hands back the first that ends.
solve_file and run_solver start one run and wait for it; a campaign
keeps several running and reaps them as they end.
"""

from __future__ import annotations

import os
import re
import selectors
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from subprocess import PIPE, Popen
from typing import Collection, Iterator, Optional

from .encoding import Cnf, to_dimacs

# the known solvers, in lookup order, each with the arguments that force
# plain machine-readable output
KNOWN_SOLVERS = {"splr": ("-q", "-C", "-r", "-"), "kissat": ("-q",), "cadical": ("-q",),
                 "cryptominisat5": ("--verb", "0"), "glucose": (), "minisat": (), "picosat": ()}

_EXTRA_DIRS = ("~/.local/bin", "~/.cargo/bin")

REFSAT_SOURCE = Path(__file__).with_name("refsat.c")

DEFAULT_TIMEOUT = 600.0   # seconds of wall clock per solver run

_LIT_CHUNK = 1 << 13      # literals of a formula rendered and written at a time


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
    (KNOWN_SOLVERS, read by SolverRun)."""
    executable: str
    timeout: float = DEFAULT_TIMEOUT
    workdir: Optional[str] = None   # None: a temp dir per run, always removed

    def __post_init__(self):
        if not self.timeout > 0:   # NaN too
            raise ValueError("timeout must be positive")


def default_config(timeout: float = DEFAULT_TIMEOUT, executable: Optional[str] = None,
                   **kw) -> SolverConfig:
    """Config for the given binary, or the one find_solver() locates (the
    reference solver last, which a first call compiles); it only resolves
    the executable, whose flags SolverRun looks up.  RuntimeError when
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
    verdict: str                               # SAT | UNSAT | TIMEOUT
    true_vars: Optional[frozenset[int]] = None
    solve_time: float = 0.0
    log: str = ""


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
    with the first, so a writer holds one piece at a time.

    This is the one place that bounds how much text a formula's writer
    holds (SolverRun, sortnetopt encode): to_dimacs renders each slice in
    one step.
    """
    for start in range(0, max(cnf.lits.size, 1), _LIT_CHUNK):
        yield to_dimacs(cnf, start, start + _LIT_CHUNK)


class SolverRun:
    """One solver run on a DIMACS file: it writes the file, starts the
    solver and classifies the finished run.

    SolverRun.write(cnf, config, name) writes cnf to {name}.cnf in
    config.workdir, or in a temporary directory of its own without one,
    through dimacs_chunks, one piece at a time, so no whole-formula text
    is held.  That file is the run's: it is kept only beside a
    TIMEOUT-class result, for post-mortem, and removed on every other
    outcome, a write, a launch or a run that raises included; the
    temporary directory goes whatever the outcome.  SolverRun(config,
    path) runs on the caller's file and never writes or removes it.

    The command is the executable, the arguments that KNOWN_SOLVERS holds
    for its file name (none for another name), then the path; the
    constructor is the one reader of those arguments and the package's
    one subprocess.Popen.  A solver that fails to launch raises
    RuntimeError.  reap reads the run to its end, or kills it
    config.timeout after its start, and closes it with its result.

    Closing a run kills the process it started and nothing else: a
    wrapper script must exec its engine, or the engine outlives a timeout
    or a stop.  The solver shares the caller's session and process group,
    so killing the group of a campaign's process stops its solvers too.
    """

    def __init__(self, config: SolverConfig, path: str | Path, cnf: Optional[Cnf] = None,
                 tempdir: Optional[str] = None):
        self.path, self.written, self.tempdir = Path(path), cnf is not None, tempdir
        try:
            if cnf is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("w") as out:
                    out.writelines(dimacs_chunks(cnf))
            self.start = time.monotonic()
            self.deadline = self.start + config.timeout
            flags = KNOWN_SOLVERS.get(Path(config.executable).name, ())
            try:
                self.proc = Popen([config.executable, *flags, str(path)], stdout=PIPE, stderr=PIPE)
            except OSError as exc:
                raise RuntimeError(f"failed to launch solver {config.executable!r}: {exc}") from exc
        except BaseException:
            self._remove(keep=False)
            raise
        self.output = {self.proc.stdout: [], self.proc.stderr: []}   # pipe: the bytes read
        self.open_pipes = set(self.output)

    @classmethod
    def write(cls, cnf: Cnf, config: SolverConfig, name: str = "instance") -> SolverRun:
        """Write cnf to {name}.cnf in config.workdir, or in a temporary
        directory of its own, and start the solver on it."""
        tempdir = tempfile.mkdtemp(prefix="sortnetopt-") if config.workdir is None else None
        return cls(config, Path(tempdir or config.workdir) / f"{name}.cnf", cnf, tempdir)

    def _remove(self, keep: bool) -> None:
        """Remove the CNF the run wrote, unless keep, and its temporary directory."""
        if self.written and not keep:
            self.path.unlink(missing_ok=True)
        if self.tempdir is not None:
            shutil.rmtree(self.tempdir, ignore_errors=True)

    def close(self, keep: bool = False) -> None:
        """Kill the solver if it still runs, reap it, close its pipes and
        remove what the run wrote, its CNF too unless keep.  Called alone,
        it ends a run that settles nothing."""
        self.proc.kill()
        self.proc.wait()
        for pipe in self.output:
            pipe.close()
        self._remove(keep)

    def _finish(self, timed_out: bool) -> SolveResult:
        """The run's result; the run is closed, a TIMEOUT-class run's CNF kept."""
        try:   # the solver is ending, unless it closed its pipes early or timed out
            self.proc.wait(max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            timed_out = True
        elapsed = time.monotonic() - self.start
        res = (SolveResult("TIMEOUT", None, elapsed, "wall-clock timeout") if timed_out
               else self._classify(elapsed))
        keep = res.verdict == "TIMEOUT"
        if self.tempdir is not None and keep:
            res.log += f"\n{self.path.name} was not kept: sortnetopt encode rebuilds it from its spec"
        self.close(keep)
        return res

    def _classify(self, elapsed: float) -> SolveResult:
        """The ended run's result.  Unparseable or crashed runs are
        TIMEOUT-class failures with the captured log, whose cmd: line
        names the path.  A run is crashed when a signal ends it, or when
        its exit code 10 (SAT) or 20 (UNSAT) contradicts its status line;
        exit 20 without a status line is UNSAT."""
        stdout, stderr = (b"".join(out).decode(errors="replace") for out in self.output.values())
        code = self.proc.returncode
        verdict, true_vars = parse_solver_output(stdout)
        exit_verdict = {10: "SAT", 20: "UNSAT"}.get(code)
        if exit_verdict == "UNSAT" and not any(line.startswith("s ") for line in _lines(stdout)):
            verdict = "UNSAT"  # SAT-competition exit code, for quiet solvers
        if code < 0 or exit_verdict not in (None, verdict):
            verdict = "UNKNOWN"  # a crash, or an exit code against the status line
        if verdict == "UNKNOWN":
            log = f"cmd: {' '.join(self.proc.args)}\nexit: {code}\n{stdout}\n{stderr}"
            return SolveResult("TIMEOUT", None, elapsed, log)
        return SolveResult(verdict, true_vars, elapsed, "")


def reap(runs: Collection[SolverRun]) -> tuple[SolverRun, SolveResult]:
    """Read the runs' stdout and stderr as they come, until one run ends or
    passes its deadline and is killed: that run and its result.

    Every pipe is drained while its solver runs, so no solver blocks on a
    full pipe, however long its model.  The other runs keep running, with
    what they printed so far kept for the next call.  An error or an
    interrupt closes every run, which kills its solver.
    """
    try:
        with selectors.DefaultSelector() as selector:
            for run in runs:
                for pipe in run.open_pipes:
                    selector.register(pipe, selectors.EVENT_READ, run)
            while True:
                late = min(runs, key=lambda run: run.deadline)
                left = late.deadline - time.monotonic()
                if left <= 0:
                    return late, late._finish(timed_out=True)
                for key, _ in selector.select(left):
                    run, data = key.data, os.read(key.fd, 1 << 16)
                    if data:
                        run.output[key.fileobj].append(data)
                        continue
                    selector.unregister(key.fileobj)
                    run.open_pipes.discard(key.fileobj)
                    if not run.open_pipes:
                        return run, run._finish(timed_out=False)
    except BaseException:
        for run in runs:
            run.close()
        raise


def solve_file(path: str | Path, config: SolverConfig) -> SolveResult:
    """Run the solver on the DIMACS file at path and wait for its result.

    The file stays the caller's: the run neither writes nor removes it.
    The log of a TIMEOUT-class run names path on its cmd: line.
    """
    return reap([SolverRun(config, path)])[1]


def run_solver(cnf: Cnf, config: SolverConfig, name: str = "instance") -> SolveResult:
    """Write cnf to {name}.cnf in config.workdir, run the solver on it and
    wait for its result; SolverRun.write says which files stay.

    The log of a TIMEOUT-class run is in the result: a direct caller of
    run_solver or solve_file gets it, sortnetopt solve prints it, and a
    campaign keeps its cmd: and exit: lines and its tail in the report.
    Without a workdir, its cmd: line names a CNF that has already been
    removed, so the log ends with a line that says so: sortnetopt encode
    rebuilds an instance's CNF from its spec, for a rerun with sortnetopt
    solve.
    """
    return reap([SolverRun.write(cnf, config, name)])[1]

"""Stage-by-stage benchmark of the R_n -> CNF -> SAT -> claim pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script compiles the
reference solver bench/refsat/refsat.c with the system C compiler (once
per source hash, into .bench_build/), then runs the workload in fresh
worker processes (bench/worker.py): as many as the workload's nominal
repetition time fits in --seconds, and at least one.  Each worker sees
the solver only through SAT_SOLVER.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json as
medians over the repetitions (peak RSS: the highest one); with --trace 1
it alternates untraced and traced repetitions and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A full result file with
the environment and one record per instance goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
BUILD = ROOT / ".bench_build"
OUT = BENCH / "out"
SOLVER_SRC = BENCH / "refsat" / "refsat.c"
DEADLINE_S = 165.0      # every repetition must have ended by then
SETUP_SAMPLES = 9       # set-up (about 0.15 s) is measured in at least this many processes
STATS_RE = re.compile(r"(\S+)\.cnf (SAT|UNSAT) conflicts=(\d+) .*peak_rss_kb=(\d+) cpu_s=(\S+)")


class BenchError(RuntimeError):
    pass


def build_solver() -> tuple[Path, float, str, str]:
    """Compile refsat unless this source was built before; returns the
    executable, the build time (0 when cached), the compiler and the
    source hash."""
    src = SOLVER_SRC.read_bytes()
    digest = hashlib.sha256(src).hexdigest()
    cc = shutil.which("cc")
    if cc is None:
        raise BenchError("no C compiler `cc` on PATH")
    cc_version = subprocess.run([cc, "--version"], capture_output=True, text=True).stdout.splitlines()[0]
    exe = BUILD / f"refsat-{digest[:16]}" / "refsat"
    build_s = 0.0
    if not exe.is_file():
        exe.parent.mkdir(parents=True, exist_ok=True)
        tmp = exe.with_name(f"refsat.{os.getpid()}.tmp")
        t0 = time.perf_counter()
        proc = subprocess.run([cc, "-O2", "-std=c11", "-o", str(tmp), str(SOLVER_SRC)],
                              capture_output=True, text=True)
        build_s = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"refsat failed to compile:\n{proc.stderr}")
        os.replace(tmp, exe)
    return exe, build_s, cc_version, digest


def steal_s() -> float | None:
    """CPU time the hypervisor gave to others, from /proc/stat (Linux)."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    def __init__(self, args, exe: Path, rundir: Path, started: float):
        self.args, self.exe, self.rundir, self.started = args, exe, rundir, started
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def rep(self, trace: int, setup_only: bool = False) -> dict:
        """One worker process; returns its document plus solver statistics."""
        self.count += 1
        workdir = self.rundir / f"rep{self.count}"
        (workdir / "cnf").mkdir(parents=True)
        out = workdir / "result.json"
        stats = workdir / "refsat.stats"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env.update(SAT_SOLVER=str(self.exe), REFSAT_SEED=str(self.args.seed), REFSAT_STATS=str(stats))
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--trace", str(trace),
               "--workdir", str(workdir), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        t0 = time.monotonic()
        # a session of its own, so that a timeout also stops the solvers
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.args.workload} worker did not finish before the deadline")
        finally:
            try:    # the worker, if still running, and any solver it left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise BenchError(f"{self.args.workload} worker exited with code {code}")
        doc = json.loads(out.read_text())
        doc["process_s"] = time.monotonic() - t0
        doc["leftover_cnfs"] = len(list((workdir / "cnf").glob("*.cnf")))
        lines = stats.read_text().splitlines() if stats.exists() else []
        solves = {m[1]: m for m in map(STATS_RE.match, lines) if m}
        doc["solver_conflicts"] = sum(int(m[3]) for m in solves.values())
        doc["solver_peak_rss_mb"] = max((int(m[4]) / 1024 for m in solves.values()), default=0.0)
        doc["solver_runs"] = len(lines)
        for rec in doc.get("records", ()):
            m = solves.get(rec.get("name"))
            if m:
                rec.update(conflicts=int(m[3]), solver_peak_rss_mb=int(m[4]) / 1024,
                           solver_cpu_s=float(m[5]))
        shutil.rmtree(workdir)
        src = Path(doc["sortnetopt"])
        if src != (ROOT / "src" / "sortnetopt").resolve():
            raise BenchError(f"worker imported sortnetopt from {src}, not from this checkout")
        return doc

    def loop(self, step, reps_per_step: int) -> list:
        """Run step() as often as the workload's nominal repetition time fits
        in --seconds, at least once.  The count does not depend on how fast
        this machine happens to be, so every run takes its median over the
        same number of steps; a run that would overrun the deadline fails."""
        count = max(1, int(self.args.seconds // (reps_per_step * WORKLOADS[self.args.workload].rep_s)))
        results, took = [], 0.0
        for _ in range(count):
            if self.remaining() < took + 5:
                raise BenchError(f"{count} steps of {self.args.workload} do not fit before the deadline")
            t0 = time.monotonic()
            results.append(step())
            took = max(took, time.monotonic() - t0)
        return results


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    env = {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
           "python": platform.python_version(), "platform": platform.platform()}
    steal0 = steal_s()

    if not (ROOT / "src" / "sortnetopt" / "__init__.py").is_file():
        print(f"bench: no sortnetopt source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exe, build_s, cc_version, digest = build_solver()
    env.update(cc=cc_version, refsat_sha256=digest, git_revision=git_revision())

    BUILD.mkdir(exist_ok=True)
    rundir = BUILD / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    runner = Runner(args, exe, rundir, started)
    try:
        if args.trace:
            pairs = runner.loop(lambda: (runner.rep(0), runner.rep(1)), 2)
            plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
            reps = plain + traced
        else:
            reps = plain = runner.loop(lambda: runner.rep(0), 1)
            setups = [r["setup_s"] for r in plain]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.rep(0, setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(max(r["failed"], r["leftover_cnfs"]) for r in reps)
    errors = [e for r in reps for e in r["errors"]]
    if args.trace:
        figures = {}
        for name in traced[0]["layers"]:
            figures[name] = median(r["layers"][name] for r in traced)
        figures["solver.conflicts"] = median(r["solver_conflicts"] for r in traced)
        figures["solver.peak_rss_mb"] = median(r["solver_peak_rss_mb"] for r in traced)
        figures["trace.overhead_s"] = figures["trace.wall_s"] - median(r["wall_s"] for r in plain)
        figures["failed_frac"] = failed / attempted
        wanted = spec["per_layer"]
    else:
        figures = {"setup_s": median(setups),
                   "wall_s": median(r["wall_s"] for r in plain),
                   "cpu_s": median(r["cpu_s"] for r in plain),
                   # the highest peak: two campaign threads building large
                   # formulas at the same moment or not makes it bimodal
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in plain)}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not errors
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    env["numpy"] = reps[0].get("numpy")
    if steal0 is not None:
        env["steal_s"] = steal_s() - steal0      # all CPUs, over the whole run
    OUT.mkdir(exist_ok=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "solver_build_s": build_s,
              "errors": errors, **line, "figures": figures, "repetitions": reps}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    for e in errors:
        print(f"bench: {e}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    # on SIGTERM, unwind so that the worker's process group is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)

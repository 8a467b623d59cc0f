"""One repetition of one benchmark workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --out RESULT.json [--setup-only]

The process imports sortnetopt from the source tree found on PYTHONPATH,
times its set-up and its main call, checks the outputs, and writes one
JSON document to --out.  With --trace 1 the library is instrumented
through bench/spans.py and the document carries per-layer figures and one
record per encoded instance.  run.py starts this script; it is not meant
to be run by hand except for debugging.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import re
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import spans as spans_mod

# numpy and sortnetopt are imported inside functions only: the measured
# set-up of a repetition starts with the import of sortnetopt, numpy included

JOBS = 2
MAX_LAYERS = 7          # deepest network any workload encodes (compute-t9, d = 7)
DIFF_RE = re.compile(r"n=(\d+) (\w+): computed (\d+), published (\d+)$")

# spans that come before the build of an instance, and spans that come
# after it on the same thread; see InstanceLog
PRE_STAGES = {"networks.unsorted_inputs", "networks.windows", "encoding.varmap",
              "encoding.structure", "encoding.symmetry", "encoding.fixed_prefix",
              "encoding.input_sort"}
POST_STAGES = {"encoding.to_dimacs", "solver.run_solver", "solver.parse",
               "encoding.decode", "networks.verify"}


def child_cpu_now() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime + child_cpu_now()


class Clock:
    """Accumulates wall and CPU time over the timed sections of a run."""

    def __init__(self):
        self.wall = self.cpu = self.child_cpu = 0.0

    @contextlib.contextmanager
    def timed(self):
        w0, c0, k0 = time.perf_counter(), cpu_now(), child_cpu_now()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w0
            self.cpu += cpu_now() - c0
            self.child_cpu += child_cpu_now() - k0


# ---------------------------------------------------------------------------
# independent checks

def sorts_all(n: int, layers) -> bool:
    """Zero-one principle, evaluated here rather than by the library."""
    for x in range(1 << n):
        v = x
        for layer in layers:
            for i, j in layer:
                if (v >> (i - 1)) & 1 > (v >> (j - 1)) & 1:
                    v ^= (1 << (i - 1)) | (1 << (j - 1))
        ones = bin(v).count("1")
        if v != ((1 << ones) - 1) << (n - ones):   # ones on the top channels
            return False
    return True


def refuted_indices(camp) -> set:
    return {r.prefix_index for r in camp.instances if r.verdict == "UNSAT"}


# ---------------------------------------------------------------------------
# per-instance records, rebuilt from span arguments and returned objects

class InstanceLog:
    """Span listener that turns build/run_solver calls into instance records.

    Stages before a build (input set, window filter, clause generation)
    accumulate per thread and join the record the build creates; stages
    after it (DIMACS text, solver, decoding) join that record.  run_solver
    writes the DIMACS text itself, so the to_dimacs spans nested in its
    span are left out of the record's io_s.
    """

    def __init__(self, prefix_index: dict):
        self.prefix_index = prefix_index      # (n, Network) -> index into R_n
        self.records: list[dict] = []
        self.totals: dict[str, float] = defaultdict(float)
        self._builds: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self):
        st = self._local
        if not hasattr(st, "pending"):
            st.pending, st.current, st.dimacs = defaultdict(float), None, []
        return st

    def __call__(self, name, span, args, kwargs, result) -> None:
        dur = span[spans_mod.END] - span[spans_mod.START]
        st = self._state()
        if name in PRE_STAGES:
            st.pending[name] += dur
        elif name == "encoding.build":
            st.current = rec = self._record_build(args, kwargs, result)
            rec["stage_s"] = dict(st.pending)
            rec["stage_s"][name] = dur
            st.pending = defaultdict(float)
        elif name in POST_STAGES and st.current is not None:
            stages = st.current["stage_s"]
            stages[name] = stages.get(name, 0.0) + dur
            if name == "solver.run_solver":
                nested = sum(d for start, d in st.dimacs if start >= span[spans_mod.START])
                st.dimacs = []
                self._record_solve(st.current, args, kwargs, result, dur - nested)
        if name == "encoding.to_dimacs":
            st.dimacs.append((span[spans_mod.START], dur))
            with self._lock:
                self.totals["dimacs_bytes"] += len(result)

    def _record_build(self, args, kwargs, result) -> dict:
        n, d = args[0], args[1]
        opts = args[3] if len(args) > 3 else kwargs.get("opts")
        vm, cnf = result
        prefix = getattr(opts, "prefix", None)
        rec = {"n": n, "d": d, "prefix_index": self.prefix_index.get((n, prefix)),
               "pad": getattr(opts, "pad", 0), "verdict": None,
               "inputs_kept": len(vm.inputs), "vars": cnf.num_vars,
               "clauses": len(cnf.clauses), "clauses_per_layer": None}
        with self._lock:
            self.records.append(rec)
            self._builds.append((rec, opts))
        return rec

    def count_layers(self, so) -> None:
        """Clauses per network layer, outside the timed run: each instance is
        encoded again from the input set the campaign uses, and a clause
        counts for the largest layer among its comparator and used-channel
        variables.  A record whose formula comes out different keeps None."""
        import numpy as np
        for rec, opts in self._builds:
            n, d = rec["n"], rec["d"]
            xs = so.networks.unsorted_inputs(n, getattr(opts, "prefix", None))
            vm, cnf = so.encoding.build(n, d, xs, opts)
            if (len(vm.inputs), cnf.num_vars, len(cnf.clauses)) != \
                    (rec["inputs_kept"], rec["vars"], rec["clauses"]):
                continue
            layer_of = np.zeros(cnf.num_vars + 1, dtype=np.int64)
            for l in range(1, d + 1):
                for i in range(1, n + 1):
                    layer_of[vm.u(l, i)] = l
                    for j in range(i + 1, n + 1):
                        layer_of[vm.c(l, i, j)] = l
            lens = np.fromiter(map(len, cnf.clauses), dtype=np.int64, count=len(cnf.clauses))
            flat = np.fromiter(itertools.chain.from_iterable(cnf.clauses), dtype=np.int64,
                               count=int(lens.sum()))
            starts = np.concatenate(([0], np.cumsum(lens)[:-1]))[lens > 0]
            per_clause = np.maximum.reduceat(layer_of[np.abs(flat)], starts) if flat.size else flat
            rec["clauses_per_layer"] = [int(c) for c in np.bincount(per_clause, minlength=d + 1)[1:]]
            del vm, cnf, flat

    def _record_solve(self, rec, args, kwargs, result, dur) -> None:
        """dur: the run_solver span without the DIMACS text built inside it."""
        name = kwargs.get("name", args[2] if len(args) > 2 else None)
        rec["name"] = name
        rec["verdict"] = result.verdict
        rec["solver_s"] = result.solve_time
        rec["io_s"] = dur - result.solve_time


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Set-up, main call and correctness gate of one workload."""
    n = 0
    uses_solver = False
    # typical wall time of one untraced repetition on a 2-vCPU x86-64 VM;
    # run.py derives the repetition count from it, never from a measurement
    rep_s = 0.0

    def setup(self, so, seed, workdir):
        self.prefixes = so.campaign.two_layer_prefixes(self.n)
        if self.uses_solver:
            # CNFs of failed solver runs stay here, where run.py counts them
            self.config = so.solver.default_config(workdir=str(Path(workdir) / "cnf"))

    def run(self, so, clock):
        raise NotImplementedError

    def check(self, so) -> list[str]:
        return []

    def campaigns(self) -> list:
        return []

    def operations(self) -> tuple[int, int]:
        """(attempted, failed): solver instances, failed = TIMEOUT or unparseable."""
        instances = [r for camp in self.campaigns() for r in camp.instances]
        return len(instances), sum(r.verdict == "TIMEOUT" for r in instances)


class ComputeT9(Workload):
    n = 9
    rep_s = 15.0
    uses_solver = True

    def run(self, so, clock):
        with clock.timed():
            self.t, self.camps = so.campaign.compute_T(self.n, config=self.config, jobs=JOBS)

    def campaigns(self):
        return self.camps

    def check(self, so):
        errs = []
        if self.t != 7:
            errs.append(f"compute_T(9) returned {self.t}, expected 7")
        every = set(range(len(self.prefixes)))
        for camp in self.camps[:-1]:
            d = camp.instances[0].depth if camp.instances else None
            if camp.claim != f"T(9) > {d}" or refuted_indices(camp) != every:
                errs.append(f"lower campaign at depth {d} did not refute every prefix: {camp.claim}")
        last = self.camps[-1]
        wit = [r.witness for r in last.instances if r.verdict == "SAT" and r.pad == 0]
        if last.claim != "T(9) <= 7" or not wit:
            errs.append(f"last campaign claims {last.claim!r} without a pad-0 witness")
        for w in wit:
            if w.n != 9 or w.depth > 7 or not sorts_all(9, w.layers):
                errs.append(f"witness fails the independent check: {w.to_json()}")
        return errs


class LowerBound10(Workload):
    n = 10
    rep_s = 10.0
    uses_solver = True

    def run(self, so, clock):
        with clock.timed():
            self.camp = so.campaign.prove_lower_bound(self.n, 6, config=self.config, jobs=JOBS)

    def campaigns(self):
        return [self.camp]

    def check(self, so):
        errs = []
        if self.camp.claim != "T(10) > 6":
            errs.append(f"prove_lower_bound(10, 6) claims {self.camp.claim!r}")
        if refuted_indices(self.camp) != set(range(len(self.prefixes))):
            errs.append("not every prefix of R_10 has an UNSAT instance")
        return errs


class PrefixSets(Workload):
    """The CLI's prefix-set and count-table commands, run in-process."""
    n = 12
    rep_s = 15.0

    def setup(self, so, seed, workdir):
        super().setup(so, seed, workdir)
        self.sn_path = Path(workdir) / "sn12.txt"
        self.csv_path = Path(workdir) / "tables.csv"

    def run(self, so, clock):
        err = io.StringIO()
        with clock.timed():
            self.codes = [so.cli.main(["gen", "--n", "12", "--set", "sn", "--out", str(self.sn_path)])]
            with contextlib.redirect_stderr(err):
                self.codes.append(so.cli.main(["tables", "--max-n", "20", "--out", str(self.csv_path)]))
        self.diff = err.getvalue()

    def check(self, so):
        errs = []
        if self.codes != [0, 0]:
            errs.append(f"exit codes {self.codes}")
        lines = self.sn_path.read_text().splitlines()
        want = so.saturation.saturated_layer_count(12)
        if len(lines) != want:
            errs.append(f"gen sn printed {len(lines)} layers, saturated_layer_count(12) = {want}")
        rows = self.csv_path.read_text().splitlines()
        if len(rows) != 19 or rows[0] != "n,G,RG,S,RS,R,A":
            errs.append(f"tables CSV has {len(rows)} lines")
        for line in self.diff.splitlines()[1:]:
            m = DIFF_RE.match(line)
            if not m or m[2] != "S":
                errs.append(f"unexpected table difference: {line}")
        if not self.diff.startswith("differences against the published tables:"):
            errs.append("the known S-column difference was not reported")
        return errs

    def operations(self):
        return len(self.codes), 0


WORKLOADS = {"compute-t9": ComputeT9, "lower-bound-10": LowerBound10,
             "prefix-sets": PrefixSets}


def trace_targets():
    """(module, attribute, span name, kind) for every traced layer boundary."""
    from sortnetopt import campaign, cli, encoding, saturation, solver, words
    targets = [
        (campaign, "compute_T", "campaign.compute_T", "call"),
        (campaign, "prove_lower_bound", "campaign.prove_lower_bound", "call"),
        (campaign, "reproduce_tables", "campaign.reproduce_tables", "call"),
        (campaign, "two_layer_prefixes", "words.prefixes", "call"),
        (words, "sentences", "words.sentences", "gen"),
        (words, "counts", "words.counts", "call"),
        (saturation, "is_saturated", "saturation.is_saturated", "call"),
        (saturation, "saturated_layer_count", "saturation.layer_count", "call"),
        (cli, "main", "cli.main", "call"),
        (encoding, "windows", "networks.windows", "call"),
        (encoding, "VarMap", "encoding.varmap", "class"),
        (encoding, "encode_structure", "encoding.structure", "call"),
        (encoding, "encode_symmetry", "encoding.symmetry", "call"),
        (encoding, "encode_fixed_prefix", "encoding.fixed_prefix", "call"),
        (encoding, "encode_input_sort", "encoding.input_sort", "call"),
        (solver, "to_dimacs", "encoding.to_dimacs", "call"),
        (solver, "parse_solver_output", "solver.parse", "call"),
        (campaign, "unsorted_inputs", "networks.unsorted_inputs", "call"),
        (campaign, "build", "encoding.build", "call"),
        (campaign, "run_solver", "solver.run_solver", "call"),
        (campaign, "decode_network", "encoding.decode", "call"),
        (campaign, "is_sorting_network", "networks.verify", "call"),
        (cli, "is_saturated", "saturation.is_saturated", "call"),
    ]
    return targets


def layer_figures(tracer, log, work, traced_wall) -> dict:
    """Per-layer metrics of a traced run (times are self times over all threads)."""
    spans = tracer.spans
    self_s = spans_mod.self_times(spans)
    calls = defaultdict(int)
    for span in spans:
        calls[span[spans_mod.NAME]] += 1
    instances = [r for camp in work.campaigns() for r in camp.instances]
    padded = [r for r in instances if r.pad > 0]
    campaign_wall = sum(s[spans_mod.END] - s[spans_mod.START] for s in spans
                        if s[spans_mod.NAME] == "campaign.prove_lower_bound")
    busy = spans_mod.thread_busy(spans, tracer.main_thread)
    recs = log.records
    per_layer = [0] * MAX_LAYERS
    for r in recs:
        for l, c in enumerate((r["clauses_per_layer"] or [])[:MAX_LAYERS]):
            per_layer[l] += c
    solved = [r for r in recs if r.get("verdict")]
    f = {
        "campaign.instances": len(instances),
        "campaign.sat": sum(r.verdict == "SAT" for r in instances),
        "campaign.unsat": sum(r.verdict == "UNSAT" for r in instances),
        "campaign.timeout": sum(r.verdict == "TIMEOUT" for r in instances),
        "campaign.padded_sat_frac": (sum(r.verdict == "SAT" for r in padded) / len(padded)) if padded else 0.0,
        "campaign.self_s": sum(v for k, v in self_s.items() if k.startswith("campaign.")),
        "campaign.worker_busy_frac": busy / (JOBS * campaign_wall) if campaign_wall else 0.0,
        "words.prefixes_s": self_s.get("words.prefixes", 0.0),
        "words.sentences_s": self_s.get("words.sentences", 0.0),
        "words.counts_s": self_s.get("words.counts", 0.0),
        "saturation.is_saturated_s": self_s.get("saturation.is_saturated", 0.0),
        "saturation.is_saturated_calls": calls["saturation.is_saturated"],
        "saturation.layer_count_s": self_s.get("saturation.layer_count", 0.0),
        "networks.unsorted_inputs_s": self_s.get("networks.unsorted_inputs", 0.0),
        "networks.windows_s": self_s.get("networks.windows", 0.0),
        "networks.verify_s": self_s.get("networks.verify", 0.0),
        "encoding.build_s": self_s.get("encoding.build", 0.0),
        "encoding.varmap_s": self_s.get("encoding.varmap", 0.0),
        "encoding.input_sort_s": self_s.get("encoding.input_sort", 0.0),
        "encoding.structure_s": self_s.get("encoding.structure", 0.0),
        "encoding.symmetry_s": self_s.get("encoding.symmetry", 0.0) + self_s.get("encoding.fixed_prefix", 0.0),
        "encoding.to_dimacs_s": self_s.get("encoding.to_dimacs", 0.0),
        "encoding.decode_s": self_s.get("encoding.decode", 0.0),
        "encoding.instances": len(recs),
        "encoding.inputs_kept": sum(r["inputs_kept"] for r in recs),
        "encoding.vars": sum(r["vars"] for r in recs),
        "encoding.clauses": sum(r["clauses"] for r in recs),
        **{f"encoding.clauses.l{l + 1}": per_layer[l] for l in range(MAX_LAYERS)},
        "encoding.dimacs_mb": log.totals["dimacs_bytes"] / 2**20,
        "solver.calls": calls["solver.run_solver"],
        "solver.wall_s": sum(r.get("solver_s", 0.0) for r in solved),
        "solver.io_s": sum(r.get("io_s", 0.0) for r in solved),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.spans": len(spans),
        "trace.wall_s": traced_wall,
    }
    return f


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    work = WORKLOADS[args.workload]()

    t0 = time.perf_counter()
    import sortnetopt as so  # the measured set-up starts with this import
    import sortnetopt.cli  # noqa: F401  (the package does not import its CLI)
    tracer = log = None
    if args.trace:
        log = InstanceLog({})
        tracer = spans_mod.Tracer(listener=log)
        tracer.instrument(trace_targets())
    work.setup(so, args.seed, workdir)
    setup_s = time.perf_counter() - t0
    doc = {"setup_s": setup_s, "sortnetopt": str(Path(so.__file__).resolve().parent)}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(doc))
        return 0

    import numpy
    doc["numpy"] = numpy.__version__
    if log is not None:
        log.prefix_index = {(work.n, p): i for i, p in enumerate(work.prefixes)}
    clock = Clock()
    work.run(so, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
        log.count_layers(so)
    errors = work.check(so)

    attempted, failed = work.operations()
    instances = [r for camp in work.campaigns() for r in camp.instances]
    doc.update({
        "wall_s": clock.wall, "cpu_s": clock.cpu, "child_cpu_s": clock.child_cpu,
        "peak_rss_mb": peak_rss_mb, "attempted": attempted, "failed": failed, "errors": errors,
        "campaigns": [{"claim": c.claim, "instances": len(c.instances), "wall_time": c.wall_time}
                      for c in work.campaigns()],
    })
    if tracer is not None:
        doc["layers"] = layer_figures(tracer, log, work, clock.wall)
        doc["layers"]["solver.child_cpu_s"] = clock.child_cpu
        doc["records"] = log.records
    else:
        doc["records"] = [{"n": work.n, "d": r.depth, "prefix_index": r.prefix_index, "pad": r.pad,
                           "name": f"n{work.n}d{r.depth}p{r.prefix_index}w{r.pad}",
                           "verdict": r.verdict, "encode_s": r.encode_time, "solver_s": r.solve_time}
                          for r in instances]
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

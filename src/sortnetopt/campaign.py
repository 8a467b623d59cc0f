"""End-to-end campaigns: find optimal-depth networks, prove lower bounds.

What a campaign runs is one spec, a report.Campaign: n, the depth, the
task kind (two-layer, layer1 or free, the CLI's --mode names) and the pad
schedule.  find_network_campaign, prove_lower_bound and compute_T each
build one, and one scheduler, _campaign, runs it.  Its tasks are the
spec's prefixes: a Network, or None for a prefix-free search.  It walks
each task's pads once, largest first, and each pad is one round: a
report.Instance spec, which instance_formula alone turns into a formula,
named by the spec and solved once under the configured timeout.  Its jobs
workers are the calling thread and jobs - 1 helper threads; they take
turns building formulas, so one worker's build runs while the others
write or solve.  A lower-bound campaign runs every two-layer prefix in the
complete filter set R_n down its pad schedule; every prefix UNSAT proves
that no depth-d network exists.  A search runs the tasks of its mode with
pad 0 alone.  Window padding shrinks instances: UNSAT on the padded
subset already implies UNSAT on the full input set, while a SAT verdict
under padding is inconclusive and moves the task on to the next pad.

Tasks start in order of their prefix's number of unsorted outputs, fewest
first (the "fewest-outputs" ordering): that prefix leaves the fewest
inputs to sort, and for n = 5..11 it is SAT at depth T(n), so a depth
with a network ends on the first task.  Any order is sound: a claim needs
one pad-0 SAT or an UNSAT for every prefix, so the order never changes a
claim, and reports keep the R_n indices that the specs derive.  R_n,
this order and each prefix's input set depend on n alone and are computed
once per n.

compute_T climbs the depths with probes, the first few tasks of each
depth's spec, and runs the whole of R_n only at the depth below the first
network: T(n) = t rests on a witness at depth t and one refutation at
t - 1, which covers every smaller depth too.

The first pad-0 SAT settles the claim and kills the solvers still running.
Every SAT model is decoded and re-verified by direct evaluation, and the
witness behind a claim once more with is_sorting_network; a witness that
fails verification is a fatal internal error, never a result.  The
claim comes from the evidence rule of the report module, _evidence, which
also states why the claims it makes hold.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import words as words_mod
from .encoding import Cnf, EncodeOptions, VarMap, build, decode_network
from .networks import Network, _ascending_mask, _eval_array, is_sorting_network, unsorted_inputs
from .report import Campaign, CampaignResult, Instance, InstanceResult, _evidence
from .solver import SolverConfig, StopEvent, default_config, run_solver


def two_layer_prefixes(n: int) -> list[Network]:
    """The filter set R_n as networks, one prefix for each reflection orbit
    of the saturated classes rsn, in canonical sentence order."""
    return list(words_mod.rn_networks(n))


@lru_cache(maxsize=None)
def _task_inputs(n: int, prefix: Optional[Network]) -> tuple[np.ndarray, int]:
    """A prefix's input set, read-only, and how many of its inputs a pad-0
    build keeps: one per prefix image, as VarMap judges it."""
    xs = unsorted_inputs(n, prefix)
    xs.flags.writeable = False
    depth = prefix.depth if prefix is not None else 0
    return xs, len(VarMap(n, depth, xs, EncodeOptions(prefix=prefix)).inputs)


def instance_formula(inst: Instance, opts: EncodeOptions = EncodeOptions()) -> tuple[VarMap, Cnf]:
    """The one path from a spec to its formula: the input set of its prefix
    from _task_inputs, encoded under opts with the spec's pad and prefix."""
    xs, _ = _task_inputs(inst.n, inst.prefix)
    return build(inst.n, inst.depth, xs, replace(opts, pad=inst.pad, prefix=inst.prefix))


@lru_cache(maxsize=None)
def _fewest_outputs(n: int) -> tuple[Network, ...]:
    """The prefixes of R_n, fewest outputs first, ties in R_n order: the key
    is the count a pad-0 build keeps, one input per unsorted output."""
    return tuple(sorted(words_mod.rn_networks(n), key=lambda p: _task_inputs(n, p)[1]))


def default_pads(n: int, d: int) -> list[int]:
    """One padded try with windows of width d + 1, then the full input set.

    Returns [n - d - 1, 0], or [0] when n <= d + 2: pad 1 is never tried.
    On R_10 at d = 6 it made 21 instances, none a padded SAT, in about half
    the wall time of the old [6, 4, 0]; at a depth with a network it costs
    one cheap padded run on the first task.  Pad 1 falls at d = n - 2,
    which is T(n) - 1 for n = 6, 7 and a depth with a network for n >= 8,
    where a padded SAT proves nothing.  compute_T(n) with two jobs and
    refsat, median of 21 runs on a 2-vCPU VM, with pad 1 at d = n - 2 and
    without it:

        n = 6: 48 -> 47 ms    n = 8: 140 -> 119 ms
        n = 7: 90 -> 85 ms    n = 9: 440 -> 408 ms

    The README gives the other measurements.
    """
    return [n - d - 1, 0] if n > d + 2 else [0]


def _tasks(spec: Campaign) -> list[list[Instance]]:
    """The spec's instances, one list of rounds per prefix; the prefixes of
    R_n start fewest outputs first, a lone task needs no order."""
    rounds: dict[Optional[Network], list[Instance]] = {}
    for inst in spec.instances():
        rounds.setdefault(inst.prefix, []).append(inst)
    return [rounds[p] for p in (_fewest_outputs(spec.n) if len(rounds) > 1 else rounds)]


_LOG_TAIL = 2000   # characters a report keeps of a log after its cmd: and exit: lines


def _kept_log(log: str) -> str:
    """What a report keeps of a TIMEOUT-class run's log: the cmd: and
    exit: lines that solve_file writes first, then at most the last
    _LOG_TAIL characters of the rest."""
    if log.startswith("cmd: "):
        cmd, exit_line, rest = log.split("\n", 2)
        return f"{cmd}\n{exit_line}\n{rest[-_LOG_TAIL:]}"
    return log[-_LOG_TAIL:]   # a wall-clock timeout


def _campaign(spec: Campaign, config: SolverConfig, jobs: int, first: Optional[int] = None,
              prior: Optional[CampaignResult] = None) -> tuple[Optional[Network], CampaignResult]:
    """The one campaign scheduler behind find_network_campaign,
    prove_lower_bound and compute_T: it runs the spec.

    The tasks are the spec's prefixes, those of R_n fewest outputs first
    (_tasks; the order changes no claim).  It skips the tasks that prior
    ran and keeps the first `first` of the rest, all of them when first is
    None.  Each task walks the spec's pads once; each pad is one round, an
    Instance that instance_formula encodes with every formula reduction on,
    solved under config.timeout in files named by the spec, its model
    decoded.  Every round is solved, and an instance's encode_time is its
    own build, not the input set nor the wait for the turn.  A
    TIMEOUT-class round keeps its run's log, cut by _kept_log.

    The jobs workers are the calling thread and jobs - 1 helper threads,
    so jobs=1 starts no thread.  They share one lock, the turn.  A worker
    takes the next task position under it, so every task is handed out
    once, in task order.  It checks the stop and builds each round's
    formula under it, so at most one worker builds at a time.  The pad-0
    SAT and a failed worker set the stop under it, so no build starts
    after the stop; a worker that gets the turn after the stop returns
    without building.  The CNF write and the solver run outside the turn,
    so a worker's write starts as soon as its own build ends.  When the
    scan ends, the helpers are joined before the stop is set.  A worker
    that raises, or is interrupted, sets the stop first, which kills the
    others' solvers; then the helpers are joined and the first error is
    raised.  BENCH_compute-t9-turns.json and
    BENCH_lower-bound-10-caller.json hold the measurements behind the turn
    and behind helper threads in place of a thread pool.

    An UNSAT settles the task (windowed inputs are a subset of the full
    set); a padded SAT or TIMEOUT moves on to the next pad, and only pad 0
    can certify satisfiability.  A pad-0 TIMEOUT leaves the task open while
    the other tasks carry on.  The first pad-0 SAT sets the stop event,
    which kills the solvers still running.  A prior campaign at the same
    depth, run over other tasks, lends its instances and wall time, so the
    two make one campaign.  The instances are recorded in task order, the
    prior's first; the claim and its witness, the first pad-0 SAT in that
    order, come from _evidence, and the witness is re-checked with
    is_sorting_network.
    """
    t0 = time.monotonic()
    n = spec.n
    ran = {r.instance.prefix for r in prior.instances} if prior else set()
    tasks = [rounds for rounds in _tasks(spec) if rounds[0].prefix not in ran][:first]
    done: list[list[InstanceResult]] = [[] for _ in tasks]
    stop = StopEvent()
    turn = threading.Lock()
    positions = iter(range(len(tasks)))
    errors: list[BaseException] = []

    def settle(position: int) -> None:
        for inst in tasks[position]:
            with turn:
                if stop.is_set():
                    return
                t_build = time.monotonic()
                vm, cnf = instance_formula(inst)
                encode_time = time.monotonic() - t_build
            res = run_solver(cnf, config, name=inst.name, stop=stop)
            if res.verdict == "CANCELLED":
                return  # killed: the claim is already settled
            witness = None
            if res.verdict == "SAT":
                # a model must sort every input the formula kept
                witness = decode_network(vm, res.true_vars)
                if not _ascending_mask(_eval_array(witness, vm.inputs), n).all():
                    raise RuntimeError(f"solver model fails verification on instance {inst.name}")
            log = _kept_log(res.log) if res.verdict == "TIMEOUT" else ""
            done[position].append(InstanceResult(inst, res.verdict, encode_time,
                                                 res.solve_time, witness, len(vm.inputs),
                                                 cnf.num_vars, cnf.num_clauses, log))
            if res.verdict == "UNSAT":
                return
            if res.verdict == "SAT" and inst.pad == 0:
                with turn:
                    stop.set()

    def work() -> None:
        try:
            while True:
                with turn:
                    position = next(positions, None)
                if position is None:
                    return
                settle(position)
        except BaseException as exc:
            with turn:
                errors.append(exc)
                stop.set()  # a failed or interrupted worker kills the others' solvers

    helpers: list[threading.Thread] = []
    try:
        for _ in range(jobs - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
        for helper in helpers:
            helper.join()
    finally:
        stop.set()  # an interrupt in the join kills the helpers' solvers first
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]

    results = (list(prior.instances) if prior else []) + [r for rs in done for r in rs]
    claim, witness, _ = _evidence(n, spec.depth, results)
    if witness is not None and not is_sorting_network(witness):
        raise RuntimeError("decoded witness is not a sorting network")
    wall_time = time.monotonic() - t0 + (prior.wall_time if prior else 0.0)
    return witness, CampaignResult(n, claim, results, wall_time, spec)


def find_network_campaign(n: int, d: int, mode: str = "two-layer",
                          config: Optional[SolverConfig] = None,
                          jobs: int = 1) -> tuple[Optional[Network], CampaignResult]:
    """Search for a depth-d sorting network at pad 0: the verified witness,
    or None, with the campaign, whose claim tells proven absence from an
    inconclusive timeout.

    mode free: one instance over all unsorted inputs; layer1: the crossing
    first layer is fixed; two-layer: the prefixes of R_n, fewest unsorted
    outputs first, up to the first satisfiable instance.  The order only
    decides how soon a network is found, never whether.
    """
    return _campaign(Campaign(n, d, mode), config or default_config(), jobs)


def prove_lower_bound(n: int, d_prime: int,
                      pad_schedule: Optional[Sequence[int]] = None,
                      config: Optional[SolverConfig] = None,
                      jobs: int = 1) -> CampaignResult:
    """Try to prove T(n) > d_prime by refuting every prefix in R_n.

    Each prefix descends the pad schedule, which goes into the Campaign
    spec as given: the spec keeps the distinct pads below n, largest first,
    and ends at 0.  The default, default_pads(n, d_prime), tries windows of
    width d_prime + 1 (pad n - d_prime - 1, when that is at least 2) once
    and then the full input set; see default_pads for the measurements
    behind it.  A padded UNSAT refutes the prefix, and a padded SAT falls
    through to pad 0, so the schedule never changes a claim.
    """
    pads = default_pads(n, d_prime) if pad_schedule is None else pad_schedule
    return _campaign(Campaign(n, d_prime, "two-layer", pads), config or default_config(), jobs)[1]


def compute_T(n: int, config: Optional[SolverConfig] = None,
              jobs: int = 1) -> tuple[int, list[CampaignResult]]:
    """T(n) with its evidence: [refutation at T(n) - 1, witness campaign at T(n)].

    T(n) = t needs a depth-t network and one refutation at depth t - 1:
    a shallower network padded with empty layers is a depth-(t - 1)
    network, so the refutation covers every smaller depth as well.

    Each depth has one spec: R_n at that depth with its default_pads.  The
    climb starts at the information-theoretic floor ceil(log2 n) and runs
    only a probe at each depth: the first `jobs` tasks of the spec in
    fewest-outputs order, one per worker.  It moves up while every probed
    task is UNSAT.  The first probe with a pad-0 SAT is the witness
    campaign at t.  Then the spec at t - 1 runs again with the probe as its
    prior: the scheduler skips the tasks the probe ran and takes over its
    instances, so no (depth, prefix, pad) is solved twice.  Should that
    campaign find a network, it becomes the witness campaign and the
    refutation moves down one depth.  The lower probes are search steps, not evidence, and are
    not returned.

    A probe or refutation left open by a TIMEOUT raises RuntimeError: the
    climb never moves past a depth it could not settle, and a timeout never
    yields a claim.  An n below 1 raises ValueError.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n == 1:
        return 0, []
    config = config or default_config()
    jobs = max(1, jobs)

    def run(d: int, first: Optional[int] = None, prior: Optional[CampaignResult] = None):
        return _campaign(Campaign(n, d, pads=default_pads(n, d)), config, jobs, first, prior)

    probes: dict[int, CampaignResult] = {}
    d = max(1, math.ceil(math.log2(n)))
    while True:
        witness, probe = run(d, first=jobs)
        if witness is not None:
            break
        missing = _evidence(n, d, probe.instances)[2]
        if any(r.prefix_index in missing for r in probe.instances):
            raise RuntimeError(f"inconclusive probe at depth {d} for n={n}")
        probes[d] = probe
        d += 1
    found = probe
    while True:
        d -= 1
        witness, camp = run(d, prior=probes.get(d))
        if witness is None:
            break
        found = camp
    if camp.claim == "inconclusive":
        raise RuntimeError(f"inconclusive campaign at depth {d} for n={n}")
    return d + 1, [camp, found]


# ---------------------------------------------------------------------------
# count tables

PUBLISHED_TABLE = {
    # n: (G, RG, S, RS, R, A) - reference values from the literature
    3: (4, 4, 2, 2, 1, None),
    4: (10, 8, 4, 2, 2, None),
    5: (26, 16, 10, 6, 4, None),
    6: (76, 20, 28, 6, 5, None),
    7: (232, 52, 70, 14, 8, None),
    8: (764, 61, 230, 15, 12, None),
    9: (2620, 165, 676, 37, 22, None),
    10: (9496, 152, 2456, 27, 21, None),
    11: (35696, 482, 7916, 88, 48, None),
    12: (140152, 414, 31374, 70, 50, 1),
    13: (568504, 1378, 109856, 212, 117, None),
    14: (2390480, 1024, 467716, 136, 94, 1),
    15: (10349536, 3780, 1759422, 494, 262, None),
    16: (46206736, 2627, 7968204, 323, 211, 4),
    17: (211799312, 10187, 31922840, 1149, 609, None),
    18: (997313824, 6422, 152664200, 651, 411, 7),
    19: (4809701440, 26796, 646888154, 2632, 1367, None),
    20: (None, 15906, None, None, None, 18),
    22: (None, None, None, None, None, 31),
    24: (None, None, None, None, None, 70),
    26: (None, None, None, None, None, 126),
    28: (None, None, None, None, None, 261),
}


def reproduce_tables(max_n: int) -> tuple[str, str]:
    """Compute the count table and diff it against the published values.

    Returns (csv_text, diff_text); the diff lists every cell where the
    computed value differs from the published reference value.
    """
    rows = [words_mod.counts(n) for n in range(3, max_n + 1)]
    lines = ["n,G,RG,S,RS,R,A"]
    diffs = []
    for row in rows:
        cells = [row.g, row.rg, row.s, row.rs, row.r, row.a]
        lines.append(",".join("" if v is None else str(v) for v in [row.n] + cells))
        published = PUBLISHED_TABLE.get(row.n)
        if published:
            for name, mine, theirs in zip(("G", "RG", "S", "RS", "R", "A"), cells, published):
                if mine is not None and theirs is not None and mine != theirs:
                    diffs.append(f"n={row.n} {name}: computed {mine}, published {theirs}")
    return "\n".join(lines) + "\n", "\n".join(diffs) + ("\n" if diffs else "")

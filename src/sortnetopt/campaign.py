"""End-to-end campaigns: find optimal-depth networks, prove lower bounds.

Both run through one scheduler.  It takes a task list of prefixes and a
pad schedule, and walks each task's pads once, largest first, running at
most one SAT instance per task and pad under the configured timeout.  A
lower-bound campaign passes every two-layer prefix in the complete filter
set R_n and its pad schedule; every prefix UNSAT proves that no depth-d
network exists.  A search passes the tasks of its mode with pad 0 alone.
Window padding shrinks instances: UNSAT on the padded subset already
implies UNSAT on the full input set, while a SAT verdict under padding is
inconclusive and moves the task on to the next pad.

Why an UNSAT for every prefix of R_n proves T(n) > d: if a depth-d
sorting network on n channels exists, so does one whose first two layers
are a prefix of R_n, in four steps.
1. First layer: it can be taken maximal, and all maximal layers are equal
   up to a channel permutation, so take F_n (Parberry, 1991; the source
   paper, Bundala et al., arXiv:1412.5302).
2. Saturation: the first two layers C are subsumed by a saturated prefix
   C' over F_n, outputs(C') inside pi(outputs(C)), so C' extends to depth
   d too (the source paper; the subsumption lemma of Codish, Cruz-Filipe,
   Frank and Schneider-Kamp, JCSS 2016, whose witness pi can be checked).
3. Channel permutation: C' is a permuted copy of net_of(s), s its
   sentence in rsn, and a permuted network untangles into a standard one
   of the same depth (the source paper; sentence_of is a complete
   invariant, tested).
4. Reflection: the mirror image of a sorting network sorts, and
   reflection maps rsn onto itself, so the member of the orbit of s that
   R_n keeps extends too (the source paper; rn keeps exactly one member
   of every orbit, tested for n = 3..16).
Tier-1 checks steps 2 to 4 together for n <= 8: every second layer over
F_n is subsumed by a prefix of R_n or by its reflection, each witness pi
checked.

Tasks start in order of their prefix's number of unsorted outputs, fewest
first (the "fewest-outputs" ordering): that prefix leaves the fewest
inputs to sort, and for n = 5..11 it is SAT at depth T(n), so a depth
with a network ends on the first task.  Any order is sound: a claim needs
one pad-0 SAT or an UNSAT for every prefix, so the order never changes a
claim, and reports keep the R_n indices.  R_n and this order depend on n
alone and are computed once per n.

compute_T climbs the depths with probes, the first few tasks of each
depth, and runs the whole of R_n only at the depth below the first
network: T(n) = t rests on a witness at depth t and one refutation at
t - 1, which covers every smaller depth too.

The first pad-0 SAT settles the claim and kills the solvers still running.
Every SAT model is decoded and re-verified by direct evaluation, and the
witness behind a claim once more with is_sorting_network; a witness that
fails verification is a fatal internal error, never a result.  Every
claim is made by one evidence rule, _evidence, from the instances: a
campaign takes its claim from it, and campaign_from_json recomputes it
at the claimed depth and rejects a report whose claim differs.
"""

from __future__ import annotations

import concurrent.futures as cf
import json
import math
import re
import threading
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from typing import Optional, Sequence

from . import words as words_mod
from .encoding import EncodeOptions, build, decode_network
from .networks import (MAX_ENUM_CHANNELS, Network, _ascending_mask, _eval_array, _is_int,
                       first_layer, is_sorting_network, outputs, unsorted_inputs)
from .solver import SolverConfig, StopEvent, default_config, run_solver


@dataclass
class InstanceResult:
    prefix_index: Optional[int]   # index into the R_n export; None when prefix-free
    depth: int
    pad: int
    verdict: str                  # SAT | UNSAT | TIMEOUT
    encode_time: float = 0.0
    solve_time: float = 0.0
    witness: Optional[Network] = None
    # formula size: inputs kept after windows and dedup, variables, clauses
    inputs_kept: int = 0
    vars: int = 0
    clauses: int = 0

    def __post_init__(self):
        if (self.witness is not None) != (self.verdict == "SAT"):
            raise ValueError("witness must be present exactly for SAT verdicts")


@dataclass
class CampaignResult:
    n: int
    claim: str                    # e.g. "T(9) > 6" or "T(9) <= 7" or "inconclusive"
    instances: list[InstanceResult] = field(default_factory=list)
    wall_time: float = 0.0
    ordering: str = "canonical"   # task order; R_n order in reports without the key


Task = tuple[Optional[int], Optional[Network]]   # (prefix index, prefix)


def two_layer_prefixes(n: int) -> list[Network]:
    """The filter set R_n as networks, one prefix for each reflection orbit
    of the saturated classes rsn, in canonical sentence order."""
    return list(_filter_set(n))


@lru_cache(maxsize=None)
def _filter_set(n: int) -> tuple[Network, ...]:
    return tuple(words_mod.net_of(s) for s in words_mod.sentences(n, "rn"))


@lru_cache(maxsize=None)
def _fewest_outputs(n: int) -> tuple[Task, ...]:
    """The tasks of R_n, fewest outputs first, ties in R_n order.

    The key, len(outputs(prefix)), is the prefix's unsorted outputs plus the
    n + 1 sorted vectors every standard prefix outputs; the unsorted count
    is the number of inputs a pad-0 build keeps.
    """
    return tuple(sorted(enumerate(_filter_set(n)), key=lambda task: len(outputs(task[1]))))


def default_pads(n: int, d: int) -> list[int]:
    """One padded try with windows of width d + 1, then the full input set.

    Returns [n - d - 1, 0], or [0] when n <= d + 1.  With the refsat
    reference solver and jobs=2 on a 2-vCPU VM, prove_lower_bound(10, 6)
    with pads [3, 0] made 21 instances, none of them a padded SAT, in about
    half the wall time of the old depth-blind [6, 4, 0] (53 instances, 32
    padded SAT); at n = 11, d = 7, pad 3 refuted 47 of the 48 prefixes
    while pad 4 refuted none of them.  At a depth where a sorting network
    exists the padded try is SAT and proves nothing; it costs one cheap
    run on the first task, the prefix of fewest unsorted outputs.
    """
    return [n - d - 1, 0] if n > d + 1 else [0]


def _prefix_tasks(n: int, d: int) -> list[Task]:
    """The tasks of a depth-d campaign in fewest-outputs order; below depth
    2 one prefix-free task."""
    if d < 2:
        return [(None, None)]
    return list(_fewest_outputs(n))


def _campaign(n: int, d: int, tasks: Sequence[Task], pads: Sequence[int],
              config: SolverConfig, jobs: int,
              prior: Optional[CampaignResult] = None) -> tuple[Optional[Network], CampaignResult]:
    """The one campaign scheduler behind find_network, prove_lower_bound and
    compute_T.

    The tasks start in the order given, the fewest-outputs order of
    _prefix_tasks: at a depth with a network the first task is then
    usually SAT and ends the campaign on its first pad-0 run; a refutation
    runs every task anyway, so the order changes no claim.  This is the
    one place that normalises a pad schedule: the distinct pads in 1..n-1,
    largest first, then 0, so every task can end on the full input set.
    Each task computes its input set once and walks the pads once; each
    pad is one round that encodes with every formula reduction on, solves
    under config.timeout and decodes a model.  An UNSAT settles the task
    (windowed inputs are a subset of the full set); a padded SAT or TIMEOUT
    moves on to the next pad, and only pad 0 can certify satisfiability.  A
    pad-0 TIMEOUT leaves the task open while the other tasks carry on.  The
    first pad-0 SAT sets the stop event, which kills the solvers still
    running.  A prior campaign at the same depth, run over other tasks,
    lends its instances and wall time, so the two make one campaign.  The
    claim and its witness come from _evidence over the recorded instances,
    and the witness is re-checked with is_sorting_network.
    """
    t0 = time.monotonic()
    pads = sorted({p for p in pads if 0 < p < n}, reverse=True) + [0]
    results: list[InstanceResult] = list(prior.instances) if prior else []
    lock = threading.Lock()
    stop = StopEvent()

    def settle(task: Task) -> None:
        idx, prefix = task
        if stop.is_set():
            return
        t_inputs = time.monotonic()
        xs = unsorted_inputs(n, prefix)   # once per task, for every pad
        inputs_time = time.monotonic() - t_inputs
        for pad in pads:
            if stop.is_set():
                return
            t_encode = time.monotonic()
            vm, cnf = build(n, d, xs, EncodeOptions(pad=pad, prefix=prefix))
            # the task's first instance carries the time of its input set
            encode_time = time.monotonic() - t_encode + inputs_time
            inputs_time = 0.0
            name = f"n{n}d{d}p{'free' if idx is None else idx}w{pad}"
            res = run_solver(cnf, config, name=name, stop=stop)
            if res.verdict == "CANCELLED":
                return  # killed: the claim is already settled
            witness = None
            if res.verdict == "SAT":
                # a model must sort every input the formula kept
                witness = decode_network(vm, res.true_vars)
                if not _ascending_mask(_eval_array(witness, vm.inputs), n).all():
                    raise RuntimeError(f"solver model fails verification on instance {name}")
            with lock:
                results.append(InstanceResult(idx, d, pad, res.verdict, encode_time,
                                              res.solve_time, witness, len(vm.inputs),
                                              cnf.num_vars, cnf.num_clauses))
            if res.verdict == "UNSAT":
                return
            if res.verdict == "SAT" and pad == 0:
                stop.set()

    with cf.ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        try:
            list(pool.map(settle, tasks))
        finally:
            stop.set()  # an interrupted or failed scan kills its solvers too

    claim, witness, _ = _evidence(n, d, results)
    if witness is not None and not is_sorting_network(witness):
        raise RuntimeError("decoded witness is not a sorting network")
    wall_time = time.monotonic() - t0 + (prior.wall_time if prior else 0.0)
    return witness, CampaignResult(n, claim, results, wall_time, "fewest-outputs")


def _evidence(n: int, d: int, instances: Sequence[InstanceResult]
              ) -> tuple[str, Optional[Network], list[Optional[int]]]:
    """The evidence rule: the one place that makes a claim at depth d.

    Returns (claim, witness, missing): the first pad-0 SAT witness of depth
    at most d, which proves "T(n) <= d", and the R_n indices still lacking
    an UNSAT at depth d; none left proves "T(n) > d", else the claim is
    "inconclusive".  A prefix-free or first-layer UNSAT (prefix index None)
    covers every prefix.
    """
    witness = next((r.witness for r in instances
                    if r.verdict == "SAT" and r.pad == 0 and r.witness.depth <= d), None)
    refuted = {r.prefix_index for r in instances if r.verdict == "UNSAT" and r.depth == d}
    missing = ([] if None in refuted else [None] if d < 2 else
               [idx for idx in range(len(_filter_set(n))) if idx not in refuted])
    claim = (f"T({n}) <= {d}" if witness is not None
             else "inconclusive" if missing else f"T({n}) > {d}")
    return claim, witness, missing


def find_network(n: int, d: int, mode: str = "two_layer",
                 config: Optional[SolverConfig] = None, jobs: int = 1) -> Optional[Network]:
    """Search for a depth-d sorting network; returns a verified witness or None.

    mode free: one instance over all unsorted inputs; layer1: the crossing
    first layer is fixed; two_layer: iterate the prefixes of R_n, fewest
    unsorted outputs first, and stop at the first satisfiable instance.  The
    order only decides how soon a network is found, never whether.  None
    covers both proven absence and an inconclusive timeout; the campaign
    variant distinguishes them.
    """
    net, _ = find_network_campaign(n, d, mode, config, jobs)
    return net


def find_network_campaign(n: int, d: int, mode: str = "two_layer",
                          config: Optional[SolverConfig] = None,
                          jobs: int = 1) -> tuple[Optional[Network], CampaignResult]:
    """find_network with its campaign: the mode's tasks, scheduled at pad 0."""
    if mode == "free":
        tasks: list[Task] = [(None, None)]
    elif mode == "layer1":
        tasks = [(None, Network(n, (first_layer(n, "crossing"),)))]
    elif mode in ("two_layer", "two-layer"):
        tasks = _prefix_tasks(n, d)
    else:
        raise ValueError(f"unknown search mode {mode!r}")
    return _campaign(n, d, tasks, [0], config or default_config(), jobs)


def prove_lower_bound(n: int, d_prime: int,
                      pad_schedule: Optional[Sequence[int]] = None,
                      config: Optional[SolverConfig] = None,
                      jobs: int = 1) -> CampaignResult:
    """Try to prove T(n) > d_prime by refuting every prefix in R_n.

    Each prefix descends the pad schedule, which goes to _campaign as
    given: the scheduler keeps the distinct pads below n, largest first,
    and ends at 0.  The default, default_pads(n, d_prime), tries windows of
    width d_prime + 1 (pad n - d_prime - 1) once and then the full input
    set; see default_pads for the measurements behind it.  A padded UNSAT
    refutes the prefix, and a padded SAT falls through to pad 0, so the
    schedule never changes a claim.
    """
    pads = default_pads(n, d_prime) if pad_schedule is None else pad_schedule
    return _campaign(n, d_prime, _prefix_tasks(n, d_prime), pads,
                     config or default_config(), jobs)[1]


def compute_T(n: int, config: Optional[SolverConfig] = None,
              jobs: int = 1) -> tuple[int, list[CampaignResult]]:
    """T(n) with its evidence: [refutation at T(n) - 1, witness campaign at T(n)].

    T(n) = t needs a depth-t network and one refutation at depth t - 1:
    a shallower network padded with empty layers is a depth-(t - 1)
    network, so the refutation covers every smaller depth as well.

    The climb starts at the information-theoretic floor ceil(log2 n) and
    runs only a probe at each depth: its first `jobs` tasks in
    fewest-outputs order, one per worker, with the depth's default_pads.
    It moves up while every probed task is UNSAT.  The first probe with a
    pad-0 SAT is the witness campaign at t.  Then the rest of R_n runs at
    t - 1 and takes over the probe's instances at that depth, so no
    (depth, prefix, pad) is solved twice.  Should that campaign find a
    network, it becomes the witness campaign and the refutation moves down
    one depth.  The lower probes are search steps, not evidence, and are
    not returned.

    A probe or refutation left open by a TIMEOUT raises RuntimeError: the
    climb never moves past a depth it could not settle, and a timeout never
    yields a claim.
    """
    if n == 1:
        return 0, []
    config = config or default_config()
    jobs = max(1, jobs)

    def run(d: int, tasks: Sequence[Task], prior: Optional[CampaignResult] = None):
        return _campaign(n, d, tasks, default_pads(n, d), config, jobs, prior)

    probes: dict[int, CampaignResult] = {}
    d = max(1, math.ceil(math.log2(n)))
    while True:
        tasks = _prefix_tasks(n, d)[:jobs]
        witness, probe = run(d, tasks)
        if witness is not None:
            break
        missing = _evidence(n, d, probe.instances)[2]
        if any(idx in missing for idx, _ in tasks):
            raise RuntimeError(f"inconclusive probe at depth {d} for n={n}")
        probes[d] = probe
        d += 1
    found = probe
    while True:
        d -= 1
        prior = probes.get(d)
        done = {r.prefix_index for r in prior.instances} if prior else set()
        witness, camp = run(d, [t for t in _prefix_tasks(n, d) if t[0] not in done], prior)
        if witness is None:
            break
        found = camp
    if camp.claim == "inconclusive":
        raise RuntimeError(f"inconclusive campaign at depth {d} for n={n}")
    return d + 1, [camp, found]


# ---------------------------------------------------------------------------
# persistence

def campaign_to_json(c: CampaignResult) -> str:
    doc = {
        "n": c.n,
        "claim": c.claim,
        "ordering": c.ordering,
        "wall_time": c.wall_time,
        "instances": [
            {f.name: getattr(r, f.name) for f in fields(InstanceResult)}
            | {"witness": json.loads(r.witness.to_json()) if r.witness else None}
            for r in c.instances
        ],
    }
    return json.dumps(doc, indent=2)


def _is_duration(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value) and value >= 0
    return _is_int(value) and value >= 0


def _require(ok: bool, what: str, loc: str) -> None:
    if not ok:
        raise ValueError(f"campaign document: {what} at {loc}")


def campaign_from_json(text: str) -> CampaignResult:
    """Parse and validate a campaign document; witnesses are re-verified
    and the claim is audited against the instances (see _audit_claim).

    A malformed document, instance, n, claim, wall_time, ordering or
    instance field raises ValueError naming its $ path: times must be
    finite non-negative numbers, formula sizes non-negative integers, the
    ordering a string, and a witness must be present exactly on a SAT
    instance.  The instance keys are the fields of InstanceResult;
    prefix_index and the keys after verdict may be missing.
    """
    doc = json.loads(text)
    _require(isinstance(doc, dict), "expected an object", "$")
    for key in ("n", "claim", "instances"):
        _require(key in doc, f"missing key {key!r}", "$")
    # a campaign enumerates 2**n inputs, so no report has more channels than the cap
    _require(_is_int(doc["n"]) and 1 <= doc["n"] <= MAX_ENUM_CHANNELS,
             f"'n' must be an integer in 1..{MAX_ENUM_CHANNELS}, got {doc['n']!r}", "$.n")
    _require(isinstance(doc["claim"], str), f"'claim' must be a string, got {doc['claim']!r}",
             "$.claim")
    _require(isinstance(doc["instances"], list), "expected a list", "$.instances")
    _require(_is_duration(doc.get("wall_time", 0.0)),
             f"'wall_time' must be a non-negative number, got {doc.get('wall_time')!r}",
             "$.wall_time")
    _require(isinstance(doc.get("ordering", ""), str),
             f"'ordering' must be a string, got {doc.get('ordering')!r}", "$.ordering")
    instances = []
    for pos, item in enumerate(doc["instances"]):
        loc = f"$.instances[{pos}]"
        _require(isinstance(item, dict), "expected an object", loc)
        for key in ("depth", "pad", "verdict"):
            _require(key in item, f"missing key {key!r}", loc)
        values = {f.name: item.get(f.name, None if f.default is MISSING else f.default)
                  for f in fields(InstanceResult)}
        for key in ("depth", "pad"):
            _require(_is_int(values[key]), f"{key!r} must be an integer, got {values[key]!r}",
                     f"{loc}.{key}")
        index = values["prefix_index"]
        _require(index is None or _is_int(index),
                 f"'prefix_index' must be an integer or null, got {index!r}", f"{loc}.prefix_index")
        _require(values["verdict"] in ("SAT", "UNSAT", "TIMEOUT"),
                 f"bad verdict {values['verdict']!r}", loc)
        for key in ("encode_time", "solve_time"):
            _require(_is_duration(values[key]),
                     f"{key!r} must be a non-negative number, got {values[key]!r}", f"{loc}.{key}")
        for key in ("inputs_kept", "vars", "clauses"):
            _require(_is_int(values[key]) and values[key] >= 0,
                     f"{key!r} must be a non-negative integer, got {values[key]!r}",
                     f"{loc}.{key}")
        _require((values["witness"] is not None) == (values["verdict"] == "SAT"),
                 "a witness must be present exactly for a SAT verdict", loc)
        if values["witness"] is not None:
            try:
                witness = values["witness"] = Network.from_json(json.dumps(values["witness"]))
            except ValueError as exc:
                raise ValueError(f"campaign document: {exc} at {loc}.witness") from None
            _require(witness.n == doc["n"] and witness.depth <= values["depth"],
                     f"witness with {witness.n} channels and depth {witness.depth} "
                     f"does not fit the instance", loc)
            _require(values["pad"] != 0 or is_sorting_network(witness),
                     "witness fails verification", loc)
        instances.append(InstanceResult(**values))
    _audit_claim(doc["n"], doc["claim"], instances)
    return CampaignResult(doc["n"], doc["claim"], instances,
                          doc.get("wall_time", 0.0), doc.get("ordering", "canonical"))


def _audit_claim(n: int, claim: str, instances: Sequence[InstanceResult]) -> None:
    """Raise ValueError unless claim, of the shape _evidence writes and
    with the report's n, is the claim _evidence makes at its depth d.

    Witnesses were re-verified on load; "inconclusive" claims nothing.
    """
    if claim == "inconclusive":
        return
    m = re.fullmatch(r"T\((0|[1-9][0-9]*)\) (<=|>) (0|[1-9][0-9]*)", claim)
    if m is None or int(m[1]) != n:
        raise ValueError(f"campaign document: unrecognised claim {claim!r} at $.claim")
    d = int(m[3])
    derived, witness, missing = _evidence(n, d, instances)
    if claim == derived:
        return
    if m[2] == "<=":
        raise ValueError(f"campaign document: claim {claim!r} has no pad-0 witness "
                         f"of depth <= {d}")
    if witness is not None:
        raise ValueError(f"campaign document: claim {claim!r} is contradicted by a pad-0 "
                         f"witness of depth {witness.depth} <= {d}")
    raise ValueError(f"campaign document: claim {claim!r} lacks an UNSAT at depth {d} "
                     f"for prefixes {missing}")


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

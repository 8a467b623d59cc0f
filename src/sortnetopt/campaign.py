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

The first pad-0 SAT settles the claim and kills the solvers still running.
Every SAT model is decoded and re-verified by direct evaluation, and the
witness behind a claim once more with is_sorting_network; a witness that
fails verification is a fatal internal error, never a result.  One
evidence rule, _evidence, derives the claim from the instances, both for
a campaign and for a report loaded by campaign_from_json.
"""

from __future__ import annotations

import concurrent.futures as cf
import json
import math
import re
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from . import words as words_mod
from .encoding import EncodeOptions, build, decode_network
from .networks import (Network, evaluate_bits, first_layer, is_ascending,
                       is_sorting_network, unsorted_inputs)
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

    def __post_init__(self):
        if (self.witness is not None) != (self.verdict == "SAT"):
            raise ValueError("witness must be present exactly for SAT verdicts")


@dataclass
class CampaignResult:
    n: int
    claim: str                    # e.g. "T(9) > 6" or "T(9) <= 7" or "inconclusive"
    instances: list[InstanceResult] = field(default_factory=list)
    wall_time: float = 0.0
    ordering: str = "canonical"


Task = tuple[Optional[int], Optional[Network]]   # (prefix index, prefix)


def two_layer_prefixes(n: int) -> list[Network]:
    """The complete filter set R_n as networks, in canonical sentence order."""
    return [words_mod.net_of(s) for s in words_mod.sentences(n, "rn")]


def default_pads(n: int) -> list[int]:
    """Largest-first pad schedule; per-n sweet spots vary, so descend and retry."""
    return sorted({max(p, 0) for p in (n - 4, n - 6, 0)}, reverse=True)


def _prefix_tasks(n: int, d: int) -> list[Task]:
    if d < 2:
        return [(None, None)]
    return list(enumerate(two_layer_prefixes(n)))


def _solve_instance(n: int, d: int, prefix: Optional[Network], pad: int,
                    config: SolverConfig, opts: EncodeOptions,
                    prefix_index: Optional[int],
                    stop: Optional[StopEvent] = None) -> Optional[InstanceResult]:
    """One encode-solve-decode round; None when stop killed the solver."""
    t0 = time.monotonic()
    xs = unsorted_inputs(n, prefix)
    vm, cnf = build(n, d, xs, replace(opts, pad=pad, prefix=prefix))
    encode_time = time.monotonic() - t0
    name = f"n{n}d{d}p{prefix_index if prefix_index is not None else 'free'}w{pad}"
    res = run_solver(cnf, config, name=name, stop=stop)
    if res.verdict == "CANCELLED":
        return None
    witness = None
    if res.verdict == "SAT":
        witness = decode_network(vm, res.true_vars)
        if not all(is_ascending(evaluate_bits(witness, b), n) for b in vm.inputs):
            raise RuntimeError(f"solver model fails verification on instance {name}")
    return InstanceResult(prefix_index, d, pad, res.verdict,
                          encode_time, res.solve_time, witness)


def _campaign(n: int, d: int, tasks: Sequence[Task], pads: Sequence[int],
              config: SolverConfig, opts: EncodeOptions,
              jobs: int) -> tuple[Optional[Network], CampaignResult]:
    """The one campaign scheduler behind find_network and prove_lower_bound.

    Each task walks the pads once, largest first, and every solver run gets
    config.timeout.  An UNSAT settles the task (windowed inputs are a subset
    of the full set); a padded SAT or TIMEOUT moves on to the next pad, and
    only pad 0 can certify satisfiability.  A pad-0 TIMEOUT leaves the task
    open while the other tasks carry on.  The first pad-0 SAT sets the stop
    event, which kills the solvers still running.  The claim and its witness
    come from _evidence over the recorded instances; the witness is
    re-checked with is_sorting_network.
    """
    t0 = time.monotonic()
    results: list[InstanceResult] = []
    lock = threading.Lock()
    stop = StopEvent()

    def settle(task: Task) -> None:
        idx, prefix = task
        for pad in pads:
            if stop.is_set():
                return
            res = _solve_instance(n, d, prefix, pad, config, opts, idx, stop)
            if res is None:
                return  # killed: the claim is already settled
            with lock:
                results.append(res)
            if res.verdict == "UNSAT":
                return
            if res.verdict == "SAT" and pad == 0:
                stop.set()

    with cf.ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        try:
            list(pool.map(settle, tasks))
        finally:
            stop.set()  # an interrupted or failed scan kills its solvers too

    witness, missing = _evidence(n, d, results)
    if witness is not None:
        if not is_sorting_network(witness):
            raise RuntimeError("decoded witness is not a sorting network")
        claim = f"T({n}) <= {d}"
    elif missing:
        claim = "inconclusive"
    else:
        claim = f"T({n}) > {d}"
    return witness, CampaignResult(n, claim, results, time.monotonic() - t0)


def _evidence(n: int, d: int,
              instances: Sequence[InstanceResult]) -> tuple[Optional[Network], list[int]]:
    """The evidence rule behind every claim at depth d.

    Returns the first pad-0 SAT witness of depth at most d, which proves
    T(n) <= d, and the R_n indices still lacking an UNSAT at depth d; none
    left proves T(n) > d.  A prefix-free or first-layer UNSAT (prefix index
    None) covers every prefix.
    """
    witness = next((r.witness for r in instances
                    if r.verdict == "SAT" and r.pad == 0 and r.witness.depth <= d), None)
    refuted = {r.prefix_index for r in instances if r.verdict == "UNSAT" and r.depth == d}
    if None in refuted:
        return witness, []
    return witness, [idx for idx, _ in _prefix_tasks(n, d) if idx not in refuted]


def find_network(n: int, d: int, mode: str = "two_layer",
                 config: Optional[SolverConfig] = None,
                 opts: EncodeOptions = EncodeOptions(),
                 jobs: int = 1) -> Optional[Network]:
    """Search for a depth-d sorting network; returns a verified witness or None.

    mode free: one instance over all unsorted inputs; layer1: the crossing
    first layer is fixed; two_layer: iterate the prefixes of R_n and stop at
    the first satisfiable instance.  None covers both proven absence and an
    inconclusive timeout; the campaign variant distinguishes them.
    """
    net, _ = find_network_campaign(n, d, mode, config, opts, jobs)
    return net


def find_network_campaign(n: int, d: int, mode: str = "two_layer",
                          config: Optional[SolverConfig] = None,
                          opts: EncodeOptions = EncodeOptions(),
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
    return _campaign(n, d, tasks, [0], config or default_config(), opts, jobs)


def prove_lower_bound(n: int, d_prime: int,
                      pad_schedule: Optional[Sequence[int]] = None,
                      config: Optional[SolverConfig] = None,
                      opts: EncodeOptions = EncodeOptions(),
                      jobs: int = 1) -> CampaignResult:
    """Try to prove T(n) > d_prime by refuting every prefix in R_n.

    Each prefix descends the pad schedule (default_pads(n) when None),
    normalised to distinct pads below n, largest first, ending at 0.
    """
    pads = sorted({max(0, p) for p in (pad_schedule if pad_schedule is not None else default_pads(n))},
                  reverse=True)
    pads = [p for p in pads if p < n] or [0]
    if pads[-1] != 0:
        pads.append(0)
    return _campaign(n, d_prime, _prefix_tasks(n, d_prime), pads,
                     config or default_config(), opts, jobs)[1]


def compute_T(n: int, config: Optional[SolverConfig] = None,
              opts: EncodeOptions = EncodeOptions(),
              jobs: int = 1) -> tuple[int, list[CampaignResult]]:
    """Smallest depth with a SAT witness, with every smaller depth refuted.

    Climbs from the information-theoretic floor ceil(log2 n), proving the
    lower bound at each depth via the R_n campaign until one prefix turns
    satisfiable; that pad-0 model is the witness the campaign verified.
    """
    if n == 1:
        return 0, []
    config = config or default_config()
    campaigns: list[CampaignResult] = []
    d = max(1, math.ceil(math.log2(n)))
    if d > 1:
        floor = prove_lower_bound(n, d - 1, config=config, opts=opts, jobs=jobs)
        campaigns.append(floor)
        if floor.claim != f"T({n}) > {d - 1}":
            raise RuntimeError(f"expected refutation below the depth floor, got {floor.claim!r}")
    while True:
        camp = prove_lower_bound(n, d, config=config, opts=opts, jobs=jobs)
        campaigns.append(camp)
        if camp.claim == "inconclusive":
            raise RuntimeError(f"inconclusive campaign at depth {d} for n={n}")
        if camp.claim == f"T({n}) <= {d}":
            return d, campaigns
        d += 1


# ---------------------------------------------------------------------------
# persistence

def campaign_to_json(c: CampaignResult) -> str:
    doc = {
        "n": c.n,
        "claim": c.claim,
        "ordering": c.ordering,
        "wall_time": c.wall_time,
        "instances": [
            {
                "prefix_index": r.prefix_index,
                "depth": r.depth,
                "pad": r.pad,
                "verdict": r.verdict,
                "encode_time": r.encode_time,
                "solve_time": r.solve_time,
                "witness": json.loads(r.witness.to_json()) if r.witness else None,
            }
            for r in c.instances
        ],
    }
    return json.dumps(doc, indent=2)


def campaign_from_json(text: str) -> CampaignResult:
    """Parse and validate a campaign document; witnesses are re-verified
    and the claim is audited against the instances (see _audit_claim)."""
    doc = json.loads(text)
    for key in ("n", "claim", "instances"):
        if key not in doc:
            raise ValueError(f"campaign document: missing key {key!r} at $")
    instances = []
    for pos, item in enumerate(doc["instances"]):
        loc = f"$.instances[{pos}]"
        for key in ("depth", "pad", "verdict"):
            if key not in item:
                raise ValueError(f"campaign document: missing key {key!r} at {loc}")
        if item["verdict"] not in ("SAT", "UNSAT", "TIMEOUT"):
            raise ValueError(f"campaign document: bad verdict {item['verdict']!r} at {loc}")
        witness = None
        if item.get("witness") is not None:
            witness = Network.from_json(json.dumps(item["witness"]))
            if witness.n != doc["n"] or witness.depth > item["depth"]:
                raise ValueError(f"campaign document: witness with {witness.n} channels and depth "
                                 f"{witness.depth} does not fit the instance at {loc}")
            if item["pad"] == 0 and not is_sorting_network(witness):
                raise ValueError(f"campaign document: witness fails verification at {loc}")
        instances.append(InstanceResult(
            item.get("prefix_index"), item["depth"], item["pad"], item["verdict"],
            item.get("encode_time", 0.0), item.get("solve_time", 0.0), witness))
    _audit_claim(doc["n"], doc["claim"], instances)
    return CampaignResult(doc["n"], doc["claim"], instances,
                          doc.get("wall_time", 0.0), doc.get("ordering", "canonical"))


def _audit_claim(n: int, claim: str, instances: Sequence[InstanceResult]) -> None:
    """Raise ValueError unless _evidence over the instances supports claim.

    Witnesses were re-verified on load; "inconclusive" claims nothing.
    """
    if claim == "inconclusive":
        return
    m = re.fullmatch(r"T\((\d+)\) (<=|>) (\d+)", claim)
    if m is None or int(m[1]) != n:
        raise ValueError(f"campaign document: unrecognised claim {claim!r} at $.claim")
    d = int(m[3])
    witness, missing = _evidence(n, d, instances)
    if m[2] == "<=" and witness is None:
        raise ValueError(f"campaign document: claim {claim!r} has no pad-0 witness "
                         f"of depth <= {d}")
    if m[2] == ">" and missing:
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


def reproduce_tables(max_n: int, columns: str = "g,rg,s,rs,r,a") -> tuple[str, str]:
    """Compute the count table and diff it against the published values.

    Returns (csv_text, diff_text); the diff lists every cell where the
    computed value differs from the published reference value.
    """
    rows = [words_mod.counts(n, columns) for n in range(3, max_n + 1)]
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

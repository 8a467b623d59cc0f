"""Campaign results, the claims they make, and the JSON report.

_evidence is the one evidence rule: a campaign takes its claim from it,
and campaign_from_json recomputes it at the claimed depth, so a loaded
claim rests on its instances, never on its text.  parse_claim is the one
reader of the claim text that _evidence writes.  The module imports only
networks and words: a claim cannot depend on the scheduler, the encoding
or the solver.

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

An instance is one formula: depth-depth networks on n channels, the
inputs windowed by pad, the first layers fixed to prefix.  Instance is
that spec, checked on construction by the instance rule
(networks.check_instance); the scheduler runs it,
campaign.instance_formula builds it and a result records it.  It derives
the prefix's R_n index, its label (the R_n sentence as render_sentence
writes it, "layer1" for the crossing first layer, else None) and its
name, which the solver's files carry: n{n}d{depth}p{index}w{pad}, with
pfree for no prefix, player1 for the crossing first layer and pfixed
for any other prefix.  A result records only an R_n member, the
crossing first layer or no prefix, the two that _evidence may read as
covering every prefix (prefix_index null).

A campaign is one spec too, Campaign(n, depth, tasks, pads), checked on
construction: tasks is the kind of its prefixes, "two-layer" (every
member of R_n, or one prefix-free task below depth 2), "layer1" (the
crossing first layer) or "free" (no prefix), and the depth must hold that
prefix.  The pads are kept as the distinct pads in 1..n-1, largest first,
then 0, so every task can end on the full input set.  Its instances are
every task, in R_n order, at every pad: what the scheduler may run.

A report is one JSON object: n, the claim, the campaign spec as
{"depth", "tasks", "pads"}, the wall time and the instances.  An
instance's keys are prefix_index, prefix
(the label), depth and pad from the spec, then the fields of
InstanceResult after it, in their order.  An instance's encode_time is
its own build, never its input set, made once per process.  Its log is
"" unless the verdict is TIMEOUT: then it holds the solver run's cmd:
and exit: lines and at most the last 2 000 characters of the rest of
the run's log (campaign._kept_log).  The instances are listed in task
order, not in the order the workers finished them: a prior campaign's
first, then each task's in the order the scheduler was given the tasks,
its pads largest first.  With the
times zeroed, two runs of one campaign give the same report, unless it
ends on a pad-0 SAT with jobs >= 2: a round whose solver that SAT's
stop kills is not recorded, and which rounds those are depends on
thread timing (compute_T(9) records 23 or 24 instances).  The
loader rebuilds each spec, so it rejects what no campaign could run: a
pad outside 0..n-1, a prefix deeper than the depth, a label that is not
the R_n sentence at its prefix_index, and "layer1" beside an index.
Given a campaign key, it rebuilds the spec and rejects every instance the
spec does not list: another depth, a pad outside the schedule, a prefix
of another kind.  A report without the prefix or the campaign key loads
as before; an "ordering" key, which older reports carry, is ignored.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

from .networks import (MAX_ENUM_CHANNELS, Network, _is_int, check_instance, first_layer,
                       is_sorting_network)
from .words import render_sentence, rn_networks, rn_sentences


def rn_prefix(n: int, index: int) -> Network:
    """The prefix at index in R_n; a ValueError names the bounds otherwise."""
    members = rn_networks(n)
    if not 0 <= index < len(members):
        raise ValueError(f"must satisfy 0 <= index < |R_{n}| = {len(members)}, got {index}")
    return members[index]


@dataclass(frozen=True)
class Instance:
    """One formula of a campaign, checked by networks.check_instance; see
    the module docstring."""
    n: int
    depth: int
    pad: int = 0
    prefix: Optional[Network] = None

    def __post_init__(self):
        check_instance(self.n, self.depth, self.pad, self.prefix)

    @classmethod
    def layer1(cls, n: int, depth: int, pad: int = 0) -> Instance:
        """The spec whose prefix is the crossing first layer (i, n-i+1)."""
        return cls(n, depth, pad, Network(n, (first_layer(n, "crossing"),)))

    @property
    def index(self) -> Optional[int]:
        if self.prefix is None or self.prefix.depth != 2:
            return None
        members = rn_networks(self.n)
        return members.index(self.prefix) if self.prefix in members else None

    @property
    def label(self) -> Optional[str]:
        index = self.index
        if index is not None:
            return render_sentence(rn_sentences(self.n)[index])
        if (self.prefix is not None and self.prefix.depth == 1 and self.n > 1
                and self == self.layer1(self.n, self.depth, self.pad)):
            return "layer1"
        return None

    @property
    def name(self) -> str:
        index = self.index
        tag = (index if index is not None else "free" if self.prefix is None
               else self.label or "fixed")
        return f"n{self.n}d{self.depth}p{tag}w{self.pad}"


@dataclass(frozen=True)
class Campaign:
    """What a campaign runs, checked on construction; see the module
    docstring."""
    n: int
    depth: int
    tasks: str = "two-layer"
    pads: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.tasks not in ("two-layer", "layer1", "free"):
            raise ValueError(f"unknown search mode {self.tasks!r}")
        check_instance(self.n, self.depth)
        if self.tasks == "layer1":
            Instance.layer1(self.n, self.depth)   # the first layer must fit the depth
        pads = sorted({p for p in self.pads if 0 < p < self.n}, reverse=True)
        object.__setattr__(self, "pads", (*pads, 0))

    def instances(self) -> list[Instance]:
        """Every spec the campaign may run: its tasks in R_n order, each
        down the pads."""
        if self.tasks == "layer1":
            return [Instance.layer1(self.n, self.depth, pad) for pad in self.pads]
        prefixes = rn_networks(self.n) if self.tasks == "two-layer" and self.depth >= 2 else [None]
        return [Instance(self.n, self.depth, pad, p) for p in prefixes for pad in self.pads]


@dataclass
class InstanceResult:
    instance: Instance
    verdict: str                  # SAT | UNSAT | TIMEOUT
    encode_time: float = 0.0
    solve_time: float = 0.0
    witness: Optional[Network] = None
    # formula size: inputs kept after windows and dedup, variables, clauses
    inputs_kept: int = 0
    vars: int = 0
    clauses: int = 0
    log: str = ""                 # a TIMEOUT-class run's cmd: and exit: lines, then its tail

    def __post_init__(self):
        if (self.witness is not None) != (self.verdict == "SAT"):
            raise ValueError("witness must be present exactly for SAT verdicts")
        if self.instance.prefix is not None and self.instance.label is None:
            raise ValueError("a result records an R_n prefix, the first layer or none")

    @property
    def prefix_index(self) -> Optional[int]:
        return self.instance.index

    @property
    def depth(self) -> int:
        return self.instance.depth

    @property
    def pad(self) -> int:
        return self.instance.pad


@dataclass
class CampaignResult:
    n: int
    claim: str                    # e.g. "T(9) > 6" or "T(9) <= 7" or "inconclusive"
    instances: list[InstanceResult] = field(default_factory=list)
    wall_time: float = 0.0
    spec: Optional[Campaign] = None   # None in reports without the key


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
               [idx for idx in range(len(rn_sentences(n))) if idx not in refuted])
    claim = (f"T({n}) <= {d}" if witness is not None
             else "inconclusive" if missing else f"T({n}) > {d}")
    return claim, witness, missing


def parse_claim(claim: str) -> Optional[tuple[int, str, int]]:
    """(n, "<=" or ">", d) of a claim _evidence writes, else None."""
    m = re.fullmatch(r"T\((0|[1-9][0-9]*)\) (<=|>) (0|[1-9][0-9]*)", claim)
    return m and (int(m[1]), m[2], int(m[3]))


def campaign_to_json(c: CampaignResult) -> str:
    instances = [{"prefix_index": r.prefix_index, "prefix": r.instance.label,
                  "depth": r.depth, "pad": r.pad}
                 | {f.name: getattr(r, f.name) for f in fields(InstanceResult)[1:]}
                 | {"witness": json.loads(r.witness.to_json()) if r.witness else None}
                 for r in c.instances]
    spec = {} if c.spec is None else {"campaign": {"depth": c.spec.depth, "tasks": c.spec.tasks,
                                                   "pads": list(c.spec.pads)}}
    return json.dumps({"n": c.n, "claim": c.claim, **spec,
                       "wall_time": c.wall_time, "instances": instances}, indent=2)


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

    A malformed document, instance, n, claim, wall_time, campaign or
    instance field raises ValueError naming its $ path: times must be
    finite non-negative numbers, formula sizes non-negative integers, a
    prefix_index null or an index into R_n, a prefix null or the spec's
    label, a campaign one that Campaign accepts, a log a string, and a
    witness, a standard network, must be present exactly on a SAT instance.
    The spec is the R_n member at prefix_index, else the crossing first
    layer for the label "layer1", else no prefix; one that Instance rejects,
    or that the campaign does not list, is rejected at the instance's path.
    Only depth, pad and verdict are required keys of an instance; a missing
    log loads as "".
    """
    doc = json.loads(text)
    _require(isinstance(doc, dict), "expected an object", "$")
    for key in ("n", "claim", "instances"):
        _require(key in doc, f"missing key {key!r}", "$")
    # a campaign enumerates 2**n inputs, so no report has more channels than the cap
    n = doc["n"]
    _require(_is_int(n) and 1 <= n <= MAX_ENUM_CHANNELS,
             f"'n' must be an integer in 1..{MAX_ENUM_CHANNELS}, got {n!r}", "$.n")
    _require(isinstance(doc["claim"], str), f"'claim' must be a string, got {doc['claim']!r}",
             "$.claim")
    _require(isinstance(doc["instances"], list), "expected a list", "$.instances")
    _require(_is_duration(doc.get("wall_time", 0.0)),
             f"'wall_time' must be a non-negative number, got {doc.get('wall_time')!r}",
             "$.wall_time")
    spec = doc.get("campaign")
    if spec is not None:
        _require(isinstance(spec, dict) and isinstance(spec.get("pads"), list)
                 and all(map(_is_int, [spec.get("depth"), *spec["pads"]])),
                 f"'campaign' needs an integer depth and integer pads, got {spec!r}", "$.campaign")
        try:
            spec = Campaign(n, spec["depth"], spec.get("tasks"), spec["pads"])
        except ValueError as exc:
            raise ValueError(f"campaign document: {exc} at $.campaign") from None
        listed = set(spec.instances())
    instances = []
    for pos, item in enumerate(doc["instances"]):
        loc = f"$.instances[{pos}]"
        _require(isinstance(item, dict), "expected an object", loc)
        for key in ("depth", "pad", "verdict"):
            _require(key in item, f"missing key {key!r}", loc)
        for key in ("depth", "pad"):
            _require(_is_int(item[key]), f"{key!r} must be an integer, got {item[key]!r}",
                     f"{loc}.{key}")
        index, label = item.get("prefix_index"), item.get("prefix")
        _require(index is None or _is_int(index),
                 f"'prefix_index' must be an integer or null, got {index!r}", f"{loc}.prefix_index")
        try:
            prefix = None if index is None else rn_prefix(n, index)
        except ValueError as exc:
            raise ValueError(f"campaign document: 'prefix_index' {exc} at {loc}.prefix_index") \
                from None
        try:
            inst = (Instance.layer1(n, item["depth"], item["pad"])
                    if index is None and label == "layer1"
                    else Instance(n, item["depth"], item["pad"], prefix))
        except ValueError as exc:
            raise ValueError(f"campaign document: {exc} at {loc}") from None
        _require(label is None or label == inst.label,
                 f"'prefix' must be null or {inst.label or 'layer1'!r} here, got {label!r}",
                 f"{loc}.prefix")
        _require(spec is None or inst in listed,
                 f"instance {inst.name} is not one the campaign spec lists", loc)
        values = {f.name: item.get(f.name, None if f.default is MISSING else f.default)
                  for f in fields(InstanceResult)[1:]}
        _require(values["verdict"] in ("SAT", "UNSAT", "TIMEOUT"),
                 f"bad verdict {values['verdict']!r}", loc)
        for key in ("encode_time", "solve_time"):
            _require(_is_duration(values[key]),
                     f"{key!r} must be a non-negative number, got {values[key]!r}", f"{loc}.{key}")
        for key in ("inputs_kept", "vars", "clauses"):
            _require(_is_int(values[key]) and values[key] >= 0,
                     f"{key!r} must be a non-negative integer, got {values[key]!r}",
                     f"{loc}.{key}")
        _require(isinstance(values["log"], str), f"'log' must be a string, got {values['log']!r}",
                 f"{loc}.log")
        _require((values["witness"] is not None) == (values["verdict"] == "SAT"),
                 "a witness must be present exactly for a SAT verdict", loc)
        if values["witness"] is not None:
            try:
                witness = values["witness"] = Network.from_json(json.dumps(values["witness"]))
            except ValueError as exc:
                raise ValueError(f"campaign document: {exc} at {loc}.witness") from None
            # a campaign decodes standard networks only, and only those are checked to sort
            _require(not witness.generalized, "witness is not a standard network", f"{loc}.witness")
            _require(witness.n == n and witness.depth <= inst.depth,
                     f"witness with {witness.n} channels and depth {witness.depth} "
                     f"does not fit the instance", loc)
            _require(inst.pad != 0 or is_sorting_network(witness),
                     "witness fails verification", loc)
        instances.append(InstanceResult(inst, **values))
    _audit_claim(doc["n"], doc["claim"], instances)
    return CampaignResult(doc["n"], doc["claim"], instances, doc.get("wall_time", 0.0), spec)


def _audit_claim(n: int, claim: str, instances: Sequence[InstanceResult]) -> None:
    """Raise ValueError unless claim, of the shape _evidence writes and
    with the report's n, is the claim _evidence makes at its depth d.

    Witnesses were re-verified on load; "inconclusive" claims nothing.
    """
    if claim == "inconclusive":
        return
    parsed = parse_claim(claim)
    if parsed is None or parsed[0] != n:
        raise ValueError(f"campaign document: unrecognised claim {claim!r} at $.claim")
    _, relation, d = parsed
    derived, witness, missing = _evidence(n, d, instances)
    if claim == derived:
        return
    if relation == "<=":
        raise ValueError(f"campaign document: claim {claim!r} has no pad-0 witness "
                         f"of depth <= {d}")
    if witness is not None:
        raise ValueError(f"campaign document: claim {claim!r} is contradicted by a pad-0 "
                         f"witness of depth {witness.depth} <= {d}")
    raise ValueError(f"campaign document: claim {claim!r} lacks an UNSAT at depth {d} "
                     f"for prefixes {missing}")

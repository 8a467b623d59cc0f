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

A report is one JSON object: n, the claim, the task ordering, the wall
time and the instances, each with the fields of InstanceResult in order.
An instance's encode_time is its build and those of any padded rounds
skipped just before it, never its input set, made once per process.
The instances are listed in task order, not in the order the workers
finished them: a prior campaign's first, then each task's in the order
the scheduler was given the tasks, its pads largest first.  With the
times zeroed, two runs of one campaign give the same report.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

from .networks import MAX_ENUM_CHANNELS, Network, _is_int, is_sorting_network
from .words import rn_sentences


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
    instances = [{f.name: getattr(r, f.name) for f in fields(InstanceResult)}
                 | {"witness": json.loads(r.witness.to_json()) if r.witness else None}
                 for r in c.instances]
    return json.dumps({"n": c.n, "claim": c.claim, "ordering": c.ordering,
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

    A malformed document, instance, n, claim, wall_time, ordering or
    instance field raises ValueError naming its $ path: times must be
    finite non-negative numbers, formula sizes non-negative integers, a
    prefix_index null or an index into R_n, the ordering a string, and a
    witness must be present exactly on a SAT instance.  The instance keys
    are the fields of InstanceResult; prefix_index and the keys after
    verdict may be missing.
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
        if index is not None:
            size = len(rn_sentences(doc["n"]))
            _require(0 <= index < size, f"'prefix_index' must index R_{doc['n']}, in "
                     f"0..{size - 1}, got {index!r}", f"{loc}.prefix_index")
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

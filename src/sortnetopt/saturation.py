"""Redundancy, saturation, and subsumption of two-layer prefixes.

A two-layer network is redundant when dropping one comparator leaves the
output set unchanged up to a channel permutation, and saturated when it is
non-redundant and no comparator can be added to its second layer without
escaping every permuted copy of its output set.  Saturated prefixes are
exactly the ones worth keeping when searching for depth-optimal sorting
networks; they admit a purely structural characterization via a handful of
forbidden two-layer patterns.

Naming follows the subsumption convention of the source theory: C_b
subsumes C_a when outputs(C_b) is contained in some permuted copy of
outputs(C_a), i.e. the *subsuming* network is the stronger filter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import words as words_mod
from .networks import Network, outputs

MAX_SEMANTIC_CHANNELS = 8
MAX_SUBSUME_CHANNELS = 10


# ---------------------------------------------------------------------------
# patterns

@dataclass(frozen=True)
class Pattern:
    """A partially specified two-layer network fragment.

    channels: number of pattern channels (1-based).  layer1/layer2 list
    oriented comparators (min-end, max-end) between pattern channels.
    externals1/externals2 name pattern channels that must be joined, at
    that layer, to some channel outside the assigned ones.  Assigned
    channels may carry no comparators beyond those declared.
    """

    channels: int
    layer1: tuple[tuple[int, int], ...] = ()
    layer2: tuple[tuple[int, int], ...] = ()
    externals1: tuple[int, ...] = ()
    externals2: tuple[int, ...] = ()


# Fig. 7 of the source theory: patterns that cannot occur in a saturated
# two-layer network (channels top-down; externals drawn in the figure).
PATTERNS: dict[str, Pattern] = {
    "P1a": Pattern(3, layer1=((1, 2),), externals2=(1,)),
    "P1b": Pattern(3, layer1=((1, 2),), externals2=(2,)),
    "P1c": Pattern(3, layer1=((1, 2),)),
    "P2": Pattern(4, layer1=((1, 2), (3, 4)), externals2=(2, 3)),
    "P3a": Pattern(4, layer1=((1, 2), (3, 4)), layer2=((1, 3),)),
    "P3b": Pattern(4, layer1=((1, 2), (3, 4)), layer2=((2, 4),)),
}


def _layer_maps(net: Network) -> tuple[dict[int, int], dict[int, int]]:
    if net.depth not in (1, 2):
        raise ValueError(f"expected a two-layer network, got depth {net.depth}")
    maps = []
    for d in (0, 1):
        m: dict[int, int] = {}
        if d < net.depth:
            for i, j in net.layers[d]:
                m[i], m[j] = j, i
        maps.append(m)
    return maps[0], maps[1]


def contains_pattern(net: Network, pattern: Pattern | str) -> bool:
    """Decide whether the pattern occurs in the first two layers of net.

    Occurrence requires an injective channel assignment preserving each
    declared comparator with its orientation (the pattern's min-end maps to
    the network comparator's min-end), a matching external comparator (to a
    channel outside the assignment) wherever one is declared, and no other
    comparators touching assigned channels.  Deeper networks are matched
    against their two-layer prefix.
    """
    if isinstance(pattern, str):
        pattern = PATTERNS[pattern]
    if net.depth > 2:
        net = Network(net.n, net.layers[:2], net.generalized)
    l1p, l2p = _layer_maps(net)
    partner_maps = (l1p, l2p)
    oriented = (frozenset(net.layers[0]),
                frozenset(net.layers[1]) if net.depth == 2 else frozenset())

    decl: dict[tuple[int, int], object] = {}
    for d, comps, exts in ((0, pattern.layer1, pattern.externals1),
                           (1, pattern.layer2, pattern.externals2)):
        for a, b in comps:
            decl[(d, a)] = (a, b)
            decl[(d, b)] = (a, b)
        for a in exts:
            decl[(d, a)] = "ext"

    pchans = range(1, pattern.channels + 1)
    for combo in itertools.permutations(range(1, net.n + 1), pattern.channels):
        assign = dict(zip(pchans, combo))
        chosen = set(combo)
        ok = True
        for p, ch in assign.items():
            for d in (0, 1):
                partner = partner_maps[d].get(ch)
                want = decl.get((d, p))
                if want is None:
                    ok = partner is None
                elif want == "ext":
                    ok = partner is not None and partner not in chosen
                else:
                    a, b = want
                    ok = (assign[a], assign[b]) in oriented[d]
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# output-set machinery: subset / equality modulo channel permutation

def _column_stats(vecs: Iterable[int], n: int) -> list[int]:
    cnt = [0] * n
    for v in vecs:
        for k in range(n):
            if (v >> k) & 1:
                cnt[k] += 1
    return cnt


def _embed_search(sb: frozenset[int], sa: frozenset[int], n: int, exact: bool) -> Optional[tuple[int, ...]]:
    """Find pi with sb subseteq pi(sa) (or equality when exact), else None.

    pi is returned as a tuple where pi[k-1] is the image of channel k, i.e.
    column pi(k) of pi(sa) equals column k of sa.  Backtracking assigns the
    preimage of each target column and refines a partition of (sb, sa) by
    the chosen column bits, which prunes aggressively.
    """
    if exact and len(sb) != len(sa):
        return None
    if len(sb) > len(sa):
        return None
    wb, wa = _column_stats(sb, n), _column_stats(sa, n)
    nb, na = len(sb), len(sa)

    preimage = [0] * n  # preimage[j-1] = k with pi(k) = j
    used = [False] * n
    cells = [(tuple(sb), tuple(sa))]

    def ok_counts(cb: int, ca: int) -> bool:
        return cb == ca if exact else cb <= ca

    def rec(j: int, cells) -> bool:
        if j > n:
            return True
        for k in range(1, n + 1):
            if used[k - 1]:
                continue
            if exact:
                if wb[j - 1] != wa[k - 1]:
                    continue
            else:
                if wb[j - 1] > wa[k - 1] or (nb - wb[j - 1]) > (na - wa[k - 1]):
                    continue
            new_cells = []
            fail = False
            for vb, va in cells:
                b0 = tuple(v for v in vb if not (v >> (j - 1)) & 1)
                b1 = tuple(v for v in vb if (v >> (j - 1)) & 1)
                a0 = tuple(v for v in va if not (v >> (k - 1)) & 1)
                a1 = tuple(v for v in va if (v >> (k - 1)) & 1)
                if not ok_counts(len(b0), len(a0)) or not ok_counts(len(b1), len(a1)):
                    fail = True
                    break
                if b0 or (exact and a0):
                    new_cells.append((b0, a0))
                if b1 or (exact and a1):
                    new_cells.append((b1, a1))
            if fail:
                continue
            used[k - 1] = True
            preimage[j - 1] = k
            if rec(j + 1, new_cells):
                return True
            used[k - 1] = False
        return False

    if not rec(1, cells):
        return None
    pi = [0] * n
    for j, k in enumerate(preimage, start=1):
        pi[k - 1] = j
    return tuple(pi)


def permute_vectors(pi: Sequence[int], vecs: Iterable[int]) -> frozenset[int]:
    """Apply a channel permutation to packed vectors: bit k moves to bit pi(k)."""
    out = []
    n = len(pi)
    for v in vecs:
        w = 0
        for k in range(n):
            if (v >> k) & 1:
                w |= 1 << (pi[k] - 1)
        out.append(w)
    return frozenset(out)


def subsumes(cb: Network, ca: Network) -> Optional[tuple[int, ...]]:
    """Witness pi with outputs(cb) subseteq pi(outputs(ca)), if any.

    In the theory's wording cb then subsumes ca: cb is the stronger prefix.
    """
    if cb.n != ca.n:
        raise ValueError("subsumption needs equal channel counts")
    if cb.depth != ca.depth:
        raise ValueError("subsumption is compared at equal depth")
    if cb.n > MAX_SUBSUME_CHANNELS:
        raise ValueError(f"subsumption search is capped at n <= {MAX_SUBSUME_CHANNELS}")
    return _embed_search(outputs(cb), outputs(ca), cb.n, exact=False)


# ---------------------------------------------------------------------------
# redundancy

def _remove_one(net: Network, d: int, comp: tuple[int, int]) -> Network:
    layers = [tuple(c for c in layer) for layer in net.layers]
    layers[d] = tuple(c for c in layers[d] if c != comp)
    return Network(net.n, tuple(layers), net.generalized)


def is_redundant(net: Network, semantic: bool = False) -> bool:
    """Redundancy check; the default syntactic mode reads the layers.

    Two-layer networks are redundant exactly when their sentence contains
    the word 12_c: a layer-2 comparator joins the two channels of a layer-1
    comparator.  The semantic mode (n <= 8) checks every single-comparator
    removal for output-set equality modulo permutation.
    """
    if not semantic:
        l1p, _ = _layer_maps(net)
        return net.depth == 2 and any(l1p.get(i) == j for i, j in net.layers[1])
    if net.n > MAX_SEMANTIC_CHANNELS:
        raise ValueError(f"semantic redundancy is capped at n <= {MAX_SEMANTIC_CHANNELS}")
    full = outputs(net)
    for d, layer in enumerate(net.layers):
        for comp in layer:
            if _embed_search(outputs(_remove_one(net, d, comp)), full, net.n, exact=True):
                return True
    return False


# ---------------------------------------------------------------------------
# saturation

def is_saturated(net: Network) -> bool:
    """Structural saturation test for a two-layer network with maximal layer 1.

    Equivalent to the semantic definition (verified exhaustively for small
    n): the network is non-redundant and none of the forbidden patterns of
    _find_fix leaves room for an output-shrinking second-layer comparator.
    """
    return not is_redundant(net) and _find_fix(net) is None


def addable_comparators(net: Network) -> list[tuple[int, int]]:
    """Second-layer additions that respect disjointness and are not no-ops.

    Re-adding a first-layer comparator never changes any output and is
    excluded; everything else on two layer-2-free channels qualifies.
    """
    _, l2p = _layer_maps(net)
    unused = [ch for ch in range(1, net.n + 1) if ch not in l2p]
    l1 = set(net.layers[0])
    out = []
    for i, j in itertools.combinations(sorted(unused), 2):
        if (i, j) in l1:
            continue
        out.append((i, j))
    return out


def _with_added(net: Network, comp: tuple[int, int]) -> Network:
    l2 = (net.layers[1] if net.depth == 2 else ()) + (comp,)
    generalized = net.generalized or comp[0] > comp[1]
    return Network(net.n, (net.layers[0], tuple(sorted(l2))), generalized)


def is_saturated_semantic(net: Network) -> bool:
    """Exhaustive saturation oracle: tries every addition and permutation."""
    if net.n > MAX_SEMANTIC_CHANNELS:
        raise ValueError(f"semantic saturation is capped at n <= {MAX_SEMANTIC_CHANNELS}")
    if is_redundant(net, semantic=True):
        return False
    full = outputs(net)
    # a reversed added comparator only permutes the standard one's outputs,
    # so the standard orientation decides both
    for comp in addable_comparators(net):
        if _embed_search(outputs(_with_added(net, comp)), full, net.n, exact=False):
            return False
    return True


def saturated_layer_count(n: int, by_enumeration: bool = False) -> int:
    """Number of second layers over F_n whose two-layer network is saturated.

    The default sums the orbit sizes of the saturated sentence classes:
    distribute the comparator pairs over the components, embed heads and
    sticks in every pair order (halved for palindromic sticks), and embed a
    cycle once per rotation start, i.e. per class string beginning with 12.
    Enumeration mode walks all of G_n instead; both agree (tested).
    """
    if by_enumeration:
        return sum(1 for _ in words_mod.generate(n, "sn"))
    return sum(sentence_class_size(s) for s in words_mod.sentences(n, "rsn"))


def sentence_class_size(sentence) -> int:
    """How many second layers over F_n yield this canonical sentence."""
    from collections import Counter
    from math import factorial

    def pairs(w) -> int:
        return (len(w) - 1) // 2 if w.tag == "h" else len(w) // 2

    total = factorial(sum(pairs(w) for w in sentence))
    for w in sentence:
        m = pairs(w)
        total //= factorial(m)
        if w.tag == "h":
            total *= factorial(m)
        elif w.tag == "s":
            total *= factorial(m) // (2 if w.symbols == w.symbols[::-1] else 1)
        else:
            starts = sum(1 for c in words_mod.cycle_readings(w.symbols) if c.startswith("12"))
            total *= starts * factorial(m - 1)
    for _, r in Counter(sentence).items():
        total //= factorial(r)
    return total


# ---------------------------------------------------------------------------
# saturate: pattern-driven completion (P1 fixes first, then P2, then P3)

def _find_fix(net: Network) -> Optional[tuple[int, int]]:
    """Next output-shrinking addition, oriented as the pattern proofs require.

    The one implementation of the forbidden patterns.  The addable weak
    spots are exactly:

    * a channel untouched by both layers, next to a first-layer comparator
      with a second-layer-free endpoint (patterns 1a/1b/1c);
    * a free min-channel and a free max-channel in different first-layer
      comparators (pattern 2);
    * a second-layer comparator joining two min-channels whose partners are
      both free at layer 2, or dually for max-channels (patterns 3a/3b).
    """
    l1p, l2p = _layer_maps(net)
    unused2 = [ch for ch in range(1, net.n + 1) if ch not in l2p]
    free = [ch for ch in unused2 if ch not in l1p]
    l1min = {i for i, j in net.layers[0]}

    for c in free:
        for a, b in net.layers[0]:
            if a in l2p and b not in l2p:
                return (c, b)      # P1a: min to the free channel
            if b in l2p and a not in l2p:
                return (a, c)      # P1b: min to the first-layer min
            if a not in l2p and b not in l2p:
                return (a, c)      # P1c: either fix applies
    for a in unused2:
        if a not in l1p or a not in l1min:
            continue
        for d in unused2:
            if d not in l1p or d in l1min or l1p[a] == d:
                continue
            return (a, d)          # P2
    if net.depth == 2:
        for i, j in net.layers[1]:
            oi, oj = l1p.get(i), l1p.get(j)
            if oi is None or oj is None:
                continue
            if i in l1min and j in l1min and oi not in l2p and oj not in l2p:
                return (oi, oj)    # P3a: join the two max partners
            if i not in l1min and j not in l1min and oi not in l2p and oj not in l2p:
                return (oi, oj)    # P3b: join the two min partners
    return None


def saturate(net: Network) -> Network:
    """Complete a two-layer network to a saturated one over the same layer 1.

    Repeatedly drops repeated first-layer comparators from layer 2 and adds
    the output-shrinking comparators prescribed by the pattern proofs.  The
    prescribed orientation can be reversed (min routed to the higher
    channel), in which case the result is a generalized network; its output
    set is a subset of the input's output set either way.
    """
    l1 = net.layers[0]
    l2 = list(net.layers[1] if net.depth == 2 else ())
    l2 = [c for c in l2 if (min(c), max(c)) not in set(l1)]
    cur = Network(net.n, (l1, tuple(l2)), generalized=any(i > j for i, j in l2))
    while True:
        fix = _find_fix(cur)
        if fix is None:
            return cur
        cur = _with_added(cur, fix)


# ---------------------------------------------------------------------------
# conjecture check

def representative_networks(n: int, kind: str = "rsn") -> list[Network]:
    """Networks for the canonical sentences of a sentence kind."""
    return [words_mod.net_of(s) for s in words_mod.sentences(n, kind)]


def verify_conjecture(n: int, report: Optional[list[str]] = None) -> bool:
    """No two non-equivalent saturated classes subsume one another.

    When a list is passed as report, one CSV line per ordered class pair
    is appended: classA,classB,verdict.
    """
    if n > MAX_SEMANTIC_CHANNELS:
        raise ValueError(f"conjecture check is capped at n <= {MAX_SEMANTIC_CHANNELS}")
    classes = list(words_mod.sentences(n, "rsn"))
    ok = True
    for sa, sb in itertools.combinations(classes, 2):
        a, b = words_mod.net_of(sa), words_mod.net_of(sb)
        for (x, sx), (y, sy) in (((a, sa), (b, sb)), ((b, sb), (a, sa))):
            hit = subsumes(x, y) is not None
            ok = ok and not hit
            if report is not None:
                report.append(f"{words_mod.render_sentence(sx)},"
                              f"{words_mod.render_sentence(sy)},"
                              f"{'subsumes' if hit else 'incomparable'}")
            elif hit:
                return False
    return ok

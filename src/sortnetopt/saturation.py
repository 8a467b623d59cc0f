"""Redundancy, saturation, and subsumption of two-layer prefixes.

A two-layer network is redundant when dropping one comparator leaves the
output set unchanged up to a channel permutation, and saturated when it is
non-redundant and no comparator can be added to its second layer without
escaping every permuted copy of its output set.  Saturated prefixes are
exactly the ones worth keeping when searching for depth-optimal sorting
networks.

One structural test, _weak_spot, decides both from the two layers and
their partner maps; is_saturated, saturate and the sn set all call it.  A
network is redundant when a second-layer comparator joins the two channels
of a first-layer comparator.  Otherwise it is unsaturated exactly when it
shows one of the forbidden patterns of Fig. 7, where "free" means untouched
by the second layer:

* P1 (a, b, c): a channel untouched by both layers, and a first-layer
  comparator with a free end;
* P2: a free min-channel and a free max-channel in different first-layer
  comparators;
* P3 (a, b): a second-layer comparator joining two min-channels, or two
  max-channels, whose first-layer partners are both free.

is_saturated_semantic, which tries every addition under every channel
permutation (n <= 8), is its oracle: the two agree on every second layer
over F_n for n <= 7 (tested).

Naming follows the subsumption convention of the source theory: C_b
subsumes C_a when outputs(C_b) is contained in some permuted copy of
outputs(C_a), i.e. the *subsuming* network is the stronger filter.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from . import words as words_mod
from .networks import Layer, Network, first_layer, outputs

MAX_SEMANTIC_CHANNELS = 8
MAX_SUBSUME_CHANNELS = 10


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
        l1p, _ = words_mod.two_layer_partners(net)
        return net.depth == 2 and _repeated(net.layers[1], l1p) is not None
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
    """Structural saturation test for a network of depth 1 or 2.

    True when _weak_spot finds neither a repeated first-layer comparator nor
    a forbidden pattern.  On a maximal first layer this is the semantic
    definition: it agrees with is_saturated_semantic on every second layer
    over F_n for n <= 7 (tested).
    """
    l1p, l2p = words_mod.two_layer_partners(net)
    l2 = net.layers[1] if net.depth == 2 else ()
    return _weak_spot(net.n, net.layers[0], l2, l1p, l2p) is None


def saturated_layers(n: int) -> Iterator[Layer]:
    """The second layers over F_n whose two-layer network is saturated, in
    the order of words.matchings.

    Tests the raw layers with _weak_spot, as is_saturated does, but builds
    no Network per layer.  Raises ValueError for n < 2 at the call, not at
    the first item.
    """
    fl = first_layer(n)
    l1p = words_mod.layer_partners(fl)
    return (l2 for l2 in words_mod.matchings(n)
            if _weak_spot(n, fl, l2, l1p, words_mod.layer_partners(l2)) is None)


def addable_comparators(net: Network) -> list[tuple[int, int]]:
    """Second-layer additions that respect disjointness and are not no-ops.

    Re-adding a first-layer comparator never changes any output and is
    excluded; everything else on two layer-2-free channels qualifies.
    """
    _, l2p = words_mod.two_layer_partners(net)
    unused = [ch for ch in range(1, net.n + 1) if ch not in l2p]
    l1 = set(net.layers[0])
    return [c for c in itertools.combinations(unused, 2) if c not in l1]


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
        return sum(1 for _ in saturated_layers(n))
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

def _repeated(l2, l1p: dict[int, int]) -> Optional[tuple[int, int]]:
    """A second-layer comparator joining the two channels of a first-layer one."""
    for i, j in l2:
        if l1p.get(i) == j:
            return (i, j)
    return None


def _weak_spot(n: int, l1, l2, l1p: dict[int, int], l2p: dict[int, int]) -> Optional[tuple[int, int]]:
    """The first reason two layers are not saturated, or None when they are.

    Takes the raw layers and their partner maps (channel -> the channel it
    is joined to in that layer), so callers that sweep many second layers
    over one first layer build no Network per layer.  A second-layer
    comparator joining the two channels of a first-layer one (the word 12_c)
    is returned as it stands: the layers are redundant.  Otherwise the result
    is the addition that fixes the first forbidden pattern found, P1 before
    P2 before P3 (see the module docstring).
    """
    repeat = _repeated(l2, l1p)
    if repeat is not None:
        return repeat
    unused2 = [ch for ch in range(1, n + 1) if ch not in l2p]
    free = [ch for ch in unused2 if ch not in l1p]
    l1min = {i for i, j in l1}

    for c in free:
        for a, b in l1:
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
    for i, j in l2:
        oi, oj = l1p.get(i), l1p.get(j)
        if oi is None or oj is None:
            continue
        if i in l1min and j in l1min and oi not in l2p and oj not in l2p:
            return (oi, oj)        # P3a: join the two max partners
        if i not in l1min and j not in l1min and oi not in l2p and oj not in l2p:
            return (oi, oj)        # P3b: join the two min partners
    return None


def saturate(net: Network) -> Network:
    """Complete a two-layer network to a saturated one over the same layer 1.

    Drops the second-layer comparators that repeat a first-layer one, then
    adds the output-shrinking comparator _weak_spot prescribes until it
    finds none.  The prescribed orientation can be reversed (min routed to
    the higher channel), in which case the result is a generalized network;
    its output set is a subset of the input's output set either way.
    """
    l1 = net.layers[0]
    l1p = words_mod.layer_partners(l1)
    l2 = [c for c in (net.layers[1] if net.depth == 2 else ()) if l1p.get(c[0]) != c[1]]
    while (fix := _weak_spot(net.n, l1, l2, l1p, words_mod.layer_partners(l2))) is not None:
        l2 = sorted(l2 + [fix])
    return Network(net.n, (l1, tuple(l2)), generalized=any(i > j for i, j in l2))


# ---------------------------------------------------------------------------
# conjecture check

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

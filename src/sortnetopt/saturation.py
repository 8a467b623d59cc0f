"""Redundancy and saturation of two-layer prefixes.

A two-layer network is redundant when dropping one comparator leaves the
output set unchanged up to a channel permutation, and saturated when it is
non-redundant and no comparator can be added to its second layer without
escaping every permuted copy of its output set.  Saturated prefixes are
exactly the ones worth keeping when searching for depth-optimal sorting
networks.

Both are read off the layers, by two separate rules.  A network is
redundant exactly when a second-layer comparator joins the two channels of
a first-layer comparator (the word 12_c); _repeated finds one, behind
is_redundant.  A non-redundant network is unsaturated exactly when it
shows one of the forbidden patterns of Fig. 7, where "free" means
untouched by the second layer:

* P1 (a, b, c): a channel untouched by both layers, and a first-layer
  comparator with a free end;
* P2: a free min-channel and a free max-channel in different first-layer
  comparators;
* P3 (a, b): a second-layer comparator joining two min-channels, or two
  max-channels, whose first-layer partners are both free.

_weak_spot judges these three from the first layer's facts
(_first_layer_facts: its partner map, its min channels, its min and max
channels in order and the channels it leaves out), the second layer and
the channels it touches.  is_saturated is the definition: not redundant,
and no forbidden pattern.  saturate and the sn walk call _weak_spot alone,
because neither ever holds a repeated comparator, and each builds the
facts once: the walk once for all of its leaves.  The oracle,
is_saturated_semantic in tests/oracles.py, tries every addition under
every channel permutation (n <= 8): it agrees with is_saturated on every
second layer over F_n for n <= 7 (tested).

saturated_layers walks the saturated second layers over F_n (the sn set)
as a DAG: the subtree below a walk node depends only on its open channels
and the channels left out so far, so each such state near the leaves lists
its completions once per walk (at n = 12, 1 824 states under 97 861
nodes).  saturated_layer_count counts the sn set with words.rsn_count,
which sums words.sentence_class_size over the saturated sentence classes
without listing them.
"""

from __future__ import annotations

from typing import Container, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import words as words_mod
from .networks import Layer, Network, first_layer


# ---------------------------------------------------------------------------
# channel permutations

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


# ---------------------------------------------------------------------------
# redundancy

def _repeated(l2, l1p: dict[int, int]) -> Optional[tuple[int, int]]:
    """A second-layer comparator joining the two channels of a first-layer one."""
    for i, j in l2:
        if l1p.get(i) == j:
            return (i, j)
    return None


def is_redundant(net: Network) -> bool:
    """Redundancy check for a network of depth 1 or 2, read off the layers.

    Two-layer networks are redundant exactly when their sentence contains
    the word 12_c: a layer-2 comparator joins the two channels of a layer-1
    comparator.  The semantic check, every single-comparator removal tried
    for output-set equality modulo permutation, is its oracle in
    tests/oracles.py.
    """
    l1p, _ = words_mod.two_layer_partners(net)
    return net.depth == 2 and _repeated(net.layers[1], l1p) is not None


# ---------------------------------------------------------------------------
# saturation: the forbidden patterns P1-P3, judged by _weak_spot

class _FirstLayer(NamedTuple):
    """What _weak_spot reads of a first layer, built once for every second
    layer that is tested over it."""
    pairs: Layer                # the comparators, in layer order
    partner: dict[int, int]     # channel -> the channel it is joined to
    mins: frozenset[int]        # the min channel of each comparator
    min_order: tuple[int, ...]  # the min channels, ascending
    max_order: tuple[int, ...]  # the max channels, ascending
    free: tuple[int, ...]       # the channels outside the layer, ascending


def _first_layer_facts(n: int, l1: Layer) -> _FirstLayer:
    partner = words_mod.layer_partners(l1)
    mins = frozenset(i for i, j in l1)
    return _FirstLayer(l1, partner, mins, tuple(sorted(mins)), tuple(sorted(j for i, j in l1)),
                       tuple(ch for ch in range(1, n + 1) if ch not in partner))


def _weak_spot(first: _FirstLayer, l2, touched: Container[int]) -> Optional[tuple[int, int]]:
    """The addition that fixes the first forbidden pattern two layers show,
    P1 before P2 before P3 (see the module docstring), or None when they
    show none.

    Takes the first layer's facts, the raw second layer and the channels it
    touches (any container that answers `in`: layer 2's partner map will
    do), so callers that sweep many second layers over one first layer
    build no Network per layer and read the first layer once.  It judges
    the patterns only: whether layer 2 repeats a first-layer comparator is
    is_redundant's question, which is_saturated asks first.
    """
    l1, l1p, l1min, min_order, max_order, free = first

    # P1 reads the lowest free channel left out of layer 2: if no pair
    # fires on it, none fires on a higher one
    for c in free:
        if c in touched:
            continue
        for a, b in l1:
            if a in touched and b not in touched:
                return (c, b)      # P1a: min to the free channel
            if b in touched and a not in touched:
                return (a, c)      # P1b: min to the first-layer min
            if a not in touched and b not in touched:
                return (a, c)      # P1c: either fix applies
        break
    for a in min_order:
        if a in touched:
            continue
        for d in max_order:
            if d not in touched and l1p[a] != d:
                return (a, d)      # P2
    for i, j in l2:
        oi, oj = l1p.get(i), l1p.get(j)
        if oi is None or oj is None:
            continue
        if i in l1min and j in l1min and oi not in touched and oj not in touched:
            return (oi, oj)        # P3a: join the two max partners
        if i not in l1min and j not in l1min and oi not in touched and oj not in touched:
            return (oi, oj)        # P3b: join the two min partners
    return None


def is_saturated(net: Network) -> bool:
    """Structural saturation test for a network of depth 1 or 2: not
    redundant, and no forbidden pattern.

    On a maximal first layer this is the semantic definition: it agrees
    with the semantic oracle, is_saturated_semantic in tests/oracles.py, on
    every second layer over F_n for n <= 7 (tested).
    """
    l2 = net.layers[1] if net.depth == 2 else ()
    return (not is_redundant(net)
            and _weak_spot(_first_layer_facts(net.n, net.layers[0]), l2,
                           words_mod.layer_partners(l2)) is None)


# the sn walk lists the completions of every state with at most this many
# open channels once; of the cutoffs 0..12, 5 and 6 were fastest at
# n = 12, and 5 keeps the memo smaller
WALK_MEMO_OPEN = 5


def saturated_layers(n: int) -> Iterator[Layer]:
    """The second layers over F_n whose two-layer network is saturated, in
    the order of words.matchings.

    Walks the recursion of words.matchings (leave the lowest open channel
    out, then join it to each higher one) and judges every leaf with
    _weak_spot, but builds no Network per layer and never enters a subtree
    whose every leaf is redundant or rejected by _weak_spot.  The prune
    reads only the channels already left out of layer 2:

    * a channel is never joined to its first-layer partner, so no leaf is
      redundant and _weak_spot alone decides is_saturated on every leaf;
    * a first-layer min channel and a max channel that are not partners
      are never both left out (P2 fires on them);
    * the free channel is left out only when every other channel is
      matched (otherwise P1 fires on it and the comparator holding a
      left-out channel).

    The last two rules are derived from P2 and P1 of _weak_spot, not a
    second implementation of them; _weak_spot stays the only judge of the
    patterns.  Left-out channels stay left out in every leaf below, so each
    pruned subtree holds only rejected layers, and the walk yields exactly
    what filtering words.matchings(n) through is_saturated yields, in the
    same order.  At n = 12 it judges 29 794 leaves instead of 140 152.

    The subtree below a node depends only on the node's state: its open
    channels and the min and max channels left out so far.  At n = 12 the
    walk has 97 861 nodes but only 1 824 states (24 971 020 nodes and
    17 987 states at n = 16).  So a state with at most WALK_MEMO_OPEN open
    channels lists its completions once per call, in walk order: the
    comparators still to join, with the channels they touch.  Every later
    node of that state reuses the list.  Each leaf is the comparators
    joined above such a node plus one completion, and _weak_spot still
    judges every leaf.  Above the cutoff the walk streams one node at a
    time, so the memo stays small: 1 328 states listing 3 546 completions
    (180 distinct, each kept once) at n = 12, and 8 977 states listing
    30 036 (540 distinct) at n = 16.  It lives as long as the call, so two
    walks share nothing.
    Raises ValueError for n < 2 at the call, not at the first item.
    """
    facts = _first_layer_facts(n, first_layer(n))
    memo: dict[tuple, list[tuple[Layer, frozenset[int]]]] = {}
    shared: dict = {}   # one copy of each distinct completion: states share most

    def children(avail: tuple[int, ...], out_min: tuple[int, ...],
                 out_max: tuple[int, ...]) -> Iterator[tuple]:
        # (the comparator joined, or None when avail[0] is left out; the
        # child's state).  out_min / out_max: the first-layer min / max
        # channels left out so far, each channel once, so P2 allows none of
        # them or the partner
        v, rest = avail[0], avail[1:]
        partner = facts.partner.get(v)
        if partner is None:
            # the free channel n is the last one the walk reaches
            if not out_min and not out_max:             # P1
                yield None, (rest, out_min, out_max)
        elif v < partner:
            if out_max in ((), (partner,)):             # P2
                yield None, (rest, out_min + (v,), out_max)
        elif out_min in ((), (partner,)):               # P2
            yield None, (rest, out_min, out_max + (v,))
        for k, w in enumerate(rest):
            if w != partner:    # never a repeated first-layer comparator
                yield (v, w), (rest[:k] + rest[k + 1:], out_min, out_max)

    def completions(state: tuple) -> list[tuple[Layer, frozenset[int]]]:
        if not state[0]:
            return [((), frozenset())]
        done = memo.get(state)
        if done is None:
            done = memo[state] = []
            for comp, child in children(*state):
                for tail in completions(child):
                    if comp is not None:
                        tail = ((comp,) + tail[0], tail[1].union(comp))
                        tail = shared.setdefault(tail, tail)
                    done.append(tail)
        return done

    def frontier(state: tuple, head: Layer) -> Iterator[tuple[tuple, Layer]]:
        # the nodes where the streamed walk meets the memo, in walk order,
        # with the comparators joined above each
        if len(state[0]) <= WALK_MEMO_OPEN:
            yield state, head
            return
        for comp, child in children(*state):
            yield from frontier(child, head if comp is None else head + (comp,))

    def leaves() -> Iterator[Layer]:
        for state, head in frontier((tuple(range(1, n + 1)), (), ()), ()):
            head_touched = frozenset(ch for c in head for ch in c)
            for tail, touched in completions(state):
                l2 = head + tail
                if _weak_spot(facts, l2, head_touched | touched) is None:
                    yield l2

    return leaves()


def saturated_layer_count(n: int) -> int:
    """Number of second layers over F_n whose two-layer network is saturated.

    The sum of words.sentence_class_size over the saturated sentence
    classes, rsn: each class counts the second layers that embed its words
    in F_n's comparator pairs.  words.rsn_count counts that sum without
    listing rsn, the same code path as the S column of words.counts.
    Counting the saturated_layers walk gives the same number, and so does
    the sum over words.sentences(n, "rsn") (tested).
    """
    return words_mod.rsn_count(n, weighted=True)


# ---------------------------------------------------------------------------
# saturate: pattern-driven completion (P1 fixes first, then P2, then P3)

def saturate(net: Network) -> Network:
    """Complete a two-layer network to a saturated one over the same layer 1.

    Drops the second-layer comparators that repeat a first-layer one, then
    adds the output-shrinking comparator _weak_spot prescribes until it
    finds none.  _weak_spot alone judges, because no fix joins two
    first-layer partners and so none makes the layers redundant (tested):
    a P1 fix takes a free channel, a P2 fix joins a min and a max channel
    that are not partners, and a P3 fix joins the partners of a layer-2
    comparator's ends, which are partners only if that comparator repeats
    a first-layer one.  The prescribed orientation can be reversed (min
    routed to the higher channel), and a result with such a comparator is
    generalized; its output set is a subset of the input's output set
    either way.
    Raises ValueError for a network of depth other than 1 or 2.
    """
    words_mod.two_layer_partners(net)   # raises unless the depth is 1 or 2
    l1 = net.layers[0]
    facts = _first_layer_facts(net.n, l1)
    l2 = [c for c in (net.layers[1] if net.depth == 2 else ()) if facts.partner.get(c[0]) != c[1]]
    while (fix := _weak_spot(facts, l2, words_mod.layer_partners(l2))) is not None:
        l2 = sorted(l2 + [fix])
    return Network(net.n, (l1, tuple(l2)))

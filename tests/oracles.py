"""Reference oracles: the exhaustive checkers the tests hold the pipeline to.

The pipeline (R_n prefix set, CNF per prefix, SAT solver, claim) lives in
src/sortnetopt and reaches none of this: no module there imports it
(tests/test_imports.py).  Each oracle reads a definition directly, and
the exhaustive ones are capped where exhaustion stops being cheap:

* scalar evaluation (evaluate, evaluate_bits) and packed-vector helpers,
  against the numpy evaluation behind outputs and unsorted_inputs;
* permute and the labelled digraph of a network (graph_of, iso_bruteforce),
  against untangle and the sentences of words;
* the subsumption search (subsumes, n <= 8, over _embed_search, which
  finds a channel permutation pi with one output set inside pi of
  another), which the semantic checks below run on, and the cover check
  (uncovered_layers): every second layer over F_n is subsumed by a
  member of R_n or by its reflection, each witness checked with
  saturation.permute_vectors;
* semantic redundancy and saturation, which try every removal or addition
  under every channel permutation (n <= 8), against saturation's structural
  test, and verify_conjecture over the saturated classes;
* brute_force_sorter_exists, every depth-d layer sequence tried on an input
  set, against the SAT encoding;
* the variable numbering and literals of a formula key by key (x_var,
  value_lit, variable_index), against the arrays of VarMap.

RULE_SWITCHES names the formula rules that the tests switch on and off.

pytest puts tests/ on sys.path (`pythonpath` in pyproject.toml), so test
modules import this file as `oracles`; its name keeps it out of test
collection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from sortnetopt import words as words_mod
from sortnetopt.encoding import RULES
from sortnetopt.campaign import two_layer_prefixes
from sortnetopt.networks import (ChannelCountError, Comparator, Network, first_layer, outputs,
                                 reflect)
from sortnetopt.saturation import permute_vectors
from sortnetopt.words import matchings

MAX_SEMANTIC_CHANNELS = 8

# The rule switches of EncodeOptions, as encoding.RULES lists them: a new
# rule is a new switch field, and every test that runs the rules on and off
# picks it up from here.
RULE_SWITCHES = tuple(RULES)


# ---------------------------------------------------------------------------
# evaluation

def evaluate(net: Network, x: Sequence) -> tuple:
    """Propagate an input sequence through the network (works for any ordered values)."""
    if len(x) != net.n:
        raise ChannelCountError(f"input has {len(x)} entries, network has {net.n} channels")
    vals = list(x)
    for layer in net.layers:
        for i, j in layer:
            a, b = vals[i - 1], vals[j - 1]
            if a > b:
                vals[i - 1], vals[j - 1] = b, a
    return tuple(vals)


def evaluate_bits(net: Network, x: int) -> int:
    """Evaluate one packed Boolean vector: an int or a numpy integer scalar,
    such as a member of unsorted_inputs(n)."""
    x = int(x)
    for layer in net.layers:
        for i, j in layer:
            a = (x >> (i - 1)) & 1
            b = (x >> (j - 1)) & 1
            if a != b:
                x = (x & ~((1 << (i - 1)) | (1 << (j - 1)))) | ((a & b) << (i - 1)) | ((a | b) << (j - 1))
    return x


def sorted_vectors(n: int) -> list[int]:
    """The n+1 ascending vectors 0^k 1^(n-k), packed."""
    return [(1 << n) - (1 << k) for k in range(n, -1, -1)]


def is_ascending(v: int, n: int) -> bool:
    """True iff packed vector v is 0s on low channels then 1s."""
    return (v + (v & -v)) & ((1 << n) - 1) == 0


# ---------------------------------------------------------------------------
# vector helpers (channel 1 is the first character of the string form)

def vec_from_str(s: str) -> int:
    return sum(1 << k for k, ch in enumerate(s) if ch == "1")


def vec_to_str(v: int, n: int) -> str:
    return "".join("1" if (v >> k) & 1 else "0" for k in range(n))


def reverse_complement(v: int, n: int) -> int:
    """Reverse the channel order and flip every bit."""
    out = 0
    for k in range(n):
        if not (v >> (n - 1 - k)) & 1:
            out |= 1 << k
    return out


# ---------------------------------------------------------------------------
# symmetries

def permute(pi: Sequence[int], net: Network) -> Network:
    """Apply a channel permutation; pi[k-1] is the image of channel k.

    Comparators keep their (min-target, max-target) order, so the result is
    generalized whenever some image pair is reversed.
    """
    if sorted(pi) != list(range(1, net.n + 1)):
        raise ValueError(f"not a permutation of 1..{net.n}: {pi!r}")
    return Network(net.n, tuple(tuple((pi[i - 1], pi[j - 1]) for i, j in layer)
                                for layer in net.layers))


# ---------------------------------------------------------------------------
# graph representation and brute-force isomorphism

@dataclass(frozen=True)
class GraphRep:
    """Directed multigraph on comparator occurrences with edge labels 1/2.

    Vertex v carries comparator(v); edge (u, 1, v) means the min output of
    u feeds v, label 2 the max output.  Unused channels leave no trace.
    """

    comparators: tuple[Comparator, ...]
    edges: frozenset[tuple[int, int, int]] = field(default_factory=frozenset)

    @property
    def order(self) -> int:
        return len(self.comparators)


def graph_of(net: Network) -> GraphRep:
    verts: list[Comparator] = []
    edges = set()
    last_writer: dict[int, tuple[int, int]] = {}  # channel -> (vertex, label)
    for layer in net.layers:
        placed = []
        for i, j in layer:
            v = len(verts) + len(placed)
            placed.append(((i, j), v))
        for (i, j), v in placed:
            for ch in (i, j):
                if ch in last_writer:
                    u, label = last_writer[ch]
                    edges.add((u, label, v))
        for (i, j), v in placed:
            last_writer[i] = (v, 1)  # min side
            last_writer[j] = (v, 2)  # max side
        verts.extend(c for c, _ in placed)
    return GraphRep(tuple(verts), frozenset(edges))


MAX_ISO_VERTICES = 10


def iso_bruteforce(g1: GraphRep, g2: GraphRep) -> bool:
    """Exact labeled-digraph isomorphism by signature-pruned backtracking."""
    if g1.order != g2.order:
        return False
    if g1.order > MAX_ISO_VERTICES:
        raise ValueError(f"iso_bruteforce is capped at {MAX_ISO_VERTICES} vertices")
    if len(g1.edges) != len(g2.edges):
        return False

    def signatures(g: GraphRep) -> list[tuple[int, int, int, int]]:
        sig = [[0, 0, 0, 0] for _ in range(g.order)]
        for u, label, v in g.edges:
            sig[u][label - 1] += 1
            sig[v][label + 1] += 1
        return [tuple(s) for s in sig]

    s1, s2 = signatures(g1), signatures(g2)
    if sorted(s1) != sorted(s2):
        return False
    e2 = g2.edges
    cand = [[v for v in range(g2.order) if s2[v] == s1[u]] for u in range(g1.order)]
    adj1: dict[int, list[tuple[int, int, int]]] = {u: [] for u in range(g1.order)}
    for u, label, v in g1.edges:
        adj1[u].append((u, label, v))
        adj1[v].append((u, label, v))

    mapping = [-1] * g1.order
    used = [False] * g2.order

    def place(u: int) -> bool:
        if u == g1.order:
            return True
        for w in cand[u]:
            if used[w]:
                continue
            ok = True
            for a, label, b in adj1[u]:
                ma = mapping[a] if a != u else w
                mb = mapping[b] if b != u else w
                if ma >= 0 and mb >= 0 and (ma, label, mb) not in e2:
                    ok = False
                    break
            if ok:
                mapping[u] = w
                used[w] = True
                if place(u + 1):
                    return True
                mapping[u] = -1
                used[w] = False
        return False

    return place(0)


# ---------------------------------------------------------------------------
# subsumption: subset modulo channel permutation
#
# Naming follows the subsumption convention of the source theory: C_b
# subsumes C_a when outputs(C_b) is contained in some permuted copy of
# outputs(C_a), i.e. the *subsuming* network is the stronger filter.

def _column_stats(vecs: Iterable[int], n: int) -> list[int]:
    cnt = [0] * n
    for v in vecs:
        for k in range(n):
            if (v >> k) & 1:
                cnt[k] += 1
    return cnt


def _embed_search(sb: frozenset[int], sa: frozenset[int], n: int) -> Optional[tuple[int, ...]]:
    """Find pi with sb subseteq pi(sa), else None.

    pi is returned as a tuple where pi[k-1] is the image of channel k, i.e.
    column pi(k) of pi(sa) equals column k of sa.  Backtracking assigns the
    preimage of each target column and refines a partition of (sb, sa) by
    the chosen column bits, which prunes aggressively.  Equality modulo
    permutation is equal sizes plus this search: a channel permutation is
    a bijection, so an embedding between sets of one size is onto.
    """
    if len(sb) > len(sa):
        return None
    wb, wa = _column_stats(sb, n), _column_stats(sa, n)
    nb, na = len(sb), len(sa)

    preimage = [0] * n  # preimage[j-1] = k with pi(k) = j
    used = [False] * n

    def rec(j: int, cells) -> bool:
        if j > n:
            return True
        for k in range(1, n + 1):
            if used[k - 1] or wb[j - 1] > wa[k - 1] or (nb - wb[j - 1]) > (na - wa[k - 1]):
                continue
            new_cells = []
            for vb, va in cells:
                b0 = tuple(v for v in vb if not (v >> (j - 1)) & 1)
                b1 = tuple(v for v in vb if (v >> (j - 1)) & 1)
                a0 = tuple(v for v in va if not (v >> (k - 1)) & 1)
                a1 = tuple(v for v in va if (v >> (k - 1)) & 1)
                if len(b0) > len(a0) or len(b1) > len(a1):
                    break
                if b0:
                    new_cells.append((b0, a0))
                if b1:
                    new_cells.append((b1, a1))
            else:
                used[k - 1] = True
                preimage[j - 1] = k
                if rec(j + 1, new_cells):
                    return True
                used[k - 1] = False
        return False

    if not rec(1, [(tuple(sb), tuple(sa))]):
        return None
    pi = [0] * n
    for j, k in enumerate(preimage, start=1):
        pi[k - 1] = j
    return tuple(pi)


def subsumes(cb: Network, ca: Network) -> Optional[tuple[int, ...]]:
    """Witness pi with outputs(cb) subseteq pi(outputs(ca)), if any.

    In the theory's wording cb then subsumes ca: cb is the stronger prefix.
    """
    if cb.n != ca.n:
        raise ValueError("subsumption needs equal channel counts")
    if cb.depth != ca.depth:
        raise ValueError("subsumption is compared at equal depth")
    if cb.n > MAX_SEMANTIC_CHANNELS:
        raise ValueError(f"subsumption search is capped at n <= {MAX_SEMANTIC_CHANNELS}")
    return _embed_search(outputs(cb), outputs(ca), cb.n)


def uncovered_layers(n):
    """The second layers over F_n that no member of R_n, nor its reflection,
    subsumes, each found witness pi checked with permute_vectors.  Every
    output set is computed once and searched as subsumes searches it after
    its argument checks."""
    candidates = [outputs(c) for p in two_layer_prefixes(n) for c in (p, reflect(p))]
    missing = []
    for l2 in matchings(n):
        net_outs = outputs(Network(n, (first_layer(n), l2)))
        for outs in candidates:
            pi = _embed_search(outs, net_outs, n)
            if pi is not None:
                assert outs <= permute_vectors(pi, net_outs)
                break
        else:
            missing.append(l2)
    return missing


# ---------------------------------------------------------------------------
# redundancy

def _remove_one(net: Network, d: int, comp: tuple[int, int]) -> Network:
    layers = [tuple(c for c in layer) for layer in net.layers]
    layers[d] = tuple(c for c in layers[d] if c != comp)
    return Network(net.n, tuple(layers))


def is_redundant_semantic(net: Network) -> bool:
    """Semantic redundancy check (n <= 8): some single-comparator removal
    leaves the output set unchanged modulo permutation.

    saturation.is_redundant reads the same answer off the layers of a
    two-layer network (tested on every second layer over F_n, n <= 7).
    """
    if net.n > MAX_SEMANTIC_CHANNELS:
        raise ValueError(f"semantic redundancy is capped at n <= {MAX_SEMANTIC_CHANNELS}")
    full = outputs(net)
    for d, layer in enumerate(net.layers):
        for comp in layer:
            # a permutation is a bijection: an embedding of equal sizes is onto
            fewer = outputs(_remove_one(net, d, comp))
            if len(fewer) == len(full) and _embed_search(fewer, full, net.n):
                return True
    return False


# ---------------------------------------------------------------------------
# saturation

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
    return Network(net.n, (net.layers[0], tuple(sorted(l2))))


def is_saturated_semantic(net: Network) -> bool:
    """Exhaustive saturation oracle: tries every addition and permutation."""
    if net.n > MAX_SEMANTIC_CHANNELS:
        raise ValueError(f"semantic saturation is capped at n <= {MAX_SEMANTIC_CHANNELS}")
    if is_redundant_semantic(net):
        return False
    full = outputs(net)
    # a reversed added comparator only permutes the standard one's outputs,
    # so the standard orientation decides both
    for comp in addable_comparators(net):
        if _embed_search(outputs(_with_added(net, comp)), full, net.n):
            return False
    return True


# ---------------------------------------------------------------------------
# conjecture check

def verify_conjecture(n: int) -> bool:
    """No two non-equivalent saturated classes subsume one another."""
    if n > MAX_SEMANTIC_CHANNELS:
        raise ValueError(f"conjecture check is capped at n <= {MAX_SEMANTIC_CHANNELS}")
    classes = [words_mod.net_of(s) for s in words_mod.sentences(n, "rsn")]
    for a, b in itertools.combinations(classes, 2):
        if subsumes(a, b) is not None or subsumes(b, a) is not None:
            return False
    return True


# ---------------------------------------------------------------------------
# sorter existence

def brute_force_sorter_exists(n, d, xs, prefix=None):
    """Oracle: enumerate every depth-d layer sequence and test it on xs."""
    layers = list(matchings(n))
    fixed = list(prefix.layers) if prefix is not None else []
    free = d - len(fixed)
    assert free >= 0
    for combo in itertools.product(layers, repeat=free):
        net = Network(n, tuple(fixed) + combo)
        if all(is_ascending(evaluate_bits(net, b), n) for b in xs.tolist()):
            return True
    return False


# ---------------------------------------------------------------------------
# variable numbering

def x_var(vm, b_idx: int, l: int, k: int) -> int:
    """The variable x(b, l, k): channel k after layer l for input vm.inputs[b_idx],
    at an open level (prefix depth < l < d).  The c and u variables come
    first; then each input has n per open level."""
    n, d, p = vm.n, vm.d, vm.prefix_depth
    if not (0 <= b_idx < len(vm.inputs) and p < l < d and 1 <= k <= n):
        raise KeyError(("x", b_idx, l, k))
    first = d * (n * (n - 1) // 2 + n)
    return first + (b_idx * (d - p - 1) + l - p - 1) * n + k


def _image(vm, b: int, l: int) -> int:
    """Packed vector b after the first l layers of the prefix."""
    return evaluate_bits(Network(vm.n, vm.prefix.layers[:l]), b) if l else b


def value_lit(vm, b_idx: int, l: int, k: int) -> int | bool:
    """The literal of channel k at level l for input vm.inputs[b_idx], or its
    constant where the level is fixed (0..prefix depth, d) or folded (the
    near-sorted and settled-ends rules of the encoding docstring)."""
    n, d, p = vm.n, vm.d, vm.prefix_depth
    b = int(vm.inputs[b_idx])
    ones = bin(b).count("1")
    if l == d or (vm.near_sorted and l == d - 1 and k not in (n - ones, n - ones + 1)):
        return k > n - ones   # sorted(b): ones on the top channels
    if l <= p:
        return bool((_image(vm, b, l) >> (k - 1)) & 1)
    if vm.settled_ends:
        image = _image(vm, b, p)
        top = image >> (k - 1)   # channels k..n
        if image & ((1 << k) - 1) == 0 or top == (1 << (n - k + 1)) - 1:
            return bool(top & 1)  # zeros on 1..k or ones on k..n
    return x_var(vm, b_idx, l, k)


def variable_index(vm) -> dict[tuple, int]:
    """Every variable by key: ("c", l, i, j), ("u", l, k), ("x", b_idx, l, k)."""
    n, d = vm.n, vm.d
    index = {("c", l, i, j): vm.c(l, i, j) for l in range(1, d + 1)
             for i, j in itertools.combinations(range(1, n + 1), 2)}
    index.update((("u", l, k), vm.u(l, k)) for l in range(1, d + 1) for k in range(1, n + 1))
    index.update((("x", b, l, k), x_var(vm, b, l, k)) for b in range(len(vm.inputs))
                 for l in range(vm.prefix_depth + 1, d) for k in range(1, n + 1))
    return index

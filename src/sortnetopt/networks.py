"""Comparator networks: representation, evaluation, output sets, symmetries.

Channels are numbered 1..n.  A comparator (i, j) routes the minimum of its
two inputs to channel i and the maximum to channel j.  Standard networks
have i < j for every comparator; a reversed comparator (i > j) is only
legal inside a network flagged as generalized.

Boolean vectors are packed into ints with channel k stored at bit k-1, so
"sorted ascendingly along the channel index" means all 0s on low channels:
the sorted vectors are exactly the n+1 values 2**n - 2**k for 0 <= k <= n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Comparator = tuple[int, int]
Layer = tuple[Comparator, ...]

MAX_ENUM_CHANNELS = 24  # hard cap for 2**n input enumeration
_CHUNK = 1 << 20


class ChannelCountError(ValueError):
    """Raised when a vector or operation does not match the channel count."""


def _norm_layer(layer: Iterable[Sequence[int]]) -> Layer:
    comps = tuple(sorted((int(i), int(j)) for i, j in layer))
    return comps


@dataclass(frozen=True)
class Network:
    """An n-channel comparator network as an ordered tuple of layers."""

    n: int
    layers: tuple[Layer, ...]
    generalized: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one channel, got n={self.n}")
        object.__setattr__(self, "layers", tuple(_norm_layer(l) for l in self.layers))
        for layer in self.layers:
            used = set()
            for i, j in layer:
                if not (1 <= i <= self.n and 1 <= j <= self.n):
                    raise ValueError(f"comparator ({i},{j}) out of range for n={self.n}")
                if i == j:
                    raise ValueError(f"comparator ({i},{j}) joins a channel to itself")
                if not self.generalized and i > j:
                    raise ValueError(f"reversed comparator ({i},{j}) in standard network")
                if i in used or j in used:
                    raise ValueError(f"channel reused within a layer: ({i},{j})")
                used.update((i, j))

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def size(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def append_layer(self, layer: Iterable[Sequence[int]]) -> "Network":
        return Network(self.n, self.layers + (_norm_layer(layer),), self.generalized)

    def to_json(self) -> str:
        return network_json(self.n, self.layers)

    @staticmethod
    def from_json(text: str) -> "Network":
        """Parse network_json text; ValueError on any malformed document."""
        obj = json.loads(text)
        if not isinstance(obj, dict) or "n" not in obj or "layers" not in obj:
            raise ValueError("network JSON must be an object with 'n' and 'layers'")
        n, layers = obj["n"], obj["layers"]
        if not (_is_int(n) and isinstance(layers, list)
                and all(isinstance(l, list) and all(isinstance(c, list) and len(c) == 2
                                                    and all(map(_is_int, c)) for c in l)
                        for l in layers)):
            raise ValueError("network JSON needs an integer 'n' and 'layers' given as "
                             "lists of [i, j] integer pairs")
        layers = [_norm_layer(l) for l in layers]
        generalized = any(i > j for l in layers for i, j in l)
        return Network(n, tuple(layers), generalized)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def network_json(n: int, layers: Iterable[Iterable[Comparator]]) -> str:
    """The JSON text of a network, from its channel count and layers as given.

    Formatted directly, with the same bytes json.dumps gives for
    {"n": n, "layers": [[[i, j], ...], ...]} (tested), at about half its cost.
    """
    body = ", ".join("[" + ", ".join(f"[{i}, {j}]" for i, j in l) + "]" for l in layers)
    return f'{{"n": {n}, "layers": [{body}]}}'


def two_layer_json(n: int, seconds: Iterable[Layer]) -> Iterator[str]:
    """network_json(n, (first_layer(n), l2)) for each second layer l2 in turn
    (tested).

    For prefix sets, whose networks share the first layer F_n: its text is
    made once, and each comparator of a second layer, an (i, j) tuple over
    channels 1..n, is looked up in a table of "[i, j]" texts made at the
    call, so a line costs one join.
    """
    first = ", ".join(f"[{i}, {j}]" for i, j in first_layer(n))
    head = f'{{"n": {n}, "layers": [[{first}], ['
    text = {(i, j): f"[{i}, {j}]" for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    return (head + ", ".join(map(text.__getitem__, l2)) + "]]}" for l2 in seconds)


def network(n: int, *layers: Iterable[Sequence[int]], generalized: bool = False) -> Network:
    """Convenience constructor: network(4, [(1,2),(3,4)], [(1,3),(2,4)])."""
    return Network(n, tuple(_norm_layer(l) for l in layers), generalized)


def first_layer(n: int, style: str = "adjacent") -> Layer:
    """Maximal first layer: 'adjacent' pairs (2i-1,2i), 'crossing' pairs (i,n-i+1)."""
    if n < 2:
        raise ValueError("first_layer needs n >= 2")
    if style == "adjacent":
        return tuple((2 * i - 1, 2 * i) for i in range(1, n // 2 + 1))
    if style == "crossing":
        return tuple((i, n - i + 1) for i in range(1, n // 2 + 1))
    raise ValueError(f"unknown first-layer style {style!r}")


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


def _eval_array(net: Network, vals: np.ndarray) -> np.ndarray:
    one = np.uint32(1)
    for layer in net.layers:
        for i, j in layer:
            si, sj = np.uint32(i - 1), np.uint32(j - 1)
            a = (vals >> si) & one
            b = (vals >> sj) & one
            keep = vals & np.uint32(~(((1 << (i - 1)) | (1 << (j - 1)))) & 0xFFFFFFFF)
            vals = keep | ((a & b) << si) | ((a | b) << sj)
    return vals


def _check_enum(n: int) -> None:
    if n > MAX_ENUM_CHANNELS:
        raise ChannelCountError(f"2**{n} input enumeration exceeds the n <= {MAX_ENUM_CHANNELS} cap")


def sorted_vectors(n: int) -> list[int]:
    """The n+1 ascending vectors 0^k 1^(n-k), packed."""
    return [(1 << n) - (1 << k) for k in range(n, -1, -1)]


def is_ascending(v: int, n: int) -> bool:
    """True iff packed vector v is 0s on low channels then 1s."""
    return (v + (v & -v)) & ((1 << n) - 1) == 0


def _ascending_mask(vals: np.ndarray, n: int) -> np.ndarray:
    low = vals & (~vals + np.uint32(1))
    return ((vals + low) & np.uint32((1 << n) - 1)) == 0


def _chunks(n: int, net: Optional[Network] = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """All 2**n packed inputs in chunks of _CHUNK, each chunk with its images
    under net (the chunk itself without one).  The enumeration cap is
    checked at the call, before any chunk is made."""
    _check_enum(n)
    total = 1 << n

    def walk() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start in range(0, total, _CHUNK):
            inputs = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
            yield inputs, inputs if net is None else _eval_array(net, inputs)
    return walk()


def outputs(net: Network, inputs: Optional[np.ndarray] = None) -> frozenset[int]:
    """Exact image of all 2**n Boolean inputs, as packed ints; of the packed
    uint32 array inputs instead when it is given.

    The images are marked in a mask over all 2**n vectors rather than
    passed to np.unique, whose first call in a process costs milliseconds
    of lazy set-up; campaigns call this before their solvers start.
    """
    _check_enum(net.n)
    seen = np.zeros(1 << net.n, dtype=bool)
    if inputs is None:
        for _, images in _chunks(net.n, net):
            seen[images] = True
    else:
        seen[_eval_array(net, inputs)] = True
    return frozenset(np.flatnonzero(seen).tolist())


def is_sorting_network(net: Network) -> bool:
    """Zero-one principle check: every Boolean input comes out ascending."""
    if net.generalized:
        raise ValueError("sortedness is defined for standard networks")
    return all(_ascending_mask(images, net.n).all() for _, images in _chunks(net.n, net))


def unsorted_inputs(n: int, prefix: Optional[Network] = None) -> np.ndarray:
    """All x with x unsorted (no prefix) or prefix(x) unsorted (given a prefix).

    An input set is an increasing np.uint32 array of packed vectors, here
    and on its way through windows and encoding.build to the VarMap.
    """
    chunks = _chunks(n, prefix)
    if prefix is not None and prefix.n != n:
        raise ChannelCountError(f"prefix has {prefix.n} channels, expected {n}")
    out = [inputs[~_ascending_mask(images, n)] for inputs, images in chunks]
    return np.concatenate(out)


def windows(xs: np.ndarray, pad: int, n: int) -> np.ndarray:
    """Members of xs shaped 0^l1 . m . 1^l2 with l1+l2 = pad.

    xs is an input set, an increasing np.uint32 array (unsorted_inputs);
    pad 0 returns xs itself, any other pad the members it keeps, in order.
    Inputs are packed into 32 bits, so n <= 32 when pad > 0.
    """
    if pad < 0 or pad >= n:
        raise ValueError(f"pad must satisfy 0 <= pad < n, got {pad}")
    if pad == 0:
        return xs
    if n > 32:
        raise ChannelCountError(f"inputs are packed into 32 bits, got n={n}")
    keep = np.zeros(len(xs), dtype=bool)
    for l1 in range(pad + 1):
        l2 = pad - l1
        fits = xs & np.uint32((1 << l1) - 1) == 0
        if l2:
            fits &= xs >> np.uint32(n - l2) == np.uint32((1 << l2) - 1)
        keep |= fits
    return xs[keep]


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
    layers = []
    generalized = False
    for layer in net.layers:
        mapped = []
        for i, j in layer:
            a, b = pi[i - 1], pi[j - 1]
            generalized = generalized or a > b
            mapped.append((a, b))
        layers.append(tuple(sorted(mapped)))
    return Network(net.n, tuple(layers), generalized or net.generalized)


def untangle(net: Network) -> Network:
    """Standardize a generalized network by swap-propagation.

    Scan layers left to right; a reversed comparator (j, i) is oriented
    forward and the two channels are swapped in all later layers.  Depth and
    size are preserved, as is the longest standard prefix.
    """
    layers = [list(l) for l in net.layers]
    for d in range(len(layers)):
        for idx, (i, j) in enumerate(layers[d]):
            if i > j:
                layers[d][idx] = (j, i)
                swap = {i: j, j: i}
                for later in layers[d + 1:]:
                    for k, (a, b) in enumerate(later):
                        later[k] = (swap.get(a, a), swap.get(b, b))
    return Network(net.n, tuple(tuple(sorted(l)) for l in layers), False)


def reflect(net: Network) -> Network:
    """Mirror the network across the middle channel: (i,j) -> (n-j+1, n-i+1)."""
    if net.generalized:
        raise ValueError("reflection is defined for standard networks")
    n = net.n
    return Network(n, tuple(tuple(sorted((n - j + 1, n - i + 1) for i, j in l)) for l in net.layers))


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

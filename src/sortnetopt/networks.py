"""Comparator networks: representation, evaluation, output sets, symmetries.

Channels are numbered 1..n.  A comparator (i, j) routes the minimum of its
two inputs to channel i and the maximum to channel j.  Standard networks
have i < j for every comparator; a network with a reversed comparator
(i > j) is generalized.

Boolean vectors are packed into ints with channel k stored at bit k-1, so
"sorted ascendingly along the channel index" means all 0s on low channels:
the sorted vectors are exactly the n+1 values 2**n - 2**k for 0 <= k <= n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Comparator = tuple[int, int]
Layer = tuple[Comparator, ...]

MAX_ENUM_CHANNELS = 24  # hard cap for 2**n input enumeration
_CHUNK = 1 << 20


class ChannelCountError(ValueError):
    """Raised when a vector or operation does not match the channel count."""


def _norm_layer(layer: Iterable[Sequence[int]]) -> Layer:
    return tuple(sorted((int(i), int(j)) for i, j in layer))


@dataclass(frozen=True)
class Network:
    """An n-channel comparator network as an ordered tuple of layers."""

    n: int
    layers: tuple[Layer, ...]

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
                if i in used or j in used:
                    raise ValueError(f"channel reused within a layer: ({i},{j})")
                used.update((i, j))

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def generalized(self) -> bool:
        """Whether some comparator (i, j) has i > j."""
        return any(i > j for layer in self.layers for i, j in layer)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "layers": self.layers})

    @staticmethod
    def from_json(text: str) -> "Network":
        """Parse to_json text; ValueError on any malformed document."""
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
        return Network(n, tuple(layers))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def two_layer_json(n: int, seconds: Iterable[Layer]) -> Iterator[str]:
    """Network(n, (first_layer(n), l2)).to_json() for each second layer l2
    in turn (tested).

    For prefix sets, whose networks share the first layer F_n: its text is
    made once, and each comparator of a second layer, an (i, j) tuple over
    channels 1..n, is looked up in a table of "[i, j]" texts made at the
    call, so a line costs one join.
    """
    first = ", ".join(f"[{i}, {j}]" for i, j in first_layer(n))
    head = f'{{"n": {n}, "layers": [[{first}], ['
    text = {(i, j): f"[{i}, {j}]" for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    return (head + ", ".join(map(text.__getitem__, l2)) + "]]}" for l2 in seconds)


def network(n: int, *layers: Iterable[Sequence[int]]) -> Network:
    """Convenience constructor: network(4, [(1,2),(3,4)], [(1,3),(2,4)])."""
    return Network(n, layers)


def first_layer(n: int, style: str = "adjacent") -> Layer:
    """Maximal first layer: 'adjacent' pairs (2i-1,2i), 'crossing' pairs (i,n-i+1)."""
    if n < 2:
        raise ValueError("first_layer needs n >= 2")
    if style == "adjacent":
        return tuple((2 * i - 1, 2 * i) for i in range(1, n // 2 + 1))
    if style == "crossing":
        return tuple((i, n - i + 1) for i in range(1, n // 2 + 1))
    raise ValueError(f"unknown first-layer style {style!r}")


def check_instance(n: int, depth: Optional[int] = None, pad: Optional[int] = None,
                   prefix: Optional[Network] = None, packed: bool = False) -> None:
    """The instance rule: raise for the first rule that the given parts break.

    An instance asks for a depth-`depth` sorting network on n channels,
    its inputs windowed by pad and its first layers fixed to prefix
    (report.Instance, encoding.VarMap).  A part left None is not checked,
    nor are the rules that need it:
      - 0 <= pad < n;
      - depth >= 0;
      - the prefix has n channels (ChannelCountError);
      - given a depth, the prefix is a standard network no deeper than it;
      - with packed, n <= 32, as inputs are packed into 32 bits
        (ChannelCountError).
    """
    if pad is not None and not 0 <= pad < n:
        raise ValueError(f"pad must satisfy 0 <= pad < n = {n}, got {pad}")
    if depth is not None and depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    if prefix is not None and prefix.n != n:
        raise ChannelCountError(f"prefix has {prefix.n} channels, not n = {n}")
    if prefix is not None and depth is not None and prefix.generalized:
        raise ValueError("fixed prefixes must be standard networks")
    if prefix is not None and depth is not None and prefix.depth > depth:
        raise ValueError(f"prefix depth {prefix.depth} exceeds network depth {depth}")
    if packed and n > 32:
        raise ChannelCountError(f"inputs are packed into 32 bits, got n={n}")


# ---------------------------------------------------------------------------
# evaluation

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


def outputs(net: Network) -> frozenset[int]:
    """Exact image of all 2**n Boolean inputs, as packed ints.

    The images are marked in a mask over all 2**n vectors rather than
    passed to np.unique, whose first call in a process costs milliseconds
    of lazy set-up; the test oracles' subsumption search calls this on
    many small networks, where that set-up would dominate.
    """
    chunks = _chunks(net.n, net)   # checks the enumeration cap before the mask is made
    seen = np.zeros(1 << net.n, dtype=bool)
    for _, images in chunks:
        seen[images] = True
    return frozenset(np.flatnonzero(seen).tolist())


def is_sorting_network(net: Network) -> bool:
    """Zero-one principle check: every Boolean input comes out ascending."""
    if net.generalized:
        raise ValueError("sortedness is defined for standard networks")
    return all(_ascending_mask(images, net.n).all() for _, images in _chunks(net.n, net))


def unsorted_inputs(n: int, prefix: Optional[Network] = None) -> np.ndarray:
    """All x with x unsorted (no prefix) or prefix(x) unsorted (given a prefix).

    An input set is an increasing np.uint32 array of packed vectors, here
    and on its way through windows and encoding.build to the VarMap.  Of
    the instance rule (check_instance) it takes only the prefix's channel
    count: it has no depth, and it evaluates any prefix, generalized too.
    """
    chunks = _chunks(n, prefix)
    check_instance(n, prefix=prefix)
    out = [inputs[~_ascending_mask(images, n)] for inputs, images in chunks]
    return np.concatenate(out)


def windows(xs: np.ndarray, pad: int, n: int) -> np.ndarray:
    """Members of xs shaped 0^l1 . m . 1^l2 with l1+l2 = pad.

    xs is an input set, an increasing np.uint32 array (unsorted_inputs);
    pad 0 returns xs itself, any other pad the members it keeps, in order.
    The pad and, when pad > 0, the packing of inputs into 32 bits are
    checked by the instance rule (check_instance).
    """
    check_instance(n, pad=pad, packed=pad > 0)
    if pad == 0:
        return xs
    keep = np.zeros(len(xs), dtype=bool)
    for l1 in range(pad + 1):
        l2 = pad - l1
        fits = xs & np.uint32((1 << l1) - 1) == 0
        if l2:
            fits &= xs >> np.uint32(n - l2) == np.uint32((1 << l2) - 1)
        keep |= fits
    return xs[keep]


# ---------------------------------------------------------------------------
# symmetries

def untangle(net: Network) -> Network:
    """Standardize a generalized network by swap-propagation.

    Scan layers left to right; a reversed comparator (j, i) is oriented
    forward and the two channels are swapped in all later layers, so the
    result has no reversed comparator.  Depth and size are preserved, as is
    the longest standard prefix.
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
    return Network(net.n, layers)


def reflect(net: Network) -> Network:
    """Mirror the network across the middle channel: (i,j) -> (n-j+1, n-i+1)."""
    if net.generalized:
        raise ValueError("reflection is defined for standard networks")
    n = net.n
    return Network(n, tuple(tuple(sorted((n - j + 1, n - i + 1) for i, j in l)) for l in net.layers))

"""CNF encoding of depth-d sorting-network existence.

Variables: c(l,i,j) places a comparator on channels i<j at layer l; u(l,k)
marks channel k as used at layer l; x(b,l,k) carries the value of channel k
after layer l while input b propagates.  Level-0 values are the constants
of b and level-d values the constants of sorted(b), so those variables are
never allocated and the clauses fold accordingly.

With a fixed prefix the comparator variables of the prefix layers are
pinned by unit clauses, the value variables of those levels fold to the
constants obtained by propagating each input through the prefix, and
inputs with identical prefix images share one set of value clauses.  All
of this preserves satisfiability of the underlying formula exactly.

Soundness contract.  The symmetry-breaking clauses σ1-σ3 and the
last-layer units (EncodeOptions) each remove networks, never every
sorting network:

  σ1  no comparator repeats on consecutive layers: the second copy never
      swaps, so deleting it keeps a network sorting;
  σ2  a comparator of layer l >= 2 touches a channel that layer l-1
      uses: else it moves down a layer without changing any output;
  σ3  every adjacent pair (i,i+1) is compared in some layer: the input
      that is sorted but for a one on channel i and a zero on i+1 is
      changed by no other comparator;
  last layer  (on when the last layer is open, d above the prefix depth)
      layer d has no comparator (i,j) with j > i+1.  Codish, Cruz-Filipe,
      Ehlers, Müller and Schneider-Kamp (JCSS 2019) show that such a
      comparator is redundant in a sorting network, so deleting the
      non-adjacent comparators of its last layer keeps it sorting.  The
      deletion cannot break σ1-σ3: σ1 only forbids; σ2 constrains the
      comparators of layer d by layer d-1, and nothing reads u(d, ·); σ3
      needs only adjacent pairs, which stay.

So when X is every input left unsorted by the prefix (all unsorted
inputs without one), the formula is satisfiable iff some depth-d sorting
network on n channels with that prefix exists.  On a subset of those
inputs (windows) UNSAT still refutes that, and SAT proves nothing.  Nor
does the formula say whether some network sorts the subset itself: with
σ3 on, build(3, 1, []) and build(3, 1, [0b001]) are UNSAT although depth-1
networks sort both sets.  A decoded model is checked against the inputs
again wherever it is used.

A Cnf keeps its clauses as one flat int32 array in which every clause is
its literals followed by a 0, as in DIMACS.  The value clauses of all
inputs come from array code: a table of literal codes per input, level
and channel, read through the six comparator and two pass-through clause
templates of every open layer, with constants folded and repeats within
an input dropped.  to_dimacs renders the array in bounded chunks through
a literal-to-text table.  Variables, clauses and their order are those of
the clause-by-clause construction, so the DIMACS text is the same.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .networks import ChannelCountError, Network, _eval_array, is_ascending, windows

_TRUE = np.iinfo(np.int32).max  # literal code of the constant true; -_TRUE is false
_INPUT_CHUNK = 32               # inputs whose value clauses are built in one array pass
_LIT_CHUNK = 1 << 16            # literals per step when reading or rendering a Cnf


@dataclass(frozen=True)
class EncodeOptions:
    sigma1: bool = True   # no repeated comparator on consecutive layers
    sigma2: bool = True   # comparators cannot slide to an unused earlier layer
    sigma3: bool = True   # every adjacent pair (i,i+1) compared somewhere
    last_layer: bool = True  # the last layer compares adjacent channels only
    pad: int = 0          # window padding; 0 = off
    prefix: Optional[Network] = None


def _flat(clauses: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    if isinstance(clauses, np.ndarray):
        return clauses.astype(np.int32, copy=False)
    return np.fromiter(itertools.chain.from_iterable((*cl, 0) for cl in clauses),
                       dtype=np.int32)


class Clauses:
    """Read-only view of a flat 0-terminated clause array, one tuple per clause."""

    def __init__(self, lits: np.ndarray):
        self._lits = lits

    def __len__(self) -> int:
        return int(np.count_nonzero(self._lits == 0))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        clause: list[int] = []
        for start in range(0, len(self._lits), _LIT_CHUNK):
            for lit in self._lits[start:start + _LIT_CHUNK].tolist():
                if lit:
                    clause.append(lit)
                else:
                    yield tuple(clause)
                    clause = []

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Clauses, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Clauses({list(self)!r})"


class Cnf:
    """num_vars and the clauses, stored flat in lits (each clause ends in 0).

    clauses may be given as tuples of literals or as such a flat array.
    """

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]] | np.ndarray = ()):
        self.num_vars = num_vars
        self.lits = _flat(clauses)

    @property
    def clauses(self) -> Clauses:
        return Clauses(self.lits)


class VarMap:
    """Fixed variable allocation: all c, then all u, then x per input.

    Value levels 0..prefix_depth and level d are constants; only the open
    levels in between get variables.  Indices are computed, not stored;
    _index lists them all by key for inspection.
    """

    def __init__(self, n: int, d: int, inputs: Sequence[int],
                 prefix: Optional[Network] = None):
        if prefix is not None and prefix.depth > d:
            raise ValueError(f"prefix depth {prefix.depth} exceeds network depth {d}")
        if prefix is not None and prefix.generalized:
            raise ValueError("fixed prefixes must be standard networks")
        if prefix is not None and prefix.n != n:
            raise ValueError("prefix channel count mismatch")
        if n > 32:
            raise ChannelCountError(f"inputs are packed into 32 bits, got n={n}")
        self.n, self.d = n, d
        self.prefix = prefix
        self.prefix_depth = prefix.depth if prefix is not None else 0
        self.inputs = tuple(inputs)
        # images of every input at levels 0..prefix_depth, one row per level
        levels = [np.array(self.inputs, dtype=np.uint32)]
        for layer in (prefix.layers if prefix is not None else ()):
            levels.append(_eval_array(Network(n, (layer,)), levels[-1]))
        self._levels = np.stack(levels)
        self._pairs = n * (n - 1) // 2
        self._open = max(d - self.prefix_depth - 1, 0)   # value levels with variables
        self._x0 = d * (self._pairs + n)
        self.num_vars = self._x0 + len(self.inputs) * self._open * n
        if self.num_vars >= _TRUE:
            raise ValueError(f"{self.num_vars} variables do not fit int32 literals")

    def c(self, l: int, i: int, j: int) -> int:
        if not (1 <= l <= self.d and 1 <= i < j <= self.n):
            raise KeyError(("c", l, i, j))
        return (l - 1) * self._pairs + (i - 1) * (2 * self.n - i) // 2 + (j - i)

    def u(self, l: int, k: int) -> int:
        if not (1 <= l <= self.d and 1 <= k <= self.n):
            raise KeyError(("u", l, k))
        return self.d * self._pairs + (l - 1) * self.n + k

    def x(self, b_idx: int, l: int, k: int) -> int:
        if not (0 <= b_idx < len(self.inputs) and self.prefix_depth < l < self.d
                and 1 <= k <= self.n):
            raise KeyError(("x", b_idx, l, k))
        return self._x0 + (b_idx * self._open + l - self.prefix_depth - 1) * self.n + k

    def value(self, b_idx: int, l: int, k: int) -> int | bool:
        """Channel-value literal at level l; constants at folded levels."""
        if l == self.d:
            ones = bin(self.inputs[b_idx]).count("1")
            return bool(k > self.n - ones)  # sorted(b): ones on top channels
        if l <= self.prefix_depth:
            return bool((int(self._levels[l, b_idx]) >> (k - 1)) & 1)
        return self.x(b_idx, l, k)

    def comparator_vars(self) -> Iterable[tuple[int, int, int, int]]:
        for l in range(1, self.d + 1):
            for i, j in itertools.combinations(range(1, self.n + 1), 2):
                yield l, i, j, self.c(l, i, j)

    @functools.cached_property
    def _index(self) -> dict[tuple, int]:
        """Every variable by key: ("c", l, i, j), ("u", l, k), ("x", b_idx, l, k)."""
        index = {("c", l, i, j): var for l, i, j, var in self.comparator_vars()}
        channels = range(1, self.n + 1)
        index.update((("u", l, k), self.u(l, k)) for l in range(1, self.d + 1) for k in channels)
        index.update((("x", b, l, k), self.x(b, l, k)) for b in range(len(self.inputs))
                     for l in range(self.prefix_depth + 1, self.d) for k in channels)
        return index


def _pair_index(n: int) -> np.ndarray:
    """Position of the comparator on channels i, j (0-based, either order)
    among the pairs of a layer; -1 on the diagonal."""
    index = np.full((n, n), -1, dtype=np.intp)
    i, j = np.triu_indices(n, 1)
    index[i, j] = index[j, i] = np.arange(len(i))
    return index


def _guards(vm: VarMap) -> tuple[np.ndarray, np.ndarray]:
    """The variables c (layer, pair) and u (layer, channel) of every layer."""
    c = np.arange(1, vm.d * vm._pairs + 1, dtype=np.int32).reshape(vm.d, vm._pairs)
    u = vm.d * vm._pairs + np.arange(1, vm.d * vm.n + 1, dtype=np.int32).reshape(vm.d, vm.n)
    return c, u


def _rows(*lits) -> np.ndarray:
    """One clause per element of the broadcast literal operands, each with
    its terminating 0: shape (..., len(lits) + 1)."""
    return np.stack(np.broadcast_arrays(*lits, np.int32(0)), axis=-1)


def encode_structure(vm: VarMap) -> np.ndarray:
    """u(l,k) <-> OR of incident comparator vars, plus at-most-one per channel.

    Per layer and channel: the clause -u(l,k) OR the incident c's, then
    c -> u(l,k) for each incident c, then one at-most-one clause per pair
    of them, all as flat 0-terminated clauses.
    """
    n, d = vm.n, vm.d
    c, u = _guards(vm)
    index = _pair_index(n)
    incident = c[:, index[~np.eye(n, dtype=bool)].reshape(n, n - 1)]   # (layer, k, m != k)
    a, b = np.triu_indices(n - 1, 1)
    blocks = (np.concatenate((-u[..., None], incident, np.zeros_like(u)[..., None]), axis=-1),
              _rows(-incident, u[..., None]).reshape(d, n, 3 * (n - 1)),
              _rows(-incident[..., a], -incident[..., b]).reshape(d, n, 3 * len(a)))
    return np.concatenate(blocks, axis=-1).ravel()


def _bits(vals: np.ndarray, n: int) -> np.ndarray:
    """Channel values of packed vectors, shape (len(vals), n)."""
    return (vals[:, None] >> np.arange(n, dtype=np.uint32)) & 1 == 1


def _sorted_bits(vals: np.ndarray, n: int) -> np.ndarray:
    """Channel values of sorted(b) for packed vectors b: ones on the top channels."""
    return np.arange(1, n + 1) > n - _bits(vals, n).sum(axis=1)[:, None]


def _const(bits: np.ndarray) -> np.ndarray:
    return np.where(bits, _TRUE, -_TRUE).astype(np.int32)


def _stack(*clauses) -> np.ndarray:
    """Clauses of broadcast operands, stacked to shape (..., clause, literal)."""
    return np.stack([np.stack(np.broadcast_arrays(*cl), axis=-1) for cl in clauses], axis=-2)


def _minmax(g, xi, xj, yi, yj, f) -> np.ndarray:
    """A comparator guarded by g: y_i = x_i AND x_j (min), y_j = x_i OR x_j (max)."""
    return _stack((g, -yi, xi, f), (g, -yi, xj, f), (g, yi, -xi, -xj),
                  (g, yj, -xi, f), (g, yj, -xj, f), (g, -yj, xi, xj))


def _passthrough(g, x, y, f) -> np.ndarray:
    """A channel whose used-flag g is off: y = x."""
    return _stack((g, -x, y, f), (g, x, -y, f))


def _fold(lits: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant folding and repeat removal over clause groups.

    lits has shape (..., group, width); codes (group, width) holds the
    signed operand number, -5..5, behind each slot.  The operands of one
    group that are not constants are distinct variables, so two folded
    clauses of a group are equal iff their non-false slots spell the same
    codes.  Returns the clauses with a terminating 0 appended, and the mask
    of what stays: the non-false literals and the 0 of every clause that is
    neither satisfied nor equal to an earlier clause of its group.
    """
    live = lits != -_TRUE
    keep = ~(lits == _TRUE).any(axis=-1)
    key = np.zeros(lits.shape[:-1], dtype=np.int32)
    for s in range(lits.shape[-1]):
        key = np.where(live[..., s], key * 12 + codes[:, s] + 6, key)
    for q in range(1, lits.shape[-2]):
        keep[..., q] &= ~(key[..., :q] == key[..., q:q + 1]).any(axis=-1)
    lits = np.concatenate((lits, np.zeros_like(lits[..., :1])), axis=-1)
    return lits, np.concatenate((live & keep[..., None], keep[..., None]), axis=-1)


def _value_clauses(vm: VarMap, lo: int, hi: int, i: np.ndarray, j: np.ndarray,
                   c: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Flat value clauses of inputs lo..hi-1, in input order.

    i, j index the channels of every comparator; c (layer, pair) and
    u (layer, channel) are the guard variables of the open layers.
    """
    n, d, p = vm.n, vm.d, vm.prefix_depth
    # literal codes per input, level p..d and channel; in between, vm.x(b, l, k)
    values = np.empty((hi - lo, d - p + 1, n), dtype=np.int32)
    values[:, 0] = _const(_bits(vm._levels[p, lo:hi], n))
    values[:, 1:-1] = (vm._x0 + n * (np.arange(lo, hi)[:, None, None] * vm._open
                                     + np.arange(d - p - 1)[:, None])
                       + np.arange(1, n + 1))
    values[:, -1] = _const(_sorted_bits(vm._levels[0, lo:hi], n))
    x, y = values[:, :-1], values[:, 1:]        # levels l-1 and l of every open layer l
    f = np.int32(-_TRUE)
    # (input, layer, pair or channel, clause, literal), a group per guard; the same
    # templates over the operand numbers -5..0 give the code of every slot
    xi, xj, yi, yj = x[..., i], x[..., j], y[..., i], y[..., j]
    folded = [_fold(_minmax(-c, xi, xj, yi, yj, f), _minmax(*range(-5, 1))),
              _fold(_passthrough(u, x, y, f), _passthrough(*range(-5, -1)))]
    # per input and layer: the comparator clauses, then the pass-through ones
    lits, mask = (np.concatenate([a.reshape(*a.shape[:2], -1, a.shape[-1]) for a in arrays], axis=2)
                  for arrays in zip(*folded))
    return lits[mask]


def encode_input_sort(vm: VarMap) -> np.ndarray:
    """Value propagation for every input: min = AND, max = OR, pass-through.

    Returns the flat 0-terminated clauses, input by input, each input's
    clauses without repeats.  Layers covered by a fixed prefix are fully
    determined by the prefix units and the folded constants, so clauses
    start at the first open layer.  With no open layer left, the fragment
    degenerates to a consistency check between the prefix image and the
    sorted target: one empty clause per input whose image is not sorted(b).
    """
    n = vm.n
    if vm.prefix_depth == vm.d:
        wrong = (_bits(vm._levels[-1], n) != _sorted_bits(vm._levels[0], n)).any(axis=1)
        return np.zeros(int(wrong.sum()), dtype=np.int32)
    i, j = np.triu_indices(n, 1)
    c, u = (guard[vm.prefix_depth:] for guard in _guards(vm))   # the open layers
    parts = [_value_clauses(vm, lo, min(lo + _INPUT_CHUNK, len(vm.inputs)), i, j, c, u)
             for lo in range(0, len(vm.inputs), _INPUT_CHUNK)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)


def encode_symmetry(vm: VarMap, opts: EncodeOptions) -> np.ndarray:
    """The σ1, σ2 and σ3 clauses the options switch on, flat and 0-terminated."""
    c, u = _guards(vm)
    i, j = np.triu_indices(vm.n, 1)
    parts = [np.zeros(0, dtype=np.int32)]
    if opts.sigma1:
        parts.append(_rows(-c[:-1], -c[1:]).ravel())
    if opts.sigma2:
        parts.append(_rows(-c[1:], u[:-1, i], u[:-1, j]).ravel())
    if opts.sigma3:
        adjacent = c[:, j - i == 1].T   # (pair (i,i+1), layer)
        parts.append(np.column_stack((adjacent, np.zeros(vm.n - 1, dtype=np.int32))).ravel())
    return np.concatenate(parts)


def encode_last_layer(vm: VarMap) -> np.ndarray:
    """Unit clauses -c(d,i,j) for every non-adjacent pair j > i+1.

    Only when layer d is open (d above the prefix depth); otherwise the
    last layer is the prefix's and nothing is emitted.
    """
    if vm.d <= vm.prefix_depth:
        return np.zeros(0, dtype=np.int32)
    c, _ = _guards(vm)
    i, j = np.triu_indices(vm.n, 1)
    return _rows(-c[-1, j - i > 1]).ravel()


def encode_fixed_prefix(vm: VarMap, prefix: Network) -> np.ndarray:
    """Unit clauses pinning every comparator variable of the prefix layers."""
    if prefix.depth > vm.d:
        raise ValueError(f"prefix depth {prefix.depth} exceeds network depth {vm.d}")
    if prefix.n != vm.n:
        raise ValueError("prefix channel count mismatch")
    c, _ = _guards(vm)
    index = _pair_index(vm.n)
    present = np.zeros((prefix.depth, vm._pairs), dtype=bool)
    for l, layer in enumerate(prefix.layers):
        for i, j in layer:
            present[l, index[i - 1, j - 1]] = True
    fixed = c[:prefix.depth]
    return _rows(np.where(present, fixed, -fixed)).ravel()


def build(n: int, d: int, inputs: Iterable[int],
          opts: EncodeOptions = EncodeOptions()) -> tuple[VarMap, Cnf]:
    """Assemble the full formula for the given input set.

    With d = 0 and an unsorted input present the result is the trivially
    unsatisfiable empty-clause CNF rather than an error.  Inputs whose
    prefix images coincide contribute identical value clauses and are
    collapsed to one representative.
    """
    xs = sorted(set(inputs))
    if opts.pad:
        xs = sorted(windows(xs, opts.pad, n))
    if d == 0:
        unsorted = any(not is_ascending(b, n) for b in xs)
        return VarMap(n, 0, xs), Cnf(0, [()] if unsorted else [])
    if opts.prefix is not None:
        # one input per prefix image, the smallest; the image fixes the weight
        arr = np.array(xs, dtype=np.uint32)
        _, first = np.unique(_eval_array(opts.prefix, arr), return_index=True)
        xs = arr[np.sort(first)].tolist()
    vm = VarMap(n, d, xs, opts.prefix)
    parts = [encode_structure(vm), encode_symmetry(vm, opts)]
    if opts.last_layer:
        parts.append(encode_last_layer(vm))
    if opts.prefix is not None:
        parts.append(encode_fixed_prefix(vm, opts.prefix))
    parts.append(encode_input_sort(vm))
    return vm, Cnf(vm.num_vars, np.concatenate(parts))


# ---------------------------------------------------------------------------
# DIMACS and model handling

def to_dimacs(cnf: Cnf, comments: Sequence[str] = ()) -> str:
    lits = cnf.lits
    parts = [f"c {c}\n" for c in comments]
    parts.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n")
    if lits.size:
        top = int(np.abs(lits).max())
        text = np.array([f"{lit} " for lit in range(-top, top + 1)], dtype=object)
        text[top] = "0\n"
        for start in range(0, lits.size, _LIT_CHUNK):
            parts.append("".join(text[lits[start:start + _LIT_CHUNK] + top].tolist()))
    return "".join(parts)


_ANSI = re.compile(r"\x1b\[[0-9;]*[A-Za-z]")


def parse_solver_output(text: str) -> tuple[str, Optional[frozenset[int]]]:
    """SAT-competition output: verdict plus the set of true variables.

    Returns one of ("SAT", vars), ("UNSAT", None), ("UNKNOWN", None); the
    status line may carry solver decorations (colors, a file name suffix).
    """
    verdict = "UNKNOWN"
    true_vars: set[int] = set()
    saw_model = False
    for raw in text.splitlines():
        line = _ANSI.sub("", raw).strip()
        if line.startswith("s "):
            if "UNSATISFIABLE" in line:
                verdict = "UNSAT"
            elif "SATISFIABLE" in line:
                verdict = "SAT"
        elif line.startswith("v ") or line == "v":
            saw_model = True
            for tok in line[1:].split():
                try:
                    lit = int(tok)
                except ValueError:
                    return "UNKNOWN", None
                if lit > 0:
                    true_vars.add(lit)
    if verdict == "SAT" and not saw_model:
        return "UNKNOWN", None
    return verdict, frozenset(true_vars) if verdict == "SAT" else None


def decode_network(vm: VarMap, true_vars: frozenset[int]) -> Network:
    """Read the comparator variables of a model back into a network."""
    layers = [[] for _ in range(vm.d)]
    for l, i, j, var in vm.comparator_vars():
        if var in true_vars:
            layers[l - 1].append((i, j))
    return Network(vm.n, tuple(tuple(sorted(layer)) for layer in layers))

"""CNF encoding of depth-d sorting-network existence.

Variables: c(l,i,j) places a comparator on channels i<j at layer l; u(l,k)
marks channel k as used at layer l; x(b,l,k) carries the value of channel k
after layer l while input b propagates.  Level-0 values are the constants
of b and level-d values the constants of sorted(b), so those variables are
never allocated and the clauses fold accordingly.

With a fixed prefix the comparator variables of the prefix layers are
pinned by unit clauses, the value variables of those levels fold to the
constants obtained by propagating each input through the prefix, and
inputs with identical prefix images would add identical value clauses,
so the formula keeps one of them.  All of this preserves satisfiability
of the underlying formula exactly.

Soundness contract.  The symmetry-breaking clauses σ1-σ3 and the
last-layer units (EncodeOptions) each remove networks, never every
sorting network.  VarMap reads the options once: it checks the instance
rule (networks.check_instance), keeps the windows of opts.pad and one
input per prefix image, and applies each rule below, σ1-σ3 as their
switches say and the others as their "on when" clauses say; build and
the clause fragments read only the VarMap.

  σ1  no comparator repeats on consecutive layers: the second copy never
      swaps, so deleting it keeps a network sorting;
  σ2  a comparator of layer l >= 2 touches a channel that layer l-1
      uses: else it moves down a layer without changing any output;
  σ3  every adjacent pair (i,i+1) is compared in some layer: the input
      that is sorted but for a one on channel i and a zero on i+1 is
      changed by no other comparator;
  last layer  (VarMap applies it when the last layer is open, d above
      the prefix depth) layer d has no comparator (i,j) with j > i+1.
      Codish, Cruz-Filipe, Ehlers, Müller and Schneider-Kamp (JCSS 2019)
      show that such a comparator is redundant in a sorting network, so
      deleting the non-adjacent comparators of its last layer keeps it
      sorting.  The deletion cannot break σ1-σ3: σ1 only forbids; σ2
      constrains the comparators of layer d by layer d-1, and nothing
      reads u(d, ·); σ3 needs only adjacent pairs, which stay.
  near sorted  (VarMap applies it with the last-layer units, when level
      d-1 is open, d-1 above the prefix depth) the level-(d-1) values of
      an input b with w ones are the constants of sorted(b) on every
      channel but n-w and n-w+1.  A layer of disjoint adjacent
      comparators only turns a pair 1,0 into 0,1, so the only vectors it
      maps onto sorted(b) = 0^(n-w) 1^w are sorted(b) and sorted(b) with
      channels n-w and n-w+1 swapped.  The other clauses force these
      values in every model, so folding them changes no verdict; the
      folded x variables keep their numbers and appear in no clause.
  settled ends  (VarMap applies it when some level between the prefix
      and d is open) take an input whose level-p image (p the prefix
      depth; the input itself without a prefix) has zeros on channels
      1..a and ones on channels n-b+1..n.  Then every open level
      p+1..d-1 holds those constants on those channels, by induction
      over the layers: a comparator (i,j) with i <= a writes min(0, x_j)
      = 0 to channel i (and x_j to j, which is 0 again when j <= a);
      symmetrically one with j > n-b writes max(x_i, 1) = 1 to channel
      j; a pass-through keeps its value.  The values are functions of
      the c and u variables in every model, so folding them changes no
      verdict; as above, the folded x variables keep their numbers and
      appear in no clause.  The fold needs no last-layer units, and it
      agrees with the near-sorted one: an input with w ones has a <= n-w
      and b <= w, so its constants at level d-1 are those of sorted(b).

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
inputs come from array code, and they read the kept images alone: a
comparator network keeps the number of ones, so sorted(b) is
sorted(image), and the sorted target, the near-sorted pair and the
settled ends all follow from the image.  Every open layer gives each kept
image one group per comparator (guard -c and operands x_i, x_j, y_i, y_j)
and one per channel (guard u and operands x, y), read from a table of
literal codes per kept image, level and channel.  Each operand is a
variable, true or false, so a group has one of 81 comparator or 9
pass-through patterns.
_fold_tables folds the written-out clauses, six of a comparator and two
of a pass-through (_COMPARATOR, _PASSTHROUGH), once per process for each
pattern (skip satisfied clauses, drop false literals and repeats within
a group) and keeps the result as a template of operand slots.  A
group's clauses are its pattern's template read from its operands, so
the work grows with the literals emitted rather than with the clause
templates of every open layer.  to_dimacs renders the array, or any
slice of it, in one step through one literal-to-text table shared by all
calls.  The table takes no lock: it grows by doubling and is replaced
whole, so a caller on any thread renders from a complete table.  The
solver chunks a formula (solver.dimacs_chunks) and writes it to its file
one slice at a time, so no whole-formula text is held.
Variables, clauses and their order are those of the clause-by-clause
construction, so the DIMACS text is the same.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .networks import Network, _ascending_mask, _eval_array, check_instance, windows

_TRUE = np.iinfo(np.int32).max  # literal code of the constant true; -_TRUE is false
_INPUT_CHUNK = 16               # kept images whose value clauses are built in one array pass


def _rule(off: str):
    """A rule switch of EncodeOptions, on by default; off says what
    switching the rule off does."""
    return field(default=True, metadata={"off": off})


@dataclass(frozen=True)
class EncodeOptions:
    sigma1: bool = _rule("allow a comparator to repeat on consecutive layers")
    sigma2: bool = _rule("allow a comparator on channels the layer before leaves unused")
    sigma3: bool = _rule("allow an adjacent pair (i,i+1) that no layer compares")
    last_layer: bool = _rule("allow non-adjacent comparators in the last layer")
    near_sorted: bool = _rule("keep variables for the level before the last layer "
                              "(the fold needs the last-layer units)")
    settled_ends: bool = _rule("keep variables for the channels that the prefix image "
                               "has already settled (leading zeros, trailing ones)")
    pad: int = 0          # window padding; 0 = off
    prefix: Optional[Network] = None


# The rule switches, in field order, each with what switching it off does:
# encode's --no-<rule> flags and the tests' rule sweeps are made from it.
RULES = {f.name: f.metadata["off"] for f in fields(EncodeOptions) if "off" in f.metadata}


def _flat(clauses: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    if isinstance(clauses, np.ndarray):
        return clauses.astype(np.int32, copy=False)
    return np.fromiter(itertools.chain.from_iterable((*cl, 0) for cl in clauses),
                       dtype=np.int32)


class Cnf:
    """num_vars and the clauses, stored flat in lits (each clause ends in 0).

    clauses may be given as tuples of literals or as such a flat array.
    """

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]] | np.ndarray = ()):
        self.num_vars = num_vars
        self.lits = _flat(clauses)

    @property
    def num_clauses(self) -> int:
        """The number of clauses: the 0 terminators in lits."""
        return self.lits.size - int(np.count_nonzero(self.lits))   # no mask copy of lits

    @property
    def clauses(self) -> list[tuple[int, ...]]:
        """The clauses read back from lits, one tuple of literals each."""
        next_lit = iter(self.lits.tolist()).__next__
        return [tuple(iter(next_lit, 0)) for _ in range(self.num_clauses)]   # up to each 0


class VarMap:
    """The one description of a formula: the inputs it keeps, its variables
    and the rules it applies.

    The options are read here once, and n, d, opts.pad and opts.prefix
    checked by the instance rule (networks.check_instance), with n <= 32
    as inputs are packed into 32 bits.  The inputs kept are the windows of
    opts.pad over the given set, one per prefix image: inputs whose images
    coincide add identical value clauses, so only the smallest stays, the
    first in an increasing set.  images holds their images under the
    prefix at level p, the prefix depth (the inputs themselves without a
    prefix), as an np.uint32 array: the clause fragments read them alone,
    so the formula is a function of its kept images.  inputs holds the
    kept inputs themselves in the same order (the given array itself when
    it is one, with no prefix and pad 0), the representatives a report
    counts and a model is checked against.  σ1-σ3 apply as their switches
    say; last_layer when layer d is open (d above the prefix depth);
    near_sorted with last_layer when level d-1 is open, and then level d-1
    holds the constants of sorted(b) on every channel but the boundary pair
    (the near-sorted rule above); settled_ends when some level between the
    prefix and d is open, and then every open level holds the constants of
    the image's leading zeros and trailing ones (the settled-ends rule).

    Variables are numbered all c, then all u, then x per kept image.  c_vars
    holds them by (layer, pair) and u_vars by (layer, channel); the pairs of
    a layer come in the order of pair_i < pair_j (0-based channels), and
    pair_at gives the position of the pair on two channels, in either order
    (-1 on the diagonal).  Value levels 0..prefix_depth and level d are
    constants; only the open levels in between get x variables, n per
    level and kept image from _x0 on, and folded ones keep their numbers.
    """

    def __init__(self, n: int, d: int, inputs: np.ndarray | Sequence[int],
                 opts: EncodeOptions = EncodeOptions()):
        prefix = opts.prefix
        check_instance(n, d, opts.pad, prefix, packed=True)
        self.n, self.d = n, d
        self.prefix = prefix
        p = self.prefix_depth = prefix.depth if prefix is not None else 0
        self.sigma1, self.sigma2, self.sigma3 = opts.sigma1, opts.sigma2, opts.sigma3
        self.last_layer = opts.last_layer and d > p
        self.near_sorted = self.last_layer and opts.near_sorted and d - 1 > p
        self.settled_ends = opts.settled_ends and d - 1 > p
        self.inputs = self.images = windows(np.asarray(inputs, dtype=np.uint32), opts.pad, n)
        if prefix is not None:
            # one input per prefix image, the smallest; the image fixes the weight
            images = _eval_array(prefix, self.inputs)
            keep = np.sort(np.unique(images, return_index=True)[1])
            self.inputs, self.images = self.inputs[keep], images[keep]
        i, j = np.triu_indices(n, 1)   # the pair order of a layer
        pairs = len(i)
        self.pair_i, self.pair_j = i, j
        self.pair_at = np.full((n, n), -1, dtype=np.intp)
        self.pair_at[i, j] = self.pair_at[j, i] = np.arange(pairs)
        self.c_vars = np.arange(1, d * pairs + 1, dtype=np.int32).reshape(d, pairs)
        self.u_vars = d * pairs + np.arange(1, d * n + 1, dtype=np.int32).reshape(d, n)
        self._open = max(d - p - 1, 0)   # value levels with variables
        self._x0 = d * (pairs + n)
        self.num_vars = self._x0 + len(self.inputs) * self._open * n
        if self.num_vars >= _TRUE:
            raise ValueError(f"{self.num_vars} variables do not fit int32 literals")

    def c(self, l: int, i: int, j: int) -> int:
        if not (1 <= l <= self.d and 1 <= i < j <= self.n):
            raise KeyError(("c", l, i, j))
        return int(self.c_vars[l - 1, self.pair_at[i - 1, j - 1]])

    def u(self, l: int, k: int) -> int:
        if not (1 <= l <= self.d and 1 <= k <= self.n):
            raise KeyError(("u", l, k))
        return int(self.u_vars[l - 1, k - 1])


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
    n, d, c, u = vm.n, vm.d, vm.c_vars, vm.u_vars
    incident = c[:, vm.pair_at[~np.eye(n, dtype=bool)].reshape(n, n - 1)]   # (layer, k, m != k)
    a, b = np.triu_indices(n - 1, 1)
    blocks = (np.concatenate((-u[..., None], incident, np.zeros_like(u)[..., None]), axis=-1),
              _rows(-incident, u[..., None]).reshape(d, n, 3 * (n - 1)),
              _rows(-incident[..., a], -incident[..., b]).reshape(d, n, 3 * len(a)))
    return np.concatenate(blocks, axis=-1).ravel()


def _bits(vals: np.ndarray, n: int) -> np.ndarray:
    """Channel values of packed vectors, shape (len(vals), n)."""
    return (vals[:, None] >> np.arange(n, dtype=np.uint32)) & 1 == 1


def _const(bits: np.ndarray) -> np.ndarray:
    return np.where(bits, _TRUE, -_TRUE).astype(np.int32)


# The clauses of a value-clause group as signed columns of its operand row
# (_value_clauses): column 1 holds the guard, columns 2.. the operands.
# A comparator guarded by -c on operands x_i, x_j, y_i, y_j:
# y_i = x_i AND x_j (min), y_j = x_i OR x_j (max).
_COMPARATOR = ((1, -4, 2), (1, -4, 3), (1, 4, -2, -3), (1, 5, -2), (1, 5, -3), (1, -5, 2, 3))
# A channel guarded by u, its used-flag, on operands x, y: y = x.
_PASSTHROUGH = ((1, -2, 3), (1, 2, -3))


@functools.cache
def _fold_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The folded clauses of every operand pattern of a value-clause group.

    The guard is a variable; each operand is a variable, true or false.
    Pattern p of a comparator group gives operand k (0-based, column k + 2)
    the state p // 3**k % 3 (0 variable, 1 true, 2 false); pass-through
    patterns follow as 81 + state(x) + 3 state(y).  Folding a pattern
    skips each clause that a true literal satisfies, drops the false
    literals of the others and drops a clause equal to an earlier one of
    its group.  Returns the slots of all patterns (column and sign of each
    literal, column 0 ending a clause) with each pattern's first slot and
    slot count.
    """
    slots, count = [], []
    for clauses, arity in ((_COMPARATOR, 4), (_PASSTHROUGH, 2)):
        for p in range(3 ** arity):
            state = [0, 0] + [p // 3 ** k % 3 for k in range(arity)]   # by column
            folded: list[tuple[int, ...]] = []
            for clause in clauses:
                if any(state[abs(lit)] == (1 if lit > 0 else 2) for lit in clause):
                    continue   # a true literal satisfies it
                kept = tuple(lit for lit in clause if state[abs(lit)] == 0)
                if kept not in folded:
                    folded.append(kept)
            group = [lit for kept in folded for lit in (*kept, 0)]
            slots += group
            count.append(len(group))
    slots = np.array(slots)
    column, sign = np.abs(slots).astype(np.intp), np.where(slots < 0, -1, 1).astype(np.int32)
    count = np.array(count, dtype=np.intp)
    start = np.cumsum(count) - count
    for table in (column, sign, start, count):
        table.setflags(write=False)
    return column, sign, start, count


def _value_clauses(vm: VarMap, lo: int, hi: int) -> np.ndarray:
    """Flat value clauses of kept images lo..hi-1, in order, read from the
    images alone."""
    n, d, p = vm.n, vm.d, vm.prefix_depth
    i, j = vm.pair_i, vm.pair_j
    c, u = vm.c_vars[p:], vm.u_vars[p:]   # the guards of the open layers
    bits = _bits(vm.images[lo:hi], n)     # the level-p values
    channel = np.arange(1, n + 1)
    # a comparator network keeps the number w of ones, so sorted(b) is
    # sorted(image): zeros on channels 1..n-w, ones above
    zeros = n - bits.sum(axis=1)[:, None]
    # literal codes per image, level p..d and channel; in between, the x variables
    values = np.empty((hi - lo, d - p + 1, n), dtype=np.int32)
    values[:, 0] = _const(bits)
    values[:, 1:-1] = (vm._x0 + n * (np.arange(lo, hi)[:, None, None] * vm._open
                                     + np.arange(d - p - 1)[:, None])
                       + channel)
    values[:, -1] = _const(channel > zeros)
    if vm.near_sorted:
        boundary = (channel == zeros) | (channel == zeros + 1)
        values[:, -2] = np.where(boundary, values[:, -2], values[:, -1])
    if vm.settled_ends:
        # the leading zeros and trailing ones, which no comparator changes
        settled = (np.logical_and.accumulate(~bits, axis=1)
                   | np.logical_and.accumulate(bits[:, ::-1], axis=1)[:, ::-1])
        values[:, 1:-1] = np.where(settled[:, None], values[:, :1], values[:, 1:-1])
    state = (values == _TRUE) + 2 * (values == -_TRUE).astype(np.int32)
    # one group per (image, layer, pair or channel), the pairs of a layer before its
    # channels; a group's operand row is 0, the guard and the operands (_fold_tables)
    pairs = c.shape[1]
    ops = np.zeros((hi - lo, d - p, pairs + n, 6), dtype=np.int32)
    x, y, sx, sy = values[:, :-1], values[:, 1:], state[:, :-1], state[:, 1:]
    ops[:, :, :pairs, 1] = -c
    for col, operand in enumerate((x[..., i], x[..., j], y[..., i], y[..., j]), start=2):
        ops[:, :, :pairs, col] = operand
    ops[:, :, pairs:, 1] = u
    ops[:, :, pairs:, 2], ops[:, :, pairs:, 3] = x, y
    pattern = np.concatenate((sx[..., i] + 3 * sx[..., j] + 9 * sy[..., i] + 27 * sy[..., j],
                              81 + sx + 3 * sy), axis=2).ravel()
    column, sign, start, count = _fold_tables()
    # the slots of every group's pattern, one after another, read from its operand row
    lengths = count[pattern]
    ends = np.cumsum(lengths)
    slot = np.arange(ends[-1])
    slot += np.repeat(start[pattern] - ends + lengths, lengths)
    row = np.repeat(np.arange(0, ops.size, 6), lengths)
    row += column[slot]
    return sign[slot] * ops.ravel()[row]


def encode_input_sort(vm: VarMap) -> np.ndarray:
    """Value propagation for every kept image: min = AND, max = OR,
    pass-through.

    Returns the flat 0-terminated clauses, image by image in the order of
    vm.images, each image's clauses without repeats; they read vm.images
    alone.  Layers covered by a fixed prefix are fully determined by the
    prefix units and the folded constants, so clauses start at the first
    open layer.  With no open layer left, the fragment degenerates to a
    consistency check between the prefix image and the sorted target: one
    empty clause per image that is not sorted, since an image is sorted(b)
    exactly when it is sorted.
    """
    if vm.prefix_depth == vm.d:
        return np.zeros(int((~_ascending_mask(vm.images, vm.n)).sum()), dtype=np.int32)
    parts = [_value_clauses(vm, lo, min(lo + _INPUT_CHUNK, len(vm.images)))
             for lo in range(0, len(vm.images), _INPUT_CHUNK)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)


def encode_symmetry(vm: VarMap) -> np.ndarray:
    """The σ1, σ2 and σ3 clauses vm applies, flat and 0-terminated."""
    c, u, i, j = vm.c_vars, vm.u_vars, vm.pair_i, vm.pair_j
    parts = [np.zeros(0, dtype=np.int32)]
    if vm.sigma1:
        parts.append(_rows(-c[:-1], -c[1:]).ravel())
    if vm.sigma2:
        parts.append(_rows(-c[1:], u[:-1, i], u[:-1, j]).ravel())
    if vm.sigma3:
        adjacent = c[:, j - i == 1].T   # (pair (i,i+1), layer)
        parts.append(np.column_stack((adjacent, np.zeros(vm.n - 1, dtype=np.int32))).ravel())
    return np.concatenate(parts)


def encode_last_layer(vm: VarMap) -> np.ndarray:
    """Unit clauses -c(d,i,j) for every non-adjacent pair j > i+1, when vm
    applies the last-layer rule (layer d is open); else nothing."""
    if not vm.last_layer:
        return np.zeros(0, dtype=np.int32)
    return _rows(-vm.c_vars[-1, vm.pair_j - vm.pair_i > 1]).ravel()


def encode_fixed_prefix(vm: VarMap) -> np.ndarray:
    """Unit clauses pinning every comparator variable of the layers of
    vm.prefix, the prefix whose images vm folds (VarMap checks it); none
    without a prefix."""
    fixed = vm.c_vars[:vm.prefix_depth]
    present = np.zeros(fixed.shape, dtype=bool)
    for l, layer in enumerate(vm.prefix.layers if vm.prefix is not None else ()):
        for i, j in layer:
            present[l, vm.pair_at[i - 1, j - 1]] = True
    return _rows(np.where(present, fixed, -fixed)).ravel()


def build(n: int, d: int, inputs: np.ndarray | Sequence[int],
          opts: EncodeOptions = EncodeOptions()) -> tuple[VarMap, Cnf]:
    """Assemble the full formula for the given input set.

    The input set is an increasing np.uint32 array of packed vectors, as
    unsorted_inputs returns it (an increasing list is converted).  The
    VarMap of the options decides which inputs the formula keeps and every
    rule it applies; the formula is its five fragments in turn.  With d = 0
    the result is the empty-clause CNF when an input kept is unsorted (no
    depth-0 network sorts it), else the empty CNF.
    """
    vm = VarMap(n, d, inputs, opts)
    if d == 0:
        return vm, Cnf(0, [] if _ascending_mask(vm.images, n).all() else [()])
    return vm, Cnf(vm.num_vars, np.concatenate((
        encode_structure(vm), encode_symmetry(vm), encode_last_layer(vm),
        encode_fixed_prefix(vm), encode_input_sort(vm))))


# ---------------------------------------------------------------------------
# DIMACS and model handling

# The literal-to-text table of to_dimacs and its top: entry lit + top renders
# lit.  It is grown by doubling and replaced as one tuple, with no lock: a
# caller on any thread holds a complete table whatever another renders.  Two
# threads that grow it at once each build one, and the last one stored stays.
_dimacs_text: tuple[np.ndarray, int] = (np.array(["0\n"], dtype=object), 0)


def _literal_text(top: int) -> tuple[np.ndarray, int]:
    """A literal-to-text table covering -top..top, and its own top."""
    global _dimacs_text
    table = _dimacs_text
    if table[1] < top:
        size = max(top, 2 * table[1])
        text = np.array([f"{lit} " for lit in range(-size, size + 1)], dtype=object)
        text[size] = "0\n"
        _dimacs_text = table = (text, size)
    return table


def to_dimacs(cnf: Cnf, start: int = 0, stop: Optional[int] = None) -> str:
    """The DIMACS text of the literals cnf.lits[start:stop], headed by the
    p cnf line when start is 0; to_dimacs(cnf) is the whole text.

    Slice bounds may fall inside a clause, so joining the texts of
    consecutive slices gives the whole text.  The slice is rendered in one
    step, so its text is held whole: a writer that bounds what it holds
    passes bounded slices (solver.dimacs_chunks).
    """
    lits = cnf.lits[start:stop]
    head = f"p cnf {cnf.num_vars} {cnf.num_clauses}\n" if start == 0 else ""
    text, top = _literal_text(int(np.abs(lits).max(initial=0)))
    index = lits.astype(np.intp)
    index += top
    return head + "".join(text[index].tolist())


def decode_network(vm: VarMap, true_vars: frozenset[int]) -> Network:
    """Read the comparator variables of a model back into a network."""
    chosen = np.isin(vm.c_vars, np.fromiter(true_vars, dtype=np.int64))   # (layer, pair)
    return Network(vm.n, tuple(tuple(zip(vm.pair_i[row] + 1, vm.pair_j[row] + 1))
                               for row in chosen))

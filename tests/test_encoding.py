import concurrent.futures as cf
import itertools
import random
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from oracles import (RULE_SWITCHES, brute_force_sorter_exists, evaluate_bits, value_lit,
                     variable_index, vec_from_str, x_var)
from sortnetopt import encoding, solver
from sortnetopt.campaign import two_layer_prefixes
from sortnetopt.encoding import (
    Cnf,
    EncodeOptions,
    VarMap,
    _fold_tables,
    build,
    decode_network,
    encode_fixed_prefix,
    encode_input_sort,
    encode_last_layer,
    encode_structure,
    encode_symmetry,
    to_dimacs,
)
from sortnetopt.networks import (
    ChannelCountError,
    Network,
    first_layer,
    is_sorting_network,
    network,
    unsorted_inputs,
    windows,
)
from sortnetopt.solver import parse_solver_output, run_solver
from sortnetopt.words import matchings


def unit_propagate(cnf):
    """Tiny closure for unit-derivable literals (enough for the doc examples)."""
    assigned = {}
    clauses = [list(c) for c in cnf.clauses]
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            lits = [l for l in cl if assigned.get(abs(l)) is None]
            if any(assigned.get(abs(l)) == (l > 0) for l in cl):
                continue
            if len(lits) == 1:
                assigned[abs(lits[0])] = lits[0] > 0
                changed = True
    return assigned


def test_varmap_census_and_order():
    vm = VarMap(2, 1, unsorted_inputs(2))
    c_vars = vm.c_vars.ravel().tolist()
    assert len(c_vars) == 1
    assert vm.u(1, 1) == 2 and vm.u(1, 2) == 3
    assert vm.num_vars == 3  # no x vars: levels 0 and d are constants
    with pytest.raises(KeyError):
        vm.c(0, 1, 2)        # layers count from 1
    with pytest.raises(KeyError):
        vm.u(0, 1)

    vm = VarMap(3, 2, [1, 2])
    assert vm.num_vars == 2 * 3 + 2 * 3 + 2 * 1 * 3  # c + u + x(level 1 only)
    # bijective, no gaps
    assert sorted(variable_index(vm).values()) == list(range(1, vm.num_vars + 1))


def test_incident_sets_and_at_most_one():
    vm = VarMap(3, 1, [])
    frag = Cnf(vm.num_vars, encode_structure(vm)).clauses
    amo = [c for c in frag if len(c) == 2 and c[0] < 0 and c[1] < 0
           and abs(c[0]) <= 3 and abs(c[1]) <= 3]
    assert len(amo) == 3  # one per channel: C(2,2) pairs over each incident set


def test_sorted_input_fragment_is_vacuous():
    vm = VarMap(3, 2, [vec_from_str("011")], EncodeOptions(near_sorted=False, settled_ends=False))
    frag = Cnf(vm.num_vars, encode_input_sort(vm)).clauses
    assert () not in frag
    # everything-off plus pass-through values satisfies the fragment
    model = {v: False for v in range(1, vm.num_vars + 1)}
    for k in range(1, 4):
        model[value_lit(vm, 0, 1, k)] = bool((vm.inputs[0] >> (k - 1)) & 1)
    for cl in frag:
        assert any(model[abs(l)] == (l > 0) for l in cl)


def test_unit_clause_example_n2():
    b = vec_from_str("10")
    vm, cnf = build(2, 1, [b], EncodeOptions(sigma1=False, sigma2=False, sigma3=False))
    units = {c for c in cnf.clauses if len(c) == 1}
    assert (vm.u(1, 1),) in units and (vm.u(1, 2),) in units
    derived = unit_propagate(cnf)
    assert derived.get(vm.c(1, 1, 2)) is True


def test_guard_expansion_clause_count():
    # on a fully-variable layer every comparator guard expands to exactly
    # 3 clauses for the min (AND) side and 3 for the max (OR) side
    vm = VarMap(4, 3, [vec_from_str("1010")], EncodeOptions(near_sorted=False, settled_ends=False))
    frag = Cnf(vm.num_vars, encode_input_sort(vm)).clauses
    for i, j in itertools.combinations(range(1, 5), 2):
        guard = -vm.c(2, i, j)  # layer 2: both value levels are variables
        yi = value_lit(vm, 0, 2, i)
        min_side = [c for c in frag if guard in c and (yi in c or -yi in c)]
        assert len(min_side) == 3
        assert len([c for c in frag if guard in c]) == 6


def test_sigma_counts():
    def symmetry(vm):
        return Cnf(vm.num_vars, encode_symmetry(vm)).clauses

    vm = VarMap(3, 2, [], EncodeOptions(sigma1=True, sigma2=False, sigma3=False))
    s1 = symmetry(vm)
    assert len(s1) == 3
    vm = VarMap(4, 3, [], EncodeOptions(sigma1=False, sigma2=False, sigma3=True))
    s3 = symmetry(vm)
    assert len(s3) == 3
    assert set(s3) == {tuple(vm.c(l, i, i + 1) for l in (1, 2, 3)) for i in (1, 2, 3)}
    vm = VarMap(3, 1, [], EncodeOptions(sigma1=False, sigma2=True, sigma3=False))
    assert symmetry(vm) == []


def test_fixed_prefix_units():
    def fixed_prefix(vm):
        return Cnf(vm.num_vars, encode_fixed_prefix(vm)).clauses

    vm = VarMap(4, 2, [], EncodeOptions(prefix=network(4, first_layer(4))))
    frag = fixed_prefix(vm)
    expect = {(vm.c(1, 1, 2),), (vm.c(1, 3, 4),),
              (-vm.c(1, 1, 3),), (-vm.c(1, 1, 4),), (-vm.c(1, 2, 3),), (-vm.c(1, 2, 4),)}
    assert set(frag) == expect

    two = network(5, first_layer(5), [(1, 5), (2, 4)])
    assert len(fixed_prefix(VarMap(5, 3, [], EncodeOptions(prefix=two)))) == 2 * 10

    assert fixed_prefix(VarMap(4, 2, [], EncodeOptions(prefix=network(4)))) == []


def test_last_layer_units():
    for n in range(2, 8):
        for d in (1, 2, 3):
            vm = VarMap(n, d, [])
            units = Cnf(vm.num_vars, encode_last_layer(vm)).clauses
            assert len(units) == (n - 1) * (n - 2) // 2
            assert set(units) == {(-vm.c(d, i, j),) for i, j
                                  in itertools.combinations(range(1, n + 1), 2) if j > i + 1}
    for prefix in two_layer_prefixes(6):
        # the prefix fills layer d: nothing to forbid
        opts = EncodeOptions(prefix=prefix)
        assert encode_last_layer(VarMap(6, 2, [], opts)).size == 0
        assert len(Cnf(0, encode_last_layer(VarMap(6, 4, [], opts))).clauses) == 5 * 4 // 2


# ---------------------------------------------------------------------------
# the R_n verdict map

# The verdict of every R_n prefix, by R_n index, at every depth 2..T(n), at
# pad 0 and at pad n - d - 1, windows of width d + 1: UNSAT below T(n);
# at T(n), n: (T(n), pad 0, padded, or None where there is no pad).  A sound
# formula rule keeps every letter (Bundala et al.); one that drops every
# network of one prefix flips an S to U, while T(n) may stay right.
RN_VERDICTS = {
    4: (3, "SS", None),
    5: (5, "SSSS", None),
    6: (5, "USUSS", None),
    7: (6, "USSSSSSS", None),
    8: (6, "UUUSUSSSSSSS", "UUUSUSSSSSSS"),
    9: (7, "UUUSSSSSSSSSSSSSSSSSSS", "S" * 22),
}


def _pinned_map(max_n, top_only=()):
    """RN_VERDICTS spelt out for n <= max_n, at depths T(n) - 1 and T(n) only
    for the n in top_only: {(n, d, pad, R_n index): letter}."""
    return {(n, d, pad, idx): letter
            for n, (t, at_t, padded) in RN_VERDICTS.items() if n <= max_n
            for d in range(t - 1 if n in top_only else 2, t + 1)
            for pad in ([0, n - d - 1] if n > d + 1 else [0])
            for idx, letter in enumerate((padded if pad else at_t) if d == t else "U" * len(at_t))}


def test_rn_verdict_map_reach():
    # the keys the gate solves, pad 1 among them: a pad rule edit that
    # shrinks the map fails here
    for args, size, at_pad_1 in [((9,), 521, 53), ((8, (8,)), 185, 31)]:
        keys = _pinned_map(*args)
        assert (len(keys), sum(key[2] == 1 for key in keys)) == (size, at_pad_1), args


def _map_flips(solver_config, base, max_n, top_only=()):
    """The keys of _pinned_map(max_n, top_only) whose letter the formula of
    options base does not reproduce, two solves at a time.  Every pad-0 SAT
    must decode to a sorting network whose first layers are its prefix."""
    want = _pinned_map(max_n, top_only)

    def verdict(key):
        n, d, pad, idx = key
        prefix = two_layer_prefixes(n)[idx]
        vm, cnf = build(n, d, unsorted_inputs(n, prefix), replace(base, prefix=prefix, pad=pad))
        res = run_solver(cnf, solver_config, name=f"map-{n}-{d}-{pad}-{idx}")
        if res.verdict == "SAT" and pad == 0:
            net = decode_network(vm, res.true_vars)
            assert net.layers[:2] == prefix.layers and is_sorting_network(net), (key, base)
        return res.verdict[0]

    with cf.ThreadPoolExecutor(max_workers=2) as pool:
        return [key for key, got in zip(want, pool.map(verdict, want)) if got != want[key]]


# name: (options, max_n, top_only); the rules-off formula takes 24 s at n = 9
FORMULAS = {"default": (EncodeOptions(), 9, ()),
            "rules-off": (EncodeOptions(**dict.fromkeys(RULE_SWITCHES, False)), 8, ()),
            # a rule switched off alone: n = 8 at depths T - 1 and T only
            **{f"no-{rule}": (EncodeOptions(**{rule: False}), 8, (8,)) for rule in RULE_SWITCHES},
            # the settled-ends fold on the formula without last-layer units
            "no-last_layer-settled_ends":
                (EncodeOptions(last_layer=False, settled_ends=False), 8, ())}


@pytest.mark.parametrize("formula", FORMULAS)
def test_formula_keeps_rn_verdict_map(solver_config, formula):
    # the map has a letter per prefix, and every formula keeps every letter
    assert all(len(at_t) == len(padded or at_t) == len(two_layer_prefixes(n))
               for n, (_, at_t, padded) in RN_VERDICTS.items())
    assert _map_flips(solver_config, *FORMULAS[formula]) == []


@pytest.mark.parametrize("n, top", [(4, 3), (5, 5), (6, 4)])
def test_rn_verdict_map_matches_bruteforce(n, top):
    # the map against every layer sequence after the prefix, at pad 0: an
    # oracle that shares no code with the encoding
    want = _pinned_map(n)
    for d in range(2, top + 1):
        for idx, p in enumerate(two_layer_prefixes(n)):
            exists = brute_force_sorter_exists(n, d, unsorted_inputs(n, p), p)
            assert want[n, d, 0, idx] == ("S" if exists else "U"), (n, d, idx)


def test_rn_verdict_map_catches_a_rule_too_strong(solver_config, monkeypatch):
    # units forbidding the penultimate comparators (i, j) with j - i > 2
    # remove every depth-6 network after prefix 3 of R_8, at both pads, and
    # keep T(8) = 6: the map catches what the known T(n) cannot
    def too_strong(vm):
        # the last-layer units, and -c(d - 1, i, j) for j - i > 2 when layer d - 1 is open
        longer = vm.c_vars[vm.d - 2, (vm.pair_j - vm.pair_i > 2) & (vm.d - 1 > vm.prefix_depth)]
        return np.concatenate((encode_last_layer(vm), np.ravel([-longer, 0 * longer], "F")))

    monkeypatch.setattr(encoding, "encode_last_layer", too_strong)
    assert _map_flips(solver_config, EncodeOptions(), 8) == [(8, 6, 0, 3), (8, 6, 1, 3)]


def test_near_sorted_level():
    # level d - 1 holds sorted(b) away from channels n-w and n-w+1; nothing
    # else is folded, and the variable numbering stays
    for n in (4, 5, 6):
        for prefix in [None, network(n, first_layer(n))] + two_layer_prefixes(n):
            p = prefix.depth if prefix is not None else 0
            xs = unsorted_inputs(n, prefix)
            for d in range(max(p, 1), p + 4):
                opts = EncodeOptions(prefix=prefix, settled_ends=False)
                vm, cnf = build(n, d, xs, opts)
                _, off = build(n, d, xs, replace(opts, near_sorted=False))
                _, loose = build(n, d, xs, replace(opts, last_layer=False))
                assert vm.num_vars == off.num_vars == loose.num_vars
                # the fold needs the last-layer units
                assert to_dimacs(loose) == to_dimacs(build(n, d, xs, replace(
                    opts, last_layer=False, near_sorted=False))[1])
                if d - 1 <= p:
                    # level d - 1 is the prefix's (or the input): nothing to fold
                    assert not vm.near_sorted
                    assert np.array_equal(cnf.lits, off.lits)
                    continue
                assert vm.near_sorted
                used = set(np.abs(cnf.lits).tolist())
                for b_idx, b in enumerate(vm.inputs.tolist()):
                    zeros = n - bin(b).count("1")
                    for k in range(1, n + 1):
                        x = x_var(vm, b_idx, d - 1, k)
                        if k in (zeros, zeros + 1):
                            assert value_lit(vm, b_idx, d - 1, k) == x and x in used
                        else:
                            assert value_lit(vm, b_idx, d - 1, k) is (k > zeros)
                            assert x not in used
                        for l in range(p + 1, d - 1):
                            assert value_lit(vm, b_idx, l, k) == x_var(vm, b_idx, l, k)
                            assert x_var(vm, b_idx, l, k) in used


def _settled_channels(image, n):
    """Channels 1..a of the leading zeros and n-b+1..n of the trailing ones."""
    bits = [(image >> (k - 1)) & 1 for k in range(1, n + 1)]
    a = next((k for k, bit in enumerate(bits) if bit), n)
    b = next((k for k, bit in enumerate(reversed(bits)) if not bit), n)
    return set(range(1, a + 1)) | set(range(n - b + 1, n + 1))


def test_settled_ends_level():
    # at every open level the channels of the prefix image's leading zeros
    # and trailing ones hold that image's constants, the near-sorted level
    # d - 1 its constants away from the boundary pair, and every other
    # channel its variable; folded variables keep their numbers and appear
    # in no clause
    for n in (4, 5, 6):
        for prefix in [None, network(n, first_layer(n))] + two_layer_prefixes(n):
            p = prefix.depth if prefix is not None else 0
            xs = unsorted_inputs(n, prefix)
            for d in range(max(p, 1), p + 4):
                for near_sorted in (False, True):
                    opts = EncodeOptions(prefix=prefix, near_sorted=near_sorted)
                    vm, cnf = build(n, d, xs, opts)
                    _, off = build(n, d, xs, replace(opts, settled_ends=False))
                    assert vm.num_vars == off.num_vars
                    if d - 1 <= p:
                        # no open level: nothing to fold
                        assert not vm.settled_ends
                        assert np.array_equal(cnf.lits, off.lits)
                        continue
                    assert vm.settled_ends
                    used = set(np.abs(cnf.lits).tolist())
                    for b_idx, b in enumerate(vm.inputs.tolist()):
                        image = evaluate_bits(prefix, b) if prefix is not None else b
                        settled = _settled_channels(image, n)
                        zeros = n - bin(b).count("1")
                        for l in range(p + 1, d):
                            for k in range(1, n + 1):
                                x = x_var(vm, b_idx, l, k)
                                if k in settled:
                                    want = bool((image >> (k - 1)) & 1)
                                elif near_sorted and l == d - 1 and k not in (zeros, zeros + 1):
                                    want = k > zeros
                                else:
                                    assert value_lit(vm, b_idx, l, k) == x and x in used
                                    continue
                                assert value_lit(vm, b_idx, l, k) is want, (n, prefix, d, b, l, k)
                                assert x not in used


def test_every_clause_has_a_comparator_or_used_variable():
    # value clauses are guarded, so no fold leaves a clause of x variables only
    for n in (4, 5, 6, 7):
        for prefix in [None, network(n, first_layer(n, "crossing"))] + two_layer_prefixes(n):
            p = prefix.depth if prefix is not None else 0
            xs = unsorted_inputs(n, prefix)
            for d in range(p + 1, p + 4):
                for pad in (0, max(n - d - 1, 0)):
                    for on in (True, False):
                        vm, cnf = build(n, d, xs, EncodeOptions(prefix=prefix, pad=pad,
                                                                near_sorted=on))
                        ends = np.flatnonzero(cnf.lits == 0)
                        guarded = (np.abs(cnf.lits) <= vm._x0) & (cnf.lits != 0)
                        per_clause = np.add.reduceat(guarded, np.r_[0, ends[:-1] + 1])
                        assert per_clause.min() > 0, (n, prefix, d, pad, on)


def test_prefix_too_deep():
    with pytest.raises(ValueError):
        VarMap(4, 1, [], EncodeOptions(prefix=network(4, first_layer(4), [(2, 3)])))
    xs = unsorted_inputs(4)
    for prefix in (network(4, first_layer(4), [(2, 3)]),       # deeper than d
                   network(4, [(2, 1)]),                       # not standard
                   network(5, first_layer(5))):                # channel mismatch
        with pytest.raises(ValueError):
            build(4, 1, xs, EncodeOptions(prefix=prefix))
    with pytest.raises(ChannelCountError, match="cap"):
        VarMap(33, 1, [])


def _emit(*lits):
    """A clause with constants folded: None when satisfied, else its literals."""
    if any(l is True for l in lits):
        return None
    return tuple(l for l in lits if l is not False)


def _neg(lit):
    return (not lit) if isinstance(lit, bool) else -lit


def reference_comparator(c, xi, xj, yi, yj):
    """The folded clauses of comparator c: y_i = x_i AND x_j, y_j = x_i OR x_j."""
    out = [_emit(-c, _neg(yi), xi), _emit(-c, _neg(yi), xj), _emit(-c, yi, _neg(xi), _neg(xj)),
           _emit(-c, yj, _neg(xi)), _emit(-c, yj, _neg(xj)), _emit(-c, _neg(yj), xi, xj)]
    return [cl for cl in out if cl is not None]


def reference_passthrough(u, x, y):
    """The folded clauses of a channel whose used-flag u is off: y = x."""
    return [cl for cl in (_emit(u, _neg(x), y), _emit(u, x, _neg(y))) if cl is not None]


def reference_input_sort(vm, b_idx):
    """The clause-by-clause construction: fold constants, drop repeats."""
    if vm.prefix_depth == vm.d:
        image = evaluate_bits(vm.prefix, vm.inputs.tolist()[b_idx])
        sorted_b = [value_lit(vm, b_idx, vm.d, k) for k in range(1, vm.n + 1)]
        image_bits = [bool((image >> (k - 1)) & 1) for k in range(1, vm.n + 1)]
        return [()] if image_bits != sorted_b else []
    out = []
    for l in range(vm.prefix_depth + 1, vm.d + 1):
        for i, j in itertools.combinations(range(1, vm.n + 1), 2):
            out += reference_comparator(vm.c(l, i, j), *(value_lit(vm, b_idx, level, k)
                                                         for level in (l - 1, l) for k in (i, j)))
        for k in range(1, vm.n + 1):
            out += reference_passthrough(vm.u(l, k), value_lit(vm, b_idx, l - 1, k),
                                         value_lit(vm, b_idx, l, k))
    return list(dict.fromkeys(out))


def test_fold_tables_match_reference():
    # every operand pattern: 81 comparator groups, then 9 pass-through groups;
    # operand k of pattern p is a variable, true or false by p // 3**k % 3
    column, sign, start, count = _fold_tables()
    assert len(start) == len(count) == 90
    guard, variables = 10, (11, 12, 13, 14)
    for pattern in range(90):
        comparator = pattern < 81
        arity = 4 if comparator else 2
        states = [(pattern % 81) // 3 ** k % 3 for k in range(arity)]
        operands = [(var, True, False)[state] for var, state in zip(variables, states)]
        # a group's operand row: 0, the guard literal, the operands (constants
        # as 99 / -99, which no clause may read)
        row = [0, -guard if comparator else guard]
        row += [99 if op is True else -99 if op is False else op for op in operands]
        slots = slice(start[pattern], start[pattern] + count[pattern])
        lits = [int(s * row[col]) for col, s in zip(column[slots], sign[slots])]
        assert not lits or lits[-1] == 0, pattern
        got = Cnf(0, np.array(lits, dtype=np.int32)).clauses
        reference = reference_comparator if comparator else reference_passthrough
        want = list(dict.fromkeys(reference(guard, *operands)))
        assert got == want, (pattern, operands)


def test_input_sort_matches_reference():
    # any input set, sorted members included, under prefixes of depth 0..2 and
    # with up to 4 open layers, with and without the near-sorted fold of level
    # d - 1 and the settled ends: the first open layer reads the prefix
    # constants, the middle layers are variables but for the settled ends,
    # level d - 1 is folded or not, and level d is constant
    rng = random.Random(7)
    for n in range(2, 9):
        layers = list(matchings(n))
        for gap in range(5):
            prefix = None
            if rng.random() < 0.8:
                prefix = network(n, *rng.sample(layers, rng.randint(0, 2)))
            p = prefix.depth if prefix is not None else 0
            inputs = sorted(rng.sample(range(1 << n), rng.randint(0, min(40, 1 << n))))
            d = max(p + gap, 1)
            for near_sorted, settled_ends in itertools.product((False, True), repeat=2):
                vm = VarMap(n, d, inputs, EncodeOptions(prefix=prefix, near_sorted=near_sorted,
                                                        settled_ends=settled_ends))
                want = [cl for b_idx in range(len(vm.inputs))
                        for cl in reference_input_sort(vm, b_idx)]
                assert Cnf(vm.num_vars, encode_input_sort(vm)).clauses == want, \
                    (n, prefix, d, near_sorted, settled_ends)


def test_build_d0():
    vm, cnf = build(3, 0, unsorted_inputs(3))
    assert cnf.clauses == [()]
    vm, cnf = build(3, 0, [vec_from_str("011")])
    assert cnf.clauses == []
    # the same VarMap checks: no prefix deeper than d = 0, and no negative depth
    with pytest.raises(ValueError, match="exceeds network depth 0"):
        build(3, 0, unsorted_inputs(3), EncodeOptions(prefix=network(3, first_layer(3))))
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        build(3, -1, unsorted_inputs(3))


def test_build_is_the_fragments_of_its_varmap():
    # build holds no rule of its own: under every setting of the six switches,
    # with and without a prefix, its formula is the five fragments of the
    # VarMap it returns, concatenated in order
    fragments = (encode_structure, encode_symmetry, encode_last_layer, encode_fixed_prefix,
                 encode_input_sort)
    for n in (4, 5, 6):
        for prefix in [None] + two_layer_prefixes(n):
            p = prefix.depth if prefix is not None else 0
            xs = unsorted_inputs(n, prefix)
            for d in range(p + 1, p + 4):
                for setting in itertools.product((False, True), repeat=len(RULE_SWITCHES)):
                    opts = EncodeOptions(prefix=prefix, **dict(zip(RULE_SWITCHES, setting)))
                    vm, cnf = build(n, d, xs, opts)
                    assert np.array_equal(cnf.lits, np.concatenate([f(vm) for f in fragments])), \
                        (n, prefix, d, setting)


def test_decode_network_inverts_the_numbering():
    # a model holding exactly a network's comparator variables, plus any used
    # and value variables, decodes to that network (empty layers up to d)
    rng = random.Random(5)
    for n in range(2, 9):
        layers = list(matchings(n))
        for _ in range(25):
            d = rng.randint(1, 5)
            net = network(n, *(rng.choice(layers) for _ in range(rng.randint(0, d))))
            vm = VarMap(n, d, sorted(rng.sample(range(1 << n), rng.randint(0, min(20, 1 << n)))))
            model = {vm.c(l, i, j) for l, layer in enumerate(net.layers, 1) for i, j in layer}
            others = vm.u_vars.ravel().tolist() + list(range(vm._x0 + 1, vm.num_vars + 1))
            model.update(rng.sample(others, rng.randint(0, len(others))))
            want = net.layers + ((),) * (d - net.depth)
            assert decode_network(vm, frozenset(model)) == Network(n, want), (n, d, net)


def test_build_keeps_smallest_input_per_prefix_image():
    # VarMap keeps the windows, then one input per prefix image, and build
    # keeps what its VarMap keeps; reference: the windows, then a dict loop
    # keyed by (image, weight), smallest input first
    for n in range(2, 9):
        for prefix in two_layer_prefixes(n):
            base = unsorted_inputs(n, prefix)
            for pad in range(n):
                seen = {}
                for b in sorted(windows(base, pad, n).tolist()):
                    seen.setdefault((evaluate_bits(prefix, b), bin(b).count("1")), b)
                opts = EncodeOptions(pad=pad, prefix=prefix)
                vm = VarMap(n, 3, base, opts)
                assert vm.inputs.dtype == np.uint32
                assert vm.inputs.tolist() == sorted(seen.values())
                assert vm.images.tolist() == [evaluate_bits(prefix, b) for b in vm.inputs.tolist()]
                assert np.array_equal(build(n, 3, base, opts)[0].inputs, vm.inputs)
                if pad == 0:
                    # the campaign's pad-0 round encodes the inputs kept, and a
                    # VarMap of them keeps them all
                    assert np.array_equal(VarMap(n, 3, vm.inputs, opts).inputs, vm.inputs)


@pytest.mark.parametrize("n", [7, 8])
def test_value_clauses_depend_on_the_image_alone(n):
    # the premise of sharing images across prefixes: for an unsorted image
    # that several R_n prefixes share, one input under each gives the same
    # value clauses at d = T(n), whatever the prefix and the input
    d = RN_VERDICTS[n][0]
    under = {}   # image -> one input under each prefix that has it
    for prefix in two_layer_prefixes(n):
        vm = VarMap(n, d, unsorted_inputs(n, prefix), EncodeOptions(prefix=prefix))
        for b, image in zip(vm.inputs.tolist(), vm.images.tolist()):
            under.setdefault(image, []).append((prefix, b))
    shared = {image: kept for image, kept in under.items() if len(kept) > 1}
    assert shared
    for image, kept in shared.items():
        first, *rest = [encode_input_sort(VarMap(n, d, [b], EncodeOptions(prefix=prefix)))
                        for prefix, b in kept]
        # equal to the first, so every pair of them is equal
        assert all(np.array_equal(first, other) for other in rest), (n, image)


def test_dimacs_format_exact():
    cnf = Cnf(2, [(1, -2), (2,)])
    assert to_dimacs(cnf) == "p cnf 2 2\n1 -2 0\n2 0\n"
    assert to_dimacs(Cnf(0)) == "p cnf 0 0\n"
    assert to_dimacs(Cnf(0, [()])) == "p cnf 0 1\n0\n"


@pytest.mark.parametrize("k", [1, 7, solver._LIT_CHUNK])
def test_dimacs_slices_join_to_the_whole_text(k):
    # the texts of consecutive k-literal slices, their edges inside clauses,
    # join to the whole text, with the header once, in the first slice
    prefix = two_layer_prefixes(8)[0]
    large = build(8, 5, unsorted_inputs(8, prefix), EncodeOptions(prefix=prefix))[1]
    edges = range(k, large.lits.size, k)
    assert len(edges) >= 3 and any(large.lits[s - 1] != 0 for s in edges)
    for cnf in (Cnf(0), Cnf(0, [()]), Cnf(2, [(1, -2), (2,)]), large):
        texts = [to_dimacs(cnf, s, s + k) for s in range(0, cnf.lits.size or 1, k)]
        assert "".join(texts) == to_dimacs(cnf), (k, cnf.num_vars)
        assert [i for i, text in enumerate(texts) if "p cnf" in text] == [0]


def test_dimacs_text_table_shared_by_threads(monkeypatch):
    # the literal-text table grows, with no lock, while other threads
    # render: each thread renders from a complete table, so every text
    # still equals a clause-by-clause render, and the table ends covering
    # the largest formula
    def reference(cnf):
        lines = ["p cnf %d %d\n" % (cnf.num_vars, len(cnf.clauses))]
        lines += ["".join(f"{lit} " for lit in cl) + "0\n" for cl in cnf.clauses]
        return "".join(lines)

    rng = np.random.default_rng(3)

    def random_cnf(top, size):
        lits = rng.integers(1, top + 1, size) * rng.choice([-1, 1], size)
        lits[rng.random(size) < 0.25] = 0
        lits[-1] = 0
        return Cnf(top, lits.astype(np.int32))

    large, small = random_cnf(150_000, 200_000), random_cnf(9, 50)
    want = {id(large): reference(large), id(small): reference(small)}
    failures = []

    def render(order):
        for cnf in order:
            try:
                if to_dimacs(cnf) != want[id(cnf)]:
                    failures.append(cnf.num_vars)
            except Exception as exc:   # a thread's exception would not fail the test
                failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(encoding, "_dimacs_text", (np.array(["0\n"], dtype=object), 0))
            threads = [threading.Thread(target=render, args=(order,))
                       for order in ((large, small), (small, large)) * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert encoding._dimacs_text[1] >= 150_000


def test_parse_solver_output():
    assert parse_solver_output("s UNSATISFIABLE\n") == ("UNSAT", None)
    verdict, vs = parse_solver_output("c hi\ns SATISFIABLE\nv 1 -2 3 0\n")
    assert verdict == "SAT" and vs == {1, 3}
    assert parse_solver_output("garbage\n")[0] == "UNKNOWN"
    assert parse_solver_output("s SATISFIABLE\n")[0] == "UNKNOWN"  # model missing
    assert parse_solver_output("s SATISFIABLE\nv 1 x 0\n")[0] == "UNKNOWN"
    # decorated status lines still parse
    assert parse_solver_output("\x1b[1m\x1b[034ms UNSATISFIABLE\x1b[000m: f.cnf\n")[0] == "UNSAT"


def test_window_monotonicity_clause_inclusion(solver_config):
    # the windowed instance's clauses embed into the full instance's
    xs = unsorted_inputs(4)
    vm_w, cnf_w = build(4, 2, windows(xs, 1, 4))
    vm_f, cnf_f = build(4, 2, xs)
    mapping = {}
    full = variable_index(vm_f)
    for (kind, *rest), idx in variable_index(vm_w).items():
        if kind in ("c", "u"):
            mapping[idx] = full[(kind, *rest)]
        else:
            b_idx, l, k = rest
            full_idx = vm_f.inputs.tolist().index(vm_w.inputs.tolist()[b_idx])
            mapping[idx] = full[("x", full_idx, l, k)]
    remapped = {tuple(sorted((l // abs(l)) * mapping[abs(l)] for l in cl))
                for cl in cnf_w.clauses}
    assert remapped <= {tuple(sorted(cl)) for cl in cnf_f.clauses}
    # and UNSAT of the window implies UNSAT of the full set here
    assert run_solver(cnf_w, solver_config).verdict == "UNSAT"
    assert run_solver(cnf_f, solver_config).verdict == "UNSAT"


def test_build_small_verdicts(solver_config):
    vm, cnf = build(2, 1, unsorted_inputs(2))
    res = run_solver(cnf, solver_config)
    assert res.verdict == "SAT"
    assert decode_network(vm, res.true_vars).layers == (((1, 2),),)

    _, cnf = build(4, 2, unsorted_inputs(4))
    assert run_solver(cnf, solver_config).verdict == "UNSAT"

    vm, cnf = build(4, 3, unsorted_inputs(4))
    res = run_solver(cnf, solver_config)
    assert res.verdict == "SAT"
    assert is_sorting_network(decode_network(vm, res.true_vars))


def test_decoded_network_is_always_layer_disjoint(solver_config):
    # phi_valid guarantees decodability into a well-formed Network
    for d in (1, 2, 3):
        vm, cnf = build(3, d, unsorted_inputs(3))
        res = run_solver(cnf, solver_config)
        if res.verdict == "SAT":
            decode_network(vm, res.true_vars)  # Network validates disjointness


def test_byte_reproducible_encoding():
    a = to_dimacs(build(4, 3, unsorted_inputs(4))[1])
    b = to_dimacs(build(4, 3, unsorted_inputs(4))[1])
    assert a == b

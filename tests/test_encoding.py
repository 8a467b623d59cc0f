import itertools
import random

import pytest

from sortnetopt.encoding import (
    Cnf,
    EncodeOptions,
    VarMap,
    build,
    decode_network,
    encode_fixed_prefix,
    encode_input_sort,
    encode_last_layer,
    encode_structure,
    encode_symmetry,
    parse_solver_output,
    to_dimacs,
)
from sortnetopt.networks import (
    Network,
    evaluate_bits,
    first_layer,
    is_ascending,
    network,
    unsorted_inputs,
    vec_from_str,
    windows,
)
from sortnetopt.solver import run_solver
from sortnetopt.words import matchings


def brute_force_sorter_exists(n, d, xs, prefix=None):
    """Oracle: enumerate every depth-d layer sequence and test it on xs."""
    layers = list(matchings(n))
    fixed = list(prefix.layers) if prefix is not None else []
    free = d - len(fixed)
    assert free >= 0
    for combo in itertools.product(layers, repeat=free):
        net = Network(n, tuple(fixed) + combo)
        if all(is_ascending(evaluate_bits(net, b), n) for b in xs):
            return True
    return False


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
    vm = VarMap(2, 1, sorted(unsorted_inputs(2)))
    c_vars = [v for *_, v in vm.comparator_vars()]
    assert len(c_vars) == 1
    assert vm.u(1, 1) == 2 and vm.u(1, 2) == 3
    assert vm.num_vars == 3  # no x vars: levels 0 and d are constants

    vm = VarMap(3, 2, [1, 2])
    assert vm.num_vars == 2 * 3 + 2 * 3 + 2 * 1 * 3  # c + u + x(level 1 only)
    # bijective, no gaps
    assert sorted(vm._index.values()) == list(range(1, vm.num_vars + 1))


def test_incident_sets_and_at_most_one():
    vm = VarMap(3, 1, [])
    frag = Cnf(vm.num_vars, encode_structure(vm)).clauses
    amo = [c for c in frag if len(c) == 2 and c[0] < 0 and c[1] < 0
           and abs(c[0]) <= 3 and abs(c[1]) <= 3]
    assert len(amo) == 3  # one per channel: C(2,2) pairs over each incident set


def test_sorted_input_fragment_is_vacuous():
    vm = VarMap(3, 2, [vec_from_str("011")])
    frag = Cnf(vm.num_vars, encode_input_sort(vm)).clauses
    assert () not in frag
    # everything-off plus pass-through values satisfies the fragment
    model = {v: False for v in range(1, vm.num_vars + 1)}
    for k in range(1, 4):
        model[vm.value(0, 1, k)] = bool((vm.inputs[0] >> (k - 1)) & 1)
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
    vm = VarMap(4, 3, [vec_from_str("1010")])
    frag = Cnf(vm.num_vars, encode_input_sort(vm)).clauses
    for i, j in itertools.combinations(range(1, 5), 2):
        guard = -vm.c(2, i, j)  # layer 2: both value levels are variables
        yi = vm.value(0, 2, i)
        min_side = [c for c in frag if guard in c and (yi in c or -yi in c)]
        assert len(min_side) == 3
        assert len([c for c in frag if guard in c]) == 6


def test_sigma_counts():
    def symmetry(vm, opts):
        return Cnf(vm.num_vars, encode_symmetry(vm, opts)).clauses

    vm = VarMap(3, 2, [])
    s1 = symmetry(vm, EncodeOptions(sigma1=True, sigma2=False, sigma3=False))
    assert len(s1) == 3
    vm = VarMap(4, 3, [])
    s3 = symmetry(vm, EncodeOptions(sigma1=False, sigma2=False, sigma3=True))
    assert len(s3) == 3
    assert set(s3) == {tuple(vm.c(l, i, i + 1) for l in (1, 2, 3)) for i in (1, 2, 3)}
    vm = VarMap(3, 1, [])
    assert symmetry(vm, EncodeOptions(sigma1=False, sigma2=True, sigma3=False)) == []


def test_fixed_prefix_units():
    def fixed_prefix(vm, prefix):
        return Cnf(vm.num_vars, encode_fixed_prefix(vm, prefix)).clauses

    vm = VarMap(4, 2, [])
    frag = fixed_prefix(vm, network(4, first_layer(4)))
    expect = {(vm.c(1, 1, 2),), (vm.c(1, 3, 4),),
              (-vm.c(1, 1, 3),), (-vm.c(1, 1, 4),), (-vm.c(1, 2, 3),), (-vm.c(1, 2, 4),)}
    assert set(frag) == expect

    vm5 = VarMap(5, 3, [])
    two = network(5, first_layer(5), [(1, 5), (2, 4)])
    assert len(fixed_prefix(vm5, two)) == 2 * 10

    assert fixed_prefix(VarMap(4, 2, []), network(4)) == []


def test_last_layer_units():
    from sortnetopt.campaign import two_layer_prefixes
    for n in range(2, 8):
        for d in (1, 2, 3):
            vm = VarMap(n, d, [])
            units = Cnf(vm.num_vars, encode_last_layer(vm)).clauses
            assert len(units) == (n - 1) * (n - 2) // 2
            assert set(units) == {(-vm.c(d, i, j),) for i, j
                                  in itertools.combinations(range(1, n + 1), 2) if j > i + 1}
    for prefix in two_layer_prefixes(6):
        # the prefix fills layer d: nothing to forbid
        assert encode_last_layer(VarMap(6, 2, [], prefix)).size == 0
        assert len(Cnf(0, encode_last_layer(VarMap(6, 4, [], prefix))).clauses) == 5 * 4 // 2


def test_last_layer_keeps_rn_verdicts(solver_config):
    # every R_n prefix up to depth T(n): the units never change a verdict
    from sortnetopt.campaign import two_layer_prefixes
    T = {5: 5, 6: 5, 7: 6}
    for n, top in T.items():
        sat = {d: 0 for d in range(3, top + 1)}
        for idx, prefix in enumerate(two_layer_prefixes(n)):
            xs = unsorted_inputs(n, prefix)
            for d in sat:
                verdicts = [run_solver(build(n, d, xs, EncodeOptions(prefix=prefix, last_layer=on))[1],
                                       solver_config, name=f"last-{n}-{idx}-{d}").verdict
                            for on in (True, False)]
                assert verdicts[0] == verdicts[1], (n, idx, d, verdicts)
                sat[d] += verdicts[0] == "SAT"
        assert sat[top] > 0 and not any(sat[d] for d in range(3, top)), (n, sat)


def test_prefix_too_deep():
    with pytest.raises(ValueError):
        VarMap(4, 1, [], prefix=network(4, first_layer(4), [(2, 3)]))
    xs = unsorted_inputs(4)
    for prefix in (network(4, first_layer(4), [(2, 3)]),       # deeper than d
                   network(4, [(2, 1)], generalized=True),     # not standard
                   network(5, first_layer(5))):                # channel mismatch
        with pytest.raises(ValueError):
            build(4, 1, xs, EncodeOptions(prefix=prefix))


def reference_input_sort(vm, b_idx):
    """The clause-by-clause construction: fold constants, drop repeats."""
    def neg(lit):
        return (not lit) if isinstance(lit, bool) else -lit

    out = []

    def emit(*lits):
        if not any(l is True for l in lits):
            out.append(tuple(l for l in lits if l is not False))

    if vm.prefix_depth == vm.d:
        image = evaluate_bits(vm.prefix, vm.inputs[b_idx])
        sorted_b = [vm.value(b_idx, vm.d, k) for k in range(1, vm.n + 1)]
        image_bits = [bool((image >> (k - 1)) & 1) for k in range(1, vm.n + 1)]
        return [()] if image_bits != sorted_b else []
    for l in range(vm.prefix_depth + 1, vm.d + 1):
        for i, j in itertools.combinations(range(1, vm.n + 1), 2):
            c = vm.c(l, i, j)
            xi, xj = vm.value(b_idx, l - 1, i), vm.value(b_idx, l - 1, j)
            yi, yj = vm.value(b_idx, l, i), vm.value(b_idx, l, j)
            emit(-c, neg(yi), xi)
            emit(-c, neg(yi), xj)
            emit(-c, yi, neg(xi), neg(xj))
            emit(-c, yj, neg(xi))
            emit(-c, yj, neg(xj))
            emit(-c, neg(yj), xi, xj)
        for k in range(1, vm.n + 1):
            u = vm.u(l, k)
            x, y = vm.value(b_idx, l - 1, k), vm.value(b_idx, l, k)
            emit(u, neg(x), y)
            emit(u, x, neg(y))
    return list(dict.fromkeys(out))


def test_input_sort_matches_reference():
    # any input set, sorted members included, under prefixes of depth 0..2
    rng = random.Random(7)
    for n in range(2, 7):
        layers = list(matchings(n))
        for _ in range(6):
            prefix = None
            if rng.random() < 0.8:
                prefix = network(n, *rng.sample(layers, rng.randint(0, 2)))
            p = prefix.depth if prefix is not None else 0
            inputs = sorted(rng.sample(range(1 << n), rng.randint(0, min(40, 1 << n))))
            vm = VarMap(n, max(p, 1) + rng.randint(0, 2), inputs, prefix)
            want = [cl for b_idx in range(len(inputs)) for cl in reference_input_sort(vm, b_idx)]
            assert Cnf(vm.num_vars, encode_input_sort(vm)).clauses == want


def test_build_d0():
    vm, cnf = build(3, 0, unsorted_inputs(3))
    assert cnf.clauses == [()]
    vm, cnf = build(3, 0, [vec_from_str("011")])
    assert cnf.clauses == []


def test_build_keeps_smallest_input_per_prefix_image():
    # reference: the dict loop keyed by (image, weight), smallest input first
    from sortnetopt.campaign import two_layer_prefixes
    for n in range(3, 9):
        for prefix in two_layer_prefixes(n):
            base = sorted(set(unsorted_inputs(n, prefix)))
            for pad in range(n):
                seen = {}
                for b in (sorted(windows(base, pad, n)) if pad else base):
                    seen.setdefault((evaluate_bits(prefix, b), bin(b).count("1")), b)
                vm, _ = build(n, 3, base, EncodeOptions(pad=pad, prefix=prefix))
                assert vm.inputs == tuple(sorted(seen.values()))


def test_dimacs_format_exact():
    cnf = Cnf(2, [(1, -2), (2,)])
    assert to_dimacs(cnf) == "p cnf 2 2\n1 -2 0\n2 0\n"
    assert to_dimacs(Cnf(0, [()])) == "p cnf 0 1\n0\n"


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
    for (kind, *rest), idx in vm_w._index.items():
        if kind in ("c", "u"):
            mapping[idx] = vm_f._index[(kind, *rest)]
        else:
            b_idx, l, k = rest
            full_idx = vm_f.inputs.index(vm_w.inputs[b_idx])
            mapping[idx] = vm_f._index[("x", full_idx, l, k)]
    remapped = {tuple(sorted((l // abs(l)) * mapping[abs(l)] for l in cl))
                for cl in cnf_w.clauses}
    full = {tuple(sorted(cl)) for cl in cnf_f.clauses}
    assert remapped <= full
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
    net = decode_network(vm, res.true_vars)
    from sortnetopt.networks import is_sorting_network
    assert is_sorting_network(net)


def test_decoded_network_is_always_layer_disjoint(solver_config):
    # phi_valid guarantees decodability into a well-formed Network
    for d in (1, 2, 3):
        vm, cnf = build(3, d, unsorted_inputs(3))
        res = run_solver(cnf, solver_config)
        if res.verdict == "SAT":
            decode_network(vm, res.true_vars)  # Network validates disjointness


def test_prefixed_build_matches_bruteforce(solver_config):
    # validates the prefix constant-folding against layer enumeration
    from sortnetopt.campaign import two_layer_prefixes
    for prefix in two_layer_prefixes(4):
        xs = unsorted_inputs(4, prefix)
        for d in (2, 3):
            vm, cnf = build(4, d, xs, EncodeOptions(prefix=prefix))
            got = run_solver(cnf, solver_config).verdict
            want = brute_force_sorter_exists(4, d, xs, prefix)
            assert got == ("SAT" if want else "UNSAT")


def test_byte_reproducible_encoding():
    a = to_dimacs(build(4, 3, unsorted_inputs(4))[1])
    b = to_dimacs(build(4, 3, unsorted_inputs(4))[1])
    assert a == b


def test_fixed_prefix_consistency(solver_config):
    # any model of a prefixed instance decodes with the prefix as its first
    # layers, exactly
    from sortnetopt.campaign import two_layer_prefixes
    for prefix in two_layer_prefixes(5):
        xs = unsorted_inputs(5, prefix)
        vm, cnf = build(5, 5, xs, EncodeOptions(prefix=prefix))
        res = run_solver(cnf, solver_config, name="prefix-consistency")
        assert res.verdict == "SAT"
        net = decode_network(vm, res.true_vars)
        assert net.layers[:2] == prefix.layers

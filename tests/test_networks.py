import dataclasses
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    evaluate,
    evaluate_bits,
    graph_of,
    is_ascending,
    iso_bruteforce,
    permute,
    reverse_complement,
    sorted_vectors,
    vec_from_str,
    vec_to_str,
)
from sortnetopt import networks
from sortnetopt.networks import (
    ChannelCountError,
    Network,
    first_layer,
    is_sorting_network,
    network,
    outputs,
    reflect,
    two_layer_json,
    unsorted_inputs,
    untangle,
    windows,
)
from sortnetopt.saturation import saturated_layers
from sortnetopt.words import matchings


def assert_input_set(got, want):
    """got is an input set, an increasing uint32 array, holding exactly want."""
    assert isinstance(got, np.ndarray) and got.dtype == np.uint32 and got.ndim == 1
    assert got.tolist() == sorted(want)


FIG1 = network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)])
FIG2_LEFT = network(4, [(1, 2), (3, 4)], [(1, 4)], [(1, 3), (2, 4)], [(2, 3)])
FIG2_MIDDLE = network(4, [(1, 2), (3, 4)], [(3, 2)], [(3, 1), (4, 2)], [(4, 1)])
FIG2_RIGHT = network(4, [(1, 2), (3, 4)], [(2, 3)], [(1, 2), (3, 4)], [(2, 3)])


def random_network(rng, n, depth):
    layers = []
    for _ in range(depth):
        chans = list(range(1, n + 1))
        rng.shuffle(chans)
        layer = []
        while len(chans) >= 2 and rng.random() < 0.8:
            a, b = chans.pop(), chans.pop()
            layer.append((min(a, b), max(a, b)))
        layers.append(layer)
    return network(n, *layers)


def test_evaluate_integers():
    assert evaluate(FIG1, (5, 2, 0, 7)) == (0, 2, 5, 7)
    assert evaluate(FIG1, (0, 1, 0, 1)) == (0, 0, 1, 1)


def test_evaluate_identity_on_empty_network():
    empty = network(3)
    for x in itertools.product((0, 1), repeat=3):
        assert evaluate(empty, x) == x


def test_evaluate_dimension_mismatch():
    with pytest.raises(ChannelCountError):
        evaluate(FIG1, (1, 2, 3))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_evaluate_permutes_the_input_multiset(data):
    n = data.draw(st.integers(2, 7))
    depth = data.draw(st.integers(0, 4))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    net = random_network(rng, n, depth)
    x = [data.draw(st.integers(-5, 5)) for _ in range(n)]
    assert sorted(evaluate(net, x)) == sorted(x)


def test_evaluate_bits_on_input_set_members():
    # the members of an input set are numpy uint32 scalars; evaluate_bits
    # takes them as they come and agrees with the array evaluation
    rng = random.Random(18)
    for n in range(2, 9):
        xs = unsorted_inputs(n)
        for net in (network(n, first_layer(n)), random_network(rng, n, 3)):
            got = [evaluate_bits(net, x) for x in xs]
            assert all(type(v) is int for v in got)
            assert got == networks._eval_array(net, xs).tolist()


def test_outputs_of_empty_network_is_everything():
    assert outputs(network(3)) == frozenset(range(8))


def test_outputs_of_a_sorter_is_the_sorted_chain():
    assert outputs(FIG1) == frozenset(sorted_vectors(4))
    assert len(sorted_vectors(4)) == 5


def test_outputs_single_comparator():
    assert outputs(network(2, [(1, 2)])) == {vec_from_str("00"), vec_from_str("01"),
                                             vec_from_str("11")}


def test_outputs_cap():
    with pytest.raises(ChannelCountError):
        outputs(network(25))


def test_enumeration_in_small_chunks(monkeypatch):
    # outputs, is_sorting_network and unsorted_inputs walk the same chunks of
    # all 2**n inputs; chunks smaller than 2**n give what one chunk gives
    rng = random.Random(3)
    nets = [random_network(rng, 6, 2) for _ in range(5)] + [network(4, first_layer(4)), FIG1]

    def enumerate_all(net):
        input_sets = unsorted_inputs(net.n, net), unsorted_inputs(net.n)
        for xs in input_sets:
            assert_input_set(xs, set(xs.tolist()))
        return outputs(net), is_sorting_network(net), *(xs.tolist() for xs in input_sets)

    whole = [enumerate_all(net) for net in nets]
    monkeypatch.setattr(networks, "_CHUNK", 5)
    assert [enumerate_all(net) for net in nets] == whole


def test_enumeration_cap_comes_first(monkeypatch):
    # past the cap each of the three fails before it evaluates anything
    def no_work(*_):
        raise AssertionError("evaluated past the enumeration cap")

    monkeypatch.setattr(networks, "_eval_array", no_work)
    for call in (lambda: outputs(network(25)), lambda: is_sorting_network(network(25)),
                 lambda: unsorted_inputs(25), lambda: unsorted_inputs(25, network(25))):
        with pytest.raises(ChannelCountError, match="cap"):
            call()


def test_is_sorting_network_examples():
    assert is_sorting_network(FIG1)
    assert not is_sorting_network(network(4, first_layer(4)))
    assert is_sorting_network(network(2, [(1, 2)]))
    with pytest.raises(ValueError, match="standard networks"):
        is_sorting_network(network(2, [(2, 1)]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_zero_one_principle_cross_check(n):
    # Boolean sorting iff sorting every permutation of 1..n, both directions
    nets = [network(n, *([(i, i + 1) for i in range(1, n, 2)],
                         [(i, i + 1) for i in range(2, n, 2)]) * n),  # bubble, sorts
            network(n, first_layer(n))]                               # too shallow
    for net in nets:
        by_bool = is_sorting_network(net)
        by_perm = all(evaluate(net, p) == tuple(range(1, n + 1))
                      for p in itertools.permutations(range(1, n + 1)))
        assert by_bool == by_perm


def test_outputs_never_grow_when_appending():
    rng = random.Random(42)
    for _ in range(30):
        net = random_network(rng, 5, 2)
        i, j = sorted(rng.sample(range(1, 6), 2))
        assert len(outputs(Network(net.n, net.layers + (((i, j),),)))) <= len(outputs(net))


def test_unsorted_inputs_counts():
    assert len(unsorted_inputs(5)) == 2 ** 5 - 5 - 1 == 26
    assert_input_set(unsorted_inputs(2, network(2, [(1, 2)])), [])
    assert_input_set(unsorted_inputs(3), [0b001, 0b010, 0b011, 0b101])
    with pytest.raises(ChannelCountError, match="prefix has 4 channels, not n = 5"):
        unsorted_inputs(5, network(4, first_layer(4)))


def test_unsorted_inputs_match_brute_force():
    # an increasing uint32 array, the same set as a loop over every input, with
    # and without a prefix of one or two layers
    rng = random.Random(11)
    for n in range(1, 9):
        for depth in (None, 1, 2):
            prefix = None if depth is None else random_network(rng, n, depth)
            got = unsorted_inputs(n, prefix)
            want = {b for b in range(1 << n)
                    if not is_ascending(evaluate_bits(prefix, b) if prefix else b, n)}
            assert_input_set(got, want)


def test_windows_identity_and_bounds():
    xs = unsorted_inputs(4)
    assert windows(xs, 0, 4) is xs
    with pytest.raises(ValueError):
        windows(xs, 4, 4)
    with pytest.raises(ChannelCountError, match="cap"):
        windows(xs, 1, 33)


def test_windows_full_expansion_b4():
    win = windows(np.arange(16, dtype=np.uint32), 2, 4)
    assert_input_set(win, set(win.tolist()))
    got = {vec_to_str(v, 4) for v in win.tolist()}
    want = set()
    for l1 in range(3):
        l2 = 2 - l1
        for mid in itertools.product("01", repeat=2):
            want.add("0" * l1 + "".join(mid) + "1" * l2)
    assert got == want
    assert len(got) == 8


def reference_windows(xs, pad, n):
    """The loop over every input and split l1 + l2 = pad."""
    if pad == 0:
        return set(xs)
    keep = []
    for v in xs:
        for l1 in range(pad + 1):
            l2 = pad - l1
            if v & ((1 << l1) - 1):
                continue
            if l2 and (v >> (n - l2)) != (1 << l2) - 1:
                continue
            keep.append(v)
            break
    return set(keep)


def test_windows_matches_reference_loop():
    # every input of up to 10 channels at every pad
    for n in range(1, 11):
        xs = np.arange(1 << n, dtype=np.uint32)
        for pad in range(n):
            assert_input_set(windows(xs, pad, n), reference_windows(range(1 << n), pad, n))


def test_windows_b6_unsorted_pad3():
    # frozen via brute-force enumeration of the set comprehension over B^6
    xs = unsorted_inputs(6)
    win = windows(xs, 3, 6)
    oracle = set()
    for v in xs.tolist():
        s = vec_to_str(v, 6)
        if any(s[:l1] == "0" * l1 and s[6 - (3 - l1):] == "1" * (3 - l1)
               for l1 in range(4)):
            oracle.add(v)
    assert_input_set(win, oracle)
    assert len(win) == 13


def test_permute_identity_and_figure():
    assert permute(range(1, 5), FIG2_LEFT) == FIG2_LEFT
    assert permute((3, 4, 1, 2), FIG2_LEFT) == FIG2_MIDDLE
    with pytest.raises(ValueError):
        permute((1, 1, 2, 3), FIG1)


def test_permute_reversal_is_reflection_up_to_orientation():
    rev = permute((4, 3, 2, 1), FIG1)
    # same comparator edges per layer once orientation is dropped
    undirected = lambda net: tuple(tuple(sorted(tuple(sorted(c)) for c in l)) for l in net.layers)
    assert undirected(rev) == undirected(reflect(FIG1))


def test_untangle_figure_and_identity():
    assert untangle(FIG2_MIDDLE) == FIG2_RIGHT
    assert untangle(FIG2_LEFT) == FIG2_LEFT


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_untangle_preserves_sorting(n):
    rng = random.Random(n)
    base = network(n, *([(i, i + 1) for i in range(1, n, 2)],
                        [(i, i + 1) for i in range(2, n, 2)]) * n)
    assert is_sorting_network(base)
    for _ in range(10):
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        tangled = permute(pi, base)
        flat = untangle(tangled)
        assert not flat.generalized
        assert flat.depth == tangled.depth
        assert sum(map(len, flat.layers)) == sum(map(len, tangled.layers))
        assert is_sorting_network(flat)


def _sorts_as_generalized(net):
    # a generalized sorting network emits a fixed permutation of the sorted
    # order: one output per popcount, forming a chain under bit inclusion
    outs = sorted(outputs(net), key=lambda v: bin(v).count("1"))
    if len(outs) != net.n + 1:
        return False
    return all(a & b == a for a, b in zip(outs, outs[1:]))


def test_untangle_sorts_iff_original_sorts():
    rng = random.Random(9)
    bubble = network(5, *([(1, 2), (3, 4)], [(2, 3), (4, 5)]) * 3)
    assert is_sorting_network(bubble)
    seen = set()
    for k in range(60):
        net = bubble if k % 3 == 0 else random_network(rng, 5, 4)
        pi = list(range(1, 6))
        rng.shuffle(pi)
        tangled = permute(pi, net)
        flat = untangle(tangled)
        gen_sorts = _sorts_as_generalized(tangled)
        assert is_sorting_network(flat) == gen_sorts
        seen.add(gen_sorts)
    assert seen == {True, False}  # the sample exercised both outcomes


def test_reverse_complement():
    assert vec_to_str(reverse_complement(vec_from_str("100"), 3), 3) == "110"
    for v in range(16):
        assert reverse_complement(reverse_complement(v, 4), 4) == v


def test_reflect_examples_and_involution():
    a = network(6, first_layer(6), [(2, 3), (4, 6)])
    b = network(6, first_layer(6), [(1, 3), (4, 5)])
    assert reflect(a) == b and reflect(b) == a
    assert reflect(reflect(FIG2_LEFT)) == FIG2_LEFT
    with pytest.raises(ValueError, match="standard networks"):
        reflect(network(2, [(2, 1)]))


def test_first_layer_styles():
    assert first_layer(4) == ((1, 2), (3, 4))
    assert first_layer(5, "crossing") == ((1, 5), (2, 4))
    fl7 = first_layer(7)
    assert len(fl7) == 3 and all(7 not in c for c in fl7)
    with pytest.raises(ValueError, match="unknown first-layer style"):
        first_layer(4, "diagonal")


def test_graph_of_figure3():
    g = graph_of(FIG2_LEFT)
    # vertices a..f in occurrence order: (1,2),(3,4),(1,4),(1,3),(2,4),(2,3)
    assert g.comparators == ((1, 2), (3, 4), (1, 4), (1, 3), (2, 4), (2, 3))
    a, b, c, d, e, f = range(6)
    assert g.edges == frozenset({
        (a, 1, c), (a, 2, e),
        (b, 1, d), (b, 2, c),
        (c, 1, d), (c, 2, e),
        (d, 2, f), (e, 1, f),
    })


def test_graphs_of_equivalent_networks_are_isomorphic():
    assert iso_bruteforce(graph_of(FIG2_LEFT), graph_of(FIG2_RIGHT))
    assert not iso_bruteforce(graph_of(FIG2_LEFT), graph_of(FIG1))


def test_graph_of_single_comparator():
    g = graph_of(network(2, [(1, 2)]))
    assert g.order == 1 and not g.edges


def test_iso_bruteforce_cap():
    big = network(12, *[[(1, 2)] for _ in range(11)])
    with pytest.raises(ValueError):
        iso_bruteforce(graph_of(big), graph_of(big))


def test_network_json_roundtrip():
    for net in (FIG1, FIG2_LEFT, network(7, first_layer(7))):
        assert Network.from_json(net.to_json()) == net
    with pytest.raises(ValueError):
        Network.from_json('{"layers": []}')


def test_network_json_matches_json_dumps():
    # to_json is json.dumps of the network's channel count and sorted layers
    def dumps(n, layers):
        return json.dumps({"n": n, "layers": [[list(c) for c in l] for l in layers]})

    rng = random.Random(14)
    cases = [(n, random_network(rng, n, rng.randint(0, 4)).layers)
             for n in range(2, 20) for _ in range(20)]
    cases += [(4, ()), (4, ((),)), (5, (((1, 2),), ())), (1, ()), (1, ((),))]
    for n, layers in cases:
        assert Network(n, layers).to_json() == dumps(n, layers)
        assert Network(n, [list(l) for l in layers]).to_json() == dumps(n, layers)


def test_two_layer_json_is_network_json():
    # the gen renderer gives to_json's bytes for every gn and sn layer,
    # the empty second layer and the free channel of odd n among them
    for n in range(2, 10):
        fl = first_layer(n)
        for layers in (list(matchings(n)), list(saturated_layers(n))):
            assert list(two_layer_json(n, layers)) == [Network(n, (fl, l2)).to_json()
                                                       for l2 in layers]
    assert list(two_layer_json(3, [()])) == ['{"n": 3, "layers": [[[1, 2]], []]}']


@pytest.mark.parametrize("text", [
    '{"n": 4, "layers": [[1]]}',            # a comparator that is not a pair
    '{"n": 4, "layers": 5}',                # layers not a list
    '{"n": 4, "layers": [[[1, 2, 3]]]}',    # three channels
    '{"n": 4, "layers": [["12"]]}',         # a string, not a pair
    '{"n": 4, "layers": [[[1.5, 2]]]}',     # a channel that is not an integer
    '{"n": 4, "layers": [[[true, 2]]]}',
    '{"n": null, "layers": []}',            # n not an integer
    '{"n": "4", "layers": []}',
])
def test_network_from_json_rejects_malformed_documents(text):
    with pytest.raises(ValueError):
        Network.from_json(text)


def test_network_validation():
    with pytest.raises(ValueError):
        network(4, [(1, 2), (2, 3)])     # channel reused in a layer
    assert network(4, [(3, 1)]).generalized      # a reversed comparator is legal
    with pytest.raises(ValueError):
        network(2, [(1, 5)])             # out of range
    with pytest.raises(ValueError, match="at least one channel"):
        Network(0, ())
    with pytest.raises(ValueError, match="joins a channel to itself"):
        network(2, [(2, 2)])


def test_a_network_is_its_channel_count_and_layers():
    # generalized is read off the comparators, so it is no field to keep in step
    assert [f.name for f in dataclasses.fields(Network)] == ["n", "layers"]
    assert network(2, [(2, 1)]).generalized is True
    assert network(2, [(1, 2)]).generalized is False
    assert Network.from_json(FIG2_MIDDLE.to_json()) == FIG2_MIDDLE

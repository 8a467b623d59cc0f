import random

import pytest

from sortnetopt.networks import Network, first_layer, network, outputs
from sortnetopt.saturation import (
    _weak_spot,
    is_redundant,
    is_saturated,
    is_saturated_semantic,
    permute_vectors,
    saturate,
    saturated_layer_count,
    sentence_class_size,
    subsumes,
    verify_conjecture,
)
from sortnetopt.words import (
    generate,
    layer_partners,
    matchings,
    net_of,
    render_sentence,
    sentence_of,
    sentences,
)


# one small network per forbidden pattern of Fig. 7: first layer F_n, the
# second layer, and the addition _weak_spot prescribes
@pytest.mark.parametrize("n, l2, fix", [
    pytest.param(5, ((1, 3),), (5, 2), id="P1a"),
    pytest.param(5, ((2, 3),), (1, 5), id="P1b"),
    pytest.param(3, (), (1, 3), id="P1c"),
    pytest.param(4, (), (1, 4), id="P2"),
    pytest.param(4, ((1, 3),), (2, 4), id="P3a"),
    pytest.param(4, ((2, 4),), (1, 3), id="P3b"),
])
def test_weak_spot_fixes_each_fig7_pattern(n, l2, fix):
    fl = first_layer(n)
    assert _weak_spot(n, fl, l2, layer_partners(fl), layer_partners(l2)) == fix
    net = Network(n, (fl, l2))
    assert not is_saturated(net)
    assert not is_saturated_semantic(net)


def test_is_redundant():
    assert is_redundant(network(2, [(1, 2)], [(1, 2)]))
    assert not is_redundant(network(4, first_layer(4), []))
    assert is_redundant(net_of("12_c;12_s"))
    for n in range(2, 8):
        for l2 in matchings(n):
            net = Network(n, (first_layer(n), l2))
            assert is_redundant(net) == is_redundant(net, semantic=True)


def test_is_saturated_examples():
    knuth10 = net_of("12_s;1221_c;1221_c")  # Knuth's 10-channel first two layers
    assert is_saturated(knuth10)
    assert sentence_of(knuth10) in set(sentences(10, "rsn"))
    for n in (3, 4, 5, 6):
        assert not is_saturated(Network(n, (first_layer(n), ())))
    assert saturated_layer_count(5) == 10


def test_saturated_layer_count_formula_matches_enumeration():
    for n in range(3, 10):
        assert saturated_layer_count(n) == saturated_layer_count(n, by_enumeration=True)


def test_sn_generator_matches_is_saturated():
    # the layer-level filter keeps exactly the layers is_saturated keeps, in order
    for n in range(2, 11):
        fl = first_layer(n)
        want = [l2 for l2 in matchings(n) if is_saturated(Network(n, (fl, l2)))]
        assert list(generate(n, "sn")) == want
    for n in (0, 1):
        with pytest.raises(ValueError):
            generate(n, "sn")   # eagerly, before the first layer is drawn


def test_semantic_oracle_examples():
    assert not is_saturated_semantic(network(2, [(1, 2)], [(1, 2)]))  # redundant
    f4 = Network(4, (first_layer(4), ((2, 3),)))
    assert is_saturated_semantic(f4) == is_saturated(f4) == False  # noqa: E712


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_semantic_agreement_small(n):
    fl = first_layer(n)
    for l2 in matchings(n):
        net = Network(n, (fl, l2))
        assert is_saturated(net) == is_saturated_semantic(net)


def test_subsumes_reflexive_and_equivalence():
    a = Network(6, (first_layer(6), ((2, 3), (4, 6))))
    assert subsumes(a, a) == (1, 2, 3, 4, 5, 6)
    # two layers of the same class subsume each other with a real witness
    b = Network(6, (first_layer(6), ((2, 5), (4, 6))))
    assert sentence_of(a) == sentence_of(b)
    for x, y in ((a, b), (b, a)):
        pi = subsumes(x, y)
        assert pi is not None
        assert outputs(x) <= permute_vectors(pi, outputs(y))


def test_subsumes_respects_caps():
    big = Network(12, (first_layer(12), ()))
    with pytest.raises(ValueError):
        subsumes(big, big)


def test_subsumption_reflexive_transitive_sampled():
    rng = random.Random(3)
    nets = [Network(6, (first_layer(6), l2)) for l2 in matchings(6)]
    sample = rng.sample(nets, 12)
    for net in sample:
        assert subsumes(net, net) is not None
    for a, b, c in zip(sample, sample[1:], sample[2:]):
        if subsumes(a, b) is not None and subsumes(b, c) is not None:
            assert subsumes(a, c) is not None


def test_saturate_examples():
    already = net_of("1221_c")
    assert saturate(already) == already
    done = saturate(Network(4, (first_layer(4), ())))
    assert is_saturated(done)
    assert outputs(done) <= outputs(Network(4, (first_layer(4), ())))
    f3 = saturate(Network(3, (first_layer(3), ())))
    assert is_saturated(f3)
    assert sentence_of(f3) in set(sentences(3, "rsn"))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_saturate_exhaustive(n):
    fl = first_layer(n)
    for l2 in matchings(n):
        net = Network(n, (fl, l2))
        done = saturate(net)
        assert done.layers[0] == fl
        assert is_saturated(done)
        assert outputs(done) <= outputs(net)


def test_saturate_can_need_reversed_comparators():
    # fixing pattern 1a over F_5 joins the free channel as the min end
    net = Network(5, (first_layer(5), ((1, 3),)))
    done = saturate(net)
    assert done.generalized
    assert outputs(done) <= outputs(net)
    assert is_saturated(done)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_verify_conjecture(n):
    assert verify_conjecture(n)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_subsumption_minimal_classes_equal_saturated(n):
    # minimal = nothing strictly stronger exists; redundant classes are
    # output-identical twins of their stripped forms and are set aside
    reps = [net_of(s) for s in sentences(n, "rgn")]
    saturated = {render_sentence(s) for s in sentences(n, "rsn")}
    minimal = set()
    for c in reps:
        if is_redundant(c):
            continue
        others = [d for d in reps if sentence_of(d) != sentence_of(c)]
        if all(subsumes(d, c) is None or subsumes(c, d) is not None for d in others):
            minimal.add(render_sentence(sentence_of(c)))
    assert minimal == saturated


def test_class_sizes_partition_gn():
    # orbit sizes over all classes must add up to |G_n|
    from sortnetopt.words import telephone
    for n in range(3, 11):
        assert sum(sentence_class_size(s) for s in sentences(n, "rgn")) == telephone(n)


def test_verify_conjecture_report():
    lines = []
    assert verify_conjecture(4, report=lines)
    assert sorted(lines) == sorted([
        "1212_c,1221_c,incomparable", "1221_c,1212_c,incomparable"])

import hashlib
import itertools
import random

import pytest

from oracles import is_redundant_semantic, is_saturated_semantic, subsumes, verify_conjecture
from sortnetopt import saturation, words
from sortnetopt.networks import Network, first_layer, network, outputs
from sortnetopt.saturation import (
    _repeated,
    _weak_spot,
    is_redundant,
    is_saturated,
    permute_vectors,
    saturate,
    saturated_layer_count,
    saturated_layers,
)
from sortnetopt.words import (
    counts,
    cycle_words,
    head_words,
    layer_partners,
    matchings,
    net_of,
    render_sentence,
    sentence_class_size,
    sentence_of,
    sentences,
    stick_words,
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
    facts = saturation._first_layer_facts(n, fl)
    assert _weak_spot(facts, l2, layer_partners(l2)) == fix
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
            assert is_redundant(net) == is_redundant_semantic(net)


def test_is_saturated_examples():
    knuth10 = net_of("12_s;1221_c;1221_c")  # Knuth's 10-channel first two layers
    assert is_saturated(knuth10)
    assert sentence_of(knuth10) in set(sentences(10, "rsn"))
    for n in (3, 4, 5, 6):
        assert not is_saturated(Network(n, (first_layer(n), ())))
    assert saturated_layer_count(5) == 10


def test_saturated_layer_count_formula_matches_enumeration():
    # n = 12 to 14 reach past the oracle range of the sn stream test below
    for n in range(3, 15):
        want = saturated_layer_count(n)
        layers = list(saturated_layers(n))
        assert len(layers) == want
        if n <= 11:
            # the walk's classes are exactly the saturated sentences
            fl = first_layer(n)
            assert {sentence_of(Network(n, (fl, l2))) for l2 in layers} == set(sentences(n, "rsn")), n
        # the S column counts the same sum on the same path
        assert counts(n).s == want


def test_sn_generator_matches_is_saturated():
    # the pruned walk keeps exactly the layers is_saturated keeps, in order
    want = {}
    for n in range(2, 12):
        fl = first_layer(n)
        want[n] = [l2 for l2 in matchings(n) if is_saturated(Network(n, (fl, l2)))]
        assert list(saturated_layers(n)) == want[n]
    # two walks consumed in turn keep their memos and prefixes apart
    both = list(itertools.zip_longest(saturated_layers(9), saturated_layers(10)))
    assert [a for a, _ in both if a is not None] == want[9]
    assert [b for _, b in both if b is not None] == want[10]
    for n in (0, 1):
        with pytest.raises(ValueError):
            saturated_layers(n)   # eagerly, before the first layer is drawn


def test_sn_walk_tests_only_layers_p1_p2_leave_open(monkeypatch):
    # _weak_spot judges every yielded layer, and the walk spends no test on a
    # layer that a repeated comparator, P1 or P2 on its left-out channels rejects
    tested = []

    def counting(first, l2, l2p):
        tested.append(l2)
        return real(first, l2, l2p)

    real = saturation._weak_spot
    monkeypatch.setattr(saturation, "_weak_spot", counting)
    for n in range(2, 13):
        tested.clear()
        kept = list(saturated_layers(n))
        assert set(kept) <= set(tested)
        l1p = layer_partners(first_layer(n))
        for l2 in tested:
            left = [ch for ch in range(1, n + 1) if ch not in layer_partners(l2)]
            mins = [a for a in left if a in l1p and a < l1p[a]]
            maxes = [d for d in left if d in l1p and d > l1p[d]]
            assert all(l1p.get(i) != j for i, j in l2)
            assert all(l1p[a] == d for a in mins for d in maxes)           # P2
            assert all(ch in l1p for ch in left) or len(left) == 1         # P1
    assert len(kept) == 26344 and len(tested) <= 30000    # of 140 152 matchings


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
    four = Network(4, (first_layer(4),))
    with pytest.raises(ValueError, match="equal channel counts"):
        subsumes(four, Network(5, (first_layer(5),)))
    with pytest.raises(ValueError, match="equal depth"):
        subsumes(four, Network(4, (first_layer(4), ((2, 3),))))


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


def test_saturate_rejects_networks_deeper_than_two():
    deep = network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)])
    for check in (saturate, is_saturated):
        with pytest.raises(ValueError, match="depth 3"):
            check(deep)
        with pytest.raises(ValueError):
            check(network(4))


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


def test_embeddings_cache_agrees_with_the_function():
    # the per-word embedding counts behind sentence_class_size are cached:
    # every head, stick and cycle word up to length 16 gets what the uncached
    # function gives
    pool = [w for L in range(1, 17) for w in
            head_words(L) + stick_words(L) + cycle_words(L)]
    for _ in range(2):
        for w in pool:
            assert words._embeddings(w) == words._embeddings.__wrapped__(w)


def test_sn_walk_hands_weak_spot_the_touched_channels(monkeypatch):
    # each leaf joins the comparators above a memoized state to one of its
    # completions; _weak_spot judges every leaf once, and reads through `in`
    # exactly the channels of that leaf's layer
    judged, faithful = [], []

    def checking(first, l2, touched):
        judged.append(l2)
        chans = {ch for c in l2 for ch in c}
        faithful.append(all((ch in touched) == (ch in chans) for ch in range(n + 2)))
        return real(first, l2, touched)

    real = saturation._weak_spot
    monkeypatch.setattr(saturation, "_weak_spot", checking)
    for n in range(2, 13):
        judged.clear()
        faithful.clear()
        kept = list(saturated_layers(n))
        assert judged and all(faithful) and len(set(judged)) == len(judged)
        assert set(kept) <= set(judged)
    assert len(judged) == 29794     # the leaves of the pruned walk at n = 12


# SHA-256 of the repeated comparator, else _weak_spot's result, for every
# second layer over F_n, n = 2..9, and of saturate and is_saturated for
# every second layer over two maximal first layers other than F_n; both
# were recorded before the first layer's facts were built once per walk
# (when _weak_spot also returned the repeated comparator), and must never
# be regenerated
WEAK_SPOT_DIGEST = "944054949428454d3939d21afa40963cc702370fae646450d4ed215ae423903c"
SATURATE_DIGEST = "781e66c48c92c10567f38aeeed1ee540ece3ae5405ef1349cb574e2c3f03776d"


def test_weak_spot_results_are_pinned():
    h = hashlib.sha256()
    for n in range(2, 10):
        fl = first_layer(n)
        facts = saturation._first_layer_facts(n, fl)
        for l2 in matchings(n):
            spot = _repeated(l2, facts.partner) or _weak_spot(facts, l2, layer_partners(l2))
            h.update(f"{n} {l2} {spot}\n".encode())
    assert h.hexdigest() == WEAK_SPOT_DIGEST


SATURATE_FIRST_LAYERS = ((6, ((1, 4), (2, 6), (3, 5))), (7, ((1, 7), (2, 3), (4, 6))))


def test_saturate_results_are_pinned():
    h = hashlib.sha256()
    for n, fl in SATURATE_FIRST_LAYERS:
        for l2 in matchings(n):
            net = Network(n, (fl, l2))
            h.update(f"{n} {l2} {saturate(net).layers} {is_saturated(net)}\n".encode())
    assert h.hexdigest() == SATURATE_DIGEST


def test_saturate_never_joins_first_layer_partners(monkeypatch):
    # why saturate needs no redundancy test in its loop: after it drops the
    # repeated comparators, no fix _weak_spot prescribes joins the two
    # channels of a first-layer comparator, so its layers stay non-redundant
    fixes = []

    def recording(first, l2, touched):
        fix = real(first, l2, touched)
        if fix is not None:
            fixes.append((first.partner, fix))
        return fix

    real = saturation._weak_spot
    monkeypatch.setattr(saturation, "_weak_spot", recording)
    cases = [(n, first_layer(n)) for n in range(2, 10)] + list(SATURATE_FIRST_LAYERS)
    for n, fl in cases:
        for l2 in matchings(n):
            assert not is_redundant(saturate(Network(n, (fl, l2))))
    assert len(fixes) > 1000
    assert [fix for partner, fix in fixes if partner.get(fix[0]) == fix[1]] == []

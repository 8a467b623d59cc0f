import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortnetopt import words
from sortnetopt.networks import Network, first_layer, network, reflect
from sortnetopt.saturation import is_saturated
from sortnetopt.words import (
    Word,
    asymmetric_cycle_count,
    canonical_sentence,
    counts,
    cycle_canonical,
    cycle_words,
    head_words,
    is_asymmetric,
    matchings,
    net_of,
    parse_sentence,
    parse_word,
    reflect_sentence,
    reflect_word,
    render_sentence,
    rsn_count,
    sentence_class_size,
    sentence_of,
    sentences,
    stick_words,
    telephone,
    word_of,
)

FIG4A = network(5, [(1, 2), (3, 4)], [(1, 5), (2, 4)])
FIG4B = network(8, first_layer(8), [(1, 4), (3, 8), (5, 7)])
FIG4C = network(6, first_layer(6), [(1, 3), (2, 5), (4, 6)])
FIG4D = network(10, [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)],
                [(1, 4), (2, 5), (6, 9), (7, 10)])


def test_word_of_three_kinds():
    assert str(word_of(FIG4A)) == "01221_h"
    assert str(word_of(FIG4B)) == "21121212_s"
    assert str(word_of(FIG4C)) == "121221_c"


def test_word_of_rejects_bad_input():
    with pytest.raises(ValueError):
        word_of(FIG4D)  # disconnected
    with pytest.raises(ValueError):
        word_of(network(4, [(1, 2)], []))  # first layer not maximal


def test_sentence_of_examples():
    assert render_sentence(sentence_of(FIG4D)) == "12_s;1221_c;1221_c"
    assert render_sentence(sentence_of(network(4, first_layer(4), []))) == "12_s;12_s"
    assert render_sentence(sentence_of(network(3, first_layer(3), []))) == "0_h;12_s"


def test_net_of_builds_the_figure_network():
    net = net_of("12_s;1221_c;1221_c")
    assert net.layers == (((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)),
                          ((3, 5), (4, 6), (7, 9), (8, 10)))


def test_net_of_one_channel():
    net = net_of("0_h")
    assert net.n == 1 and sum(map(len, net.layers)) == 0


def test_net_of_rejects_malformed():
    with pytest.raises(ValueError):
        parse_word("0121_h")       # odd pair part
    with pytest.raises(ValueError):
        parse_word("102_h")        # 0 not leading
    with pytest.raises(ValueError):
        parse_word("11_s")         # bad pair
    with pytest.raises(ValueError):
        parse_word("2121_s")       # not canonical: 1212_s
    with pytest.raises(ValueError):
        parse_word("122121_c")     # not canonical: 121221_c
    with pytest.raises(ValueError):
        net_of("012_h;021_h")      # two heads
    with pytest.raises(ValueError, match="unknown word tag"):
        Word("x", "12")
    with pytest.raises(ValueError, match="malformed s-word"):
        Word("s", "102")           # a 0 outside a head
    with pytest.raises(ValueError, match="needs a _h/_s/_c tag"):
        parse_word("12")


@pytest.mark.parametrize("kind", ["rgn", "rsn", "rn"])
@pytest.mark.parametrize("n", range(3, 11))
def test_sentence_roundtrip(kind, n):
    for s in sentences(n, kind):
        assert sentence_of(net_of(s)) == s


def test_reflect_word_examples():
    assert reflect_word(parse_word("211212_s")) == parse_word("121221_s")
    assert reflect_word(parse_word("121221_s")) == parse_word("211212_s")
    assert reflect_word(parse_word("1221_c")) == parse_word("1221_c")


def test_reflect_word_matches_network_reflection():
    pool = [w for L in range(1, 11) for w in
            head_words(L) + stick_words(L) + cycle_words(L)]
    for w in pool:
        net = net_of((w,))
        assert reflect_word(w) == word_of(reflect(net))
        assert reflect_word(reflect_word(w)) == w


def test_cycle_canonical_and_asymmetry():
    assert cycle_canonical("2112") == "1221"
    # the shortest asymmetric cycles live on 12 channels: the single class
    # whose three inter-21 gap lengths are 0, 1 and 2 (one reflection pair)
    asym12 = sorted(w.symbols for w in cycle_words(12) if is_asymmetric(w))
    assert asym12 == ["121221122121", "121221211221"]
    assert reflect_word(Word("c", asym12[0])) == Word("c", asym12[1])
    for L in (4, 6, 8, 10):
        assert not any(is_asymmetric(w) for w in cycle_words(L))
    assert asymmetric_cycle_count(12) == 1
    assert asymmetric_cycle_count(16) == 4
    with pytest.raises(ValueError, match="not a cycle label string"):
        cycle_canonical("1")
    with pytest.raises(ValueError, match="even channel count"):
        asymmetric_cycle_count(5)


def test_word_caches_agree_with_the_functions():
    # reflect_word and is_asymmetric are cached per word: on every head, stick
    # and cycle word up to length 16 they give what the uncached functions give
    heads = [w for L in range(1, 17, 2) for w in head_words(L)]
    sticks = [w for L in range(2, 17, 2) for w in stick_words(L)]
    cycles = [w for L in range(2, 17, 2) for w in cycle_words(L)]
    for _ in range(2):
        for w in heads + sticks + cycles:
            assert reflect_word(w) == reflect_word.__wrapped__(w)
        for w in cycles:
            assert is_asymmetric(w) == is_asymmetric.__wrapped__(w)
    # a reading that is not canonical makes no word
    assert cycle_canonical("122121") != "122121"
    with pytest.raises(ValueError):
        Word("c", "122121")
    # an error is never cached: the second call raises as the first did
    for w in (sticks[1], heads[1]):
        for _ in range(2):
            with pytest.raises(ValueError):
                is_asymmetric(w)


def test_generate_counts_table4():
    assert sum(1 for _ in sentences(11, "rgn")) == 482
    assert sum(1 for _ in sentences(11, "rn")) == 48
    assert sum(1 for _ in sentences(13, "rn")) == 117
    assert sum(1 for _ in sentences(16, "rn")) == 211


def test_unknown_kind_fails_at_the_call():
    # eagerly, before the first sentence is drawn, as saturated_layers does for n < 2
    for kind in ("xyz", "RSN", ""):
        with pytest.raises(ValueError, match="unknown sentence kind"):
            sentences(5, kind)


def test_matchings_small():
    assert sum(1 for _ in matchings(3)) == 4
    assert telephone(11) == 35696
    for n in range(1, 8):
        assert sum(1 for _ in matchings(n)) == telephone(n)


def test_counts_row_13():
    row = counts(13)
    assert (row.g, row.rg, row.rs, row.r) == (568504, 1378, 212, 117)


def test_counts_recurrence_example():
    assert counts(5).rg == counts(4).rg + 2 * counts(3).rg == 16


def test_sentence_class_size_reads_its_argument_once():
    # equal words trading places are divided out for a list and a one-shot
    # iterator alike
    s = parse_sentence("12_s;1212_c;1212_c")
    assert sentence_class_size(s) == sentence_class_size(list(s)) == 15
    assert sentence_class_size(iter(s)) == 15
    assert sentence_class_size(w for w in s) == 15


def test_redundant_class_count_theorem():
    # canonical sentences containing 12_c on n channels ~ classes on n-2 channels
    for n in range(5, 11):
        redundant = sum(1 for s in sentences(n, "rgn")
                        if any(w.tag == "c" and w.symbols == "12" for w in s))
        assert redundant == sum(1 for _ in sentences(n - 2, "rgn"))


def test_rgn_completeness_vs_bruteforce():
    for n in range(3, 9):
        fl = first_layer(n)
        seen = {sentence_of(Network(n, (fl, l2))) for l2 in matchings(n)}
        generated = set(sentences(n, "rgn"))
        assert seen == generated


def test_odd_recurrence():
    rg = {n: sum(1 for _ in sentences(n, "rgn")) for n in range(3, 14)}
    for n in (5, 7, 9, 11, 13):
        assert rg[n] == rg[n - 1] + 2 * rg[n - 2]


def test_grammar_soundness_of_pools():
    for L in range(1, 13):
        for w in head_words(L):
            assert w.symbols[0] == "0" and w.symbols.count("0") == 1
        for w in stick_words(L):
            assert w.symbols <= w.symbols[::-1]
        for w in cycle_words(L):
            assert w.symbols == cycle_canonical(w.symbols)
            assert w.symbols.startswith("12")
    assert cycle_words(2) == (Word("c", "12"),) and stick_words(2) == (Word("s", "12"),)
    # the rsn word rule holds no 12_c and no stick of length 4
    for text, kind in [("12_c", None), ("1212_s", None), ("122112_s", None),
                       ("0_h", "plain"), ("12_s", "plain"), ("012_h", "h2"),
                       ("021_h", "h1"), ("121221_s", "s1"), ("211212_s", "s2"),
                       ("1212_c", "c")]:
        assert words._kind(parse_word(text)) == kind, text


def test_rn_reflection_completeness():
    # R_n keeps exactly one member of every reflection orbit of rsn
    for n in range(3, 17):
        rsn = set(sentences(n, "rsn"))
        rn = list(sentences(n, "rn"))
        assert set(rn) <= rsn, n
        kept = Counter(frozenset((s, reflect_sentence(s))) for s in rn)
        assert set(kept) == {frozenset((s, reflect_sentence(s))) for s in rsn}, n
        assert set(kept.values()) == {1}, n


def test_rn_keeps_the_saturated_member_at_n9():
    # the first saturated orbit that a set of oHeads (...21) and oSticks
    # (21...12) cannot hold, and the unsaturated sentence such a set keeps
    a, b = parse_sentence("012_h;211212_s"), parse_sentence("021_h;121221_s")
    assert reflect_sentence(a) == b and reflect_sentence(b) == a
    rsn, rn = set(sentences(9, "rsn")), set(sentences(9, "rn"))
    assert a in rsn and b in rsn
    assert b in rn and a not in rn
    unsaturated = parse_sentence("021_h;211212_s")
    assert not is_saturated(net_of(unsaturated))
    assert unsaturated not in rn


def test_sentence_order_is_canonical():
    s = parse_sentence("1221_c;12_s;1221_c")
    assert render_sentence(s) == "12_s;1221_c;1221_c"
    assert canonical_sentence(reversed(s)) == s


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.data())
def test_sentence_of_is_permutation_invariant(n, data):
    # equivalent networks (same layers modulo a pair-preserving relabeling)
    # share one sentence
    import random as _random
    rng = _random.Random(data.draw(st.integers(0, 10 ** 6)))
    l2 = data.draw(st.sampled_from(list(matchings(n))))
    net = Network(n, (first_layer(n), l2))
    pairs = list(range(n // 2))
    rng.shuffle(pairs)
    pi = [0] * n
    for new, old in enumerate(pairs):
        lo, hi = 2 * old + 1, 2 * old + 2
        if rng.random() < 0.5:
            lo, hi = hi, lo
        pi[lo - 1], pi[hi - 1] = 2 * new + 1, 2 * new + 2
    if n % 2:
        pi[n - 1] = n
    from oracles import permute
    from sortnetopt.networks import untangle
    other = untangle(permute(pi, net))
    assert sentence_of(other) == sentence_of(net)


def test_sentence_equality_iff_graph_isomorphism():
    # word representation captures graph equivalence exactly (n <= 5)
    from oracles import graph_of, iso_bruteforce
    for n in (3, 4, 5):
        nets = [Network(n, (first_layer(n), l2)) for l2 in matchings(n)]
        for a, b in itertools.combinations(nets, 2):
            same_sentence = sentence_of(a) == sentence_of(b)
            iso = iso_bruteforce(graph_of(a), graph_of(b))
            assert same_sentence == iso


def test_saturated_words_satisfy_corollary_shape():
    # saturated sticks are never length 4 and begin/end with one symbol
    for n in range(3, 13):
        for s in sentences(n, "rsn"):
            for w in s:
                if w.tag == "s" and len(w) > 2:
                    assert len(w) != 4
                    assert w.symbols[0] == w.symbols[-1]


def test_rg_count_matches_the_walk():
    # the RG column is counted, not listed; the rgn walk stays the reference
    for n in range(3, 17):
        assert counts(n).rg == sum(1 for _ in sentences(n, "rgn")), n


def test_rsn_columns_match_their_walks():
    # S, RS and R are counted, not listed; the rsn and rn walks stay the
    # references, over every row the table prints
    for n in range(3, words._LIMITS["s"] + 1):
        rsn = list(sentences(n, "rsn"))
        row = counts(n)
        assert row.s == rsn_count(n, weighted=True) == sum(map(sentence_class_size, rsn)), n
        assert row.rs == rsn_count(n) == len(rsn), n
        assert row.r == sum(1 for _ in sentences(n, "rn")), n


def test_r_column_counts_the_reflection_orbits_of_rsn():
    # Burnside: the orbits of reflection on rsn number (RS + F) / 2, F the
    # sentences that equal their own reflection
    for n in range(3, 17):
        rsn = set(sentences(n, "rsn"))
        assert all(reflect_sentence(s) in rsn for s in rsn), n
        orbits = {frozenset((s, reflect_sentence(s))) for s in rsn}
        fixed = sum(1 for s in rsn if reflect_sentence(s) == s)
        assert words._self_reflected_count(n) == fixed, n
        assert counts(n).r == len(orbits), n


def test_counts_lists_no_sentences(monkeypatch):
    def walk(*args):
        raise AssertionError("counts walked sentences")

    monkeypatch.setattr(words, "sentences", walk)
    monkeypatch.setattr(words, "_sentence_walk", walk)
    rows = [counts(n) for n in range(3, 21)]
    assert (rows[-1].s, rows[-1].rs, rows[-1].r) == (2788120736, 1478, 894)

"""Byte-for-byte regressions for the worked examples used throughout the theory."""

from sortnetopt.networks import first_layer, network, reflect
from sortnetopt.words import net_of, parse_word, reflect_word, render_sentence, sentence_of, word_of

FIG1 = network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)])

FIG4 = {
    "a": network(5, [(1, 2), (3, 4)], [(1, 5), (2, 4)]),
    "b": network(8, first_layer(8), [(1, 4), (3, 8), (5, 7)]),
    "c": network(6, first_layer(6), [(1, 3), (2, 5), (4, 6)]),
    "d": network(10, [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)],
                 [(1, 4), (2, 5), (6, 9), (7, 10)]),
}

FIG5_PAIR = (network(6, first_layer(6), [(2, 3), (4, 6)]),
             network(6, first_layer(6), [(1, 3), (4, 5)]))


def test_fig1_evaluations():
    from oracles import evaluate
    assert evaluate(FIG1, (5, 2, 0, 7)) == (0, 2, 5, 7)
    assert evaluate(FIG1, (0, 1, 0, 1)) == (0, 0, 1, 1)


def test_fig4_words_byte_exact():
    assert str(word_of(FIG4["a"])) == "01221_h"
    assert str(word_of(FIG4["b"])) == "21121212_s"
    assert str(word_of(FIG4["c"])) == "121221_c"
    assert render_sentence(sentence_of(FIG4["d"])) == "12_s;1221_c;1221_c"


def test_fig4_dprime_reconstruction():
    rebuilt = net_of("12_s;1221_c;1221_c")
    assert rebuilt.layers == (((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)),
                              ((3, 5), (4, 6), (7, 9), (8, 10)))
    assert sentence_of(rebuilt) == sentence_of(FIG4["d"])


def test_fig5_reflection_pair_byte_exact():
    a, b = FIG5_PAIR
    assert reflect(a) == b and reflect(b) == a
    words = {str(word_of(a)), str(word_of(b))}
    assert words == {"211212_s", "121221_s"}
    assert reflect_word(parse_word("211212_s")) == parse_word("121221_s")
    assert reflect_word(parse_word("121221_s")) == parse_word("211212_s")

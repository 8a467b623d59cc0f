"""Symbolic words and sentences for two-layer comparator-network prefixes.

A two-layer network with a maximal first layer decomposes into connected
components whose graphs are paths ("sticks", plus "heads" when the free
channel is involved) or cycles.  Walking a component and writing 0 for the
free channel, 1 for a min-channel and 2 for a max-channel yields a word
over {0,1,2}; the multiset of component words (the "sentence") is a
complete invariant for two-layer networks modulo channel permutation.

One walk rule reads a component in both directions: the walk takes layer
1 and layer 2 by turns, layer 2 first from the free channel and layer 1
first from any other channel.  So a word, after a head's leading 0, holds
two symbols per first-layer pair, the end the walk enters and the end it
leaves, and layer 2 joins each pair's exit to the next pair's entry.
_component_words reads the words of a network by that walk (_walk), and
net_of builds a network from words by it.

Tags: h = head (odd component containing the free channel), s = stick,
c = cycle.  Two rules decide everything about a word.  _canonical is its
one canonical reading: heads are read from the free channel; sticks take
the lexicographically smaller reading direction; cycles minimize over all
rotations that start with a first-layer comparator, in both directions.
Every Word holds that reading.  _kind is the rsn word rule: which words a
saturated class may hold, sorted into the kinds that _sat_multiset_ok
lets share a sentence.

The module also walks the prefix sets rgn, rsn, rn (sentences) and gn
(matchings).  rn, the prefix set R_n of the campaigns, is the rsn walk
keeping one member of each reflection orbit; rn_sentences caches it,
and rn_networks its networks.
counts gives the table rows without walking them: integer dynamic
programs over the same word pools, split by _kind, give RG and RS as
numbers of multisets, S as the sum of sentence_class_size (the number of
second layers over F_n behind a sentence) over rsn, and R as the number
of reflection orbits of rsn.  The walks stay as the tests' references.
The sn set lives in saturation, which imports this module, not back.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Iterator, Optional

from .networks import Layer, Network, first_layer

_TAG_ORDER = {"h": 0, "s": 1, "c": 2}
_PAIRS = re.compile("(?:12|21)*")


@dataclass(frozen=True)
class Word:
    tag: str
    symbols: str

    def __post_init__(self):
        if self.tag not in _TAG_ORDER:
            raise ValueError(f"unknown word tag {self.tag!r}")
        _validate_symbols(self.tag, self.symbols)

    def sort_key(self) -> tuple:
        return (_TAG_ORDER[self.tag], self.symbols)

    def __str__(self) -> str:
        return f"{self.symbols}_{self.tag}"

    def __len__(self) -> int:
        return len(self.symbols)


Sentence = tuple[Word, ...]


def _validate_symbols(tag: str, s: str) -> None:
    if tag == "h":
        if not s or s[0] != "0" or s.count("0") != 1:
            raise ValueError(f"malformed head word {s!r}")
        body = s[1:]
    else:
        if not s or "0" in s:
            raise ValueError(f"malformed {tag}-word {s!r}")
        body = s
    if len(body) % 2:
        raise ValueError(f"malformed word {s!r}: odd pair part")
    if not _PAIRS.fullmatch(body):
        raise ValueError(f"malformed word {s!r}: pairs must be 12 or 21")
    if tag != "h" and s != _canonical(tag, s):
        raise ValueError(f"{tag}-word {s!r} is not in its canonical reading")


def _canonical(tag: str, symbols: str) -> str:
    """The canonical reading of a word read as symbols: a head as read from
    its free channel, a stick the smaller of its two readings, a cycle the
    smallest of its readings (cycle_canonical)."""
    if tag == "h":
        return symbols
    if tag == "s":
        return min(symbols, symbols[::-1])
    return cycle_canonical(symbols)


def parse_word(text: str) -> Word:
    sym, _, tag = text.partition("_")
    if not tag:
        raise ValueError(f"word needs a _h/_s/_c tag: {text!r}")
    return Word(tag, sym)


def render_sentence(s: Sentence) -> str:
    return ";".join(str(w) for w in s)


def parse_sentence(text: str) -> Sentence:
    return canonical_sentence(parse_word(part) for part in text.split(";"))


def canonical_sentence(words: Iterable[Word]) -> Sentence:
    return tuple(sorted(words, key=Word.sort_key))


# ---------------------------------------------------------------------------
# network -> words

def layer_partners(layer: Layer) -> dict[int, int]:
    """Channel -> the channel it is joined to in the layer."""
    out: dict[int, int] = {}
    for i, j in layer:
        out[i], out[j] = j, i
    return out


def two_layer_partners(net: Network) -> tuple[dict[int, int], dict[int, int]]:
    """The partner maps of the first and second layer of a depth-1 or depth-2
    network; a depth-1 network has an empty second layer."""
    if net.depth not in (1, 2):
        raise ValueError(f"expected a two-layer network, got depth {net.depth}")
    return layer_partners(net.layers[0]), layer_partners(net.layers[1] if net.depth == 2 else ())


def _two_layer_parts(net: Network) -> tuple[dict[int, int], dict[int, int], dict[int, str]]:
    l1p, l2p = two_layer_partners(net)
    if len(net.layers[0]) != net.n // 2:
        raise ValueError("first layer is not maximal")
    role: dict[int, str] = {}
    for i, j in net.layers[0]:
        role[i], role[j] = "1", "2"
    for ch in range(1, net.n + 1):
        role.setdefault(ch, "0")
    return l1p, l2p, role


def _walk(start: int, l1p, l2p) -> list[int]:
    """The channels of start's component in walk order: along layer 1 first,
    or along layer 2 first from the free channel, then the two layers by
    turns, until the layer whose turn it is leaves the channel unpaired or
    leads back to start."""
    path = [start]
    for partners in itertools.cycle((l1p, l2p) if start in l1p else (l2p, l1p)):
        nxt = partners.get(path[-1])
        if nxt is None or nxt == start:
            return path
        path.append(nxt)


def cycle_readings(symbols: str) -> set[str]:
    """Every reading of a cycle: rotations keeping first-layer pairs aligned, both directions."""
    return {s[k:] + s[:k] for s in (symbols, symbols[::-1]) for k in range(0, len(s), 2)}


def cycle_canonical(symbols: str) -> str:
    """Smallest cycle reading."""
    if len(symbols) < 2 or len(symbols) % 2:
        raise ValueError(f"not a cycle label string: {symbols!r}")
    return min(cycle_readings(symbols))


def sentence_class_size(sentence: Iterable[Word]) -> int:
    """How many second layers over F_n yield this canonical sentence.

    The comparator pairs are dealt out to the words, each word is embedded
    in its own pairs in _embeddings(w) ways, and equal words may trade
    places.  The sentence is read once, so any iterable of words will do.
    """
    pairs, ways, fixed = 0, 1, 1
    for w, r in Counter(sentence).items():
        m, e = _embeddings(w)
        pairs += m * r
        ways *= e ** r
        fixed *= factorial(m) ** r * factorial(r)
    return factorial(pairs) * ways // fixed


@lru_cache(maxsize=None)
def _embeddings(w: Word) -> tuple[int, int]:
    """The comparator pairs of a word, and the ways to embed it in them:
    heads and sticks in every pair order (halved for a palindromic stick),
    a cycle in every cyclic order once per reading that begins with 12."""
    m = (len(w) - 1) // 2 if w.tag == "h" else len(w) // 2
    if w.tag == "h":
        return m, factorial(m)
    if w.tag == "s":
        return m, factorial(m) // (2 if w.symbols == w.symbols[::-1] else 1)
    starts = sum(1 for c in cycle_readings(w.symbols) if c.startswith("12"))
    return m, starts * factorial(m - 1)


def _component_words(net: Network) -> list[Word]:
    """The canonical words of a two-layer network's components, each read
    in one walk: from the free channel, then from the stick ends, then from
    the cycle channels in ascending order, every walk from a channel that no
    earlier walk passed.  The start gives the tag: a head starts at the
    free channel, a stick at an end, and a cycle anywhere; _canonical picks
    the reading."""
    l1p, l2p, role = _two_layer_parts(net)
    seen: set[int] = set()
    words = []
    for start in sorted(range(1, net.n + 1), key=lambda ch: (ch in l1p, ch in l2p)):
        if start in seen:
            continue
        tag = "h" if start not in l1p else "s" if start not in l2p else "c"
        path = _walk(start, l1p, l2p)
        seen.update(path)
        words.append(Word(tag, _canonical(tag, "".join(role[ch] for ch in path))))
    return words


def word_of(net: Network) -> Word:
    """Canonical word of a connected two-layer network with maximal first layer."""
    words = _component_words(net)
    if len(words) != 1:
        raise ValueError(f"network is not connected ({len(words)} components)")
    return words[0]


def sentence_of(net: Network) -> Sentence:
    """Multiset of component words in canonical order."""
    return canonical_sentence(_component_words(net))


# ---------------------------------------------------------------------------
# words -> network

def net_of(sentence: Iterable[Word] | Word | str) -> Network:
    """Build the two-layer network with first layer F_n generated by a sentence.

    The words take the pairs of F_n in the given word order, and a word's
    symbols, after a head's leading 0, are read two per pair: the end the
    walk enters and the end it leaves.  Layer 2 joins each pair's exit to
    the next pair's entry; a head also joins the free channel, channel n,
    to its first entry, and a cycle joins its last exit to its first entry.
    """
    if isinstance(sentence, str):
        sentence = parse_sentence(sentence)
    if isinstance(sentence, Word):
        sentence = (sentence,)
    words = tuple(sentence)
    if sum(w.tag == "h" for w in words) > 1:
        raise ValueError("a sentence may contain at most one head word")
    n = sum(len(w) for w in words)
    layer2: list[tuple[int, int]] = []
    base = 0
    for w in words:
        body = w.symbols[1:] if w.tag == "h" else w.symbols
        # entry and exit of each pair in turn
        ends = [base + 2 * (k // 2) + int(x) for k, x in enumerate(body)]
        # the channels layer 2 joins, two by two; a stick's last exit is left over
        chain = {"h": [n] + ends, "s": ends[1:], "c": ends[1:] + ends[:1]}[w.tag]
        layer2.extend(tuple(sorted(c)) for c in zip(chain[::2], chain[1::2]))
        base += len(body)
    return Network(n, (first_layer(n) if n >= 2 else (), layer2))


# ---------------------------------------------------------------------------
# reflection on words

def swap_minmax(s: str) -> str:
    return s.translate(str.maketrans("12", "21"))


@lru_cache(maxsize=None)
def reflect_word(w: Word) -> Word:
    """Word of the reflected network: swap 1s and 2s, then re-canonicalize."""
    return Word(w.tag, _canonical(w.tag, swap_minmax(w.symbols)))


def reflect_sentence(s: Sentence) -> Sentence:
    return canonical_sentence(reflect_word(w) for w in s)


@lru_cache(maxsize=None)
def is_asymmetric(w: Word) -> bool:
    """True iff a cycle word differs from its reflection."""
    if w.tag != "c":
        raise ValueError("asymmetry is defined for cycle words")
    return reflect_word(w) != w


# ---------------------------------------------------------------------------
# word pools

def _words(tag: str, lead: str, pairs: int) -> tuple[Word, ...]:
    """The canonical words of a tag read as lead and then pairs of 12 or 21."""
    bodies = map("".join, itertools.product(("12", "21"), repeat=pairs))
    readings = {_canonical(tag, lead + body) for body in bodies}
    return tuple(Word(tag, s) for s in sorted(readings))


@lru_cache(maxsize=None)
def head_words(length: int) -> tuple[Word, ...]:
    """Head words of a given odd length."""
    return _words("h", "0", length // 2) if length % 2 and length >= 1 else ()


@lru_cache(maxsize=None)
def stick_words(length: int) -> tuple[Word, ...]:
    """Canonical stick words of a given even length."""
    return _words("s", "", length // 2) if length % 2 == 0 and length >= 2 else ()


@lru_cache(maxsize=None)
def cycle_words(length: int) -> tuple[Word, ...]:
    """Canonical cycle words of a given even length; every cycle has a
    reading that starts with 12."""
    return _words("c", "12", length // 2 - 1) if length % 2 == 0 and length >= 2 else ()


def _kind(w: Word) -> Optional[str]:
    """The rsn word rule.  None for a word no saturated class holds: 12_c, a
    stick of length 4 and a longer stick whose ends differ.  "plain" for
    0_h and 12_s, "c" for the other cycles, and otherwise the tag and the
    last symbol: h1, h2, s1 or s2."""
    s = w.symbols
    if w.tag == "c":
        return "c" if len(s) > 2 else None
    if len(s) <= 2:
        return "plain"
    if w.tag == "s" and (len(s) == 4 or s[0] != s[-1]):
        return None
    return w.tag + s[-1]


def _sat_multiset_ok(words: Sentence) -> bool:
    # words that all have a kind: one plain word alone among cycles, or long
    # heads and sticks that all end in the same symbol
    kinds = [k for k in map(_kind, words) if k != "c"]
    if "plain" in kinds:
        return len(kinds) == 1
    return len({k[-1] for k in kinds}) <= 1


def sentences(n: int, kind: str) -> Iterator[Sentence]:
    """All canonical sentences on n channels for kind rgn / rsn / rn.

    rgn holds every sentence; rsn the words that _kind admits, in the
    multisets that _sat_multiset_ok admits.  rn, the prefix set R_n, keeps
    one member of each reflection orbit of rsn: the sentence s with
    _orbit_key(s) <= _orbit_key(reflect_sentence(s)).  Emitted in canonical
    order (lexicographic on the word keys), which fixes the prefix indices
    used by campaign reports.  Raises ValueError for an unknown kind at the
    call, not at the first item.
    """
    if kind == "rgn":
        return _sentence_walk(n, lambda w: True, lambda words: True)
    if kind not in ("rsn", "rn"):
        raise ValueError(f"unknown sentence kind {kind!r}")
    rsn = _sentence_walk(n, _kind, _sat_multiset_ok)
    if kind == "rsn":
        return rsn
    return (s for s in rsn if _orbit_key(s) <= _orbit_key(reflect_sentence(s)))


@lru_cache(maxsize=None)
def rn_sentences(n: int) -> tuple[Sentence, ...]:
    """R_n, walked once per n; a sentence's position is its prefix index."""
    return tuple(sentences(n, "rn"))


@lru_cache(maxsize=None)
def rn_networks(n: int) -> tuple[Network, ...]:
    """R_n as networks, net_of of each sentence of rn_sentences, in its order."""
    return tuple(net_of(s) for s in rn_sentences(n))


def _orbit_key(s: Sentence) -> tuple:
    """Heads read from the far end, sticks and cycles with 1 and 2 swapped:
    a head ending in 21 and a stick beginning with 21 win over their
    reflections.  One-to-one, so rn keeps one member of every orbit."""
    return tuple((w.tag, w.symbols[::-1] if w.tag == "h" else swap_minmax(w.symbols))
                 for w in s)


def _sentence_walk(n: int, keep, ok) -> Iterator[Sentence]:
    """The walk behind sentences: the multisets that ok accepts of the words
    that keep accepts.

    The pool of words is sorted by word key, not by length, so the walk
    first indexes it by length: fits[r] lists, in pool order, the position,
    length and head flag of every word of length <= r, and starts[r] their
    positions.  A frame with r channels left bisects starts[r] to its first
    allowed position and visits only the words that fit, so the walk costs
    what it emits rather than a pass over the pool per frame.
    """
    pool = sorted((w for length in range(1, n + 1)
                   for w in head_words(length) + stick_words(length) + cycle_words(length)
                   if keep(w)), key=Word.sort_key)
    entries = [(idx, len(w), w.tag == "h") for idx, w in enumerate(pool)]
    fits = [[e for e in entries if e[1] <= r] for r in range(n + 1)]
    starts = [[e[0] for e in fit] for fit in fits]

    def rec(start: int, remaining: int, head_used: bool, acc: list[Word]):
        if remaining == 0:
            # acc follows the pool order, so it is already canonical
            words = tuple(acc)
            if ok(words):
                yield words
            return
        fit = fits[remaining]
        for k in range(bisect_left(starts[remaining], start), len(fit)):
            idx, length, head = fit[k]
            if head and head_used:
                continue
            acc.append(pool[idx])
            yield from rec(idx, remaining - length, head_used or head, acc)
            acc.pop()

    # a depth-first walk over the sorted pool emits canonical order
    yield from rec(0, n, False, [])


def matchings(n: int) -> Iterator[Layer]:
    """Every second layer over n channels (all matchings, including empty)."""
    acc: list[tuple[int, int]] = []

    def rec(avail: tuple[int, ...]) -> Iterator[Layer]:
        if not avail:
            # pairs are appended by increasing smallest channel: already sorted
            yield tuple(acc)
            return
        v, rest = avail[0], avail[1:]
        yield from rec(rest)
        for k, w in enumerate(rest):
            acc.append((v, w))
            yield from rec(rest[:k] + rest[k + 1:])
            acc.pop()

    return rec(tuple(range(1, n + 1)))


def telephone(n: int) -> int:
    """Number of matchings on n vertices: a(n) = a(n-1) + (n-1) a(n-2)."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def asymmetric_cycle_count(n: int) -> int:
    """Asymmetric cycle words on n channels, modulo reflection (Table values A_n)."""
    if n % 2:
        raise ValueError("cycles need an even channel count")
    asym = [w for w in cycle_words(n) if is_asymmetric(w)]
    assert len(asym) % 2 == 0
    return len(asym) // 2


@dataclass(frozen=True)
class CountsRow:
    n: int
    g: int
    rg: Optional[int] = None
    s: Optional[int] = None
    rs: Optional[int] = None
    r: Optional[int] = None
    a: Optional[int] = None


# the last row each column is printed for; S and RS share "s", which also
# bounds gen --set sn.  Every column is counted, so these hold the table's
# shape, not a cost.
_LIMITS = {"rg": 24, "s": 24, "r": 24, "a": 40}


def _multisets(k: int, items: Iterable[tuple[int, int]]) -> list[int]:
    """ways[t], t <= k: the multisets of word kinds with t pairs in all,
    where items lists (pairs per word, kinds) and every kind is unbounded."""
    ways = [1] + [0] * k
    for m, kinds in items:
        if kinds and m <= k:
            # j words of m pairs form C(kinds + j - 1, j) multisets; going
            # downwards, ways[r - j * m] still leaves this item out
            for r in range(k, m - 1, -1):
                ways[r] += sum(comb(kinds + j - 1, j) * ways[r - j * m]
                               for j in range(1, r // m + 1))
    return ways


def _labelled(k: int, items: Iterable[tuple[int, int]]) -> list[int]:
    """f[t], t <= k: sentence_class_size summed over the multisets of words
    with t pairs in all, where items lists (pairs per word, embeddings).

    The class size is t! times a product over the words, so f[t] is t! times
    the coefficient of x^t in exp(sum of c_m x^m / m!), c_m the embeddings of
    the words of m pairs: f[t] = sum over m of C(t - 1, m - 1) c_m f[t - m].
    """
    c = [0] * (k + 1)
    for m, embeddings in items:
        if m <= k:
            c[m] += embeddings
    f = [1] + [0] * k
    for t in range(1, k + 1):
        f[t] = sum(comb(t - 1, m - 1) * c[m] * f[t - m] for m in range(1, t + 1))
    return f


def _rg_count(n: int) -> int:
    """|R(G_n)| without the rgn walk.

    The rgn rule accepts every multiset of its words with at most one head,
    so count instead of listing: ways[t] counts the multisets of sticks and
    cycles on t first-layer pairs, and an odd n adds its one head, of any
    length, to such a multiset.
    """
    k = n // 2
    items = [(m, len(stick_words(2 * m)) + len(cycle_words(2 * m))) for m in range(1, k + 1)]
    ways = _multisets(k, items)
    if n % 2 == 0:
        return ways[k]
    return sum(len(head_words(2 * m + 1)) * ways[k - m] for m in range(k + 1))


@lru_cache(maxsize=None)
def _rsn_kinds(length: int) -> dict[str, tuple[int, int]]:
    """The rsn words of one length by _kind, each kind as (words, embeddings),
    the embeddings summed over _embeddings, and "sym" the symmetric cycles."""
    kinds: dict[str, list[Word]] = {}
    for w in head_words(length) + stick_words(length) + cycle_words(length):
        if kind := _kind(w):
            kinds.setdefault(kind, []).append(w)
    kinds["sym"] = [w for w in kinds.get("c", ()) if not is_asymmetric(w)]
    return {kind: (len(ws), sum(_embeddings(w)[1] for w in ws)) for kind, ws in kinds.items()}


def rsn_count(n: int, weighted: bool = False) -> int:
    """|rsn| on n channels, or with weighted the sum of sentence_class_size
    over rsn, |S_n|, counted from the word pools without a walk.

    An rsn sentence is one of: at most one head and any sticks and cycles,
    every head or stick of length >= 3 ending in the same symbol; or one
    plain word, 0_h or 12_s, and cycles (_kind and _sat_multiset_ok).  So
    count the sentences whose long words all end in 1, add those that all
    end in 2, take off the cycles-only ones that both counted, and add the
    plain ones.  The counts run over the n // 2 first-layer pairs: an odd n
    has exactly one head, which takes its pairs from the rest.
    """
    k = n // 2
    table = _labelled if weighted else _multisets
    pick = 1 if weighted else 0     # a kind's embeddings, or its words

    def one_word_and(m: int, kind: tuple[int, int], rest: list[int]) -> int:
        # one word of m pairs, of a kind of (words, embeddings), next to the rest
        if m > k:
            return 0
        return comb(k, m) * kind[1] * rest[k - m] if weighted else kind[0] * rest[k - m]

    # a cycle or stick of m pairs has length 2m, a head 2m + 1
    even = [(m, _rsn_kinds(2 * m)) for m in range(2, k + 1)]
    cycles = [(m, kinds["c"][pick]) for m, kinds in even]
    total = 0
    for end in "12":
        rest = table(k, cycles + [(m, kinds.get("s" + end, (0, 0))[pick]) for m, kinds in even])
        if n % 2:
            total += sum(one_word_and(m, _rsn_kinds(2 * m + 1)["h" + end], rest)
                         for m in range(1, k + 1))
        else:
            total += rest[k]
    cyc = table(k, cycles)
    # the plain word of n's parity, 0_h (no pairs) or 12_s (one), next to cycles
    total += one_word_and(1 - n % 2, _rsn_kinds(2 - n % 2)["plain"], cyc)
    # an even n counted the cycles alone once for each end
    return total if n % 2 else total - cyc[k]


def _self_reflected_count(n: int) -> int:
    """The rsn sentences on n channels that equal their own reflection.

    A head or stick of length >= 3 never equals its reflection, whose last
    symbol is the other one, and the end rule forbids a sentence to hold
    both; 0_h, 12_s and the symmetric cycles are their own reflections.  So
    these are the multisets of symmetric cycles and of pairs of an
    asymmetric cycle with its reflection, alone or next to 0_h or 12_s.
    """
    k = n // 2
    items = []
    for m in range(2, k + 1):
        kinds = _rsn_kinds(2 * m)
        items.append((m, kinds["sym"][0]))
        items.append((2 * m, (kinds["c"][0] - kinds["sym"][0]) // 2))
    ways = _multisets(k, items)
    # an odd n holds 0_h and cycles; an even n cycles alone, or 12_s and cycles
    return ways[k] if n % 2 else ways[k] + (ways[k - 1] if k else 0)


def counts(n: int) -> CountsRow:
    """Count table row for channel count n; columns beyond their limit are None.

    No column lists sentences.  RG counts the multisets of rgn words
    (_rg_count), S and RS count rsn (rsn_count), and R is the number of
    reflection orbits of rsn, by Burnside's lemma (RS + F) / 2, where F
    counts the rsn sentences that equal their own reflection
    (_self_reflected_count).  R equals |rn|, which keeps one sentence of
    each orbit (tested on every row the table prints).
    """
    kw = {}
    if 3 <= n <= _LIMITS["rg"]:
        kw["rg"] = _rg_count(n)
    if 3 <= n <= _LIMITS["s"]:
        kw["s"] = rsn_count(n, weighted=True)
        kw["rs"] = rsn_count(n)
    if 3 <= n <= _LIMITS["r"]:
        # R's limit is S's, so RS is counted already
        kw["r"] = (kw["rs"] + _self_reflected_count(n)) // 2
    if n % 2 == 0 and 4 <= n <= _LIMITS["a"]:
        kw["a"] = asymmetric_cycle_count(n)
    return CountsRow(n=n, g=telephone(n), **kw)

"""Symbolic words and sentences for two-layer comparator-network prefixes.

A two-layer network with a maximal first layer decomposes into connected
components whose graphs are paths ("sticks", plus "heads" when the free
channel is involved) or cycles.  Walking a component and writing 0 for the
free channel, 1 for a min-channel and 2 for a max-channel yields a word
over {0,1,2}; the multiset of component words (the "sentence") is a
complete invariant for two-layer networks modulo channel permutation.

Tags: h = head (odd component containing the free channel), s = stick,
c = cycle.  Canonical forms: heads are read from the free channel; sticks
take the lexicographically smaller reading direction; cycles minimize over
all rotations that start with a first-layer comparator, in both directions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .networks import Layer, Network, first_layer

_TAG_ORDER = {"h": 0, "s": 1, "c": 2}


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
    if any(body[k:k + 2] not in ("12", "21") for k in range(0, len(body), 2)):
        raise ValueError(f"malformed word {s!r}: pairs must be 12 or 21")
    if tag == "c" and not s.startswith("12"):
        raise ValueError(f"cycle word must start with 12, got {s!r}")


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


def _components(n: int, l1p: dict[int, int], l2p: dict[int, int]) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            ch = frontier.pop()
            for nxt in (l1p.get(ch), l2p.get(ch)):
                if nxt is not None and nxt not in comp:
                    comp.add(nxt)
                    frontier.append(nxt)
        seen |= comp
        comps.append(comp)
    return comps


def _walk(start: int, second: Optional[int], l1p, l2p) -> list[int]:
    path = [start]
    if second is None:
        return path
    path.append(second)
    while True:
        prev, cur = path[-2], path[-1]
        nxt = None
        for cand in (l1p.get(cur), l2p.get(cur)):
            if cand is not None and cand != prev:
                nxt = cand
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


def _component_word(comp: set[int], l1p, l2p, role) -> Word:
    labels = lambda path: "".join(role[ch] for ch in path)
    free = [ch for ch in comp if ch not in l1p]
    if free:
        path = _walk(free[0], l2p.get(free[0]), l1p, l2p)
        return Word("h", labels(path))
    ends = sorted(ch for ch in comp if ch not in l2p)
    if ends:
        words = [labels(_walk(e, l1p[e], l1p, l2p)) for e in ends]
        return Word("s", min(words))
    start = min(comp)
    path = _walk(start, l1p[start], l1p, l2p)
    return Word("c", cycle_canonical(labels(path)))


def word_of(net: Network) -> Word:
    """Canonical word of a connected two-layer network with maximal first layer."""
    l1p, l2p, role = _two_layer_parts(net)
    comps = _components(net.n, l1p, l2p)
    if len(comps) != 1:
        raise ValueError(f"network is not connected ({len(comps)} components)")
    return _component_word(comps[0], l1p, l2p, role)


def sentence_of(net: Network) -> Sentence:
    """Multiset of component words in canonical order."""
    l1p, l2p, role = _two_layer_parts(net)
    comps = _components(net.n, l1p, l2p)
    return canonical_sentence(_component_word(c, l1p, l2p, role) for c in comps)


# ---------------------------------------------------------------------------
# words -> network

def _pair_channels(word: Word) -> int:
    return len(word.symbols) - 1 if word.tag == "h" else len(word.symbols)


def net_of(sentence: Iterable[Word] | Word | str) -> Network:
    """Build the two-layer network with first layer F_n generated by a sentence.

    Components are laid out consecutively in the given word order; the head
    word's free channel, when present, is channel n so that the first layer
    is exactly F_n.
    """
    if isinstance(sentence, str):
        sentence = parse_sentence(sentence)
    if isinstance(sentence, Word):
        sentence = (sentence,)
    words = tuple(sentence)
    heads = [w for w in words if w.tag == "h"]
    if len(heads) > 1:
        raise ValueError("a sentence may contain at most one head word")
    n = sum(len(w) for w in words)
    free_channel = n if heads else None
    layer2: list[tuple[int, int]] = []
    base = 0
    for w in words:
        layer2.extend(_decode_word(w, base, free_channel))
        base += _pair_channels(w)
    return Network(n, (first_layer(n) if n >= 2 else (), tuple(sorted(tuple(sorted(c)) for c in layer2))))


def _decode_word(word: Word, base: int, free_channel: Optional[int]) -> list[tuple[int, int]]:
    s = word.symbols
    comps: list[tuple[int, int]] = []
    if word.tag == "h":
        rest = s[1:]
        if rest:
            comps.append((free_channel, base + int(rest[0])))
            rest = rest[1:]
    else:
        rest = s[1:]
    k = 0
    while len(rest) >= 2:
        x, y = int(rest[0]), int(rest[1])
        comps.append((base + 2 * k + x, base + 2 * (k + 1) + y))
        rest = rest[2:]
        k += 1
    if word.tag == "c":
        used = {ch for c in comps for ch in c}
        left = [base + t for t in range(1, len(s) + 1) if base + t not in used]
        comps.append((left[0], left[1]))
    return comps


# ---------------------------------------------------------------------------
# reflection on words

def swap_minmax(s: str) -> str:
    return s.translate(str.maketrans("12", "21"))


def stick_canonical(symbols: str) -> str:
    return min(symbols, symbols[::-1])


def reflect_word(w: Word) -> Word:
    """Word of the reflected network: swap 1s and 2s, then re-canonicalize."""
    sw = swap_minmax(w.symbols)
    if w.tag == "h":
        return Word("h", sw)
    if w.tag == "s":
        return Word("s", stick_canonical(sw))
    return Word("c", cycle_canonical(sw))


def reflect_sentence(s: Sentence) -> Sentence:
    return canonical_sentence(reflect_word(w) for w in s)


def is_asymmetric(w: Word) -> bool:
    """True iff a canonical cycle word differs from its reflection."""
    if w.tag != "c":
        raise ValueError("asymmetry is defined for cycle words")
    if w.symbols != cycle_canonical(w.symbols):
        raise ValueError(f"cycle word {w.symbols!r} is not canonical")
    return reflect_word(w) != w


# ---------------------------------------------------------------------------
# word pools

def _pair_strings(pairs: int) -> Iterator[str]:
    for combo in itertools.product("12", repeat=pairs):
        yield "".join("12" if c == "1" else "21" for c in combo)


@lru_cache(maxsize=None)
def head_words(length: int, refl: bool = False) -> tuple[Word, ...]:
    """Head words of a given odd length; refl keeps only '0' and oHeads (...21)."""
    if length % 2 == 0 or length < 1:
        return ()
    if length == 1:
        return (Word("h", "0"),)
    out = []
    for body in _pair_strings((length - 1) // 2):
        if refl and not body.endswith("21"):
            continue
        out.append(Word("h", "0" + body))
    return tuple(sorted(out, key=Word.sort_key))


@lru_cache(maxsize=None)
def stick_words(length: int, mode: str = "all") -> tuple[Word, ...]:
    """Canonical stick words of a given even length.

    mode 'all': every canonical stick; 'sat': the saturated grammar (plain
    12, or length >= 6 beginning and ending with the same symbol); 'refl':
    saturated sticks that survive reflection filtering (12 and oSticks).
    """
    if length % 2 or length < 2:
        return ()
    if length == 2:
        return (Word("s", "12"),)
    out = set()
    for body in _pair_strings(length // 2):
        w = stick_canonical(body)
        if mode in ("sat", "refl") and length == 4:
            continue
        if mode == "sat" and w[0] != w[-1]:
            continue
        if mode == "refl" and not (w.startswith("21") and w.endswith("12")):
            continue
        out.add(w)
    return tuple(Word("s", w) for w in sorted(out))


@lru_cache(maxsize=None)
def cycle_words(length: int, include_redundant: bool = False) -> tuple[Word, ...]:
    """Canonical cycle words of a given even length (12_c only when asked)."""
    if length % 2 or length < 2:
        return ()
    if length == 2:
        return (Word("c", "12"),) if include_redundant else ()
    out = {cycle_canonical("12" + body) for body in _pair_strings(length // 2 - 1)}
    return tuple(Word("c", w) for w in sorted(out))


def _is_plain(w: Word) -> bool:
    return w.symbols in ("0", "12") and w.tag in ("h", "s")


def _plain_rule_ok(words: tuple[Word, ...]) -> bool:
    # a bare 0_h or 12_s forces every other word to be a cycle
    if any(_is_plain(w) for w in words):
        for w in words:
            if w.tag != "c" and not _is_plain(w):
                return False
        if sum(_is_plain(w) for w in words) > 1:
            return False
    return True


def _sat_multiset_ok(words: tuple[Word, ...]) -> bool:
    # every head or stick of length >= 3 must end with the same symbol
    ends = {w.symbols[-1] for w in words if w.tag in "hs" and len(w) >= 3}
    return len(ends) <= 1 and _plain_rule_ok(words)


def _refl_multiset_ok(words: tuple[Word, ...]) -> bool:
    # the published filter sets keep every reflection-grammar sentence and
    # break ties only on asymmetric cycles, so no end-matching rule here
    if not _plain_rule_ok(words):
        return False
    if any(w.tag in "hs" and len(w) >= 3 for w in words):
        return True
    asym_by_len: dict[int, set[Word]] = {}
    for w in words:
        if w.tag == "c" and is_asymmetric(w):
            asym_by_len.setdefault(len(w), set()).add(w)
    for length in sorted(asym_by_len):
        if len(asym_by_len[length]) == 1:
            (w,) = asym_by_len[length]
            return w.symbols < reflect_word(w).symbols
    return True


_POOLS = {
    "rgn": (lambda L: head_words(L), lambda L: stick_words(L, "all"),
            lambda L: cycle_words(L, include_redundant=True), lambda ws: True),
    "rsn": (lambda L: head_words(L), lambda L: stick_words(L, "sat"),
            lambda L: cycle_words(L), _sat_multiset_ok),
    "rn": (lambda L: head_words(L, refl=True), lambda L: stick_words(L, "refl"),
           lambda L: cycle_words(L), _refl_multiset_ok),
}


def sentences(n: int, kind: str) -> Iterator[Sentence]:
    """All canonical sentences on n channels for kind rgn / rsn / rn.

    Emitted in canonical order (lexicographic on the word keys), which
    fixes the prefix indices used by campaign reports.

    The pool of words is sorted by word key, not by length, so the walk
    first indexes it by length: fits[r] lists, in pool order, the position,
    length and head flag of every word of length <= r, and starts[r] their
    positions.  A frame with r channels left bisects starts[r] to its first
    allowed position and visits only the words that fit, so the walk costs
    what it emits rather than a pass over the pool per frame.
    """
    if kind not in _POOLS:
        raise ValueError(f"unknown sentence kind {kind!r}")
    heads, sticks, cycles, ok = _POOLS[kind]
    pool: list[Word] = []
    for length in range(1, n + 1):
        if length % 2:
            pool.extend(heads(length))
        else:
            pool.extend(sticks(length))
            pool.extend(cycles(length))
    pool.sort(key=Word.sort_key)
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


def generate(n: int, kind: str) -> Iterator:
    """Unified prefix-set generator.

    gn streams every second layer (matching); sn streams the second layers
    whose two-layer network is saturated; rgn / rsn / rn stream canonical
    sentences.
    """
    kind = kind.lower()
    if kind == "gn":
        return matchings(n)
    if kind == "sn":
        from .saturation import saturated_layers
        return saturated_layers(n)
    return sentences(n, kind)


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


# feasibility guards: generation cost grows quickly past these
_LIMITS = {"rg": 24, "s": 24, "rs": 24, "r": 24, "a": 40}


def counts(n: int, columns: str = "g,rg,s,rs,r,a") -> CountsRow:
    """Count table row for channel count n; columns beyond their limit are None."""
    want = {c.strip() for c in columns.split(",")}
    kw = {}
    if "rg" in want and 3 <= n <= _LIMITS["rg"]:
        kw["rg"] = sum(1 for _ in sentences(n, "rgn"))
    if "s" in want and 3 <= n <= _LIMITS["s"]:
        from .saturation import saturated_layer_count
        kw["s"] = saturated_layer_count(n)
    if "rs" in want and 3 <= n <= _LIMITS["rs"]:
        kw["rs"] = sum(1 for _ in sentences(n, "rsn"))
    if "r" in want and 3 <= n <= _LIMITS["r"]:
        kw["r"] = sum(1 for _ in sentences(n, "rn"))
    if "a" in want and n % 2 == 0 and 4 <= n <= _LIMITS["a"]:
        kw["a"] = asymmetric_cycle_count(n)
    return CountsRow(n=n, g=telephone(n), **kw)

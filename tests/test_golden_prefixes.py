"""Golden bytes of the prefix sets.

R_n indices name campaign instances and fix the prefixes behind the
golden DIMACS digests, so the order of every prefix set is pinned here,
not only its size.  The digests were computed before the sentence walk
was indexed by length and before the sn filter stopped building a
Network per second layer; never regenerate them to make a change pass.
The count-table digests were computed before the S and RS columns shared
one rsn walk and before the sn walk was pruned.  The rn digest was
re-pinned when R_n became one member of each reflection orbit of rsn: the
reflection grammar it replaced dropped saturated orbits at odd n >= 9, and
the stream is byte-identical to the old one for n <= 8 and n = 10.
The network digests pin the exact layers that net_of builds from the
sentences, comparator for comparator: every campaign formula rests on
them.  They were computed before net_of and the component walk shared
one rule.
"""

import hashlib

import pytest

from sortnetopt import cli
from sortnetopt.words import net_of, render_sentence, rn_networks, sentences

SENTENCES = {
    "rgn": "1b4502aedd99418ccdca216ae0fc7330c7ef81bddf0194d187555a3a763fe78d",
    "rsn": "446cb93326993c823d04ca10c89b81ea41f949a9f6aa9d4bfda992f844769517",
    "rn": "e4257310b16f4cc2d291f1c91f20ac1e366bb1f9f74c8bb2782824bbac46e375",
}

# net.to_json() + "\n" of every network: rn_networks(n) for n = 1..16, and
# net_of(s) of every rgn sentence (all two-layer classes) for n = 1..12
NETWORKS = {
    "rn": "e73617bc675ba55a8f2a4dd2d9ffa55af5cb5c1d941c7bdd5e842b971022e392",
    "rgn": "cca490afbfa086aa8e630f26af05c3f91753f1295cf5f4bffd2e870d10b37f7c",
}

GEN = {
    ("12", "sn"): "1a02b4770dc7438b3652888a7eeaaa126a65ecc4080083f76fa4c81eefd98634",
    ("10", "gn"): "354a6650993b3d0a0dc15ad8dbfd1bc1f979572cf85f1210ec60fe6701bed146",
}

# sortnetopt tables --max-n 20: the CSV on stdout, the diff text on stderr
TABLES = {
    "csv": "28cced75dd04e0b5f434be3708db2d20f7d57eb6df33f2d574e5f0e2480b7a5f",
    "diff": "12527596eac086968e931393a71a42338252dad1a0c402a8228896a0d3ed1687",
}

# the same for --max-n 24, the last row of the S, RS and R columns; recorded
# while those columns were still walked
TABLES_24 = {
    "csv": "44fb250401ef97291d4765205144919d2f73d24c183fa00d9c66d2c5ee4f173c",
    "diff": "12527596eac086968e931393a71a42338252dad1a0c402a8228896a0d3ed1687",
}


@pytest.mark.parametrize("kind", sorted(SENTENCES))
def test_golden_sentence_streams(kind):
    # the rendered stream for n = 1..16, one sentence per line
    h = hashlib.sha256()
    for n in range(1, 17):
        h.update("".join(render_sentence(s) + "\n" for s in sentences(n, kind)).encode())
    assert h.hexdigest() == SENTENCES[kind]


@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_golden_prefix_networks(kind):
    nets = ((net for n in range(1, 17) for net in rn_networks(n)) if kind == "rn" else
            (net_of(s) for n in range(1, 13) for s in sentences(n, "rgn")))
    h = hashlib.sha256()
    for net in nets:
        h.update((net.to_json() + "\n").encode())
    assert h.hexdigest() == NETWORKS[kind]


@pytest.mark.parametrize("n,kind", sorted(GEN))
def test_golden_cli_gen_layers(n, kind, capsys):
    assert cli.main(["gen", "--n", n, "--set", kind, "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN[(n, kind)]


def test_golden_cli_tables(capsys):
    assert cli.main(["tables", "--max-n", "20", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == TABLES["csv"]
    assert hashlib.sha256(captured.err.encode()).hexdigest() == TABLES["diff"]


def test_golden_cli_tables_24(capsys):
    assert cli.main(["tables", "--max-n", "24", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == TABLES_24["csv"]
    assert hashlib.sha256(captured.err.encode()).hexdigest() == TABLES_24["diff"]

"""Golden bytes of the CNF encoder.

Each group hashes the DIMACS text of a family of instances into one
SHA-256 digest.  The digests of the formulas with the last-layer units
off were computed with the per-clause reference encoder (tuples of
literals, folded and deduplicated one input at a time) that the array
encoder replaced; the "+last" digests and the CLI digest without
--no-last-layer were added with the units, which leave everything else
in place.  The "+last" groups and that CLI digest pass
near_sorted=False (--no-near-sorted); the "+near" digests and the CLI
digest with both on were added with the near-sorted fold of level
d - 1, which also keeps the variable numbering.  The "+settled" digests
and the CLI digest taken with every default were added with the fold of
the settled ends (the leading zeros and trailing ones of each prefix
image), which keeps the numbering too; every older group and CLI digest
passes settled_ends=False (--no-settled-ends).  So any change to the
formula, its variable numbering or its clause order shows up here.  No
solver is run.  Never regenerate a digest to make a change pass.
"""

import hashlib
import itertools

import pytest

from sortnetopt import cli
from sortnetopt.campaign import two_layer_prefixes
from sortnetopt.encoding import EncodeOptions, build, to_dimacs
from sortnetopt.networks import Network, first_layer, unsorted_inputs

T = {6: 5, 7: 6}
# the pad schedules the rn groups were hashed with; they pin formulas, not
# the campaign default, so they stay literal when default_pads changes
RN_PADS = {6: (2, 0), 7: (3, 1, 0), 8: (4, 2, 0), 9: (2, 0), 10: (3, 0)}
SIGMA_OFF = ({}, {"sigma1": False}, {"sigma2": False}, {"sigma3": False})


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _dimacs(n, d, prefix=None, last_layer=False, near_sorted=False, settled_ends=False,
            **opts) -> str:
    xs = unsorted_inputs(n, prefix)
    opts = EncodeOptions(prefix=prefix, last_layer=last_layer, near_sorted=near_sorted,
                         settled_ends=settled_ends, **opts)
    return to_dimacs(build(n, d, xs, opts)[1])


def _rn_sweep(n, depths, **flags):
    for prefix in two_layer_prefixes(n):
        for d in depths:
            for pad in RN_PADS[n]:
                yield _dimacs(n, d, prefix, pad=pad, **flags)


def _free(**flags):
    return (_dimacs(n, d, **flags, **off) for n in (2, 3, 4) for d in range(4) for off in SIGMA_OFF)


def _layer1(**flags):
    return (_dimacs(n, d, Network(n, (first_layer(n, "crossing"),)), pad=pad, **flags)
            for n in (5, 6) for d in (3, 4) for pad in (0, 2))


ALL_ON = {"last_layer": True, "near_sorted": True, "settled_ends": True}


# the groups without a suffix pin the formulas with the last-layer units off;
# "+last" groups pin the same families with them on and the near-sorted fold
# off; "+near" groups pin them with both on; "+settled" groups add the
# settled ends (every fold on, the defaults).  Every other group has the
# settled ends off.
GROUPS = {
    # every R_n prefix at every depth up to T(n), at each pad of RN_PADS
    "rn6": lambda: _rn_sweep(6, range(3, T[6] + 1)),
    "rn7": lambda: _rn_sweep(7, range(3, T[7] + 1)),
    "rn8-d6": lambda: _rn_sweep(8, [6]),
    # no prefix: level 0 folds to the input itself; d = 0 is the empty clause
    "free": _free,
    # one fixed layer, with and without windows
    "layer1": _layer1,
    # prefix depth = d: only the consistency fragment (empty clauses) is left
    "prefix-at-d": lambda: (_dimacs(n, 2, prefix)
                            for n in (4, 5, 6) for prefix in two_layer_prefixes(n)),
    "rn6+last": lambda: _rn_sweep(6, range(3, T[6] + 1), last_layer=True),
    "rn7+last": lambda: _rn_sweep(7, range(3, T[7] + 1), last_layer=True),
    "free+last": lambda: _free(last_layer=True),
    "layer1+last": lambda: _layer1(last_layer=True),
    "rn6+near": lambda: _rn_sweep(6, range(3, T[6] + 1), last_layer=True, near_sorted=True),
    "rn7+near": lambda: _rn_sweep(7, range(3, T[7] + 1), last_layer=True, near_sorted=True),
    "free+near": lambda: _free(last_layer=True, near_sorted=True),
    "layer1+near": lambda: _layer1(last_layer=True, near_sorted=True),
    "rn6+settled": lambda: _rn_sweep(6, range(3, T[6] + 1), **ALL_ON),
    "rn7+settled": lambda: _rn_sweep(7, range(3, T[7] + 1), **ALL_ON),
    "free+settled": lambda: _free(**ALL_ON),
    "layer1+settled": lambda: _layer1(**ALL_ON),
    # the formulas of the benchmark's campaigns: compute-t9 and lower-bound-10.
    # rn9 was re-pinned when prefix 13 of R_9 became the saturated
    # 021_h;121221_s in place of 021_h;211212_s; its other 21 formulas held
    "rn9-d6+settled": lambda: _rn_sweep(9, [6], **ALL_ON),
    "rn10-d6+settled": lambda: _rn_sweep(10, [6], **ALL_ON),
    # the frontier refutation T(11) > 7: the pad-3 formula of every R_11
    # prefix, then the one pad-0 formula the campaign falls back to.  The
    # pad-3 formula of prefix 31 is the only satisfiable one (a padded SAT
    # proves nothing), so prefix 31 alone is solved again at pad 0
    "rn11-d7+settled": lambda: itertools.chain(
        (_dimacs(11, 7, prefix, pad=3, **ALL_ON) for prefix in two_layer_prefixes(11)),
        [_dimacs(11, 7, two_layer_prefixes(11)[31], **ALL_ON)]),
}

EXPECTED = {
    "rn6": "26735e40b6b018aed81b8c229dc6d901c3a2117e5cb15150873fa70046435301",
    "rn7": "b0e1da97bc7bd2a338c79888ad720ed1964291a1dad83a5f060999b726180c1b",
    "rn8-d6": "195180f4d7e238c5cceacc19e0e5097af6665d390c287911393dc3543af76681",
    "free": "bd584f034957f46435c044f7a689b8d2223afbc6f762b9cfca26ec31bc78ef90",
    "layer1": "fc748ccd7d5a1601f211257e4b28ee58579d8c81a97cac4c53a4a86cfe002371",
    "prefix-at-d": "0bc78d6758befbb44379f7a93b21473dbc13fe70a4b5a8dfde3460f71181fe0c",
    "rn6+last": "25b9086f85adde8059024ced106733098f28899cc878c11c5b3aac930584c571",
    "rn7+last": "38d76fc5d26d061e512faec2ceba593e316411f3197e4a0dbdd11c46e791756b",
    "free+last": "e325440f9d9eedc3bc4caa6f8c85051a9c385bd5a4cecdb48dd035954e7aedc0",
    "layer1+last": "3435aba699ca9c1af7f2a7dc9976e47b1851aeaa6833683c0b371b655370c1cc",
    "rn6+near": "2ed55365f39578f10b093dc4d699e61adef86fc0cf0a0338637cccc0f7051031",
    "rn7+near": "9bb4b87462f4a454ee8a6fad5e74f5134de9451132f4330ec2d67535f9c34ccd",
    "free+near": "046a3dcf9ca3cce418a0b8248707513c400f94b4ec8b91ed7fef2c31bf8b8394",
    "layer1+near": "952bfe29aa15607d976e285e2b244309f2ccb14c14679ebf3773911df9104f53",
    "rn6+settled": "eb3f21e02c213510e231721eef7f3b0e957a6c8cdd902662dd8479ba23ff2f9e",
    "rn7+settled": "2bc22a4976b81f09204b0ee43781b3819e3e46d3a0040b5705e148920ef8fa48",
    "free+settled": "0ad21fd43fb5c34fb84bcc22fc44efa5f243582feedef5fc0d9367ef9750d40f",
    "layer1+settled": "0ce84fe8f48a51d57dc06b8e161211955f280ee8c3d673723e0f3e79d8f832eb",
    "rn9-d6+settled": "2a26ca9acffd17917e0ddbc9f96c4c07c097872ba162b8fde83ab5f4611828cb",
    "rn10-d6+settled": "5b1dd89bef411a4a0732ad48c56aa13a7e86ebaca1557bf876f6ba02bae0e517",
    "rn11-d7+settled": "3c2e24206e018fd10dd848870e75a03d83c27398280051da4fdb70e0973cf2ae",
}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_golden_dimacs(group):
    assert _digest(GROUPS[group]()) == EXPECTED[group]


CLI_ARGVS = (["--n", "6", "--depth", "4", "--prefix-index", "1", "--pad", "2"],
             ["--n", "5", "--depth", "3", "--no-sigma2"],
             ["--n", "4", "--depth", "2", "--prefix-index", "0"])


def _cli_texts(capsys, *extra):
    # the CLI output carries its comment line before the header
    texts = []
    for argv in CLI_ARGVS:
        assert cli.main(["encode", *argv, *extra, "--out", "-"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith("c sortnetopt n=6 d=4 inputs=")
    return texts


def test_golden_cli_encode(capsys):
    texts = _cli_texts(capsys, "--no-last-layer", "--no-settled-ends")
    assert _digest(texts) == "ce1a06c84e3e82688cfe999a085173ff5db6a7e2c501980bea3516006a05c0f8"


def test_golden_cli_encode_last_layer(capsys):
    assert _digest(_cli_texts(capsys, "--no-near-sorted", "--no-settled-ends")) == "d0ca9b5ae0734ea4a06d25bf20968cb2def2742f40d9989d94f4a75a11f4d32b"


def test_golden_cli_encode_near_sorted(capsys):
    texts = _cli_texts(capsys, "--no-settled-ends")
    assert _digest(texts) == "33f34f9a1d37ab24392b248b1de85f1b9d07761f3c047eb6261514f2b4ed51dd"


def test_golden_cli_encode_settled_ends(capsys):
    assert _digest(_cli_texts(capsys)) == "d8136ea159dd5073beb4e90e3a0b62d917bdd835d3ded756ac02f983cccb6abd"

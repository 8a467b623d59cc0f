"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2's |S_n| column asserts the published table values; those are
not reproducible from the saturation definition itself (see the decisions
ledger for the analysis), so that single test is expected to stay red.
"""

import random
import time

import pytest

from oracles import (brute_force_sorter_exists, is_saturated_semantic, reverse_complement,
                     verify_conjecture)
from sortnetopt import saturation as sat
from sortnetopt import words as words_mod
from sortnetopt.campaign import campaign_from_json, campaign_to_json, compute_T
from sortnetopt.encoding import EncodeOptions, build
from sortnetopt.networks import (
    Network,
    first_layer,
    is_sorting_network,
    outputs,
    reflect,
    unsorted_inputs,
)
from sortnetopt.solver import run_solver
from sortnetopt.words import matchings, sentences, telephone

G_TABLE = {3: 4, 4: 10, 5: 26, 6: 76, 7: 232, 8: 764, 9: 2620, 10: 9496,
           11: 35696, 12: 140152, 13: 568504, 14: 2390480, 15: 10349536,
           16: 46206736, 17: 211799312, 18: 997313824, 19: 4809701440}
RG_TABLE = {3: 4, 4: 8, 5: 16, 6: 20, 7: 52, 8: 61, 9: 165, 10: 152,
            11: 482, 12: 414, 13: 1378, 14: 1024}
S_TABLE = {3: 2, 4: 4, 5: 10, 6: 28, 7: 70, 8: 230, 9: 676, 10: 2456,
           11: 7916, 12: 31374, 13: 109856}
RS_TABLE = {3: 2, 4: 2, 5: 6, 6: 6, 7: 14, 8: 15, 9: 37, 10: 27, 11: 88,
            12: 70, 13: 212, 14: 136, 15: 494, 16: 323}
R_TABLE = {3: 1, 4: 2, 5: 4, 6: 5, 7: 8, 8: 12, 9: 22, 10: 21, 11: 48,
           12: 50, 13: 117, 14: 94, 15: 262, 16: 211}
A_TABLE = {12: 1, 14: 1, 16: 4, 18: 7, 20: 18, 22: 31, 24: 70}
T_TABLE = {1: 0, 2: 1, 3: 3, 4: 3, 5: 5, 6: 5, 7: 6, 8: 6, 9: 7, 10: 7, 11: 8}


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_table2_counts():
    t0 = time.monotonic()
    bad = [n for n in range(3, 20) if telephone(n) != G_TABLE[n]]
    bad += [n for n in range(3, 15)
            if sum(1 for _ in sentences(n, "rgn")) != RG_TABLE[n]]
    elapsed = time.monotonic() - t0
    report("1 (Table 2: G to n=19, RG to n=14)",
           not bad and elapsed < 600, f"mismatches={bad}, {elapsed:.1f}s")


def test_c02a_table4_s_column():
    t0 = time.monotonic()
    got = {n: sat.saturated_layer_count(n) for n in range(3, 14)}
    elapsed = time.monotonic() - t0
    bad = {n: (got[n], S_TABLE[n]) for n in got if got[n] != S_TABLE[n]}
    report("2a (Table 4: S to n=13)", not bad and elapsed < 1800,
           f"computed-vs-published: {bad}, {elapsed:.1f}s"
           " [expected red: published S row is not the saturated-layer count;"
           " see decisions ledger]")


def test_c02b_table4_rs_r_columns():
    t0 = time.monotonic()
    bad = [n for n in range(3, 17)
           if sum(1 for _ in sentences(n, "rsn")) != RS_TABLE[n]
           or sum(1 for _ in sentences(n, "rn")) != R_TABLE[n]]
    elapsed = time.monotonic() - t0
    report("2b (Table 4: RS and R to n=16)",
           not bad and elapsed < 1800, f"mismatches={bad}, {elapsed:.1f}s")


def test_c03_odd_recurrence():
    rg = {n: sum(1 for _ in sentences(n, "rgn")) for n in range(3, 14)}
    bad = [n for n in (5, 7, 9, 11, 13) if rg[n] != rg[n - 1] + 2 * rg[n - 2]]
    report("3 (odd recurrence for RG)", not bad, f"failures={bad}")


def test_c04_redundant_class_count():
    bad = []
    for n in range(5, 15):
        redundant = sum(1 for s in sentences(n, "rgn")
                        if any(w.tag == "c" and w.symbols == "12" for w in s))
        if redundant != RG_TABLE[n - 2]:
            bad.append(n)
    report("4 (redundant classes = RG of n-2)", not bad, f"failures={bad}")


def test_c05_asymmetric_cycles():
    t0 = time.monotonic()
    got = {n: words_mod.asymmetric_cycle_count(n) for n in range(12, 25, 2)}
    elapsed = time.monotonic() - t0
    report("5 (Table 3: A to n=24)",
           got == A_TABLE and elapsed < 300, f"{got}, {elapsed:.1f}s")


def test_c06_saturation_equivalence():
    disagreements = 0
    for n in range(2, 7):
        fl = first_layer(n)
        for l2 in matchings(n):
            net = Network(n, (fl, l2))
            if sat.is_saturated(net) != is_saturated_semantic(net):
                disagreements += 1
    report("6 (syntactic == semantic saturation, all of G_n for n <= 6)",
           disagreements == 0, f"disagreements={disagreements}")


def test_c07_conjecture_instances():
    bad = [n for n in (3, 4, 5, 6) if not verify_conjecture(n)]
    report("7 (conjecture instances n <= 6)", not bad, f"failures={bad}")


def test_c08_encoder_oracle_equivalence(solver_config):
    bad = []
    for n in (2, 3, 4):
        xs = unsorted_inputs(n)
        for d in (0, 1, 2, 3):
            want = "SAT" if brute_force_sorter_exists(n, d, xs) else "UNSAT"
            variants = [EncodeOptions()]
            for flag in ("sigma1", "sigma2", "sigma3", "last_layer", "near_sorted",
                         "settled_ends"):
                variants.append(EncodeOptions(**{flag: False}))
            for opts in variants:
                _, cnf = build(n, d, xs, opts)
                got = run_solver(cnf, solver_config, name=f"acc8-{n}-{d}").verdict
                if got != want:
                    bad.append((n, d, opts, got, want))
    report("8 (encoder matches brute-force oracle, with sigma, last-layer, near-sorted and "
           "settled-ends toggles)",
           not bad, f"failures={bad}")


@pytest.fixture(scope="module")
def t_results(solver_config):
    results = {}
    for n in range(1, 10):
        t0 = time.monotonic()
        value, campaigns = compute_T(n, solver_config)
        results[n] = (value, campaigns, time.monotonic() - t0)
    return results


def test_c09_compute_t_to_9(t_results):
    bad = []
    for n, (value, _, elapsed) in t_results.items():
        if value != T_TABLE[n] or elapsed > 1800:
            bad.append((n, value, f"{elapsed:.0f}s"))
    detail = {n: (v, f"{dt:.1f}s") for n, (v, _, dt) in t_results.items()}
    report("9 (T(n) for n <= 9)", not bad, f"{detail}")


def test_c09_monotonicity(t_results):
    values = [t_results[n][0] for n in range(1, 10)]
    report("9m (T monotone)", all(a <= b for a, b in zip(values, values[1:])),
           f"{values}")


def evidence_faults(n, t, campaigns):
    """What is wrong with compute_T's evidence for T(n) = t: one refutation
    at t - 1 covering all of R_n, then a witness campaign at t."""
    faults = []
    if [c.claim for c in campaigns] != [f"T({n}) > {t - 1}", f"T({n}) <= {t}"]:
        return [f"claims {[c.claim for c in campaigns]}"]
    refutation, found = campaigns
    refuted = {r.prefix_index for r in refutation.instances
               if r.verdict == "UNSAT" and r.depth == t - 1}
    every = {None} if t - 1 < 2 else set(range(len(list(sentences(n, "rn")))))
    if refuted != every:
        faults.append(f"depth {t - 1} refutes {sorted(refuted, key=str)}")
    witnesses = [r.witness for r in found.instances if r.verdict == "SAT" and r.pad == 0]
    if not witnesses or not all(w.depth <= t and is_sorting_network(w) for w in witnesses):
        faults.append("no verified pad-0 witness")
    for camp in campaigns:
        if campaign_from_json(campaign_to_json(camp)).claim != camp.claim:
            faults.append(f"{camp.claim} does not reload")
    keys = [(r.depth, r.prefix_index, r.pad) for c in campaigns for r in c.instances]
    if len(keys) != len(set(keys)):
        faults.append("an instance is solved twice")
    return faults


def test_c09_evidence_is_one_refutation_and_a_witness(t_results):
    bad = {n: evidence_faults(n, value, campaigns)
           for n, (value, campaigns, _) in t_results.items() if n >= 2}
    bad = {n: faults for n, faults in bad.items() if faults}
    sizes = {n: [len(c.instances) for c in t_results[n][1]] for n in t_results if n >= 2}
    report("9e (evidence: refutation at T(n) - 1, witness at T(n))", not bad,
           f"faults={bad} instances={sizes}")


def test_c09_compute_t_10(solver_config):
    t0 = time.monotonic()
    value, campaigns = compute_T(10, solver_config, jobs=2)
    elapsed = time.monotonic() - t0
    faults = evidence_faults(10, value, campaigns) if value == T_TABLE[10] else [f"T(10)={value}"]
    report("9t (T(10) = 7 with its evidence)", not faults and elapsed < 600,
           f"faults={faults} instances={[len(c.instances) for c in campaigns]} {elapsed:.1f}s")


def test_c09_compute_t_11(solver_config):
    # the frontier value: every one of the 48 prefixes of R_11 refuted at
    # depth 7, and a re-verified witness at depth 8
    t0 = time.monotonic()
    value, campaigns = compute_T(11, solver_config, jobs=2)
    elapsed = time.monotonic() - t0
    faults = evidence_faults(11, value, campaigns) if value == T_TABLE[11] else [f"T(11)={value}"]
    report("9u (T(11) = 8 with its evidence)", not faults and elapsed < 600,
           f"faults={faults} instances={[len(c.instances) for c in campaigns]} {elapsed:.1f}s")


def test_c10_witness_validity(t_results):
    checked = failures = 0
    for n, (_, campaigns, _) in t_results.items():
        if n > 8:
            continue
        for camp in campaigns:
            for inst in camp.instances:
                if inst.verdict == "SAT" and inst.pad == 0:
                    checked += 1
                    if not is_sorting_network(inst.witness):
                        failures += 1
    report("10 (all SAT witnesses re-verify)", checked > 0 and failures == 0,
           f"checked={checked} failures={failures}")


def test_c11_reflection_lemma_property():
    rng = random.Random(20260809)
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        layers = []
        for _ in range(rng.randint(0, 4)):
            chans = list(range(1, n + 1))
            rng.shuffle(chans)
            layer = []
            while len(chans) >= 2 and rng.random() < 0.75:
                a, b = chans.pop(), chans.pop()
                layer.append((min(a, b), max(a, b)))
            layers.append(layer)
        net = Network(n, tuple(tuple(sorted(l)) for l in layers))
        mirrored = reflect(net)
        image = outputs(net)
        expected = frozenset(reverse_complement(v, n) for v in image)
        if outputs(mirrored) != expected:
            failures += 1
    report("11 (reflection lemma, 1000 random networks)", failures == 0,
           f"failures={failures}")


def test_c12_figure_regressions():
    from oracles import evaluate
    from sortnetopt.networks import network
    from sortnetopt.words import parse_word, reflect_word, render_sentence, sentence_of, word_of

    fig1 = network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)])
    ok = evaluate(fig1, (5, 2, 0, 7)) == (0, 2, 5, 7)
    ok &= evaluate(fig1, (0, 1, 0, 1)) == (0, 0, 1, 1)
    ok &= str(word_of(network(5, [(1, 2), (3, 4)], [(1, 5), (2, 4)]))) == "01221_h"
    ok &= str(word_of(network(8, first_layer(8), [(1, 4), (3, 8), (5, 7)]))) == "21121212_s"
    ok &= str(word_of(network(6, first_layer(6), [(1, 3), (2, 5), (4, 6)]))) == "121221_c"
    fig4d = network(10, [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)],
                    [(1, 4), (2, 5), (6, 9), (7, 10)])
    ok &= render_sentence(sentence_of(fig4d)) == "12_s;1221_c;1221_c"
    a = network(6, first_layer(6), [(2, 3), (4, 6)])
    b = network(6, first_layer(6), [(1, 3), (4, 5)])
    ok &= reflect(a) == b
    ok &= reflect_word(parse_word("211212_s")) == parse_word("121221_s")
    report("12 (figure-level regressions)", bool(ok))

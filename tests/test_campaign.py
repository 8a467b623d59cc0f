import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from sortnetopt import campaign, cli, saturation
from sortnetopt.campaign import (
    CampaignResult,
    InstanceResult,
    campaign_from_json,
    campaign_to_json,
    compute_T,
    default_pads,
    find_network,
    find_network_campaign,
    prove_lower_bound,
    reproduce_tables,
    two_layer_prefixes,
)
from sortnetopt.encoding import EncodeOptions, build
from sortnetopt.networks import (Network, first_layer, is_sorting_network, network, outputs,
                                 reflect, unsorted_inputs)
from sortnetopt.saturation import permute_vectors
from sortnetopt.solver import KNOWN_SOLVERS, SolveResult, SolverConfig, StopEvent, run_solver
from sortnetopt.words import matchings


def test_run_solver_trivial(solver_config):
    res = run_solver("p cnf 1 1\n1 0\n", solver_config, name="sat1")
    assert res.verdict == "SAT" and res.true_vars == {1}
    res = run_solver("p cnf 1 2\n1 0\n-1 0\n", solver_config, name="unsat1")
    assert res.verdict == "UNSAT"


def test_run_solver_spawn_failure(tmp_path, monkeypatch):
    # nothing ran, so nothing is kept: neither the CNF nor the temp dir made for it
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = SolverConfig(executable="/nonexistent/solver", timeout=5)
    with pytest.raises(RuntimeError):
        run_solver("p cnf 1 1\n1 0\n", cfg)
    assert list(tmp_path.iterdir()) == []
    # a given workdir stays, without the CNF
    workdir = tmp_path / "work"
    cfg = dataclasses.replace(cfg, workdir=str(workdir))
    with pytest.raises(RuntimeError):
        run_solver("p cnf 1 1\n1 0\n", cfg)
    assert list(tmp_path.iterdir()) == [workdir] and list(workdir.iterdir()) == []


def test_run_solver_timeout(tmp_path):
    slow = tmp_path / "slow.sh"
    slow.write_text("#!/bin/sh\nsleep 30\n")
    slow.chmod(0o755)
    cfg = SolverConfig(executable=str(slow), timeout=0.5)
    assert run_solver("p cnf 1 1\n1 0\n", cfg).verdict == "TIMEOUT"


def _sleeper(tmp_path) -> Path:
    # the shell records its pid, then becomes the sleeping solver itself
    slow = tmp_path / "slow.sh"
    slow.write_text('#!/bin/sh\necho $$ > "$1.pid"\nexec sleep 30\n')
    slow.chmod(0o755)
    return slow


def _solver_pids(workdir: Path, count: int) -> list[int]:
    """The pids of the fake solvers in workdir, once count of them run."""
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        pids = [p.read_text().strip() for p in workdir.glob("*.pid")]
        if len(pids) >= count and all(pids):
            return [int(pid) for pid in pids]
        time.sleep(0.05)
    raise AssertionError(f"fewer than {count} solvers started")


def _alive(pid: int) -> bool:
    # a zombie is dead, only not yet reaped
    stat = subprocess.run(["ps", "-o", "stat=", "-p", str(pid)],
                          capture_output=True, text=True).stdout.strip()
    return bool(stat) and not stat.startswith("Z")


def test_run_solver_cancelled(tmp_path):
    workdir = tmp_path / "cnf"
    cfg = SolverConfig(executable=str(_sleeper(tmp_path)), timeout=600, workdir=str(workdir))
    stop = StopEvent()
    # more runs than cores, so registering and killing interleave
    with ThreadPoolExecutor(4) as pool:
        runs = [pool.submit(run_solver, "p cnf 1 1\n1 0\n", cfg, f"run{k}", stop)
                for k in range(4)]
        pids = _solver_pids(workdir, 4)
        t0 = time.monotonic()
        stop.set()
        assert [f.result(timeout=5).verdict for f in runs] == ["CANCELLED"] * 4
    assert time.monotonic() - t0 < 3
    assert list(workdir.glob("*.cnf")) == []
    assert not any(_alive(pid) for pid in pids)
    # a run started after the stop is killed at once
    t0 = time.monotonic()
    assert run_solver("p cnf 1 1\n1 0\n", cfg, name="late", stop=stop).verdict == "CANCELLED"
    assert time.monotonic() - t0 < 3 and list(workdir.glob("*.cnf")) == []


def test_killed_campaign_leaves_no_solver(tmp_path):
    # solvers share their campaign's process group, so killing it stops them
    workdir = tmp_path / "cnf"
    cfg = f"SolverConfig({str(_sleeper(tmp_path))!r}, workdir={str(workdir)!r})"
    worker = subprocess.Popen(
        [sys.executable, "-c",
         "from sortnetopt.campaign import prove_lower_bound\n"
         "from sortnetopt.solver import SolverConfig\n"
         f"prove_lower_bound(5, 3, [0], {cfg}, jobs=2)\n"],
        start_new_session=True)
    try:
        pids = _solver_pids(workdir, 2)
    finally:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
    deadline = time.monotonic() + 5
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _alive(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert left == []


def test_run_solver_unparseable_is_timeout_class(tmp_path):
    junk = tmp_path / "junk.sh"
    junk.write_text("#!/bin/sh\necho weird\nexit 1\n")
    junk.chmod(0o755)
    cfg = SolverConfig(executable=str(junk), timeout=5)
    res = run_solver("p cnf 1 1\n1 0\n", cfg)
    assert res.verdict == "TIMEOUT" and "weird" in res.log


def test_two_layer_prefixes_counts():
    assert len(two_layer_prefixes(6)) == 5
    assert len(two_layer_prefixes(9)) == 22


def test_default_pads():
    # one padded try with windows of width d + 1, then the full input set
    assert default_pads(10, 6) == [3, 0]
    assert default_pads(11, 7) == [3, 0]
    assert default_pads(9, 7) == [1, 0]
    assert default_pads(9, 3) == [5, 0]
    assert default_pads(4, 3) == [0]
    for n in range(1, 13):
        for d in range(n + 1):
            pads = default_pads(n, d)
            assert pads[-1] == 0
            assert all(a > b for a, b in zip(pads, pads[1:]))


@pytest.mark.parametrize("n, t", [(5, 5), (6, 5), (7, 6), (8, 6)])
def test_default_pads_keep_claims(solver_config, n, t):
    for d in (t - 1, t):
        default = prove_lower_bound(n, d, config=solver_config, jobs=2)
        full = prove_lower_bound(n, d, [0], solver_config, jobs=2)
        assert default.claim == full.claim
        assert max(Counter(r.prefix_index for r in default.instances).values()) <= 2


def test_find_network_examples(solver_config):
    net = find_network(6, 5, "two_layer", solver_config)
    assert net is not None and is_sorting_network(net) and net.depth == 5
    assert find_network(4, 2, "free", solver_config) is None
    net = find_network(6, 5, "layer1", solver_config)
    assert net is not None and is_sorting_network(net)
    assert net.layers[0] == ((1, 6), (2, 5), (3, 4))  # crossing first layer


def test_prove_lower_bound_t6(solver_config):
    camp = prove_lower_bound(6, 4, [2, 0], solver_config)
    assert camp.claim == "T(6) > 4"
    settled = {r.prefix_index for r in camp.instances if r.verdict == "UNSAT"}
    assert settled == set(range(5))  # all five prefixes refuted


def test_prove_lower_bound_trivial(solver_config):
    camp = prove_lower_bound(2, 0, [0], solver_config)
    assert camp.claim == "T(2) > 0"


def test_prove_descends_on_padded_sat(solver_config, monkeypatch):
    # at the true depth a padded SAT cannot settle anything: pad 0 decides
    input_sets = []
    monkeypatch.setattr(campaign, "unsorted_inputs",
                        lambda n, prefix: input_sets.append(prefix) or unsorted_inputs(n, prefix))
    camp = prove_lower_bound(6, 5, [2, 0], solver_config)
    assert camp.claim == "T(6) <= 5"
    sat_pads = [r.pad for r in camp.instances if r.verdict == "SAT"]
    assert 0 in sat_pads
    by_prefix = {}
    for r in camp.instances:
        by_prefix.setdefault(r.prefix_index, []).append(r)
    for runs in by_prefix.values():
        # each prefix walks its pads once, strictly descending
        assert all(later.pad < earlier.pad for earlier, later in zip(runs, runs[1:]))
    # and computes its input set once for all of them
    assert len(camp.instances) > len(by_prefix) == len(input_sets)


@pytest.mark.parametrize("d, claim", [(5, "T(6) <= 5"), (4, "T(6) > 4")])
def test_find_is_prove_at_pad_zero(solver_config, d, claim):
    net, found = find_network_campaign(6, d, "two_layer", solver_config, jobs=1)
    proved = prove_lower_bound(6, d, [0], solver_config, jobs=1)
    assert found.claim == proved.claim == claim
    assert (net is not None) == (claim == "T(6) <= 5")
    assert [(r.prefix_index, r.pad, r.verdict) for r in found.instances] == \
           [(r.prefix_index, r.pad, r.verdict) for r in proved.instances]
    # the loader's audit accepts what the scheduler claims
    for camp in (found, proved):
        assert campaign_from_json(campaign_to_json(camp)).claim == claim


def test_one_pass_under_one_timeout(monkeypatch):
    # no solver: prefix 0 times out at every pad, every other run is UNSAT
    calls = []

    def fake_solver(cnf, config, name="instance", stop=None):
        calls.append((name, config.timeout))
        return SolveResult("TIMEOUT" if name.startswith("n6d4p0w") else "UNSAT")

    monkeypatch.setattr(campaign, "run_solver", fake_solver)
    camp = prove_lower_bound(6, 4, [2, 0], SolverConfig("/bin/false", timeout=600), jobs=1)
    assert all(timeout == 600 for _, timeout in calls)
    names = [name for name, _ in calls]
    assert len(names) == len(set(names)) == 6
    # jobs=1 runs the fewest-outputs order: R_6 keys 14, 11, 14, 11, 11
    assert [(r.prefix_index, r.pad, r.verdict) for r in camp.instances] == \
           [(1, 2, "UNSAT"), (3, 2, "UNSAT"), (4, 2, "UNSAT"),
            (0, 2, "TIMEOUT"), (0, 0, "TIMEOUT"), (2, 2, "UNSAT")]
    assert camp.claim == "inconclusive"
    assert campaign_from_json(campaign_to_json(camp)).claim == "inconclusive"


def test_model_that_does_not_sort_is_fatal(monkeypatch):
    # every SAT model is re-checked on the inputs its formula kept: the
    # all-false model decodes to an empty network, which sorts none of them
    def fake_solver(cnf, config, name="instance", stop=None):
        return SolveResult("SAT", frozenset())

    monkeypatch.setattr(campaign, "run_solver", fake_solver)
    with pytest.raises(RuntimeError, match="fails verification"):
        find_network_campaign(5, 4, "free", SolverConfig("/bin/false"))


def test_task_order_fewest_outputs(monkeypatch):
    # the key, the unsorted outputs of the prefix, is the input count of a
    # pad-0 build; the order never decreases in it and breaks ties by R_n index
    ran = []

    def fake_solver(cnf, config, name="instance", stop=None):
        ran.append(int(name.split("p")[1].split("w")[0]))
        return SolveResult("UNSAT")

    monkeypatch.setattr(campaign, "run_solver", fake_solver)
    for n in range(3, 11):
        prefixes = two_layer_prefixes(n)
        keys = [len(outputs(p)) - (n + 1) for p in prefixes]
        for p, key in zip(prefixes, keys):
            vm, _ = build(n, 4, unsorted_inputs(n, p), EncodeOptions(prefix=p))
            assert key == len(vm.inputs)
        ran.clear()
        camp = prove_lower_bound(n, 4, [0], SolverConfig("/bin/false"), jobs=1)
        assert camp.claim == f"T({n}) > 4" and camp.ordering == "fewest-outputs"
        assert ran == sorted(range(len(prefixes)), key=lambda i: (keys[i], i))


@pytest.mark.parametrize("n, t", [(5, 5), (6, 5), (7, 6), (8, 6)])
def test_find_settles_on_first_task(solver_config, n, t):
    # the prefix with the fewest unsorted outputs is SAT at depth T(n)
    net, camp = find_network_campaign(n, t, config=solver_config, jobs=1)
    assert camp.claim == f"T({n}) <= {t}" and is_sorting_network(net)
    assert [(r.pad, r.verdict) for r in camp.instances] == [(0, "SAT")]


def test_prove_rechecks_the_witness(solver_config, monkeypatch):
    monkeypatch.setattr(campaign, "is_sorting_network", lambda net: False)
    with pytest.raises(RuntimeError, match="not a sorting network"):
        prove_lower_bound(6, 5, [0], solver_config)


def test_compute_t_small(solver_config):
    assert compute_T(2, solver_config)[0] == 1
    value, campaigns = compute_T(7, solver_config)
    assert value == 6
    assert any(c.claim == "T(7) > 5" for c in campaigns)
    final = campaigns[-1]
    witness = next(r.witness for r in final.instances if r.verdict == "SAT" and r.pad == 0)
    assert is_sorting_network(witness)


@pytest.mark.parametrize("jobs", [1, 2])
def test_compute_t_moves_the_refutation_down(solver_config, monkeypatch, jobs):
    # a solver that wrongly refutes the probe's tasks at depth T(7) = 6 sends
    # the climb on to 7; the full campaign at 6 then finds a network among
    # the other prefixes and becomes the witness campaign
    probe = {idx for idx, _ in campaign._prefix_tasks(7, 6)[:jobs]}
    faked = []

    def solver(cnf, config, name="instance", stop=None):
        depth, idx = name.split("d")[1].split("p")[0], name.split("p")[1].split("w")[0]
        if depth == "6" and int(idx) in probe:
            faked.append(name)
            return SolveResult("UNSAT")
        return run_solver(cnf, config, name, stop)

    monkeypatch.setattr(campaign, "run_solver", solver)
    value, campaigns = compute_T(7, solver_config, jobs=jobs)
    assert value == 6 and faked
    assert [c.claim for c in campaigns] == ["T(7) > 5", "T(7) <= 6"]
    assert {r.depth for r in campaigns[0].instances} == {5}
    assert {r.depth for r in campaigns[1].instances} == {6}
    witness = next(r for r in campaigns[1].instances if r.verdict == "SAT" and r.pad == 0)
    assert witness.prefix_index not in probe and is_sorting_network(witness.witness)
    keys = [(r.depth, r.prefix_index, r.pad) for c in campaigns for r in c.instances]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("jobs", [1, 2])
def test_compute_t_timeout_raises_after_one_probe(monkeypatch, jobs):
    # a probe left open by a timeout settles nothing: no claim, no climb
    calls = []

    def fake_solver(cnf, config, name="instance", stop=None):
        calls.append(name)
        return SolveResult("TIMEOUT")

    monkeypatch.setattr(campaign, "run_solver", fake_solver)
    with pytest.raises(RuntimeError, match="inconclusive probe at depth 3"):
        compute_T(6, SolverConfig("/bin/false"), jobs=jobs)
    # ceil(log2 6) = 3: each probed task walks default_pads(6, 3) = [2, 0]
    assert len(calls) == len(set(calls)) == 2 * jobs
    assert all(name.startswith("n6d3p") for name in calls)


def test_filter_set_and_order_once_per_n(monkeypatch):
    # R_n and its fewest-outputs order do not depend on the depth: every
    # campaign on n channels reuses them, and callers still get a new list
    keyed = []
    monkeypatch.setattr(campaign, "outputs",
                        lambda net: keyed.append(net) or outputs(net))
    monkeypatch.setattr(campaign, "run_solver",
                        lambda cnf, config, name="instance", stop=None: SolveResult("UNSAT"))
    campaign._filter_set.cache_clear()
    campaign._fewest_outputs.cache_clear()
    for d in (3, 4, 5):
        prove_lower_bound(7, d, [0], SolverConfig("/bin/false"), jobs=2)
    assert len(keyed) == len(two_layer_prefixes(7)) == 8
    first = two_layer_prefixes(7)
    assert first == two_layer_prefixes(7) and first is not two_layer_prefixes(7)
    first.clear()
    assert len(two_layer_prefixes(7)) == 8


def test_filter_set_shares_the_first_layer():
    # every prefix of R_n has the first layer F_n, and the fewest-outputs
    # order is that of the prefixes' full outputs, ties in R_n order
    for n in range(2, 12):
        prefixes = two_layer_prefixes(n)
        assert {p.layers[0] for p in prefixes} == {first_layer(n)}
        keys = [len(outputs(p)) for p in prefixes]
        want = sorted(range(len(prefixes)), key=lambda i: (keys[i], i))
        assert [idx for idx, _ in campaign._fewest_outputs(n)] == want


def uncovered_layers(n):
    """The second layers over F_n that no member of R_n, nor its reflection,
    subsumes, each found witness pi checked with permute_vectors.  Every
    output set is computed once and searched as saturation.subsumes searches
    it after its argument checks."""
    candidates = [outputs(c) for p in two_layer_prefixes(n) for c in (p, reflect(p))]
    missing = []
    for l2 in matchings(n):
        net_outs = outputs(Network(n, (first_layer(n), l2)))
        for outs in candidates:
            pi = saturation._embed_search(outs, net_outs, n)
            if pi is not None:
                assert outs <= permute_vectors(pi, net_outs)
                break
        else:
            missing.append(l2)
    return missing


@pytest.mark.parametrize("n", range(2, 9))
def test_filter_set_covers_every_second_layer(n):
    # the lemma a refutation of R_n rests on: every two-layer prefix over F_n
    # is subsumed by a member of R_n or by its reflection
    assert uncovered_layers(n) == []


def test_campaign_determinism(solver_config):
    runs = [prove_lower_bound(5, 4, [2, 0], solver_config) for _ in range(2)]
    a, b = runs
    assert [(r.prefix_index, r.pad, r.verdict) for r in a.instances] == \
           [(r.prefix_index, r.pad, r.verdict) for r in b.instances]
    assert [r.witness for r in a.instances] == [r.witness for r in b.instances]


def test_campaign_json_roundtrip(solver_config):
    camp = prove_lower_bound(4, 2, [0], solver_config)
    doc = campaign_to_json(camp)
    back = campaign_from_json(doc)
    assert back.n == camp.n and back.claim == camp.claim
    assert [(r.prefix_index, r.depth, r.pad, r.verdict, r.witness)
            for r in back.instances] == \
           [(r.prefix_index, r.depth, r.pad, r.verdict, r.witness)
            for r in camp.instances]
    assert camp.ordering == back.ordering == "fewest-outputs"
    # a report written before the ordering was recorded ran in R_n order
    old = json.loads(doc)
    del old["ordering"]
    assert campaign_from_json(json.dumps(old)).ordering == "canonical"


def test_campaign_json_keeps_formula_sizes(solver_config):
    camp = prove_lower_bound(5, 4, [2, 0], solver_config)
    prefixes = two_layer_prefixes(5)
    for r in camp.instances:
        xs = unsorted_inputs(5, prefixes[r.prefix_index])
        vm, cnf = build(5, 4, xs, EncodeOptions(pad=r.pad, prefix=prefixes[r.prefix_index]))
        assert (r.inputs_kept, r.vars, r.clauses) == (len(vm.inputs), cnf.num_vars,
                                                      len(cnf.clauses))
        assert r.inputs_kept > 0
    sizes = [(r.inputs_kept, r.vars, r.clauses) for r in camp.instances]
    doc = json.loads(campaign_to_json(camp))
    assert [(r.inputs_kept, r.vars, r.clauses) for r in
            campaign_from_json(json.dumps(doc)).instances] == sizes
    # a report written before the sizes were recorded still loads, with zeros
    for item in doc["instances"]:
        for key in ("inputs_kept", "vars", "clauses"):
            del item[key]
    old = campaign_from_json(json.dumps(doc))
    assert old.claim == camp.claim
    assert {(r.inputs_kept, r.vars, r.clauses) for r in old.instances} == {(0, 0, 0)}


def test_campaign_json_empty_and_errors():
    empty = CampaignResult(5, "inconclusive", [])
    assert campaign_from_json(campaign_to_json(empty)).instances == []
    with pytest.raises(ValueError, match=r"\$"):
        campaign_from_json('{"n": 5, "claim": "x"}')
    bad = json.dumps({"n": 2, "claim": "x", "instances": [
        {"depth": 1, "pad": 0, "verdict": "MAYBE"}]})
    with pytest.raises(ValueError, match=r"instances\[0\]"):
        campaign_from_json(bad)


UNSAT = {"prefix_index": None, "depth": 1, "pad": 0, "verdict": "UNSAT"}
SORTER4 = json.loads(network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)]).to_json())


@pytest.mark.parametrize("doc, where", [
    (5, r"\$$"),
    ([], r"\$$"),
    ({"n": 4, "claim": "inconclusive", "instances": 3}, r"\$\.instances$"),
    ({"n": 4, "claim": "inconclusive", "instances": [1]}, r"\$\.instances\[0\]$"),
    ({"n": "4", "claim": "inconclusive", "instances": []}, r"\$\.n$"),
    ({"n": 0, "claim": "T(0) > 3", "instances": []}, r"\$\.n$"),
    # past the enumeration cap: rejected before R_40 would be walked for the claim
    ({"n": 40, "claim": "T(40) > 3", "instances": []}, r"\$\.n$"),
    ({"n": 4, "claim": 5, "instances": []}, r"\$\.claim$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "depth": 1.5}]},
     r"\$\.instances\[0\]\.depth$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "pad": True}]},
     r"\$\.instances\[0\]\.pad$"),
    ({"n": 4, "claim": "inconclusive", "instances": [UNSAT, {**UNSAT, "prefix_index": "0"}]},
     r"\$\.instances\[1\]\.prefix_index$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "verdict": "SAT", "witness": 5}]},
     r"\$\.instances\[0\]\.witness$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "encode_time": "x"}]},
     r"\$\.instances\[0\]\.encode_time$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "encode_time": -0.5}]},
     r"\$\.instances\[0\]\.encode_time$"),
    ({"n": 4, "claim": "inconclusive", "instances": [UNSAT, {**UNSAT, "solve_time": True}]},
     r"\$\.instances\[1\]\.solve_time$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "solve_time": None}]},
     r"\$\.instances\[0\]\.solve_time$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "inputs_kept": 1.5}]},
     r"\$\.instances\[0\]\.inputs_kept$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "vars": -3}]},
     r"\$\.instances\[0\]\.vars$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "clauses": "7"}]},
     r"\$\.instances\[0\]\.clauses$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "clauses": False}]},
     r"\$\.instances\[0\]\.clauses$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "depth": 3, "witness": SORTER4}]},
     r"\$\.instances\[0\]$"),
    ({"n": 4, "claim": "inconclusive", "instances": [UNSAT, {**UNSAT, "verdict": "SAT"}]},
     r"\$\.instances\[1\]$"),
    ({"n": 4, "claim": "inconclusive", "instances": [], "wall_time": None}, r"\$\.wall_time$"),
    ({"n": 4, "claim": "inconclusive", "instances": [], "ordering": [1, 2]}, r"\$\.ordering$"),
], ids=["top-int", "top-list", "instances-int", "instance-int", "n-str", "n-0", "n-40",
        "claim-int", "depth-float", "pad-bool", "prefix-index-str", "witness-int",
        "encode-time-str", "encode-time-negative", "solve-time-bool", "solve-time-null",
        "inputs-kept-float", "vars-negative", "clauses-str", "clauses-bool",
        "witness-on-unsat", "sat-without-witness", "wall-time-null", "ordering-list"])
def test_campaign_json_malformed_is_value_error(doc, where):
    # every malformed report is a ValueError that names where it is wrong
    with pytest.raises(ValueError, match=where):
        campaign_from_json(json.dumps(doc))


def test_campaign_json_keys_are_the_instance_fields():
    # the report lists the fields of InstanceResult in their order, so the
    # format is written down once
    sorter = network(2, [(1, 2)])
    camp = CampaignResult(2, "T(2) <= 1", [InstanceResult(None, 1, 0, "SAT", witness=sorter)])
    item = json.loads(campaign_to_json(camp))["instances"][0]
    assert list(item) == [f.name for f in dataclasses.fields(InstanceResult)]
    assert item["witness"] == json.loads(sorter.to_json())
    assert campaign_from_json(campaign_to_json(camp)).instances == camp.instances


def test_campaign_json_witness_reverified():
    not_sorter = network(3, [(1, 2)])
    doc = json.dumps({"n": 3, "claim": "T(3) <= 1", "instances": [
        {"prefix_index": None, "depth": 1, "pad": 0, "verdict": "SAT",
         "witness": json.loads(not_sorter.to_json())}]})
    with pytest.raises(ValueError, match="verification"):
        campaign_from_json(doc)


def test_campaign_json_claim_audited():
    sorter = json.loads(network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)]).to_json())
    sat = {"prefix_index": 0, "depth": 3, "pad": 0, "verdict": "SAT", "witness": sorter}

    def doc(claim, *instances, n=4):
        return json.dumps({"n": n, "claim": claim, "instances": list(instances)})

    assert campaign_from_json(doc("T(4) <= 3", sat)).claim == "T(4) <= 3"
    refutations = [{"prefix_index": i, "depth": 2, "pad": 0, "verdict": "UNSAT"}
                   for i in range(len(two_layer_prefixes(4)))]
    assert campaign_from_json(doc("T(4) > 2", *refutations)).claim == "T(4) > 2"
    free = {"prefix_index": None, "depth": 2, "pad": 0, "verdict": "UNSAT"}
    assert campaign_from_json(doc("T(4) > 2", free)).claim == "T(4) > 2"
    # a lower bound next to a witness, and an upper bound with no witness at all
    with pytest.raises(ValueError, match="lacks an UNSAT at depth 2"):
        campaign_from_json(doc("T(4) > 2", sat))
    with pytest.raises(ValueError, match="lacks an UNSAT"):
        campaign_from_json(doc("T(4) > 2", *refutations[1:]))
    with pytest.raises(ValueError, match="no pad-0 witness"):
        campaign_from_json(doc("T(9) <= 3", n=9))
    with pytest.raises(ValueError, match="no pad-0 witness"):
        campaign_from_json(doc("T(4) <= 2", sat))
    with pytest.raises(ValueError, match=r"does not fit the instance at \$\.instances\[0\]"):
        campaign_from_json(doc("T(4) <= 3", {**sat, "depth": 2}))
    with pytest.raises(ValueError, match="unrecognised claim"):
        campaign_from_json(doc("T(5) <= 3", sat))
    # a lower bound that its own pad-0 witness contradicts, and a claim that
    # _evidence would not write
    at3 = [{**r, "depth": 3} for r in refutations]
    with pytest.raises(ValueError, match="contradicted by a pad-0 witness of depth 3"):
        campaign_from_json(doc("T(4) > 3", *at3, sat))
    with pytest.raises(ValueError, match="unrecognised claim"):
        campaign_from_json(doc("T(04) > 3", *at3))


def test_instance_result_witness_invariant():
    with pytest.raises(ValueError):
        InstanceResult(None, 1, 0, "UNSAT", witness=network(2, [(1, 2)]))
    with pytest.raises(ValueError):
        InstanceResult(None, 1, 0, "SAT", witness=None)


def test_reproduce_tables():
    csv_text, diff = reproduce_tables(6)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,G,RG,S,RS,R,A"
    row4 = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row4["G"] == "10" and row4["RG"] == "8"
    # the published S column is not reproducible from the saturation
    # definition (see the decisions ledger); the diff reports it
    assert "n=4 S: computed 2, published 4" in diff


CLI = [sys.executable, "-m", "sortnetopt.cli"]


def test_cli_gen_and_tables(tmp_path):
    out = subprocess.run(CLI + ["gen", "--n", "6", "--set", "rn", "--out", "-"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "12_s;1212_c", "12_s;1221_c", "211212_s", "121212_c", "121221_c"]
    out = subprocess.run(CLI + ["tables", "--max-n", "5", "--out", "-"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.startswith("n,G,RG,S,RS,R,A")


def test_cli_gen_rejects_too_few_channels():
    # a usage error (exit 2, no traceback, no output), not a crash or a blank line
    for n, kind in (("1", "gn"), ("1", "sn"), ("0", "rn"), ("0", "rgn"), ("-1", "rsn")):
        out = subprocess.run(CLI + ["gen", "--n", n, "--set", kind, "--out", "-"],
                             capture_output=True, text=True)
        assert out.returncode == 2, (n, kind)
        assert out.stdout == "" and "Traceback" not in out.stderr
        assert f"--set {kind} needs --n >=" in out.stderr
    out = subprocess.run(CLI + ["gen", "--n", "1", "--set", "rn", "--out", "-"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout == "0_h\n"


def test_cli_gen_counts_past_the_stream_limit(capsys):
    # above GN_STREAM_LIMIT channels gn and sn print the size of the set
    from sortnetopt.words import telephone
    n = cli.GN_STREAM_LIMIT + 1
    assert n == 17
    assert cli.main(["gen", "--n", str(n), "--set", "sn"]) == 0
    assert capsys.readouterr().out == "29798032\n"
    assert cli.main(["gen", "--n", str(n), "--set", "gn"]) == 0
    assert capsys.readouterr().out == f"{telephone(17)}\n"


def test_cli_gen_counts_sn_without_a_walk(capsys, monkeypatch):
    # up to the last counted row, sn past the stream limit lists no sentence
    def walk(*args):
        raise AssertionError("gen walked rsn")

    monkeypatch.setattr(cli.words_mod, "sentences", walk)
    monkeypatch.setattr(cli.words_mod, "_sentence_walk", walk)
    assert cli.main(["gen", "--n", "24", "--set", "sn"]) == 0
    assert capsys.readouterr().out == "1675542054592\n"


def test_cli_gen_streams_its_lines(tmp_path, monkeypatch):
    # a fake walk looks at the --out file part-way through: the lines it
    # yielded earlier must be there already, not joined up for the end
    out = tmp_path / "gn.txt"
    line = Network(4, (first_layer(4), ((1, 3),))).to_json() + "\n"
    total, seen = 4000, []

    def matchings(n):
        assert n == 4
        for k in range(total):
            if k == total // 2:
                seen.append(out.read_text())
            yield ((1, 3),)

    monkeypatch.setattr(cli.words_mod, "matchings", matchings)
    assert cli.main(["gen", "--n", "4", "--set", "gn", "--out", str(out)]) == 0
    assert out.read_text() == line * total
    # at half-way, most of the first half is on disk (all but what a write
    # buffer holds), as the start of the final text
    assert len(seen[0]) >= len(line) * total // 4
    assert (line * total).startswith(seen[0])


@pytest.mark.parametrize("argv, message", [
    (["prove", "--n", "5", "--depth", "4", "--pads", "2,x"], "argument --pads: expected"),
    (["encode", "--n", "5", "--depth", "3", "--pad", "5", "--out", "-"], "--pad must satisfy"),
    (["encode", "--n", "5", "--depth", "3", "--pad", "-1", "--out", "-"], "--pad must satisfy"),
    (["prove", "--n", "0", "--depth", "2"], "--n must be at least 1"),
    (["encode", "--n", "25", "--depth", "3", "--out", "-"], "--n must be at most 24"),
    (["find", "--n", "25", "--depth", "3"], "--n must be at most 24"),
    (["prove", "--n", "25", "--depth", "3"], "--n must be at most 24"),
    (["encode", "--n", "6", "--depth", "3", "--prefix-index", "5", "--out", "-"],
     "--prefix-index must satisfy 0 <= index < |R_6| = 5"),
    (["encode", "--n", "6", "--depth", "1", "--prefix-index", "0", "--out", "-"],
     "the prefix has depth 2, more than --depth 1"),
    (["encode", "--n", "6", "--depth", "3", "--out", "-",
      "--prefix", '{"n": 5, "layers": [[[1, 2], [3, 4]]]}'], "the prefix has n = 5"),
    (["encode", "--n", "6", "--depth", "3", "--out", "-",
      "--prefix", '{"n": 6, "layers": [[[2, 1], [3, 4]]]}'], "reversed comparator"),
    (["encode", "--n", "6", "--depth", "3", "--out", "-", "--prefix", "[1, 2"], "prefix.json: "),
    (["encode", "--n", "4", "--depth", "3", "--out", "-", "--prefix", '{"n": 4, "layers": [[1]]}'],
     "lists of [i, j] integer pairs"),
    (["solve", "--cnf", "x.cnf", "--timeout", "0"], "--timeout must be positive, got 0.0"),
    (["find", "--n", "4", "--depth", "3", "--timeout", "-1"], "--timeout must be positive"),
    (["prove", "--n", "5", "--depth", "4", "--timeout", "nan"], "--timeout must be positive"),
    (["solve", "--cnf", "missing.cnf"], "--cnf missing.cnf: "),
    (["solve", "--cnf", "."], "--cnf .: "),
    (["find", "--n", "4", "--depth", "3", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["prove", "--n", "5", "--depth", "4", "--jobs", "-2"], "--jobs must be at least 1"),
    (["gen", "--n", "25", "--set", "sn", "--out", "-"], "--set sn needs --n <= 24, got 25"),
    (["find", "--n", "1", "--depth", "0", "--mode", "layer1"], "--mode layer1 needs --n >= 2"),
    (["encode", "--n", "4", "--depth", "3", "--out", "-", "--prefix-index", "0",
      "--prefix", '{"n": 4, "layers": [[[1, 2], [3, 4]]]}'],
     "argument --prefix: not allowed with argument --prefix-index"),
    (["solve", "--cnf", "/dev/null", "--solver", "/nonexistent"],
     "failed to launch solver '/nonexistent': no executable by that name"),
    (["find", "--n", "4", "--depth", "3", "--solver", "/nonexistent"],
     "failed to launch solver '/nonexistent'"),
    (["prove", "--n", "5", "--depth", "4", "--solver", "/nonexistent"],
     "failed to launch solver '/nonexistent'"),
])
def test_cli_usage_errors(argv, message, tmp_path):
    # a usage error (exit 2, one line, no traceback) before any work starts
    if "--prefix" in argv:
        # the row gives the prefix's JSON text; the CLI reads it from a file
        k = argv.index("--prefix") + 1
        path = tmp_path / "prefix.json"
        path.write_text(argv[k])
        argv = argv[:k] + [str(path)] + argv[k + 1:]
    out = subprocess.run(CLI + argv, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr
    assert message in out.stderr.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["solve", "--cnf", "x.cnf"],
    ["find", "--n", "4", "--depth", "3"],
    ["prove", "--n", "5", "--depth", "4"],
])
def test_cli_without_a_solver(argv, tmp_path, monkeypatch, capsys):
    # no solver found is a usage error (exit 2, one line), not a traceback
    monkeypatch.setattr("sortnetopt.solver.find_solver", lambda: None)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.cnf").write_text("p cnf 1 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1].endswith(": error: no SAT solver found: set SAT_SOLVER to a "
                                         "DIMACS-conformant binary (e.g. `cargo install splr`, "
                                         "or any of " + ", ".join(KNOWN_SOLVERS) + ")")


def test_cli_encode_solve_find(tmp_path, solver_config):
    cnf_path = tmp_path / "t.cnf"
    out = subprocess.run(CLI + ["encode", "--n", "4", "--depth", "2",
                                "--out", str(cnf_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0 and cnf_path.read_text().startswith("c sortnetopt")
    env = {**os.environ, "SAT_SOLVER": solver_config.executable, "PATH": "/usr/bin:/bin"}
    out = subprocess.run(CLI + ["solve", "--cnf", str(cnf_path)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 20 and "s UNSAT" in out.stdout
    out = subprocess.run(CLI + ["find", "--n", "4", "--depth", "3",
                                "--mode", "two-layer"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 10
    assert is_sorting_network(Network.from_json(out.stdout))


def test_cli_prove(tmp_path, solver_config):
    env = {**os.environ, "SAT_SOLVER": solver_config.executable, "PATH": "/usr/bin:/bin"}
    report = tmp_path / "report.json"
    out = subprocess.run(CLI + ["prove", "--n", "5", "--depth", "4",
                                "--pads", "2,0", "--out", str(report)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 20
    camp = campaign_from_json(report.read_text())
    assert camp.claim == "T(5) > 4"
    assert camp.ordering == "fewest-outputs"

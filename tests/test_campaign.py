import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from sortnetopt import campaign
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
from sortnetopt.networks import Network, is_sorting_network, network
from sortnetopt.solver import SolveResult, SolverConfig, StopEvent, run_solver


def test_run_solver_trivial(solver_config):
    res = run_solver("p cnf 1 1\n1 0\n", solver_config, name="sat1")
    assert res.verdict == "SAT" and res.true_vars == {1}
    res = run_solver("p cnf 1 2\n1 0\n-1 0\n", solver_config, name="unsat1")
    assert res.verdict == "UNSAT"


def test_run_solver_spawn_failure():
    cfg = SolverConfig(executable="/nonexistent/solver", timeout=5)
    with pytest.raises(RuntimeError):
        run_solver("p cnf 1 1\n1 0\n", cfg)


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


def test_prove_descends_on_padded_sat(solver_config):
    # at the true depth a padded SAT cannot settle anything: pad 0 decides
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
    assert [(r.prefix_index, r.pad, r.verdict) for r in camp.instances] == \
           [(0, 2, "TIMEOUT"), (0, 0, "TIMEOUT")] + [(i, 2, "UNSAT") for i in range(1, 5)]
    assert camp.claim == "inconclusive"
    assert campaign_from_json(campaign_to_json(camp)).claim == "inconclusive"


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


def test_campaign_json_empty_and_errors():
    empty = CampaignResult(5, "inconclusive", [])
    assert campaign_from_json(campaign_to_json(empty)).instances == []
    with pytest.raises(ValueError, match=r"\$"):
        campaign_from_json('{"n": 5, "claim": "x"}')
    bad = json.dumps({"n": 2, "claim": "x", "instances": [
        {"depth": 1, "pad": 0, "verdict": "MAYBE"}]})
    with pytest.raises(ValueError, match=r"instances\[0\]"):
        campaign_from_json(bad)


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
    assert camp.ordering == "canonical"

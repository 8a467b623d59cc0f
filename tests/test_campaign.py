import contextlib
import dataclasses
import errno
import hashlib
import json
import os
import selectors
import shlex
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from oracles import uncovered_layers
from sortnetopt import campaign, cli, solver
from sortnetopt.campaign import (
    compute_T,
    default_pads,
    find_network_campaign,
    prove_lower_bound,
    reproduce_tables,
    two_layer_prefixes,
)
from sortnetopt.encoding import Cnf, EncodeOptions, VarMap, build, to_dimacs
from sortnetopt.networks import (Network, first_layer, is_sorting_network, network, outputs,
                                 unsorted_inputs)
from sortnetopt.report import (Campaign, CampaignResult, Instance, InstanceResult,
                               campaign_from_json, campaign_to_json)
from sortnetopt.solver import _LIT_CHUNK, KNOWN_SOLVERS, SolverConfig, run_solver
from sortnetopt.words import rn_networks


def test_run_solver_trivial(solver_config):
    res = run_solver(Cnf(1, [(1,)]), solver_config, name="sat1")
    assert res.verdict == "SAT" and res.true_vars == {1}
    res = run_solver(Cnf(1, [(1,), (-1,)]), solver_config, name="unsat1")
    assert res.verdict == "UNSAT"


def test_run_solver_spawn_failure(tmp_path, monkeypatch):
    # nothing ran, so nothing is kept: neither the CNF nor the temp dir made for it
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    cfg = SolverConfig(executable="/nonexistent/solver", timeout=5)
    with pytest.raises(RuntimeError):
        run_solver(Cnf(1, [(1,)]), cfg)
    assert list(tmp_path.iterdir()) == []
    # a given workdir stays, without the CNF
    workdir = tmp_path / "work"
    cfg = dataclasses.replace(cfg, workdir=str(workdir))
    with pytest.raises(RuntimeError):
        run_solver(Cnf(1, [(1,)]), cfg)
    assert list(tmp_path.iterdir()) == [workdir] and list(workdir.iterdir()) == []


def test_run_solver_timeout(tmp_path):
    # a timed-out run keeps its CNF for post-mortem, beside the pid file of
    # its fake solver, and the solver is gone: the wrapper execs its engine,
    # so killing the process the run started kills the engine
    workdir = tmp_path / "cnf"
    cfg = SolverConfig(executable=str(_sleeper(tmp_path)), timeout=0.5, workdir=str(workdir))
    assert run_solver(Cnf(1, [(1,)]), cfg).verdict == "TIMEOUT"
    assert sorted(p.name for p in workdir.iterdir()) == ["instance.cnf", "instance.cnf.pid"]
    assert not _alive(_solver_pids(workdir, 1)[0])
    for timeout in (0, float("nan")):
        with pytest.raises(ValueError, match="timeout must be positive"):
            SolverConfig("x", timeout=timeout)


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


def _fake_solver(tmp_path, name: str, body: str) -> SolverConfig:
    """A shell script solver that runs body, with a workdir of its own."""
    script = tmp_path / f"{name}.sh"
    script.write_text(f"#!/bin/sh\n{body}\n")
    script.chmod(0o755)
    return SolverConfig(executable=str(script), timeout=5, workdir=str(tmp_path / name))


def _named_solver(tmp_path, body: str) -> SolverConfig:
    """A fake solver that picks its answer from the instance name: it adds
    the name of its CNF ($1 without .cnf) to calls.log, then runs body
    with the name in $name."""
    return _fake_solver(tmp_path, "named", f'name=$(basename "$1" .cnf)\n'
                                           f'echo "$name" >> {tmp_path}/calls.log\n{body}')


def _calls(tmp_path) -> list[str]:
    """The instance names _named_solver got, in the order its runs started."""
    log = tmp_path / "calls.log"
    return log.read_text().split() if log.exists() else []


def _wrapped_solver(tmp_path, solver_config, arms: str) -> SolverConfig:
    """_named_solver with the shell `case` arms given, which answer for the
    names they match; every other instance goes to the real solver."""
    exe = solver_config.executable
    real = " ".join(map(shlex.quote, [exe, *KNOWN_SOLVERS.get(Path(exe).name, ())]))
    return _named_solver(tmp_path, f'case "$name" in\n{arms}\n*) exec {real} "$1" ;;\nesac')


class _Interrupted(selectors.DefaultSelector):
    """A selector whose wait is interrupted, as by Ctrl-C, once before()
    has run."""
    before = staticmethod(lambda: None)

    def select(self, timeout=None):
        type(self).before()
        raise KeyboardInterrupt


def test_run_solver_unparseable_is_timeout_class(tmp_path):
    # garbage, a crash, an exit code against the status line and a second
    # status line settle nothing: each keeps its CNF and its log
    fakes = {   # name: (script body, a line its log must hold)
        "junk": ("echo weird\nexit 1", "weird"),
        "segv": ("echo 's UNSATISFIABLE'\nkill -SEGV $$", "exit: -11"),
        "exit10": ("echo 's UNSATISFIABLE'\nexit 10", "exit: 10"),
        "twice": ("printf 's SATISFIABLE\\nv 1 0\\ns UNSATISFIABLE\\n'\nexit 20", "v 1 0"),
    }
    for name, (body, line) in fakes.items():
        cfg = _fake_solver(tmp_path, name, body)
        res = run_solver(Cnf(1, [(1,)]), cfg, name=name)
        assert res.verdict == "TIMEOUT" and line in res.log.splitlines(), (name, res)
        assert [p.name for p in Path(cfg.workdir).iterdir()] == [f"{name}.cnf"], name
    # without a workdir the CNF goes with its temp dir, and the log says so
    cfg = dataclasses.replace(_fake_solver(tmp_path, "junk", fakes["junk"][0]), workdir=None)
    log = run_solver(Cnf(1, [(1,)]), cfg, name="junk").log.splitlines()
    assert "junk.cnf was not kept: sortnetopt encode rebuilds it from its spec" in log
    cmd = next(line for line in log if line.startswith("cmd: "))
    assert cmd.endswith("/junk.cnf") and not os.path.exists(cmd.split()[-1])


def test_a_known_name_gets_its_flags_however_configured(tmp_path):
    # the command takes its flags from KNOWN_SOLVERS by the executable's
    # name, for a default_config and a bare SolverConfig alike; a name
    # outside the table gets none
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, flags in [("kissat", " -q"), ("refsat", "")]:
        exe = bin_dir / name
        exe.write_text("#!/bin/sh\necho weird\nexit 1\n")
        exe.chmod(0o755)
        workdir = str(tmp_path / name)
        for cfg in (solver.default_config(5, str(exe), workdir=workdir),
                    SolverConfig(str(exe), 5, workdir)):
            res = run_solver(Cnf(1, [(1,)]), cfg, name=name)
            assert res.verdict == "TIMEOUT", (name, cfg)
            cnf = Path(workdir) / f"{name}.cnf"
            assert res.log.splitlines()[0] == f"cmd: {bin_dir}/{name}{flags} {cnf}", (name, cfg)


def test_run_solver_accepts_agreeing_exit_codes(tmp_path):
    # one status line with exit 0 or its own exit code, and a quiet exit 20
    fakes = {
        "unsat0": ("echo 's UNSATISFIABLE'\nexit 0", "UNSAT"),
        "unsat20": ("echo 's UNSATISFIABLE'\nexit 20", "UNSAT"),
        "sat10": ("printf 's SATISFIABLE\\nv 1 0\\n'\nexit 10", "SAT"),
        "quiet20": ("exit 20", "UNSAT"),
    }
    for name, (body, verdict) in fakes.items():
        cfg = _fake_solver(tmp_path, name, body)
        assert run_solver(Cnf(1, [(1,)]), cfg, name=name).verdict == verdict, name
        assert list(Path(cfg.workdir).iterdir()) == [], name


def test_run_solver_keeps_the_whole_text(tmp_path):
    # the CNF goes to its file a chunk at a time; a solver that prints no
    # verdict keeps it, and its bytes are the whole text
    prefix = two_layer_prefixes(8)[0]
    _, cnf = build(8, 5, unsorted_inputs(8, prefix), EncodeOptions(prefix=prefix))
    assert cnf.lits.size > 2 * _LIT_CHUNK
    cfg = _fake_solver(tmp_path, "silent", "exit 0")
    assert run_solver(cnf, cfg, name="kept").verdict == "TIMEOUT"
    assert (Path(cfg.workdir) / "kept.cnf").read_bytes() == to_dimacs(cnf).encode()


def test_run_solver_renders_one_chunk_per_call(tmp_path, monkeypatch):
    # run_solver holds at most _LIT_CHUNK literals of text at a time: one
    # to_dimacs call per chunk, in order, none covering more
    calls = []

    def recorder(cnf, start=0, stop=None):
        calls.append((start, stop))
        return to_dimacs(cnf, start, stop)

    monkeypatch.setattr(solver, "to_dimacs", recorder)
    prefix = two_layer_prefixes(9)[0]
    _, cnf = build(9, 7, unsorted_inputs(9, prefix), EncodeOptions(prefix=prefix))
    cfg = _fake_solver(tmp_path, "quiet20", "exit 20")
    assert run_solver(cnf, cfg, name="fenced").verdict == "UNSAT"
    size = cnf.lits.size
    assert len(calls) == -(-size // _LIT_CHUNK) > 1
    assert [start for start, _ in calls] == list(range(0, size, _LIT_CHUNK))
    assert all(stop is not None and stop - start <= _LIT_CHUNK for start, stop in calls)


def test_run_solver_failed_write_leaves_nothing(tmp_path, monkeypatch):
    # a write that fails after its first chunk keeps neither the partial CNF
    # nor the temp dir made for it
    real = solver.dimacs_chunks

    def failing(cnf):
        yield next(real(cnf))
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(solver, "dimacs_chunks", failing)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    prefix = two_layer_prefixes(8)[0]
    _, cnf = build(8, 5, unsorted_inputs(8, prefix), EncodeOptions(prefix=prefix))
    assert cnf.lits.size > _LIT_CHUNK
    cfg = SolverConfig(executable="/bin/false", timeout=5)
    with pytest.raises(OSError, match="No space"):
        run_solver(cnf, cfg, name="partial")
    assert list(tmp_path.iterdir()) == []
    # a given workdir stays, without the CNF
    workdir = tmp_path / "work"
    with pytest.raises(OSError, match="No space"):
        run_solver(cnf, dataclasses.replace(cfg, workdir=str(workdir)), name="partial")
    assert list(tmp_path.iterdir()) == [workdir] and list(workdir.iterdir()) == []


def test_a_failed_campaign_leaves_no_temp_dir(tmp_path, monkeypatch):
    # without a workdir every run works in a temp dir that it removes, so a
    # campaign whose solver crashes on every run leaves nothing behind
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    crash = tmp_path / "crash.sh"
    crash.write_text("#!/bin/sh\nprintf '%03000d' 0\nexit 3\n")   # 3 000 zeros, then a crash
    crash.chmod(0o755)
    camp = prove_lower_bound(6, 4, [2, 0], SolverConfig(str(crash), timeout=5), jobs=2)
    assert camp.claim == "inconclusive" and len(camp.instances) == 10
    assert {r.verdict for r in camp.instances} == {"TIMEOUT"}
    assert list(temp.iterdir()) == []
    # each instance keeps its run's cmd: line, which names its CNF, its
    # exit: line and the last 2 000 characters of the rest, and the report
    # carries it
    for r in camp.instances:
        cmd, exit_line, rest = r.log.split("\n", 2)
        assert cmd.startswith(f"cmd: {crash} ") and cmd.endswith(f"/{r.instance.name}.cnf")
        assert exit_line == "exit: 3" and len(rest) == 2000 and rest.startswith("0")
        assert rest.endswith(f"\n{r.instance.name}.cnf was not kept: "
                             "sortnetopt encode rebuilds it from its spec")
    assert campaign_from_json(campaign_to_json(camp)).instances == camp.instances


def test_an_interrupted_run_leaves_no_temp_dir(tmp_path, monkeypatch):
    # an interrupt while the solver runs kills it and removes its temp dir
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    monkeypatch.setattr(selectors, "DefaultSelector", _Interrupted)
    cfg = SolverConfig(executable=str(_sleeper(tmp_path)), timeout=600)
    with pytest.raises(KeyboardInterrupt):
        run_solver(Cnf(1, [(1,)]), cfg)
    assert list(temp.iterdir()) == []


def test_an_interrupted_run_in_a_workdir_keeps_no_cnf(tmp_path, monkeypatch):
    # only a TIMEOUT-class result keeps its CNF, so an interrupt while the
    # solver runs leaves a named workdir empty, and the solver dead
    workdir = tmp_path / "work"
    pids = []
    monkeypatch.setattr(_Interrupted, "before", lambda: pids.extend(_solver_pids(workdir, 1)))
    monkeypatch.setattr(selectors, "DefaultSelector", _Interrupted)
    cfg = SolverConfig(executable=str(_sleeper(tmp_path)), timeout=600, workdir=str(workdir))
    with pytest.raises(KeyboardInterrupt):
        run_solver(Cnf(1, [(1,)]), cfg)
    assert list(workdir.glob("*.cnf")) == [] and pids and not _alive(pids[0])


def test_a_long_model_is_read_whole(tmp_path):
    # the model and the stderr text are each longer than a pipe buffer
    # (64 KiB): both pipes are drained while the solver runs, so it never
    # blocks on a full one, and every literal arrives
    body = ("seq 1 30000 >&2\nprintf 's SATISFIABLE\\nv '\n"
            "seq 1 30000 | tr '\\n' ' '\necho 0\nexit 10")
    res = run_solver(Cnf(1, [(1,)]), _fake_solver(tmp_path, "long", body), name="long")
    assert res.verdict == "SAT" and res.true_vars == set(range(1, 30001))


def test_two_layer_prefixes_counts():
    assert len(two_layer_prefixes(6)) == 5
    assert len(two_layer_prefixes(9)) == 22


def test_default_pads():
    # one padded try with windows of width d + 1, then the full input set;
    # never pad 1
    assert default_pads(10, 6) == [3, 0]
    assert default_pads(11, 7) == [3, 0]
    assert default_pads(9, 7) == [0]
    assert default_pads(9, 3) == [5, 0]
    assert default_pads(4, 3) == [0]
    for n in range(1, 13):
        for d in range(n + 1):
            pads = default_pads(n, d)
            assert pads[-1] == 0 and 1 not in pads
            assert all(a > b for a, b in zip(pads, pads[1:]))


@pytest.mark.parametrize("n, t", [(5, 5), (6, 5), (7, 6), (8, 6)])
def test_default_pads_keep_claims(solver_config, n, t):
    for d in (t - 1, t):
        default = prove_lower_bound(n, d, config=solver_config, jobs=2)
        full = prove_lower_bound(n, d, [0], solver_config, jobs=2)
        assert default.claim == full.claim
        assert max(Counter(r.prefix_index for r in default.instances).values()) <= 2


def test_find_network_examples(solver_config):
    net = find_network_campaign(6, 5, "two-layer", solver_config)[0]
    assert net is not None and is_sorting_network(net) and net.depth == 5
    assert find_network_campaign(4, 2, "free", solver_config)[0] is None
    net = find_network_campaign(6, 5, "layer1", solver_config)[0]
    assert net is not None and is_sorting_network(net)
    assert net.layers[0] == ((1, 6), (2, 5), (3, 4))  # crossing first layer
    with pytest.raises(ValueError, match="unknown search mode"):
        find_network_campaign(6, 5, "two_layer", solver_config)   # the one spelling is the CLI's
    for n in (2, 3, 6):
        # the first layer is deeper than depth 0: an error, not a claim
        with pytest.raises(ValueError, match="exceeds network depth 0"):
            find_network_campaign(n, 0, "layer1", solver_config)


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
    campaign._task_inputs.cache_clear()
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
    net, found = find_network_campaign(6, d, "two-layer", solver_config, jobs=1)
    proved = prove_lower_bound(6, d, [0], solver_config, jobs=1)
    assert found.claim == proved.claim == claim
    assert (net is not None) == (claim == "T(6) <= 5")
    assert [(r.prefix_index, r.pad, r.verdict) for r in found.instances] == \
           [(r.prefix_index, r.pad, r.verdict) for r in proved.instances]
    # the loader's audit accepts what the scheduler claims
    for camp in (found, proved):
        assert campaign_from_json(campaign_to_json(camp)).claim == claim


def test_one_pass_under_one_timeout(tmp_path, monkeypatch):
    # a fake solver: prefix 0 prints garbage (TIMEOUT-class) at every pad,
    # every other run is UNSAT; every run gets the configured timeout
    timeouts = []
    real_init = solver.SolverRun.__init__

    def init(self, config, *args):
        timeouts.append(config.timeout)
        real_init(self, config, *args)

    monkeypatch.setattr(solver.SolverRun, "__init__", init)
    cfg = _named_solver(tmp_path, 'case "$name" in n6d4p0w*) echo weird; exit 1 ;; esac\nexit 20')
    camp = prove_lower_bound(6, 4, [2, 0], dataclasses.replace(cfg, timeout=600), jobs=1)
    assert len(timeouts) == 6 and all(timeout == 600 for timeout in timeouts)
    names = _calls(tmp_path)
    assert len(names) == len(set(names)) == 6
    # jobs=1 runs the fewest-outputs order: R_6 keys 14, 11, 14, 11, 11
    assert [(r.prefix_index, r.pad, r.verdict) for r in camp.instances] == \
           [(1, 2, "UNSAT"), (3, 2, "UNSAT"), (4, 2, "UNSAT"),
            (0, 2, "TIMEOUT"), (0, 0, "TIMEOUT"), (2, 2, "UNSAT")]
    assert camp.claim == "inconclusive"
    assert campaign_from_json(campaign_to_json(camp)).claim == "inconclusive"


def test_model_that_does_not_sort_is_fatal(tmp_path):
    # every SAT model is re-checked on the inputs its formula kept: the
    # all-false model decodes to an empty network, which sorts none of them
    cfg = _fake_solver(tmp_path, "empty", "printf 's SATISFIABLE\\nv 0\\n'\nexit 10")
    with pytest.raises(RuntimeError, match="fails verification"):
        find_network_campaign(5, 4, "free", cfg)


def test_task_order_fewest_outputs(tmp_path):
    # the key, the unsorted outputs of the prefix, is the input count of a
    # pad-0 build; the order never decreases in it and breaks ties by R_n index
    cfg = _named_solver(tmp_path, "exit 20")
    for n in range(3, 11):
        prefixes = two_layer_prefixes(n)
        keys = [len(outputs(p)) - (n + 1) for p in prefixes]
        for p, key in zip(prefixes, keys):
            vm, _ = build(n, 4, unsorted_inputs(n, p), EncodeOptions(prefix=p))
            assert key == len(vm.inputs)
        (tmp_path / "calls.log").unlink(missing_ok=True)
        camp = prove_lower_bound(n, 4, [0], cfg, jobs=1)
        assert camp.claim == f"T({n}) > 4"
        ran = [int(name.split("p")[1].split("w")[0]) for name in _calls(tmp_path)]
        assert ran == sorted(range(len(prefixes)), key=lambda i: (keys[i], i))


def _task_order(n, d):
    """The prefixes of an R_n campaign at depth d in the order they start."""
    return [rounds[0].prefix for rounds in campaign._tasks(Campaign(n, d))]


def test_instances_come_out_in_task_order(tmp_path):
    # the first task's solver ends only after the other slot has started
    # the last task, so later tasks finish first: the instances still come
    # out in task order
    tasks = _task_order(6, 4)
    order = [two_layer_prefixes(6).index(p) for p in tasks]
    first, last = f"n6d4p{order[0]}w0", f"n6d4p{order[-1]}w0"
    ended = tmp_path / "ended.log"
    cfg = _named_solver(tmp_path, (
        f'if [ "$name" = {first} ]; then\n'
        f'  i=0; until grep -qx {last} {tmp_path}/calls.log || [ $i -ge 80 ]; do\n'
        '    sleep 0.05; i=$((i + 1)); done\n'
        f'fi\necho "$name" >> {ended}\nexit 20'))
    camp = prove_lower_bound(6, 4, [0], cfg, jobs=2)
    assert ended.read_text().split().index(first) > 0   # a later task finished first
    assert [r.prefix_index for r in camp.instances] == order
    assert [r.instance.prefix for r in camp.instances] == tasks


@pytest.mark.parametrize("jobs", [2, 4])
def test_workers_take_turns_at_the_python_stage(tmp_path, monkeypatch, jobs):
    # the campaign's one loop builds one formula at a time, also with more
    # solver slots than cores and a short switch interval; the instances
    # still come out in task order, and encode_time is the build alone
    lock = threading.Lock()
    busy, most, builds = [0], [0], {}

    @contextlib.contextmanager
    def in_flight():
        with lock:
            busy[0] += 1
            most[0] = max(most[0], busy[0])
        try:
            time.sleep(0.05)
            yield
        finally:
            with lock:
                busy[0] -= 1

    real_formula = campaign.instance_formula

    def formula(inst, *args):
        t0 = time.monotonic()
        with in_flight():
            out = real_formula(inst, *args)
        builds[inst.name] = time.monotonic() - t0
        return out

    monkeypatch.setattr(campaign, "instance_formula", formula)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        camp = prove_lower_bound(7, 4, [0], _fake_solver(tmp_path, "quiet20", "exit 20"), jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert camp.claim == "T(7) > 4" and most[0] == 1
    assert [r.instance.prefix for r in camp.instances] == _task_order(7, 4)
    assert all(r.encode_time < builds[r.instance.name] + 0.025 for r in camp.instances)


def test_a_write_never_waits_for_another_build(tmp_path, monkeypatch):
    # a round is written as soon as it is built: each build after the first
    # waits until the formula built before it has written its first chunk.
    # A write held back until after the next build could not start, so the
    # wait would time out and fail the campaign
    written: list[threading.Event] = []   # one per build, set by its first chunk
    unwritten: dict[int, threading.Event] = {}   # a worker's last build, until it writes
    real_formula, real_chunks = campaign.instance_formula, solver.dimacs_chunks

    def formula(inst, *args):
        if written and not written[-1].wait(10):
            raise AssertionError(f"the write of the build before {inst.name} waited for the turn")
        out = real_formula(inst, *args)
        written.append(threading.Event())
        unwritten[threading.get_ident()] = written[-1]
        return out

    def chunks(cnf):
        unwritten.pop(threading.get_ident()).set()
        yield from real_chunks(cnf)

    monkeypatch.setattr(campaign, "instance_formula", formula)
    monkeypatch.setattr(solver, "dimacs_chunks", chunks)
    camp = prove_lower_bound(7, 4, [0], _fake_solver(tmp_path, "quiet20", "exit 20"), jobs=2)
    assert camp.claim == "T(7) > 4" and len(written) == len(_task_order(7, 4))
    assert all(event.is_set() for event in written)


@pytest.mark.parametrize("n, t", [(5, 5), (6, 5), (7, 6), (8, 6)])
def test_no_build_starts_after_the_stop(solver_config, monkeypatch, n, t):
    # the first pad-0 SAT that is reaped ends the campaign: no build starts
    # after it
    starts, stops = [], []
    real_formula, real_reap = campaign.instance_formula, campaign.reap

    def formula(inst, *args):
        starts.append(time.monotonic())
        return real_formula(inst, *args)

    def reap_and_note(runs):
        run, res = real_reap(runs)
        if res.verdict == "SAT":   # a search runs pad 0 alone
            stops.append(time.monotonic())
        return run, res

    monkeypatch.setattr(campaign, "instance_formula", formula)
    monkeypatch.setattr(campaign, "reap", reap_and_note)
    net, camp = find_network_campaign(n, t, config=solver_config, jobs=2)
    assert camp.claim == f"T({n}) <= {t}" and is_sorting_network(net)
    assert starts and stops and max(starts) < stops[0]


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_the_caller_is_one_of_the_workers(tmp_path, monkeypatch, jobs):
    # the calling thread is a campaign's one worker and starts no thread:
    # it builds every round and runs jobs solvers at once.  When it first
    # waits, jobs sleeping solvers run; an interrupt there kills them all
    # and leaves no CNF in the named workdir
    workdir = tmp_path / "cnf"
    builders, pids, alive = [], [], []
    real_formula = campaign.instance_formula

    def formula(inst, *args):
        builders.append(threading.get_ident())
        return real_formula(inst, *args)

    def before():
        pids.extend(_solver_pids(workdir, jobs))
        alive.extend(map(_alive, pids))

    monkeypatch.setattr(campaign, "instance_formula", formula)
    monkeypatch.setattr(_Interrupted, "before", before)
    monkeypatch.setattr(selectors, "DefaultSelector", _Interrupted)
    cfg = SolverConfig(executable=str(_sleeper(tmp_path)), timeout=600, workdir=str(workdir))
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        prove_lower_bound(7, 4, [0], cfg, jobs=jobs)
    assert len(set(pids)) == len(builders) == jobs and all(alive) and len(alive) == jobs
    assert set(builders) == {threading.get_ident()}
    assert threading.active_count() == threads
    assert not any(_alive(pid) for pid in pids)
    assert list(workdir.glob("*.cnf")) == []


@pytest.mark.parametrize("where", ["build-on-caller", "interrupt-on-caller"])
def test_a_failed_build_is_raised_without_deadlock(tmp_path, monkeypatch, where):
    # a build that raises, or an interrupt while the loop waits, ends the
    # campaign at once: the solvers still running, which would sleep for
    # 30 s, are killed and their CNFs removed, and the error comes out
    workdir = tmp_path / "cnf"
    real_formula = campaign.instance_formula
    builds = []

    def formula(inst, *args):
        builds.append(inst.name)
        if where == "build-on-caller" and len(builds) == 2:
            _solver_pids(workdir, 1)   # the first round's solver runs
            raise ValueError("build failed")
        return real_formula(inst, *args)

    monkeypatch.setattr(campaign, "instance_formula", formula)
    if where == "interrupt-on-caller":
        monkeypatch.setattr(_Interrupted, "before", lambda: _solver_pids(workdir, 2))
        monkeypatch.setattr(selectors, "DefaultSelector", _Interrupted)
    cfg = SolverConfig(executable=str(_sleeper(tmp_path)), timeout=600, workdir=str(workdir))
    raised = []

    def prove():
        try:
            prove_lower_bound(7, 5, [0], cfg, jobs=2)
        except (ValueError, KeyboardInterrupt) as exc:
            raised.append(type(exc))

    before = set(threading.enumerate())
    thread = threading.Thread(target=prove, daemon=True)
    thread.start()
    thread.join(timeout=20)
    assert not thread.is_alive()
    assert raised == [KeyboardInterrupt if where.startswith("interrupt") else ValueError]
    pids = _solver_pids(workdir, 1)
    assert len(pids) == (2 if where.startswith("interrupt") else 1)
    assert not any(_alive(pid) for pid in pids) and list(workdir.glob("*.cnf")) == []
    assert set(threading.enumerate()) == before


def test_a_timeout_leaves_the_other_slot_solving(tmp_path):
    # one solver sleeps past the timeout while the other slot runs every
    # other task: the sleeper sees them all start before it is killed
    tasks = [two_layer_prefixes(7).index(p) for p in _task_order(7, 4)]
    slow, saw = f"n7d4p{tasks[0]}w0", tmp_path / "saw-all"
    cfg = _named_solver(tmp_path, (
        f'if [ "$name" = {slow} ]; then\n'
        f'  i=0; until [ $(wc -l < {tmp_path}/calls.log) -ge {len(tasks)} ] || [ $i -ge 40 ]; do\n'
        '    sleep 0.05; i=$((i + 1)); done\n'
        f'  [ $i -lt 40 ] && touch {saw}\n  echo $$ > {tmp_path}/slow.pid\n  exec sleep 30\n'
        'fi\nexit 20'))
    camp = prove_lower_bound(7, 4, [0], dataclasses.replace(cfg, timeout=3), jobs=2)
    assert saw.exists() and not _alive(int((tmp_path / "slow.pid").read_text()))
    assert [(r.prefix_index, r.verdict) for r in camp.instances] == \
           [(tasks[0], "TIMEOUT")] + [(i, "UNSAT") for i in tasks[1:]]
    assert camp.claim == "inconclusive"


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
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            compute_T(n, solver_config)
    value, campaigns = compute_T(7, solver_config)
    assert value == 6
    assert any(c.claim == "T(7) > 5" for c in campaigns)
    final = campaigns[-1]
    witness = next(r.witness for r in final.instances if r.verdict == "SAT" and r.pad == 0)
    assert is_sorting_network(witness)


@pytest.mark.parametrize("jobs", [1, 2])
def test_compute_t_moves_the_refutation_down(solver_config, tmp_path, jobs):
    # a solver that wrongly refutes the probe's tasks at depth T(7) = 6 sends
    # the climb on to 7; the full campaign at 6 then finds a network among
    # the other prefixes and becomes the witness campaign
    probe = {two_layer_prefixes(7).index(p) for p in _task_order(7, 6)[:jobs]}
    faked = tmp_path / "faked.log"
    arms = "".join(f'n7d6p{idx}w*) echo "$name" >> {faked}; exit 20 ;;\n' for idx in probe)
    value, campaigns = compute_T(7, _wrapped_solver(tmp_path, solver_config, arms), jobs=jobs)
    assert value == 6 and faked.read_text().split()
    assert [c.claim for c in campaigns] == ["T(7) > 5", "T(7) <= 6"]
    assert {r.depth for r in campaigns[0].instances} == {5}
    assert {r.depth for r in campaigns[1].instances} == {6}
    witness = next(r for r in campaigns[1].instances if r.verdict == "SAT" and r.pad == 0)
    assert witness.prefix_index not in probe and is_sorting_network(witness.witness)
    keys = [(r.depth, r.prefix_index, r.pad) for c in campaigns for r in c.instances]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("jobs", [1, 2])
def test_compute_t_timeout_raises_after_one_probe(tmp_path, jobs):
    # a probe left open by a timeout settles nothing: no claim, no climb
    with pytest.raises(RuntimeError, match="inconclusive probe at depth 3"):
        compute_T(6, _named_solver(tmp_path, "echo weird\nexit 1"), jobs=jobs)
    calls = _calls(tmp_path)
    # ceil(log2 6) = 3: each probed task walks default_pads(6, 3) = [2, 0]
    assert len(calls) == len(set(calls)) == 2 * jobs
    assert all(name.startswith("n6d3p") for name in calls)


@pytest.mark.parametrize("jobs", [1, 2])
def test_compute_t_raises_on_an_open_refutation(solver_config, tmp_path, jobs):
    # one prefix the probe did not run times out at depth T(7) - 1 = 5, at
    # whatever pad: the refutation is left open, so compute_T makes no claim
    idx = two_layer_prefixes(7).index(_task_order(7, 5)[-1])
    assert idx not in {two_layer_prefixes(7).index(p) for p in _task_order(7, 5)[:jobs]}
    log = tmp_path / "timed_out.log"
    arms = f'n7d5p{idx}w*) echo "$name" >> {log}; echo weird; exit 1 ;;'
    with pytest.raises(RuntimeError, match="inconclusive campaign at depth 5 for n=7"):
        compute_T(7, _wrapped_solver(tmp_path, solver_config, arms), jobs=jobs)
    timed_out = log.read_text().split()
    assert timed_out and timed_out[-1].endswith("w0")


def test_filter_set_and_order_once_per_n(tmp_path, monkeypatch):
    # R_n, its fewest-outputs order and the prefixes' input sets do not
    # depend on the depth: every campaign on n channels reuses them, and
    # callers still get a new list
    input_sets = []
    monkeypatch.setattr(campaign, "unsorted_inputs",
                        lambda n, prefix: input_sets.append(prefix) or unsorted_inputs(n, prefix))
    rn_networks.cache_clear()
    campaign._fewest_outputs.cache_clear()
    campaign._task_inputs.cache_clear()
    for d in (3, 4, 5):
        prove_lower_bound(7, d, [0], _fake_solver(tmp_path, "quiet20", "exit 20"), jobs=2)
    assert len(input_sets) == len(two_layer_prefixes(7)) == 8
    first = two_layer_prefixes(7)
    assert first == two_layer_prefixes(7) and first is not two_layer_prefixes(7)
    first.clear()
    assert len(two_layer_prefixes(7)) == 8


def test_task_inputs_are_cached_read_only():
    # one input set per R_n prefix, made once and read-only
    for n in range(3, 12):
        for p in two_layer_prefixes(n):
            xs = campaign._task_inputs(n, p)
            want = unsorted_inputs(n, p)
            assert not xs.flags.writeable and campaign._task_inputs(n, p) is xs
            assert len(xs) == len(want) and (xs == want).all()


def test_filter_set_shares_the_first_layer():
    # every prefix of R_n has the first layer F_n, and the fewest-outputs
    # order is that of the prefixes' full outputs, ties in R_n order
    for n in range(2, 12):
        prefixes = two_layer_prefixes(n)
        assert {p.layers[0] for p in prefixes} == {first_layer(n)}
        keys = [len(outputs(p)) for p in prefixes]
        want = sorted(range(len(prefixes)), key=lambda i: (keys[i], i))
        assert [prefixes.index(p) for p in campaign._fewest_outputs(n)] == want


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
    # an all-UNSAT campaign on two workers records the same instances too
    a, b = [prove_lower_bound(6, 4, config=solver_config, jobs=2) for _ in range(2)]
    assert a.claim == b.claim == "T(6) > 4"
    assert [(r.instance, r.verdict, r.inputs_kept, r.vars, r.clauses) for r in a.instances] == \
           [(r.instance, r.verdict, r.inputs_kept, r.vars, r.clauses) for r in b.instances]


def test_campaign_json_roundtrip(solver_config):
    camp = prove_lower_bound(4, 2, [0], solver_config)
    doc = campaign_to_json(camp)
    back = campaign_from_json(doc)
    assert back.n == camp.n and back.claim == camp.claim
    assert [(r.prefix_index, r.depth, r.pad, r.verdict, r.witness)
            for r in back.instances] == \
           [(r.prefix_index, r.depth, r.pad, r.verdict, r.witness)
            for r in camp.instances]
    assert back.spec == camp.spec == Campaign(4, 2, "two-layer", (0,))
    assert json.loads(doc)["campaign"] == {"depth": 2, "tasks": "two-layer", "pads": [0]}
    # a report written before the spec was recorded loads without one, and
    # the task ordering that it carried instead is ignored
    old = json.loads(doc)
    del old["campaign"]
    old["ordering"] = "fewest-outputs"
    assert campaign_from_json(json.dumps(old)).spec is None


def test_campaign_json_keeps_formula_sizes(solver_config):
    camp = prove_lower_bound(5, 4, [2, 0], solver_config)
    prefixes = two_layer_prefixes(5)
    for r in camp.instances:
        assert r.instance == Instance(5, 4, r.pad, prefixes[r.prefix_index])
        vm, cnf = campaign.instance_formula(r.instance)
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
R6_REFUTED = [{"prefix_index": i, "depth": 4, "pad": 0, "verdict": "UNSAT"} for i in range(5)]
SPEC6 = {"depth": 4, "tasks": "two-layer", "pads": [2, 0]}
SORTER4 = json.loads(network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)]).to_json())
REVERSED4 = {"n": 4, "layers": [[[2, 1]]]}


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
    # an index past R_6 (|R_6| = 5), or below it, next to all five refutations
    ({"n": 6, "claim": "T(6) > 4", "instances": R6_REFUTED + [{**UNSAT, "prefix_index": 99}]},
     r"\$\.instances\[5\]\.prefix_index$"),
    ({"n": 6, "claim": "T(6) > 4", "instances": R6_REFUTED + [{**UNSAT, "prefix_index": -1}]},
     r"\$\.instances\[5\]\.prefix_index$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "verdict": "SAT", "witness": 5}]},
     r"\$\.instances\[0\]\.witness$"),
    # a reversed comparator, which no campaign decodes: at pad 0, where the
    # witness is checked to sort, and padded, where it is not
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "verdict": "SAT",
                                                      "witness": REVERSED4}]},
     r"\$\.instances\[0\]\.witness$"),
    ({"n": 4, "claim": "inconclusive", "instances": [UNSAT, {**UNSAT, "pad": 2, "verdict": "SAT",
                                                             "witness": REVERSED4}]},
     r"\$\.instances\[1\]\.witness$"),
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
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "log": 5}]},
     r"\$\.instances\[0\]\.log$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "depth": 3, "witness": SORTER4}]},
     r"\$\.instances\[0\]$"),
    ({"n": 4, "claim": "inconclusive", "instances": [UNSAT, {**UNSAT, "verdict": "SAT"}]},
     r"\$\.instances\[1\]$"),
    ({"n": 4, "claim": "inconclusive", "instances": [], "wall_time": None}, r"\$\.wall_time$"),
    # specs that no campaign could run: a lower bound resting on windows
    # outside 0..n-1, which have no formula, and a depth-2 prefix at depth 1
    ({"n": 6, "claim": "T(6) > 4", "instances": [{**r, "pad": -3} for r in R6_REFUTED]},
     r"\$\.instances\[0\]$"),
    ({"n": 6, "claim": "T(6) > 4", "instances": [{**r, "pad": 9} for r in R6_REFUTED]},
     r"\$\.instances\[0\]$"),
    ({"n": 6, "claim": "inconclusive", "instances": [{**UNSAT, "prefix_index": 0}]},
     r"\$\.instances\[0\]$"),
    ({"n": 4, "claim": "inconclusive", "instances": [{**UNSAT, "depth": 0, "prefix": "layer1"}]},
     r"\$\.instances\[0\]$"),
    # a label that is not the R_6 sentence at its index (R_6[0] is 12_s;1212_c),
    # the first layer beside an index, and a sentence without one
    ({"n": 6, "claim": "T(6) > 4",
      "instances": [{**R6_REFUTED[0], "prefix": "12_s;1221_c"}] + R6_REFUTED[1:]},
     r"\$\.instances\[0\]\.prefix$"),
    ({"n": 6, "claim": "T(6) > 4",
      "instances": [{**R6_REFUTED[0], "prefix": "layer1"}] + R6_REFUTED[1:]},
     r"\$\.instances\[0\]\.prefix$"),
    ({"n": 6, "claim": "inconclusive", "instances": [{**UNSAT, "prefix": "12_s;1212_c"}]},
     r"\$\.instances\[0\]\.prefix$"),
    # instances that the campaign spec does not list: another depth, a pad
    # outside its schedule, a prefix of another kind; and a malformed spec
    ({"n": 6, "claim": "inconclusive", "campaign": SPEC6,
      "instances": R6_REFUTED[:4] + [{**R6_REFUTED[4], "depth": 5}]}, r"\$\.instances\[4\]$"),
    ({"n": 6, "claim": "inconclusive", "campaign": SPEC6,
      "instances": [R6_REFUTED[0], {**R6_REFUTED[1], "pad": 3}]}, r"\$\.instances\[1\]$"),
    ({"n": 6, "claim": "inconclusive", "campaign": SPEC6,
      "instances": [{**UNSAT, "depth": 4, "prefix": "layer1"}]}, r"\$\.instances\[0\]$"),
    ({"n": 6, "claim": "inconclusive", "campaign": {"depth": 4, "tasks": "two-layer"},
      "instances": []}, r"\$\.campaign$"),
    ({"n": 6, "claim": "inconclusive", "campaign": {**SPEC6, "tasks": "two_layer"},
      "instances": []}, r"\$\.campaign$"),
], ids=["top-int", "top-list", "instances-int", "instance-int", "n-str", "n-0", "n-40",
        "claim-int", "depth-float", "pad-bool", "prefix-index-str", "prefix-index-past-rn",
        "prefix-index-negative", "witness-int", "witness-generalized", "witness-generalized-padded",
        "encode-time-str", "encode-time-negative", "solve-time-bool", "solve-time-null",
        "inputs-kept-float", "vars-negative", "clauses-str", "clauses-bool", "log-int",
        "witness-on-unsat", "sat-without-witness", "wall-time-null",
        "pad-negative", "pad-past-n", "prefix-deeper-than-depth", "layer1-deeper-than-depth",
        "label-not-the-sentence", "layer1-beside-index", "sentence-without-index",
        "depth-not-the-spec", "pad-not-the-spec", "layer1-not-the-spec", "spec-without-pads",
        "spec-unknown-tasks"])
def test_campaign_json_malformed_is_value_error(doc, where):
    # every malformed report is a ValueError that names where it is wrong
    with pytest.raises(ValueError, match=where):
        campaign_from_json(json.dumps(doc))


def test_campaign_json_keys_are_the_instance_fields():
    # the report lists the spec's index, label, depth and pad, then the
    # fields of InstanceResult after the spec in their order, so the format
    # is written down once
    sorter = network(2, [(1, 2)])
    camp = CampaignResult(2, "T(2) <= 1", [InstanceResult(Instance(2, 1), "SAT", witness=sorter)])
    item = json.loads(campaign_to_json(camp))["instances"][0]
    fields = [f.name for f in dataclasses.fields(InstanceResult)]
    assert fields[0] == "instance"
    assert list(item) == ["prefix_index", "prefix", "depth", "pad"] + fields[1:]
    assert (item["prefix_index"], item["prefix"], item["depth"], item["pad"]) == (None, None, 1, 0)
    assert item["witness"] == json.loads(sorter.to_json())
    assert campaign_from_json(campaign_to_json(camp)).instances == camp.instances


def test_prefix_kinds_have_distinct_names_and_labels():
    # an R_n member, no prefix and the first layer F_n: three names for the
    # solver's files and three labels for the report, with the R_n index
    # for the member alone; any other prefix can be encoded, never recorded
    member = two_layer_prefixes(6)[2]
    specs = [Instance(6, 4, 1, member), Instance(6, 4, 1), Instance.layer1(6, 4, 1)]
    assert [s.name for s in specs] == ["n6d4p2w1", "n6d4pfreew1", "n6d4player1w1"]
    assert [s.label for s in specs] == ["211212_s", None, "layer1"]
    assert [s.index for s in specs] == [2, None, None]
    assert specs[2].prefix == network(6, [(1, 6), (2, 5), (3, 4)])
    other = Instance(6, 4, 1, network(6, first_layer(6)))
    assert (other.name, other.label, other.index) == ("n6d4pfixedw1", None, None)
    with pytest.raises(ValueError, match="records an R_n prefix"):
        InstanceResult(other, "UNSAT")


@pytest.mark.parametrize("spec, message", [
    ((6, 4, 6), "pad must satisfy 0 <= pad < n = 6, got 6"),
    ((6, 4, -1), "pad must satisfy"),
    ((6, -1, 0), "depth must be at least 0"),
    ((6, 1, 0, two_layer_prefixes(6)[0]), "prefix depth 2 exceeds network depth 1"),
    ((6, 4, 0, network(5, first_layer(5))), "prefix has 5 channels, not n = 6"),
    ((6, 4, 0, Network(6, (((2, 1),),))), "must be standard"),
])
def test_instance_checks_itself(spec, message):
    # Instance and VarMap check one rule, with one wording
    with pytest.raises(ValueError, match=message):
        Instance(*spec)
    n, depth, pad, prefix = (*spec, None)[:4]
    with pytest.raises(ValueError, match=message):
        VarMap(n, depth, unsorted_inputs(n), EncodeOptions(pad=pad, prefix=prefix))


def test_campaign_checks_itself():
    # a campaign spec is checked when it is made, its pads normalised as
    # every task walks them, and it lists its instances task by task in
    # R_n order
    with pytest.raises(ValueError, match="depth must be at least 0"):
        Campaign(6, -1)
    with pytest.raises(ValueError, match="unknown search mode 'two_layer'"):
        Campaign(6, 4, "two_layer")
    with pytest.raises(ValueError, match="exceeds network depth 0"):
        Campaign(6, 0, "layer1")
    assert Campaign(5, 4, "two-layer", (1, 3, 3, 7, 0)).pads == (3, 1, 0)
    assert Campaign(6, 4, "two-layer", [2]).instances() == \
           [Instance(6, 4, pad, p) for p in two_layer_prefixes(6) for pad in (2, 0)]
    assert Campaign(6, 1).instances() == [Instance(6, 1)]
    assert Campaign(6, 4, "layer1", (2,)).instances() == \
           [Instance.layer1(6, 4, 2), Instance.layer1(6, 4)]
    assert Campaign(6, 4, "free").instances() == [Instance(6, 4)]


@pytest.mark.parametrize("mode, label", [("free", None), ("layer1", "layer1")])
def test_find_campaign_keeps_its_prefix_kind(solver_config, mode, label):
    # T(5) = 5: the one depth-4 instance of each mode is UNSAT, and its
    # report tells the two modes apart, where both read prefix_index null
    _, camp = find_network_campaign(5, 4, mode, solver_config)
    assert [(r.prefix_index, r.instance.label, r.verdict) for r in camp.instances] == \
           [(None, label, "UNSAT")]
    doc = campaign_to_json(camp)
    assert json.loads(doc)["instances"][0]["prefix"] == label
    back = campaign_from_json(doc)
    assert [r.instance for r in back.instances] == [r.instance for r in camp.instances]
    assert back.claim == camp.claim == "T(5) > 4"


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
        InstanceResult(Instance(2, 1), "UNSAT", witness=network(2, [(1, 2)]))
    with pytest.raises(ValueError):
        InstanceResult(Instance(2, 1), "SAT", witness=None)


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


# Each row names its own id, so a row added anywhere renames no other; the
# rows up to argv28 keep the ids that pytest once made from their positions.
USAGE_ERRORS = [
    pytest.param(["prove", "--n", "5", "--depth", "4", "--pads", "2,x"],
                 "argument --pads: expected", id="argv0-argument --pads: expected"),
    pytest.param(["encode", "--n", "5", "--depth", "3", "--pad", "5", "--out", "-"],
                 "--pad must satisfy", id="argv1---pad must satisfy"),
    pytest.param(["encode", "--n", "5", "--depth", "3", "--pad", "-1", "--out", "-"],
                 "--pad must satisfy", id="argv2---pad must satisfy"),
    pytest.param(["prove", "--n", "0", "--depth", "2"],
                 "--n must be at least 1", id="argv3---n must be at least 1"),
    pytest.param(["encode", "--n", "25", "--depth", "3", "--out", "-"],
                 "--n must be at most 24", id="argv4---n must be at most 24"),
    pytest.param(["find", "--n", "25", "--depth", "3"],
                 "--n must be at most 24", id="argv5---n must be at most 24"),
    pytest.param(["prove", "--n", "25", "--depth", "3"],
                 "--n must be at most 24", id="argv6---n must be at most 24"),
    pytest.param(["encode", "--n", "6", "--depth", "3", "--prefix-index", "5", "--out", "-"],
                 "--prefix-index must satisfy 0 <= index < |R_6| = 5",
                 id="argv7---prefix-index must satisfy 0 <= index < |R_6| = 5"),
    pytest.param(["encode", "--n", "6", "--depth", "1", "--prefix-index", "0", "--out", "-"],
                 "prefix depth 2 exceeds network depth 1",
                 id="argv8-prefix depth 2 exceeds network depth 1"),
    pytest.param(["encode", "--n", "6", "--depth", "3", "--out", "-",
                  "--prefix", '{"n": 5, "layers": [[[1, 2], [3, 4]]]}'],
                 "prefix has 5 channels, not n = 6", id="argv9-prefix has 5 channels, not n = 6"),
    pytest.param(["encode", "--n", "6", "--depth", "3", "--out", "-",
                  "--prefix", '{"n": 6, "layers": [[[2, 1], [3, 4]]]}'],
                 "fixed prefixes must be standard networks",
                 id="argv10-fixed prefixes must be standard networks"),
    pytest.param(["encode", "--n", "6", "--depth", "3", "--out", "-", "--prefix", "[1, 2"],
                 "prefix.json: ", id="argv11-prefix.json: "),
    pytest.param(["encode", "--n", "4", "--depth", "3", "--out", "-",
                  "--prefix", '{"n": 4, "layers": [[1]]}'],
                 "lists of [i, j] integer pairs", id="argv12-lists of [i, j] integer pairs"),
    pytest.param(["solve", "--cnf", "x.cnf", "--timeout", "0"],
                 "--timeout must be positive, got 0.0",
                 id="argv13---timeout must be positive, got 0.0"),
    pytest.param(["find", "--n", "4", "--depth", "3", "--timeout", "-1"],
                 "--timeout must be positive", id="argv14---timeout must be positive"),
    pytest.param(["prove", "--n", "5", "--depth", "4", "--timeout", "nan"],
                 "--timeout must be positive", id="argv15---timeout must be positive"),
    pytest.param(["solve", "--cnf", "missing.cnf"],
                 "--cnf missing.cnf: ", id="argv16---cnf missing.cnf: "),
    pytest.param(["solve", "--cnf", "."], "--cnf .: ", id="argv17---cnf .: "),
    pytest.param(["find", "--n", "4", "--depth", "3", "--jobs", "0"],
                 "--jobs must be at least 1, got 0", id="argv18---jobs must be at least 1, got 0"),
    pytest.param(["prove", "--n", "5", "--depth", "4", "--jobs", "-2"],
                 "--jobs must be at least 1", id="argv19---jobs must be at least 1"),
    pytest.param(["gen", "--n", "25", "--set", "sn", "--out", "-"],
                 "--set sn needs --n <= 24, got 25", id="argv20---set sn needs --n <= 24, got 25"),
    pytest.param(["find", "--n", "1", "--depth", "0", "--mode", "layer1"],
                 "--mode layer1 needs --n >= 2", id="argv21---mode layer1 needs --n >= 2"),
    pytest.param(["encode", "--n", "4", "--depth", "3", "--out", "-", "--prefix-index", "0",
                  "--prefix", '{"n": 4, "layers": [[[1, 2], [3, 4]]]}'],
                 "argument --prefix: not allowed with argument --prefix-index",
                 id="argv22-argument --prefix: not allowed with argument --prefix-index"),
    pytest.param(["solve", "--cnf", "/dev/null", "--solver", "/nonexistent"],
                 "failed to launch solver '/nonexistent': no executable by that name",
                 id="argv23-failed to launch solver '/nonexistent': no executable by that name"),
    pytest.param(["find", "--n", "4", "--depth", "3", "--solver", "/nonexistent"],
                 "failed to launch solver '/nonexistent'",
                 id="argv24-failed to launch solver '/nonexistent'"),
    pytest.param(["prove", "--n", "5", "--depth", "4", "--solver", "/nonexistent"],
                 "failed to launch solver '/nonexistent'",
                 id="argv25-failed to launch solver '/nonexistent'"),
    pytest.param(["find", "--n", "3", "--depth", "0", "--mode", "layer1"],
                 "--mode layer1 needs --depth >= 1", id="argv26---mode layer1 needs --depth >= 1"),
    pytest.param(["prove", "--n", "5", "--depth", "4", "--pads", "9"],
                 "--pads must satisfy 0 <= pad < n = 5, got 9",
                 id="argv27---pads must satisfy 0 <= pad < n = 5, got 9"),
    pytest.param(["prove", "--n", "5", "--depth", "4", "--pads", "2,-1"],
                 "--pads must satisfy 0 <= pad < n = 5, got -1",
                 id="argv28---pads must satisfy 0 <= pad < n = 5, got -1"),
    pytest.param(["gen", "--n", "4", "--set", "gn", "--out", "/nonexistent/x"],
                 "--out /nonexistent/x: ", id="gen-out-cannot-open"),
    pytest.param(["encode", "--n", "4", "--depth", "3", "--out", "/nonexistent/x"],
                 "--out /nonexistent/x: ", id="encode-out-cannot-open"),
    pytest.param(["tables", "--max-n", "5", "--out", "/nonexistent/x"],
                 "--out /nonexistent/x: ", id="tables-out-cannot-open"),
    pytest.param(["prove", "--n", "5", "--depth", "4", "--out", "/nonexistent/x"],
                 "--out /nonexistent/x: ", id="prove-out-cannot-open"),
]
# pytest would suffix a repeated id, renaming the row that held it first
assert len({row.id for row in USAGE_ERRORS}) == len(USAGE_ERRORS)


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
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


def test_prove_checks_its_out_before_the_campaign(tmp_path):
    # a bad --out is found before any solver runs, so no campaign is lost to it
    marker = tmp_path / "ran"
    script = tmp_path / "solver.sh"
    script.write_text(f"#!/bin/sh\ntouch {marker}\necho 's UNSATISFIABLE'\nexit 20\n")
    script.chmod(0o755)
    prove = CLI + ["prove", "--n", "5", "--depth", "4"]
    bad = str(tmp_path / "missing" / "report.json")
    out = subprocess.run(prove + ["--solver", str(script), "--out", bad],
                         capture_output=True, text=True)
    assert out.returncode == 2 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines()[-1].endswith(f"error: --out {bad}: [Errno 2] No such file "
                                                f"or directory: '{bad}'")
    assert not marker.exists()
    # the check opens --out to append: a run that then fails keeps an older report
    old = tmp_path / "report.json"
    old.write_text("older report\n")
    out = subprocess.run(prove + ["--solver", "/nonexistent", "--out", str(old)],
                         capture_output=True, text=True)
    assert out.returncode == 2 and old.read_text() == "older report\n"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["encode", "--n", "4", "--depth", "3", "--prefix", "bad.json"],
                 "--prefix bad.json: ", id="encode-bad-prefix"),
    pytest.param(["prove", "--n", "5", "--depth", "4", "--solver", "/nonexistent"],
                 "failed to launch solver '/nonexistent'", id="prove-solver-not-executable"),
    pytest.param(["prove", "--n", "5", "--depth", "4"], "no SAT solver found",
                 id="prove-no-solver-found"),
])
def test_a_usage_error_leaves_no_out_file(argv, message, tmp_path, monkeypatch, capsys):
    # the prefix and the solver are checked before --out is opened: a usage
    # error leaves no new --out file behind, and an existing one as it was
    monkeypatch.setattr("sortnetopt.solver.find_solver", lambda: None)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("[1, 2")
    out = tmp_path / "out.txt"
    for old in (None, "older report\n"):
        if old is not None:
            out.write_text(old)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(out)])
        assert exc.value.code == 2 and message in capsys.readouterr().err.splitlines()[-1]
        assert (out.read_text() if out.exists() else None) == old


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
                                         "or any of " + ", ".join(KNOWN_SOLVERS) + "), or install "
                                         "a C compiler `cc` to build the reference solver refsat")


def test_find_solver_lookup_order(tmp_path, monkeypatch):
    # $SAT_SOLVER first; then name by name in KNOWN_SOLVERS order: PATH,
    # ~/.local/bin, ~/.cargo/bin, skipping files that are not executable
    home = tmp_path / "home"
    dirs = {"path": tmp_path / "path", "local": home / ".local" / "bin",
            "cargo": home / ".cargo" / "bin"}
    for d in dirs.values():
        d.mkdir(parents=True)
    monkeypatch.delenv("SAT_SOLVER", raising=False)
    monkeypatch.setenv("PATH", str(dirs["path"]))
    monkeypatch.setenv("HOME", str(home))
    first, later = list(KNOWN_SOLVERS)[0], list(KNOWN_SOLVERS)[-1]

    def stub(where, name, mode=0o755):
        path = dirs[where] / name
        path.write_text("#!/bin/sh\nexit 0\n")
        path.chmod(mode)
        return str(path)

    assert solver.find_solver() is None
    for where in dirs:
        stub(where, first, 0o644)
    assert solver.find_solver() is None
    # each stub wins over every one made before it
    for where, name in [("path", later), ("cargo", first), ("local", first), ("path", first)]:
        exe = stub(where, name)
        assert solver.find_solver() == exe, (where, name)
    monkeypatch.setenv("SAT_SOLVER", "")   # empty is unset
    assert solver.find_solver() == str(dirs["path"] / first)
    monkeypatch.setenv("SAT_SOLVER", str(tmp_path / "missing"))   # taken as given
    assert solver.find_solver() == str(tmp_path / "missing")
    # last, the reference solver: found only when no known name is, and
    # every stub above still wins over it
    monkeypatch.delenv("SAT_SOLVER")
    sentinel = str(tmp_path / "reference")
    monkeypatch.setattr(solver, "reference_solver", lambda: sentinel)
    for where, name in [("path", first), ("local", first), ("cargo", first), ("path", later)]:
        assert solver.find_solver() == str(dirs[where] / name), (where, name)
        (dirs[where] / name).unlink()
    assert solver.find_solver() == sentinel
    stub("path", first, 0o644)
    assert solver.find_solver() == sentinel


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler `cc` on PATH")


def _refsat_digest() -> str:
    return hashlib.sha256(solver.REFSAT_SOURCE.read_bytes()).hexdigest()


@needs_cc
def test_reference_solver_builds_once_per_source(tmp_path, monkeypatch):
    # the first call compiles refsat into a 0700 directory named by the
    # source hash, however loose the directory was; a second call runs no
    # cc and returns the same path
    monkeypatch.setenv("HOME", str(tmp_path))
    cache = tmp_path / ".cache" / "sortnetopt" / f"refsat-{_refsat_digest()[:16]}"
    cache.mkdir(parents=True)
    cache.chmod(0o777)
    runs = []
    real_run = subprocess.run

    def counting_run(cmd, *args, **kw):
        runs.append(cmd)
        return real_run(cmd, *args, **kw)

    monkeypatch.setattr(subprocess, "run", counting_run)
    exe = solver.reference_solver()
    assert exe == str(cache / "refsat")
    assert len(runs) == 1 and Path(runs[0][0]).name == "cc" and runs[0][1:3] == ["-O2", "-std=c11"]
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert [p.name for p in cache.iterdir()] == ["refsat"]
    assert solver.reference_solver() == exe and len(runs) == 1
    assert run_solver(Cnf(1, [(1,), (-1,)]), SolverConfig(exe), name="unsat1").verdict == "UNSAT"


def test_reference_solver_needs_cc(tmp_path, monkeypatch):
    # without cc on PATH there is no reference solver, so with no other
    # solver find_solver finds none, and nothing is cached
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    monkeypatch.delenv("SAT_SOLVER", raising=False)
    assert solver.reference_solver() is None
    assert solver.find_solver() is None
    assert not (tmp_path / ".cache").exists()


def test_reference_solver_failed_compile_leaves_nothing(tmp_path, monkeypatch):
    # a cc that writes its output file, complains and exits 1: RuntimeError
    # with its stderr, and neither the temp file nor a refsat stays
    bindir = tmp_path / "bin"
    bindir.mkdir()
    (bindir / "cc").write_text(
        "#!/bin/sh\n"
        'while [ $# -gt 0 ]; do [ "$1" = -o ] && echo partial > "$2"; shift; done\n'
        "echo 'refsat.c:1: error: broken compiler' >&2\n"
        "exit 1\n")
    (bindir / "cc").chmod(0o755)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(bindir))
    with pytest.raises(RuntimeError, match="refsat.c:1: error: broken compiler"):
        solver.reference_solver()
    cache = tmp_path / ".cache" / "sortnetopt"
    assert [p.name for p in cache.rglob("*")] == [f"refsat-{_refsat_digest()[:16]}"]


def test_the_tree_holds_one_refsat_source():
    # the package's refsat.c is a link to the benchmark's, so the two cannot
    # drift apart and BENCH numbers stay comparable
    root = Path(__file__).resolve().parent.parent
    link = root / "src" / "sortnetopt" / "refsat.c"
    assert link.is_symlink()
    assert link.resolve() == (root / "bench" / "refsat" / "refsat.c").resolve()


@needs_cc
def test_cli_prove_builds_its_own_solver(tmp_path, monkeypatch):
    # with no SAT_SOLVER and no known solver, prove builds refsat and
    # refutes every prefix of R_7 at depth 5
    monkeypatch.delenv("SAT_SOLVER", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("PATH", os.pathsep.join([str(Path(shutil.which("cc")).parent), "/bin"]))
    report = tmp_path / "report.json"
    assert cli.main(["prove", "--n", "7", "--depth", "5", "--jobs", "2", "--out", str(report)]) == 20
    camp = campaign_from_json(report.read_text())
    assert camp.claim == "T(7) > 5" and len(camp.instances) == 8


def test_cli_solve_failure_leaves_nothing_and_shows_the_log(tmp_path, monkeypatch, capsys):
    # a crashed solver: inconclusive on stdout, its log on stderr, and no
    # copy of the user's CNF left in the temp dir
    user, temp = tmp_path / "user", tmp_path / "temp"
    user.mkdir()
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    crash = user / "crash.sh"
    crash.write_text("#!/bin/sh\necho 'c crashing'\nexit 3\n")
    crash.chmod(0o755)
    (user / "f.cnf").write_text("p cnf 1 1\n1 0\n")
    assert cli.main(["solve", "--cnf", str(user / "f.cnf"), "--solver", str(crash)]) == 30
    out, err = capsys.readouterr()
    assert out == "s TIMEOUT\n"
    assert "exit: 3" in err.splitlines() and "c crashing" in err.splitlines()
    assert list(temp.iterdir()) == []


def test_cli_solve_runs_on_the_users_file(tmp_path, monkeypatch, capsys):
    # the solver reads the user's file itself, bytes that are no UTF-8
    # included: the solver and the log see its path, the file keeps its
    # bytes, and no copy is made
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    text = b"c \xff\np cnf 1 1\n1 0\n"
    cnf = tmp_path / "f.cnf"
    cnf.write_bytes(text)
    echo = _fake_solver(tmp_path, "echo", 'echo "c got $1"\nexit 3').executable
    assert cli.main(["solve", "--cnf", str(cnf), "--solver", echo]) == 30
    err = capsys.readouterr().err.splitlines()
    assert f"c got {cnf}" in err and f"cmd: {echo} {cnf}" in err
    quiet = _fake_solver(tmp_path, "quiet", "exit 20").executable
    assert cli.main(["solve", "--cnf", str(cnf), "--solver", quiet]) == 20
    assert cnf.read_bytes() == text
    assert list(temp.iterdir()) == []


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
    assert camp.spec == Campaign(5, 4, "two-layer", (2, 0))

"""Span bookkeeping, instance records and the benchmark's own checks."""

import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import spans
import worker
import sortnetopt as so
from sortnetopt import campaign, encoding, networks, solver


def test_covered_is_the_union_length():
    assert spans.covered([]) == 0.0
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert spans.covered([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_subtracts_children_once():
    span_list = [
        ["outer", 0.0, 10.0, 1, None],
        ["a", 1.0, 4.0, 1, 0],
        ["b", 2.0, 6.0, 2, 0],      # overlaps a on another thread
        ["c", 2.5, 3.0, 1, 1],
    ]
    st = spans.self_times(span_list)
    assert st["outer"] == pytest.approx(5.0)
    assert st["a"] == pytest.approx(2.5)
    assert st["b"] == pytest.approx(4.0)
    assert spans.thread_busy(span_list, main_thread=1) == pytest.approx(4.0)


def test_wrappers_record_parents_across_threads_and_restore():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: time.sleep(0.01) or x
    mod.gen = lambda n: (i for i in range(n))

    class Box:
        def __init__(self, v):
            self.v = v
    mod.Box = Box

    def fan_out(k):
        with ThreadPoolExecutor(2) as pool:
            return list(pool.map(mod.leaf, range(k)))
    mod.fan_out = fan_out

    originals = dict(vars(mod))
    tracer = spans.Tracer()
    found = tracer.instrument([(mod, "leaf", "t.leaf", "call"), (mod, "gen", "t.gen", "gen"),
                               (mod, "Box", "t.box", "class"), (mod, "fan_out", "t.fan", "call"),
                               (mod, "absent", "t.absent", "call")])
    assert "t.absent" not in found
    assert mod.fan_out(4) == [0, 1, 2, 3]
    assert list(mod.gen(3)) == [0, 1, 2]
    assert isinstance(mod.Box(5), Box) and mod.Box(5).v == 5
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("t.leaf") == 4 and names.count("t.box") == 2
    fan = names.index("t.fan")
    leaves = [s for s in tracer.spans if s[spans.NAME] == "t.leaf"]
    assert all(s[spans.PARENT] == fan for s in leaves)
    assert all(s[spans.THREAD] != threading.get_ident() for s in leaves)
    tracer.restore()
    assert vars(mod) == originals


def test_instance_log_rebuilds_records_and_layer_counts(refsat, tmp_path):
    prefixes = campaign.two_layer_prefixes(6)
    log = worker.InstanceLog({(6, p): i for i, p in enumerate(prefixes)})
    tracer = spans.Tracer(listener=log)
    tracer.instrument(worker.trace_targets())
    config = solver.SolverConfig(executable=str(refsat), workdir=str(tmp_path))
    try:
        # looked up where the campaign looks them up, as during a workload
        xs = campaign.unsorted_inputs(6, prefixes[1])
        vm, cnf = campaign.build(6, 4, xs, encoding.EncodeOptions(pad=2, prefix=prefixes[1]))
        result = campaign.run_solver(cnf, config, name="n6d4p1w2")
    finally:
        tracer.restore()
    log.count_layers(so)
    (rec,) = log.records
    assert (rec["n"], rec["d"], rec["prefix_index"], rec["pad"]) == (6, 4, 1, 2)
    assert (rec["name"], rec["verdict"]) == ("n6d4p1w2", result.verdict)
    assert (rec["inputs_kept"], rec["vars"], rec["clauses"]) == (len(vm.inputs), cnf.num_vars, len(cnf.clauses))
    assert len(rec["clauses_per_layer"]) == 4 and sum(rec["clauses_per_layer"]) == len(cnf.clauses)
    assert {"networks.unsorted_inputs", "encoding.build", "encoding.to_dimacs",
            "encoding.input_sort", "solver.run_solver"} <= set(rec["stage_s"])
    # io_s is the run_solver span without the solver and without the DIMACS text
    stages = rec["stage_s"]
    assert rec["io_s"] == pytest.approx(
        stages["solver.run_solver"] - stages["encoding.to_dimacs"] - result.solve_time)
    assert log.totals["dimacs_bytes"] == len(encoding.to_dimacs(cnf))


def test_independent_check_agrees_with_the_library():
    good = so.network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)], [(2, 3)])
    assert worker.sorts_all(4, good.layers) and networks.is_sorting_network(good)
    bad = so.network(4, [(1, 2), (3, 4)], [(1, 3), (2, 4)])
    assert not worker.sorts_all(4, bad.layers) and not networks.is_sorting_network(bad)

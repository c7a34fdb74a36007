"""Tests of the benchmark's own helpers (percentiles, spans, seeds, digests).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json

import pytest

from perfbench import grids
from perfbench.checks import Checker, aggregate, digest
from perfbench.run import declared_units, sweep_layers
from perfbench.spans import (Recorder, beyond, nearest_rank, restore, self_by_name, self_times,
                             tail, wrap)


# -- percentile rule ---------------------------------------------------------------
def test_nearest_rank_is_the_smallest_sample_covering_the_share():
    samples = list(range(1, 101))  # 1..100
    assert nearest_rank(samples, 0.5) == 50
    assert nearest_rank(samples, 0.9) == 90
    assert nearest_rank(samples, 0.99) == 99
    assert nearest_rank([7.0], 0.99) == 7.0
    assert nearest_rank([3, 1, 2], 0.5) == 2


def test_tail_reports_the_highest_percentile_with_ten_samples_beyond():
    thousand = [float(i) for i in range(1000)]
    assert beyond(1000, 0.99) == 10
    assert tail(thousand, 0.99) == (989.0, 0.99)
    # 500 samples leave only 5 beyond p99: fall back to p95 (25 beyond).
    value, used = tail(thousand[:500], 0.99)
    assert used == 0.95 and value == nearest_rank(thousand[:500], 0.95)
    # 100 samples: p90 has exactly 10 beyond it.
    assert tail(thousand[:100], 0.9)[1] == 0.9
    # Too few samples for any tail: the median is the floor.
    assert tail([1.0, 2.0, 3.0], 0.99) == (2.0, 0.5)


# -- self-time arithmetic -----------------------------------------------------------
def _span(name, start, end, parent):
    return [name, start, end, parent, 1, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("runner", 0.0, 10.0, -1),
        _span("run", 1.0, 7.0, 0),
        _span("bind", 2.0, 4.0, 1),
        _span("compile", 2.5, 3.0, 2),
        _span("put", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 4.0, 1.5, 0.5, 1.0])
    totals = self_by_name(spans + [_span("put", 11.0, 11.5, -1)])
    assert totals["put"] == pytest.approx(1.5)
    # Self times partition the root spans' wall time.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_recorder_nests_spans_per_thread():
    recorder = Recorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    sibling = recorder.begin("sibling")
    recorder.end(sibling)
    parents = [span[3] for span in recorder.spans]
    assert parents == [-1, 0, -1]
    assert all(own >= 0 for own in self_times(recorder.spans))


# -- seeded inputs ------------------------------------------------------------------
def test_same_seed_gives_identical_grids_and_requests():
    pytest.importorskip("repro")
    for workload in ("sweep_static", "sweep_stream"):
        first = [spec.describe() for spec in grids.sweep_specs(workload, 5)]
        again = [spec.describe() for spec in grids.sweep_specs(workload, 5)]
        assert json.dumps(first) == json.dumps(again)
    assert json.dumps(grids.serve_plan(5)) == json.dumps(grids.serve_plan(5))
    assert json.dumps(grids.serve_plan(5)) != json.dumps(grids.serve_plan(6))


def test_static_grid_size_does_not_depend_on_the_seed():
    pytest.importorskip("repro")
    sizes = {grids.static_spec(seed).num_points() for seed in range(6)}
    assert sizes == {168}
    stream = {sum(spec.num_points() for spec in grids.stream_specs(seed)) for seed in range(6)}
    assert stream == {144}


def test_serve_plan_has_fixed_shares_and_valid_repeats():
    plan = grids.serve_plan(3)
    expected = grids.serve_expectations()
    slots = [slot for client in plan["clients"] for slot in client]
    assert len(slots) == expected["requests"] == 1200
    kinds = [kind for kind, _ in slots]
    # The measured serving mix: 15 executed, 14 coalesced, 571 cached of 600.
    assert kinds.count("coalesce") == 2 * grids.COALESCED_PAIRS
    assert expected["executed"] == 30
    assert kinds.count("store") + kinds.count("memo") == 2 * 571
    assert len(plan["prefill"]) == kinds.count("store")
    assert plan["clients"][0][2][1] is plan["clients"][1][2][1]  # a pair shares its cell
    for client in plan["clients"]:
        seen = set()
        for kind, body in client:
            key = json.dumps(body, sort_keys=True)
            if kind == "memo":
                assert key in seen, "a memo repeat must name a completed cell"
            else:
                assert kind == "coalesce" or key not in seen, "a new cell must be new"
            seen.add(key)
    executed = {(body["workload"], body["seed"]) for kind, body in slots
                if kind in ("miss", "coalesce")}
    assert len(executed) > 16  # larger than the server's trace memo


# -- digest check -------------------------------------------------------------------
def _document():
    return {"format_version": 2, "makespan_us": 1234.5, "num_tasks": 3,
            "manager_stats": {"set_conflicts": [0, 1], "task_graph_busy_us": [1.0, 2.0],
                              "arbiter_busy_us": 0.5, "mean_ready_latency_us": 0.25}}


def test_digest_check_rejects_a_document_with_one_field_changed():
    document = _document()
    pins = {"cell": digest(document)}
    checker = Checker(pins)
    assert checker.check("cell", copy.deepcopy(document))
    changed = copy.deepcopy(document)
    changed["manager_stats"]["arbiter_busy_us"] = 0.5000001
    assert not checker.check("cell", changed)
    assert not Checker(pins).check("other-cell", document)


def test_wrapping_a_missing_layer_fails_instead_of_reading_zero():
    class Layer:
        @staticmethod
        def run():
            return 7

    recorder = Recorder()
    patches = [wrap(recorder, Layer, "run", "layer.run")]
    assert Layer.run() == 7 and recorder.spans[0][0] == "layer.run"
    restore(patches)
    assert Layer.run() == 7 and len(recorder.spans) == 1
    with pytest.raises(AttributeError, match="layer.gone"):
        wrap(recorder, Layer, "gone", "layer.gone")


# -- declared metrics ----------------------------------------------------------------
def test_traced_sweep_reports_exactly_the_declared_per_layer_metrics():
    summary = {"layers": {"self_s": {"system.run": 2.0}, "calls": {}, "events": {"system.run": 10},
                          "unattributed_s": 0.01},
               "counters": aggregate([]), "hit_ratio_cold": 0.0, "hit_ratio_warm": 1.0,
               "cold_wall_s": 1.0}
    e2e = {"warm_wall_s": 0.03, "warm_req_p50_ms": 0.1, "warm_req_p99_ms": 0.3}
    metrics = sweep_layers({False: [summary], True: [summary]}, e2e)
    assert set(metrics) == set(declared_units(1))
    assert metrics["system.ns_per_event"] == pytest.approx(2e8)
    assert metrics["bench.trace_overhead_frac"] == 0.0

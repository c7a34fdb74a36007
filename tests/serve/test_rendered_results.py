"""Served results are rendered once and spliced into each response.

A memoised result keeps its canonical JSON bytes beside the document,
and ``/v1/simulate`` bodies and ``/v1/sweep`` rows are built by
appending those bytes as the last key, ``"result"``.  These tests pin
the two promises that makes: every body is byte-identical to
``canonical_json_line`` of the full document, and a result is rendered
at most once while the memo holds it.
"""

from __future__ import annotations

import asyncio
import http.client
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import ResultCache
from repro.experiments.spec import RunPoint, SweepSpec
from repro.serve import ServeConfig, start_in_thread
from repro.serve import app
from repro.serve.batcher import Batcher
from repro.trace.serialization import canonical_json_line, trace_to_json
from repro.workloads.synthetic import generate_fork_join

SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | st.text())
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20)
DOCUMENTS = st.dictionaries(st.text(max_size=12), VALUES, max_size=6)

SIMULATE_ENVELOPES = st.fixed_dictionaries({
    "cache_key": st.none() | st.text(alphabet="0123456789abcdef", min_size=64,
                                     max_size=64),
    "cached": st.booleans(),
    "makespan_us": st.none() | st.floats(allow_nan=True, allow_infinity=True),
})
ROW_ENVELOPES = st.fixed_dictionaries({"point": DOCUMENTS})


def full_line(envelope, document) -> bytes:
    return (canonical_json_line({**envelope, "result": document}) + "\n").encode("utf-8")


class TestSplice:
    @given(envelope=SIMULATE_ENVELOPES | ROW_ENVELOPES, document=DOCUMENTS)
    @settings(max_examples=200, deadline=None)
    def test_spliced_line_equals_the_full_rendering(self, envelope, document):
        result = app._render_result(document)
        assert app._result_line(envelope, result) == full_line(envelope, document)

    def test_non_ascii_and_non_finite_values(self):
        envelope = {"cache_key": None, "cached": True, "makespan_us": float("nan")}
        document = {"trace": "naïve-追跡", "makespan_us": float("inf"),
                    "manager_stats": {"µs": float("-inf"), "ok": [1, 2.5]}}
        line = app._result_line(envelope, app._render_result(document))
        assert line == full_line(envelope, document)
        assert b"NaN" in line and b"Infinity" in line and line.isascii()


# -- end to end ------------------------------------------------------------
KEEP_SCHEDULE = dict(workload="sparselu", manager="nexus#2", cores=2, scale=0.05,
                     keep_schedule=True)


@pytest.fixture
def server():
    handle = start_in_thread(ServeConfig(batch_window=0.001))
    yield handle
    handle.stop()


def post(server, path: str, fields) -> bytes:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request("POST", path, body=json.dumps(fields).encode("utf-8"),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body
    finally:
        conn.close()


def assert_canonical(line: bytes) -> dict:
    document = json.loads(line)
    assert line == (canonical_json_line(document) + "\n").encode("utf-8")
    return document


class TestServedBytes:
    def test_keep_schedule_cell_cold_and_warm_bodies_are_canonical(self, server):
        cold = post(server, "/v1/simulate", KEEP_SCHEDULE)
        warm = post(server, "/v1/simulate", KEEP_SCHEDULE)
        cold_doc, warm_doc = assert_canonical(cold), assert_canonical(warm)
        assert (cold_doc["cached"], warm_doc["cached"]) == (False, True)
        assert cold_doc["result"]["start_times"]  # a keep_schedule document
        assert cold.replace(b'"cached":false', b'"cached":true') == warm

    def test_non_ascii_inline_trace_is_canonical(self, server):
        trace = generate_fork_join(3, 4, duration_us=5.0).with_name("fork·join-追跡")
        fields = dict(workload={"inline": trace_to_json(trace)}, manager="ideal",
                      cores=2, keep_schedule=True)
        for _ in range(2):
            body = post(server, "/v1/simulate", fields)
            assert assert_canonical(body)["result"]["trace"] == "fork·join-追跡"

    def test_sweep_rows_are_canonical_cold_and_warm(self, server):
        fields = dict(workloads=["microbench", "sparselu"], managers=["ideal", "nexus#2"],
                      core_counts=[1, 2], scale=0.05, keep_schedule=True)
        cold = post(server, "/v1/sweep", fields)
        warm = post(server, "/v1/sweep", fields)
        assert cold == warm
        lines = cold.splitlines(keepends=True)
        assert len(lines) == 8
        for line in lines:
            assert_canonical(line)


class TestRenderOnce:
    @staticmethod
    def count_result_renders(monkeypatch):
        rendered = []
        original = app.canonical_json_line

        def counting(document):
            if isinstance(document, dict) and "num_tasks" in document:
                rendered.append(document)
            assert not (isinstance(document, dict) and "result" in document)
            return original(document)

        monkeypatch.setattr(app, "canonical_json_line", counting)
        return rendered

    def test_memo_hits_of_a_keep_schedule_cell_render_it_once(self, server, monkeypatch):
        rendered = self.count_result_renders(monkeypatch)
        bodies = [post(server, "/v1/simulate", KEEP_SCHEDULE) for _ in range(6)]
        assert len(rendered) == 1
        assert len({body.replace(b'"cached":false', b'"cached":true')
                    for body in bodies}) == 1

    def test_sweep_rows_reuse_the_simulate_rendering(self, server, monkeypatch):
        rendered = self.count_result_renders(monkeypatch)
        post(server, "/v1/simulate", KEEP_SCHEDULE)
        post(server, "/v1/sweep", dict(
            workloads=["sparselu"], managers=["nexus#2"], core_counts=[2],
            scale=0.05, keep_schedule=True))
        assert len(rendered) == 1

    def test_uncacheable_points_render_on_every_request(self, server, monkeypatch):
        monkeypatch.setattr(RunPoint, "cacheable", property(lambda self: False))
        rendered = self.count_result_renders(monkeypatch)
        bodies = [post(server, "/v1/simulate", KEEP_SCHEDULE) for _ in range(3)]
        assert len(rendered) == 3
        for body in bodies:
            document = assert_canonical(body)
            assert document["cached"] is False and document["cache_key"] is None


class TestMemoBytes:
    @staticmethod
    def points(count):
        spec = SweepSpec(workloads=["microbench"], managers=["ideal"],
                         core_counts=list(range(1, count + 1)), scale=0.05)
        return list(spec.points())

    def test_eviction_drops_the_bytes_with_the_document(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        points = self.points(3)
        for point in points:
            cache.put(point.cache_key(), {"num_tasks": point.cores})
        batcher = Batcher(cache=cache, memo_entries=2)
        renders = []

        def render(document):
            renders.append(document)
            return canonical_json_line(document).encode("utf-8")

        try:
            first_key, first = batcher.lookup(points[0])
            assert batcher.rendered(first_key, first, render) == b'{"num_tasks":1}'
            assert batcher.rendered(first_key, first, render) == b'{"num_tasks":1}'
            assert len(renders) == 1
            for point in points[1:]:
                key, document = batcher.lookup(point)
                batcher.rendered(key, document, render)
            assert first_key not in batcher._memo
            assert [entry.rendered for entry in batcher._memo.values()] == [
                b'{"num_tasks":2}', b'{"num_tasks":3}']
            # Evicted: the stale document renders afresh and is not kept.
            batcher.rendered(first_key, first, render)
            batcher.rendered(first_key, first, render)
            assert len(renders) == 5 and len(batcher._memo) == 2
        finally:
            asyncio.run(batcher.close())

    def test_bytes_are_kept_only_for_the_memoised_document(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        [point] = self.points(1)
        cache.put(point.cache_key(), {"num_tasks": 1})
        batcher = Batcher(cache=cache)
        try:
            key, document = batcher.lookup(point)
            other = dict(document)  # equal, but not the memo's document
            assert batcher.rendered(key, other, app._render_result) == b'{"num_tasks":1}'
            assert batcher._memo[key].rendered is None
            assert batcher.rendered(None, document, app._render_result) == b'{"num_tasks":1}'
            assert batcher._memo[key].rendered is None
        finally:
            asyncio.run(batcher.close())

"""Fault injection against the serving layer.

The contract under test: a saturated queue answers 429 with a measured
``Retry-After`` (and nothing is half-admitted); a client disconnecting
mid-stream never cancels a simulation another request is awaiting and
never wedges the server; an engine failure surfaces as a clean 5xx (or
a detectable truncation once a stream has started) — never a hung
connection.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

import repro.serve.batcher as batcher_module
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeError,
    ServeSaturated,
    start_in_thread,
)

SLOW_BLOCK = 0.25  # seconds a monkeypatched simulation block takes

_real_execute_block = batcher_module.execute_block


class TestBackPressure:
    def test_oversized_sweep_is_rejected_whole_with_retry_after(self):
        """A sweep with more fresh cells than the queue can ever hold is
        refused atomically: 429, nothing enqueued, nothing half-run."""
        handle = start_in_thread(ServeConfig(max_pending=4))
        try:
            # retry=None: the default client would dutifully honour the
            # Retry-After and resubmit; here we count server rejections.
            with ServeClient(handle.host, handle.port, timeout=60,
                             retry=None) as c:
                with pytest.raises(ServeSaturated) as err:
                    c.sweep_report(workloads=["microbench"],
                                   managers=["ideal", "nanos"],
                                   core_counts=[1, 2, 4], scale=0.05)
                assert err.value.retry_after_s >= 1.0
                stats = c.stats()
                assert stats["executed"] == 0
                assert stats["pending"] == 0
                assert stats["rejected_requests"] == 1
                # The server is not wedged: a small request still lands.
                doc = c.simulate(workload="microbench", manager="ideal",
                                 cores=1, scale=0.05)
                assert doc["makespan_us"] > 0
        finally:
            handle.stop()

    def test_saturated_queue_429s_then_recovers(self, monkeypatch):
        """With one-deep admission and a gated block, a concurrent
        distinct cell deterministically gets 429 + Retry-After; once the
        queue drains the same request succeeds."""
        occupying = threading.Event()  # the first cell is in its block
        release = threading.Event()    # let the first cell finish

        def gated(block):
            occupying.set()
            assert release.wait(timeout=60)
            return _real_execute_block(block)

        monkeypatch.setattr(batcher_module, "execute_block", gated)
        handle = start_in_thread(ServeConfig(max_pending=1, batch_window=0.0,
                                             executor_threads=1))
        try:
            first = dict(workload="microbench", manager="ideal",
                         cores=1, scale=0.05)
            second = dict(workload="microbench", manager="nexus#2",
                          cores=1, scale=0.05)
            box = {}

            def occupy():
                with ServeClient(handle.host, handle.port, timeout=60) as c:
                    box["first"] = c.simulate(**first)

            thread = threading.Thread(target=occupy)
            thread.start()
            try:
                # By the time the gate trips, the first cell holds the
                # whole queue (admission happens before dispatch).
                assert occupying.wait(timeout=30)
                with ServeClient(handle.host, handle.port, timeout=60) as c:
                    with pytest.raises(ServeSaturated) as err:
                        c.simulate(**second)
                    assert err.value.retry_after_s >= 1.0
                    release.set()
                    thread.join(timeout=30)
                    assert box["first"]["makespan_us"] > 0
                    # The drained queue admits the retried request.
                    doc = c.simulate(**second)
                    assert doc["makespan_us"] > 0
            finally:
                release.set()
                thread.join(timeout=30)
        finally:
            handle.stop()


class TestClientDisconnect:
    def test_disconnect_mid_stream_never_cancels_a_shared_simulation(
            self, monkeypatch):
        """Client A starts a slow streamed sweep and hangs up mid-body;
        client B awaits the same cells.  B must still get every row, and
        the server must keep answering."""
        monkeypatch.setattr(batcher_module, "execute_block",
                            lambda block: (time.sleep(SLOW_BLOCK),
                                           _real_execute_block(block))[1])
        handle = start_in_thread(ServeConfig(block_cells=1, batch_window=0.0,
                                             executor_threads=1))
        fields = dict(workloads=["microbench"], managers=["ideal", "nexus#2"],
                      core_counts=[1, 2], scale=0.05, format="jsonl")
        body = json.dumps(fields).encode("utf-8")
        rows_b = []
        errors = []

        def client_b():
            try:
                with ServeClient(handle.host, handle.port, timeout=120) as c:
                    rows_b.extend(c.sweep_rows(**fields))
            except Exception as exc:
                errors.append(exc)

        try:
            # Client A: raw socket, read one chunk of the stream, vanish.
            sock = socket.create_connection((handle.host, handle.port),
                                            timeout=30)
            sock.sendall(
                b"POST /v1/sweep HTTP/1.1\r\n"
                b"Host: test\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
            first = sock.recv(256)
            assert b"200" in first
            thread = threading.Thread(target=client_b)
            thread.start()
            sock.close()  # mid-stream disconnect
            thread.join(timeout=120)
            assert not thread.is_alive(), "client B hung"
            assert errors == []
            assert len(rows_b) == 4
            with ServeClient(handle.host, handle.port, timeout=30) as c:
                assert c.healthz()["status"] == "ok"
        finally:
            handle.stop()


class TestEngineFailure:
    def test_simulation_error_is_a_clean_500_not_a_hang(self, monkeypatch):
        def exploding(block):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(batcher_module, "execute_block", exploding)
        handle = start_in_thread(ServeConfig(batch_window=0.0))
        try:
            with ServeClient(handle.host, handle.port, timeout=30) as c:
                with pytest.raises(ServeError) as err:
                    c.simulate(workload="microbench", manager="ideal",
                               cores=1, scale=0.05)
                assert err.value.status == 500
                assert "engine exploded" in str(err.value)
                # The connection (and the queue) survive the failure.
                monkeypatch.setattr(batcher_module, "execute_block",
                                    _real_execute_block)
                doc = c.simulate(workload="microbench", manager="ideal",
                                 cores=1, scale=0.05)
                assert doc["makespan_us"] > 0
                assert c.stats()["pending"] == 0
        finally:
            handle.stop()

    def test_worker_death_during_fabric_block_falls_back_to_local(self, monkeypatch):
        """The fabric path reports a lost sweep as SimulationError; the
        batcher's circuit breaker must absorb it — re-run the block on
        the local executor and serve a correct 200, never a hang.  After
        enough failures the breaker opens and blocks skip the fabric."""
        from repro.common.errors import SimulationError

        def dying(block, **kwargs):
            raise SimulationError("distributed sweep failed: worker died")

        monkeypatch.setattr(batcher_module, "execute_block_fabric", dying)
        handle = start_in_thread(ServeConfig(batch_window=0.0,
                                             fabric_workers=2,
                                             fabric_min_cells=1))
        try:
            with ServeClient(handle.host, handle.port, timeout=30) as c:
                doc = c.simulate(workload="microbench", manager="ideal",
                                 cores=1, scale=0.05)
                assert doc["makespan_us"] > 0
                stats = c.stats()
                assert stats["fabric_failures"] >= 1
                assert stats["errors"] == 0
                # Distinct cells, so every block is fresh work; after
                # failure_threshold fabric losses the breaker opens and
                # later blocks bypass the fabric entirely.
                for seed in range(4):
                    c.simulate(workload="microbench", manager="nexus#2",
                               cores=1, scale=0.05, seed=seed)
                stats = c.stats()
                assert stats["breaker"]["state"] == "open"
                assert stats["fabric_fallbacks"] >= 1
                assert c.healthz()["status"] == "ok"
        finally:
            handle.stop()

    def test_mid_stream_failure_truncates_the_chunked_body(self, monkeypatch):
        """Once rows are flowing an error cannot become a 5xx; the server
        must drop the terminal chunk so the client sees an incomplete
        read instead of a hang."""
        calls = []

        def fail_on_third(block):
            calls.append(1)
            if len(calls) >= 3:
                raise RuntimeError("engine exploded mid-sweep")
            return _real_execute_block(block)

        monkeypatch.setattr(batcher_module, "execute_block", fail_on_third)
        handle = start_in_thread(ServeConfig(block_cells=1, batch_window=0.0,
                                             executor_threads=1))
        try:
            with ServeClient(handle.host, handle.port, timeout=30) as c:
                with pytest.raises((http.client.IncompleteRead,
                                    http.client.HTTPException,
                                    ConnectionError)):
                    list(c.sweep_rows(workloads=["microbench"],
                                      managers=["ideal", "nexus#2"],
                                      core_counts=[1, 2], scale=0.05))
            with ServeClient(handle.host, handle.port, timeout=30) as c:
                assert c.healthz()["status"] == "ok"
        finally:
            handle.stop()


class TestChunkedUpload:
    def test_chunked_jsonl_trace_upload_roundtrip(self, tmp_path):
        """Upload a trace as a chunked-transfer JSONL stream over a raw
        socket; its content-addressed id must match the same trace
        uploaded as a plain document."""
        from repro.trace.serialization import write_trace_stream
        from repro.workloads.registry import get_workload

        trace = get_workload("microbench", scale=0.05)
        path = write_trace_stream(trace, tmp_path / "trace.jsonl",
                                  chunk_size=2)
        text = path.read_text(encoding="utf-8").encode("utf-8")

        handle = start_in_thread(ServeConfig())
        try:
            sock = socket.create_connection((handle.host, handle.port),
                                            timeout=30)
            sock.sendall(b"POST /v1/traces HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: application/jsonl\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n")
            # Ship the body in awkward 97-byte chunks.
            for start in range(0, len(text), 97):
                piece = text[start:start + 97]
                sock.sendall(b"%x\r\n" % len(piece) + piece + b"\r\n")
            sock.sendall(b"0\r\n\r\n")
            response = http.client.HTTPResponse(sock, method="POST")
            response.begin()
            assert response.status == 200
            uploaded = json.loads(response.read())
            sock.close()

            with ServeClient(handle.host, handle.port, timeout=30) as c:
                assert uploaded["trace_id"] == c.upload_trace(trace)
                assert uploaded["num_events"] > 0
        finally:
            handle.stop()

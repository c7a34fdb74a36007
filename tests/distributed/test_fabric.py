"""End-to-end tests of the distributed sweep fabric.

Covers the fabric's contract: byte-identical JSONL against every other
execution mode, survival of a SIGKILLed worker mid-sweep, shared-cache
publishing (warm re-runs do zero simulations), work stealing + heartbeat
rescue of a silent worker, and clean failure on engine errors.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.distributed.protocol import FrameStream
from repro.distributed.scheduler import SweepScheduler
from repro.distributed.worker import run_worker
from repro.experiments.runner import SweepRunner, intern_jobs, run_job
from repro.experiments.spec import SweepSpec


def small_spec(**overrides):
    base = dict(
        workloads=["microbench"],
        managers=["ideal", "nexus#2"],
        core_counts=[1, 2],
        seeds=(1, 2),
        scale=0.05,
    )
    base.update(overrides)
    return SweepSpec(**base)


def wide_spec(seeds, scale=0.01):
    return SweepSpec(
        workloads=["microbench"],
        managers=["ideal", "nanos"],
        core_counts=[1, 2, 4, 8],
        seeds=tuple(range(seeds)),
        scale=scale,
    )


def run_in_thread(runner, spec, jsonl_path):
    """Start ``runner.run`` in a thread; return (thread, box['outcome'])."""
    box = {}

    def target():
        box["outcome"] = runner.run(spec, jsonl_path=jsonl_path)

    thread = threading.Thread(target=target)
    thread.start()
    return thread, box


def wait_for_scheduler(runner, thread, timeout=30.0):
    """Block until the runner has materialised its scheduler (or the
    sweep thread exited).  This is the only spin in the file — the
    scheduler object itself does not exist yet, so there is nothing to
    wait on; every later wait is event-driven via
    :meth:`SweepScheduler.wait_until`."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if runner.last_scheduler is not None or not thread.is_alive():
            return runner.last_scheduler
        time.sleep(0.005)
    return runner.last_scheduler


class TestByteIdentity:
    def test_two_worker_sweep_matches_serial(self, tmp_path):
        spec = small_spec()
        serial = SweepRunner().run(spec, jsonl_path=tmp_path / "serial.jsonl")
        runner = SweepRunner(transport="sockets", workers=2)
        dist = runner.run(spec, jsonl_path=tmp_path / "dist.jsonl")
        assert dist.executed == serial.executed == 8
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "dist.jsonl").read_bytes()
        assert runner.last_scheduler is not None
        assert runner.last_scheduler.results_received == 8


class TestSharedStore:
    def test_workers_publish_into_the_shared_cache(self, tmp_path):
        spec = small_spec()
        store = tmp_path / "store"
        cold = SweepRunner(transport="sockets", workers=2, cache_dir=store).run(spec)
        assert cold.executed == 8 and cold.cache_hits == 0
        # A plain serial runner over the same store simulates nothing:
        # every cell was published by a socket worker.
        warm = SweepRunner(cache_dir=store).run(spec)
        assert warm.executed == 0 and warm.cache_hits == 8
        assert warm.jsonl_lines() == cold.jsonl_lines()

    def test_fully_warm_distributed_run_spawns_no_scheduler(self, tmp_path):
        spec = small_spec()
        store = tmp_path / "store"
        SweepRunner(cache_dir=store).run(spec)
        runner = SweepRunner(transport="sockets", workers=4, cache_dir=store)
        warm = runner.run(spec)
        assert warm.executed == 0 and warm.cache_hits == 8
        assert runner.last_scheduler is None  # no sockets, no processes


class TestFaultTolerance:
    def kill_one_worker_mid_sweep(self, runner, thread, total, after):
        """SIGKILL the first local worker once ``after`` results landed."""
        sched = wait_for_scheduler(runner, thread, timeout=120)
        assert sched is not None, "sweep finished before a scheduler appeared"
        assert sched.wait_until(
            lambda: (bool(sched.processes) and sched.results_received >= after)
            or not thread.is_alive(),
            timeout=120)
        seen = sched.results_received
        assert thread.is_alive() and seen < total, \
            f"sweep finished ({seen}/{total}) before the kill could land"
        os.kill(sched.processes[0].pid, signal.SIGKILL)
        return seen

    def test_sigkill_mid_sweep_loses_nothing(self, tmp_path):
        spec = wide_spec(seeds=75, scale=0.02)  # 600 cells
        serial = SweepRunner().run(spec, jsonl_path=tmp_path / "serial.jsonl")
        assert serial.executed == 600
        runner = SweepRunner(transport="sockets", workers=4)
        thread, box = run_in_thread(runner, spec, tmp_path / "dist.jsonl")
        self.kill_one_worker_mid_sweep(runner, thread, total=600, after=48)
        thread.join(timeout=180)
        assert not thread.is_alive()
        assert box["outcome"].executed == 600
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "dist.jsonl").read_bytes()

    def test_10k_cell_acceptance(self, tmp_path, monkeypatch):
        """The headline contract: a 10k-cell sweep across 4 workers is
        byte-identical to ``n_jobs=1``, survives a SIGKILLed worker
        mid-sweep, and a warm re-run over the shared store performs zero
        ``Machine.run`` calls."""
        spec = wide_spec(seeds=1250)  # 1250 seeds x 2 managers x 4 core counts
        assert len(list(spec.points())) == 10_000
        serial = SweepRunner().run(spec, jsonl_path=tmp_path / "serial.jsonl")
        assert serial.executed == 10_000

        store = tmp_path / "store"
        runner = SweepRunner(transport="sockets", workers=4, cache_dir=store)
        thread, box = run_in_thread(runner, spec, tmp_path / "dist.jsonl")
        self.kill_one_worker_mid_sweep(runner, thread, total=10_000, after=500)
        thread.join(timeout=300)
        assert not thread.is_alive()
        assert box["outcome"].executed == 10_000
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "dist.jsonl").read_bytes()

        # Warm re-run: the shared store answers everything; the engine
        # must never run (and no worker fleet is even spawned).
        from repro.system.machine import Machine

        def forbidden(self, *args, **kwargs):
            raise AssertionError("Machine.run called during a warm re-run")

        monkeypatch.setattr(Machine, "run", forbidden)
        warm_runner = SweepRunner(transport="sockets", workers=4, cache_dir=store)
        warm = warm_runner.run(spec, jsonl_path=tmp_path / "warm.jsonl")
        assert warm.executed == 0 and warm.cache_hits == 10_000
        assert warm_runner.last_scheduler is None
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "warm.jsonl").read_bytes()


class TestSchedulerDirect:
    """Drive SweepScheduler against in-thread / hand-rolled workers."""

    def start(self, scheduler):
        box = {}

        def target():
            try:
                box["pairs"] = scheduler.run()
            except SimulationError as exc:
                box["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        assert scheduler.wait_until(
            lambda: scheduler.address is not None or not thread.is_alive())
        return thread, box

    def test_external_worker_over_a_real_socket(self):
        pending = list(enumerate(small_spec().points()))
        jobs, table = intern_jobs(pending)
        scheduler = SweepScheduler(jobs, table, workers=0, external_workers=1,
                                   timeout=60)
        thread, box = self.start(scheduler)
        code = run_worker(*scheduler.address, worker_id="ext-0")
        thread.join(timeout=60)
        assert code == 0  # clean shutdown frame
        expected = [run_job((index, point, None)) for index, point in pending]
        assert box["pairs"] == expected

    def test_silent_worker_is_expired_and_its_cells_rescued(self):
        """A worker that grabs a chunk and goes silent: stealing drains
        it down to one cell, then the heartbeat timeout reclaims the
        rest — no cell is lost, the sweep completes."""
        # Tiny cells (~10 ms each): the real worker's result frames are
        # its life signs, so per-cell time must stay far below the
        # expiry deadline even on a heavily loaded host.
        pending = list(enumerate(small_spec(scale=0.01).points()))
        jobs, table = intern_jobs(pending)
        scheduler = SweepScheduler(jobs, table, workers=0, external_workers=2,
                                   chunk_size=4, heartbeat_timeout=2.0,
                                   timeout=60)
        thread, box = self.start(scheduler)
        sock = socket.create_connection(scheduler.address)
        stream = FrameStream(sock)
        try:
            stream.send({"type": "hello", "worker_id": "silent"})
            setup = stream.recv(timeout=10)
            assert setup["type"] == "setup"
            stream.send({"type": "need_work"})
            assert scheduler.wait_until(
                lambda: scheduler.frontier.remaining_for("silent") > 0)
            code = run_worker(*scheduler.address, worker_id="real")
            thread.join(timeout=60)
            assert code == 0
            assert "error" not in box
            assert [index for index, _ in box["pairs"]] == \
                [index for index, _ in pending]
            # The silent worker was expired and forgotten, and every one
            # of its cells was completed by the real worker.
            assert scheduler.monitor.last_seen("silent") is None
            assert scheduler.frontier.remaining_for("silent") == 0
        finally:
            stream.close()
            thread.join(timeout=10)

    def test_engine_error_frame_fails_the_sweep(self):
        pending = list(enumerate(small_spec().points()))
        jobs, table = intern_jobs(pending)
        scheduler = SweepScheduler(jobs, table, workers=0, external_workers=1,
                                   timeout=30)
        thread, box = self.start(scheduler)
        sock = socket.create_connection(scheduler.address)
        stream = FrameStream(sock)
        try:
            stream.send({"type": "hello", "worker_id": "broken"})
            assert stream.recv(timeout=10)["type"] == "setup"
            stream.send({"type": "error", "cells": [0],
                         "message": "SimulationError: boom"})
            thread.join(timeout=30)
            assert "pairs" not in box
            assert "failed on cells" in str(box["error"])
        finally:
            stream.close()

    def test_scheduler_validation(self):
        with pytest.raises(SimulationError, match="at least one worker"):
            SweepScheduler([(0, None, None)], workers=0, external_workers=0)
        with pytest.raises(SimulationError):
            SweepScheduler([], workers=-1)
        assert SweepScheduler([], workers=0).run() == []  # empty grid: no-op


class TestRunnerConfig:
    def test_transport_is_validated(self):
        with pytest.raises(ConfigurationError, match="transport"):
            SweepRunner(transport="carrier-pigeon")

    def test_sockets_transport_needs_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            SweepRunner(transport="sockets")
        SweepRunner(transport="sockets", workers=1)
        SweepRunner(transport="sockets", worker_hosts=["nodeA"])

    def test_bad_scheduler_bind_is_rejected(self):
        spec = small_spec()
        runner = SweepRunner(transport="sockets", workers=1,
                             scheduler_bind="no-port-here")
        with pytest.raises(ConfigurationError, match="host:port"):
            runner.run(spec)

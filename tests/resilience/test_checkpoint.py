"""Checkpoint/resume acceptance: a SIGKILLed scheduler resumes.

The hard contract from the robustness PR: kill the scheduler process
mid-sweep, restart against the same spec, and the frontier journal plus
shared store resume the sweep with **zero re-executed completed cells**
— gated here by counting ``Machine.run`` calls and recording exactly
which cells the resumed run dispatches to its worker.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro
from repro.common.errors import SimulationError
from repro.distributed.scheduler import SweepScheduler
from repro.distributed.worker import run_worker
from repro.experiments.runner import SweepRunner, execute_lane_block, intern_jobs, run_job
from repro.experiments.spec import SweepSpec
from repro.resilience.journal import FrontierJournal

import repro.experiments.runner as runner_module


def resume_spec(seeds=16):
    return SweepSpec(
        workloads=["microbench"],
        managers=["ideal", "nanos"],
        core_counts=[1, 2, 4, 8],
        seeds=tuple(range(seeds)),
        scale=0.05,
    )


DRIVER = """
import sys
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import SweepSpec

spec = SweepSpec(workloads=["microbench"], managers=["ideal", "nanos"],
                 core_counts=[1, 2, 4, 8], seeds=tuple(range(16)), scale=0.05)
SweepRunner(transport="sockets", workers=2, cache_dir=sys.argv[1]).run(spec)
"""


def start_scheduler(scheduler):
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


class TestSchedulerSigkillResume:
    def test_sigkilled_scheduler_resumes_with_zero_reexecution(
            self, tmp_path, monkeypatch):
        spec = resume_spec()
        total = len(list(spec.points()))
        store = tmp_path / "store"
        sweep_id = spec.spec_hash()
        journal_path = store / "_journal" / f"{sweep_id}.jsonl"

        # Phase 1: a real scheduler process, SIGKILLed mid-sweep.  The
        # journal is its only trace — SIGKILL runs no cleanup code.
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-c", DRIVER, str(store)], env=env)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if journal_path.exists() and \
                        journal_path.read_text().count('"done"') >= 8:
                    break
                if process.poll() is not None:
                    raise AssertionError(
                        "driver finished before the kill landed; "
                        "grow the spec")
                time.sleep(0.005)
            else:
                raise AssertionError("journal never reached 8 completions")
        finally:
            process.kill()
            process.wait(timeout=30)

        # Orphaned phase-1 workers exhaust their reconnect budget on
        # their own; nothing they still do touches the journal.
        journal = FrontierJournal.open(journal_path, sweep_id)
        resumed = dict(journal.completed)
        assert len(resumed) >= 8
        assert len(resumed) < total  # genuinely mid-sweep

        # Phase 2: restart against the same spec.  The worker runs
        # in-process so the counting monkeypatches see every execution;
        # no cache_dir, so the journal is the only resume mechanism.
        machine_calls = []
        from repro.system.machine import Machine

        real_machine_run = Machine.run

        def counting_machine_run(self, *args, **kwargs):
            machine_calls.append(1)
            return real_machine_run(self, *args, **kwargs)

        executed_cells = []

        def recording_execute_lane_block(block):
            executed_cells.extend(index for index, _ in block)
            return execute_lane_block(block)

        monkeypatch.setattr(Machine, "run", counting_machine_run)
        monkeypatch.setattr(runner_module, "execute_lane_block", recording_execute_lane_block)

        pending = list(enumerate(spec.points()))
        jobs, table = intern_jobs(pending)
        scheduler = SweepScheduler(jobs, table, workers=0, external_workers=1,
                                   journal=journal, timeout=120)
        thread, box = start_scheduler(scheduler)
        code = run_worker(*scheduler.address, worker_id="resume-0")
        thread.join(timeout=120)
        journal.close()
        assert code == 0
        assert "error" not in box

        # The resume accounting: every journalled cell was pre-completed,
        # every other cell ran exactly once, and Machine.run never fired
        # for a journalled cell.
        assert scheduler.resumed_cells == len(resumed)
        assert set(executed_cells) == set(range(total)) - set(resumed)
        assert len(executed_cells) == total - len(resumed)
        assert len(machine_calls) > 0
        # Completeness: one document per grid cell, journalled documents
        # flowing through verbatim.
        results = dict(box["pairs"])
        assert len(results) == total
        for cell, doc in resumed.items():
            assert results[cell] == doc


class TestRunnerResume:
    def test_runner_resumes_from_journal_and_discards_on_success(self, tmp_path):
        """Runner-level resume: a journal left by a dead scheduler is
        replayed (cells never re-dispatched), the final JSONL is
        byte-identical to a serial run, and a clean finish deletes the
        checkpoint."""
        spec = resume_spec(seeds=2)  # 16 cells
        points = list(spec.points())
        serial = SweepRunner().run(spec, jsonl_path=tmp_path / "serial.jsonl")

        store = tmp_path / "store"
        sweep_id = spec.spec_hash()
        journal_path = store / "_journal" / f"{sweep_id}.jsonl"
        with FrontierJournal.open(journal_path, sweep_id) as journal:
            for index, point in list(enumerate(points))[:5]:
                _, doc = run_job((index, point, None))
                journal.record(index, doc)

        runner = SweepRunner(transport="sockets", workers=2, cache_dir=store)
        outcome = runner.run(spec, jsonl_path=tmp_path / "resumed.jsonl")
        assert (tmp_path / "serial.jsonl").read_bytes() == \
            (tmp_path / "resumed.jsonl").read_bytes()
        assert outcome.executed == serial.executed
        assert runner.last_scheduler is not None
        assert runner.last_scheduler.resumed_cells == 5
        assert not journal_path.exists()  # discarded on clean finish

    def test_stale_journal_for_another_sweep_is_ignored(self, tmp_path):
        spec = resume_spec(seeds=1)  # 8 cells
        store = tmp_path / "store"
        sweep_id = spec.spec_hash()
        journal_path = store / "_journal" / f"{sweep_id}.jsonl"
        # A journal written under a different sweep identity at the same
        # path must not leak completions into this sweep.
        with FrontierJournal.open(journal_path, "some-other-sweep") as journal:
            journal.record(0, {"poison": True})
        runner = SweepRunner(transport="sockets", workers=2, cache_dir=store)
        outcome = runner.run(spec)
        assert runner.last_scheduler.resumed_cells == 0
        assert outcome.executed == 8
        assert not any("poison" in line for line in outcome.jsonl_lines())

"""Structural properties of the lane kernel: edges and memory discipline.

Beyond the differential suite (which checks *equivalence* with the
generic loop), these tests pin down the kernel's contract:

* **edge cases** — empty lane lists, zero-task traces and single-task
  traces go through the same code paths without special-casing;
* **memory discipline** — ``keep_schedule=False`` runs must never
  allocate timelines (that is the whole point of the flag on very large
  sweeps), and a trace's lane program holds no per-run state.
"""

from __future__ import annotations

import pytest

import repro.sim.batch as batch_module
from repro.sim.batch import LaneSpec, lane_program, run_lanes
from repro.system.machine import Machine, MachineConfig, _compile_trace
from repro.trace.trace import TraceBuilder
from repro.workloads.fuzz import FuzzSpec, fuzz_program
from repro.workloads.sparselu import generate_sparselu

from batch_manager_factories import BATCH_TEST_MANAGERS, KERNEL_MANAGERS


def _spec(seed: int) -> FuzzSpec:
    return FuzzSpec(
        seed=seed,
        max_depth=2,
        max_children=3,
        roots=4,
        conflict_density=0.4,
        duration_range_us=(0.0, 30.0),
        max_tasks=80,
    )


def _trace(spec: FuzzSpec):
    return fuzz_program(spec).elaborate()


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------

def test_empty_lane_list_returns_empty_list():
    assert run_lanes([]) == []


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_run_lanes_equals_per_lane_runs(manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    traces = [_trace(_spec(seed)) for seed in (11, 12, 13)]
    configs = [MachineConfig(num_cores=cores) for cores in (1, 3, 8)]

    lanes = run_lanes([
        LaneSpec(trace=trace, manager=factory(), config=config)
        for trace, config in zip(traces, configs)
    ])
    assert lanes == [
        Machine(factory(), config)._run_trace(trace)
        for trace, config in zip(traces, configs)
    ]


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_zero_task_trace_matches_generic_loop(manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    trace = TraceBuilder("empty").build()
    config = MachineConfig(num_cores=2)

    generic = Machine(factory(), config)._run_trace(trace)
    result = Machine(factory(), config).run(trace)
    assert result == generic
    assert result.makespan_us == 0.0


@pytest.mark.parametrize("manager_key", sorted(BATCH_TEST_MANAGERS))
def test_single_task_trace_matches_generic_loop(manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    builder = TraceBuilder("single")
    builder.add_task("t0", duration_us=5.0, outputs=[0x10])
    trace = builder.build()
    config = MachineConfig(num_cores=1, validate=True)

    generic = Machine(factory(), config)._run_trace(trace)
    assert Machine(factory(), config).run(trace) == generic


# ---------------------------------------------------------------------------
# Memory discipline
# ---------------------------------------------------------------------------

class _ForbiddenTimeline:
    """Stands in for TaskTimeline when no run may materialize one."""

    @staticmethod
    def from_columns(*args, **kwargs):
        raise AssertionError(
            "keep_schedule=False run built a TaskTimeline — the lane "
            "kernel must skip schedule collection entirely"
        )


@pytest.mark.parametrize("manager_key", KERNEL_MANAGERS)
def test_keep_schedule_false_allocates_no_timelines(manager_key, monkeypatch):
    factory = BATCH_TEST_MANAGERS[manager_key]
    traces = [_trace(_spec(s)) for s in (301, 302, 303)]
    config = MachineConfig(num_cores=4, keep_schedule=False)

    reference = [Machine(factory(), config)._run_trace(trace) for trace in traces]

    monkeypatch.setattr(batch_module, "TaskTimeline", _ForbiddenTimeline)
    results = [Machine(factory(), config).run(trace) for trace in traces]

    assert results == reference
    for result in results:
        assert result.start_times == {}
        assert result.finish_times == {}
        assert result.task_cores == {}


def test_lane_program_shares_the_traces_task_ids():
    """The address-major task column reuses the trace's own task-id
    ints (beyond CPython's small-int cache, so identity is meaningful),
    and no `taskwait on` table exists without the pragma."""
    trace = generate_sparselu(scale=0.02, seed=7)
    assert trace.num_tasks > 256
    prog = lane_program(trace)
    task_ids = {id(task_id) for task_id in _compile_trace(trace).task_ids}
    assert len(prog.addr_task) > trace.num_tasks
    assert all(id(slot) in task_ids for slot in prog.addr_task)
    assert not prog.has_wait_on and prog.wait_task is None

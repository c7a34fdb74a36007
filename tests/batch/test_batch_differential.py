"""Hypothesis-driven lane-kernel-vs-generic-loop differential verification.

Random :class:`~repro.workloads.fuzz.FuzzSpec` configurations are
elaborated to static traces and run through both paths of
:class:`~repro.system.machine.Machine` — ``Machine.run`` (the lane
kernel for ideal/Nanos) and the generic loop (``Machine._run_trace``,
the reference) — under the golden managers.  The two must agree
**byte-for-byte** on the entire result: makespan, per-task
submit/ready/start/finish times, core assignments (the observable image
of the ready/dispatch order), manager table statistics and per-core
busy accounting — and on the number of events dispatched.

The CI workflow selects the ``ci`` hypothesis profile (registered in
``tests/conftest.py``: derandomized, bounded examples, no deadline), so
these tests are exactly reproducible across CI runs.  A failing example
here is a new regression case to pin in ``batch_corpus.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import lane_fallback_reason
from repro.system.machine import Machine, MachineConfig
from repro.workloads.fuzz import FuzzSpec, fuzz_program

from batch_manager_factories import BATCH_TEST_MANAGERS, KERNEL_MANAGERS


@st.composite
def fuzz_specs(draw) -> FuzzSpec:
    """Random fuzzer configurations, bounded for test runtime."""
    return FuzzSpec(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        max_depth=draw(st.integers(min_value=0, max_value=4)),
        max_children=draw(st.integers(min_value=0, max_value=4)),
        roots=draw(st.integers(min_value=1, max_value=6)),
        conflict_density=draw(st.floats(min_value=0.0, max_value=1.0)),
        inout_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
        join_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
        mid_taskwait_probability=draw(st.floats(min_value=0.0, max_value=0.5)),
        master_barrier_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
        duration_range_us=(0.0, draw(st.floats(min_value=0.5, max_value=30.0))),
        max_tasks=draw(st.integers(min_value=8, max_value=150)),
        recurse_probability=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


def assert_identical(generic, kernel, context: str) -> None:
    """Field-wise byte-identity, with a readable message per field."""
    for field in (
        "makespan_us", "master_finish_us", "core_busy_us", "per_core_busy_us",
        "submit_times", "ready_times", "start_times", "finish_times",
        "task_cores", "manager_stats", "num_tasks", "total_work_us",
    ):
        assert getattr(generic, field) == getattr(kernel, field), (
            f"{context}: Machine.run {field} diverged from the generic loop"
        )
    assert generic == kernel, f"{context}: full results differ"


def run_both(factory, config, trace):
    """``(generic result, generic events, run result, run events)``."""
    generic_machine = Machine(factory(), config)
    generic = generic_machine._run_trace(trace)
    machine = Machine(factory(), config)
    result = machine.run(trace)
    return (generic, generic_machine.last_events_processed,
            result, machine.last_events_processed)


@given(spec=fuzz_specs(),
       cores=st.integers(min_value=1, max_value=6),
       manager_key=st.sampled_from(sorted(BATCH_TEST_MANAGERS)))
@settings(max_examples=30, deadline=None)
def test_run_matches_generic_loop(spec, cores, manager_key):
    """Machine.run == the generic loop, bit for bit, events included."""
    trace = fuzz_program(spec).elaborate()
    config = MachineConfig(num_cores=cores, validate=True)

    generic, generic_events, result, events = run_both(
        BATCH_TEST_MANAGERS[manager_key], config, trace)

    context = f"{manager_key}/{cores}c seed={spec.seed}"
    assert_identical(generic, result, context)
    assert events == generic_events, f"{context}: event counts differ"


@given(spec=fuzz_specs(), cores=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_kernel_managers_take_the_kernel(spec, cores):
    """The ideal/nanos kernels must actually admit elaborated traces —
    otherwise the differential suite would silently test the generic
    loop against itself."""
    trace = fuzz_program(spec).elaborate()
    for manager_key in KERNEL_MANAGERS:
        machine = Machine(BATCH_TEST_MANAGERS[manager_key](), MachineConfig(num_cores=cores))
        assert lane_fallback_reason(trace, machine.manager, machine.policy,
                                    machine.topology) is None


@given(specs=st.lists(fuzz_specs(), min_size=2, max_size=5, unique_by=lambda s: s.seed),
       manager_key=st.sampled_from(sorted(BATCH_TEST_MANAGERS)))
@settings(max_examples=15, deadline=None)
def test_repeated_runs_on_cached_programs_match_generic_loop(specs, manager_key):
    """Runs of several traces, each replayed twice at different core
    counts, reuse the lane programs cached on the traces; no run may
    leak state into the next."""
    factory = BATCH_TEST_MANAGERS[manager_key]
    traces = [fuzz_program(spec).elaborate() for spec in specs]
    for repeat in range(2):
        for index, trace in enumerate(traces):
            config = MachineConfig(num_cores=1 + (index + repeat) % 4, validate=True)
            generic, _, result, _ = run_both(factory, config, trace)
            assert_identical(generic, result, f"{manager_key} trace {index} pass {repeat}")

"""Which path ``Machine.run`` takes: the lane kernel or the generic loop.

The kernel must be taken for ideal and Nanos under the default machine
(FIFO, homogeneous unit-speed cores, dense task ids), and the generic
loop for everything else.  Either way the result equals the generic
loop's.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.system.machine as machine_module
from repro.analysis.factories import (
    ideal_factory,
    nanos_factory,
    nexus_pp_factory,
    nexus_sharp_factory,
)
from repro.managers.ideal import IdealManager
from repro.system.machine import Machine, MachineConfig
from repro.trace.events import TaskSubmitEvent
from repro.trace.trace import Trace, TraceBuilder
from repro.workloads.sparselu import generate_sparselu


class _NoWaitOnIdeal(IdealManager):
    """Ideal manager degrading ``taskwait on`` like Nexus++ does."""

    name = "NoWaitOnIdeal"
    supports_taskwait_on = False


def _dense_trace() -> Trace:
    return generate_sparselu(scale=0.02, seed=3)


def _sparse_trace() -> Trace:
    dense = _dense_trace()
    events = tuple(
        TaskSubmitEvent(task=dataclasses.replace(event.task, task_id=2 * event.task.task_id + 1))
        if isinstance(event, TaskSubmitEvent) else event
        for event in dense.events
    )
    return Trace(name="sparse-ids", events=events)


def _wait_on_trace() -> Trace:
    builder = TraceBuilder("wait-on")
    builder.add_task("w", duration_us=5.0, outputs=[0x40])
    builder.add_task("r", duration_us=3.0, inputs=[0x40], outputs=[0x80])
    builder.add_taskwait_on(0x40)
    builder.add_task("x", duration_us=2.0, inputs=[0x80])
    builder.add_taskwait()
    return builder.build()


CASES = {
    # id: (manager factory, trace builder, machine config kwargs, kernel?)
    "ideal": (ideal_factory(), _dense_trace, {}, True),
    "nanos": (nanos_factory(), _dense_trace, {}, True),
    "ideal-taskwait-on": (ideal_factory(), _wait_on_trace, {}, True),
    "no-wait-on-ideal-without-pragma": (_NoWaitOnIdeal, _dense_trace, {}, True),
    "nexuspp": (nexus_pp_factory(), _dense_trace, {}, False),
    "nexus#6": (nexus_sharp_factory(6), _dense_trace, {}, False),
    "sjf": (ideal_factory(), _dense_trace, {"scheduler": "sjf"}, False),
    "biglittle": (nanos_factory(), _dense_trace, {"topology": "biglittle:0.5"}, False),
    "sparse-ids": (ideal_factory(), _sparse_trace, {}, False),
    "nexuspp-taskwait-on": (nexus_pp_factory(), _wait_on_trace, {}, False),
    "no-wait-on-ideal-degradation": (_NoWaitOnIdeal, _wait_on_trace, {}, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_dispatch(case, monkeypatch):
    factory, make_trace, overrides, kernel_expected = CASES[case]
    trace = make_trace()
    config = MachineConfig(num_cores=4, validate=True, **overrides)

    kernel_calls = []
    lane_run = machine_module.lane_run

    def recording_lane_run(*args, **kwargs):
        kernel_calls.append(args[0].name)
        return lane_run(*args, **kwargs)

    monkeypatch.setattr(machine_module, "lane_run", recording_lane_run)
    result = Machine(factory(), config).run(trace)

    assert kernel_calls == ([trace.name] if kernel_expected else [])
    assert result == Machine(factory(), config)._run_trace(trace)

"""Lane-kernel-vs-generic-loop golden equivalence.

``Machine.run`` replays ideal and Nanos traces on the lane kernel
(:mod:`repro.sim.batch`) and everything else on the generic loop
(``Machine._run_trace``).  Both must reproduce the committed golden
makespans **byte-identically**: every committed golden trace is replayed
under all four golden managers through both paths, and the ideal/Nanos
kernel runs are additionally checked at several core counts for equal
results *and* equal dispatched-event counts (``last_events_processed``
feeds the throughput metrics, so the kernel must count exactly like the
generic loop).
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.sim.batch import lane_fallback_reason
from repro.system.machine import Machine, MachineConfig
from repro.trace.serialization import load_trace
from repro.workloads.sparselu import generate_sparselu

from golden_config import GOLDEN_MANAGERS, GOLDEN_SEED

GOLDEN_DIR = Path(__file__).parent
DATA_DIR = GOLDEN_DIR / "data"
EXPECTED = json.loads((GOLDEN_DIR / "expected_makespans.json").read_text(encoding="utf-8"))

TRACE_KEYS = sorted(EXPECTED["traces"])
MANAGER_KEYS = list(GOLDEN_MANAGERS)
KERNEL_MANAGER_KEYS = ("ideal", "nanos")

#: Core counts the event-count check sweeps (the golden count is 8).
EVENT_CORES = (1, 3, 8, 32)


@lru_cache(maxsize=None)
def _golden_trace(key: str):
    return load_trace(DATA_DIR / f"{key}.json.gz")


def _both_paths(factory, config, trace):
    """``(generic machine, generic result, run machine, run result)``."""
    generic_machine = Machine(factory(), config)
    generic = generic_machine._run_trace(trace)
    machine = Machine(factory(), config)
    return generic_machine, generic, machine, machine.run(trace)


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
@pytest.mark.parametrize("key", TRACE_KEYS)
def test_run_matches_generic_loop_and_golden_makespans(key, manager_key):
    """Machine.run equals the generic loop — and both equal the
    committed golden makespan."""
    trace = _golden_trace(key)
    config = MachineConfig(num_cores=EXPECTED["cores"])
    expected = EXPECTED["traces"][key]["makespans_us"][manager_key]

    _, generic, machine, result = _both_paths(GOLDEN_MANAGERS[manager_key], config, trace)
    assert generic.makespan_us == expected, (
        f"{manager_key} on golden {key}: the generic loop itself drifted "
        f"from the committed makespan"
    )
    assert result == generic, (
        f"{manager_key} on golden {key}: Machine.run diverged from the "
        f"generic loop — makespan {result.makespan_us!r} != golden {expected!r}"
    )
    if manager_key in KERNEL_MANAGER_KEYS:
        assert lane_fallback_reason(trace, machine.manager, machine.policy,
                                    machine.topology) is None, (
            f"{manager_key} on golden {key} fell back to the generic loop, "
            "so this test compared the generic loop with itself"
        )


@pytest.mark.parametrize("cores", EVENT_CORES)
@pytest.mark.parametrize("manager_key", KERNEL_MANAGER_KEYS)
@pytest.mark.parametrize("key", TRACE_KEYS)
def test_kernel_event_counts_match_generic_loop(key, manager_key, cores):
    """``last_events_processed`` after a kernel run equals the generic
    loop's ``Simulator.processed_events``, and so do the results."""
    generic_machine, generic, machine, result = _both_paths(
        GOLDEN_MANAGERS[manager_key], MachineConfig(num_cores=cores), _golden_trace(key))
    assert result == generic
    assert machine.last_events_processed == generic_machine.last_events_processed > 0


@pytest.mark.parametrize("manager_key", MANAGER_KEYS)
def test_sweep_shaped_cell_matches_generic_loop(manager_key):
    """A sweep-shaped cell — one run per (seed, cores) point, all
    different — equals the corresponding generic-loop runs exactly."""
    factory = GOLDEN_MANAGERS[manager_key]
    cell = [
        (generate_sparselu(scale=0.02, seed=GOLDEN_SEED + index), MachineConfig(num_cores=cores))
        for index, cores in enumerate((2, 4, 8, 16))
    ]
    assert [Machine(factory(), config).run(trace) for trace, config in cell] == [
        Machine(factory(), config)._run_trace(trace) for trace, config in cell
    ]

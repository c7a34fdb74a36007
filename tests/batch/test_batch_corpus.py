"""Replay the pinned batch corpus — the hypothesis-free regression layer.

Every corpus spec's serial elaboration runs under all four golden
managers through both paths of the machine (``Machine.run``, which
takes the lane kernel for ideal/Nanos, and the generic loop
``Machine._run_trace``), asserting full result byte-identity and equal
event counts, plus exact determinism of repeated kernel runs.
"""

from __future__ import annotations

import pytest

from repro.system.machine import Machine, MachineConfig
from repro.workloads.fuzz import fuzz_program

from batch_corpus import BATCH_CORPUS
from batch_manager_factories import BATCH_TEST_MANAGERS

CORPUS_IDS = [f"seed{spec.seed}" for spec in BATCH_CORPUS]
MANAGER_IDS = list(BATCH_TEST_MANAGERS)


def _trace(spec):
    return fuzz_program(spec).elaborate()


@pytest.mark.parametrize("spec", BATCH_CORPUS, ids=CORPUS_IDS)
@pytest.mark.parametrize("manager_key", MANAGER_IDS)
def test_corpus_run_vs_generic_loop(spec, manager_key):
    factory = BATCH_TEST_MANAGERS[manager_key]
    trace = _trace(spec)
    config = MachineConfig(num_cores=4, validate=True)

    generic_machine = Machine(factory(), config)
    generic = generic_machine._run_trace(trace)
    machine = Machine(factory(), config)

    assert machine.run(trace) == generic
    assert machine.last_events_processed == generic_machine.last_events_processed


@pytest.mark.parametrize("manager_key", MANAGER_IDS)
def test_corpus_across_core_counts(manager_key):
    """Each corpus trace at a different core count equals its generic
    loop run."""
    factory = BATCH_TEST_MANAGERS[manager_key]
    traces = [_trace(spec) for spec in BATCH_CORPUS]
    configs = [
        MachineConfig(num_cores=cores, validate=True)
        for cores in (1, 2, 3, 4, 8, 16)
    ]
    assert [
        Machine(factory(), config).run(trace)
        for trace, config in zip(traces, configs)
    ] == [
        Machine(factory(), config)._run_trace(trace)
        for trace, config in zip(traces, configs)
    ]


def test_corpus_kernel_runs_are_exactly_deterministic():
    traces = [_trace(spec) for spec in BATCH_CORPUS]
    config = MachineConfig(num_cores=4)

    def run_all():
        return [Machine(BATCH_TEST_MANAGERS["nanos"](), config).run(trace)
                for trace in traces]

    assert run_all() == run_all()

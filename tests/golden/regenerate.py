"""Regenerate (or verify) the golden traces and their expected makespans.

Run from the repository root after an *intentional* behaviour change::

    PYTHONPATH=src python tests/golden/regenerate.py

The script writes one small, seeded trace per workload generator to
``tests/golden/data/`` and records the exact makespan of each trace
under every golden manager in ``expected_makespans.json``, computed on
the machine's generic loop (``Machine._run_trace``, the reference for
the lane kernel that ``Machine.run`` takes for ideal and Nanos).  Dynamic
(insert-while-running) programs get the same treatment: their serial
elaboration is committed as ``dyn_<key>.json.gz`` and their
*dynamic-run* makespans are pinned per manager.  The paired tests
(``test_golden_traces.py`` / ``test_dynamic_goldens.py``) replay the
committed artefacts and compare *exactly* — any diff in a regeneration
is a change to the simulated science and must be explained in the PR
that commits it.

``--check`` recomputes everything in memory and compares against the
committed files without writing, exiting non-zero on any drift — the CI
guard that the committed goldens and the generators cannot diverge
silently.  It also replays every golden trace through ``Machine.run``
and requires the lane kernel's makespans to match::

    PYTHONPATH=src python tests/golden/regenerate.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.system.machine import Machine, MachineConfig
from repro.trace.serialization import save_trace, trace_digest

from golden_config import (
    GOLDEN_MANAGERS,
    GOLDEN_SEED,
    golden_dynamic_programs,
    golden_traces,
)

DATA_DIR = Path(__file__).parent / "data"
EXPECTED_PATH = Path(__file__).parent / "expected_makespans.json"
GOLDEN_CORES = 8


def compute_expected() -> dict:
    """Build the full expected-makespans document (traces + dynamic)."""
    traces: dict[str, dict[str, object]] = {}
    for key, trace in golden_traces().items():
        makespans = {}
        for manager_key, factory in GOLDEN_MANAGERS.items():
            machine = Machine(factory(), MachineConfig(num_cores=GOLDEN_CORES, validate=True))
            makespans[manager_key] = machine._run_trace(trace).makespan_us
        traces[key] = {
            "trace_digest": trace_digest(trace),
            "num_tasks": trace.num_tasks,
            "total_work_us": trace.total_work_us,
            "makespans_us": makespans,
        }
    dynamic: dict[str, dict[str, object]] = {}
    for key, program in golden_dynamic_programs().items():
        elaboration = program.elaborate()
        makespans = {}
        for manager_key, factory in GOLDEN_MANAGERS.items():
            machine = Machine(factory(), MachineConfig(num_cores=GOLDEN_CORES, validate=True))
            makespans[manager_key] = machine.run(program).makespan_us
        dynamic[key] = {
            "elaboration_digest": trace_digest(elaboration),
            "num_tasks": elaboration.num_tasks,
            "total_work_us": elaboration.total_work_us,
            "makespans_us": makespans,
        }
    return {"seed": GOLDEN_SEED, "cores": GOLDEN_CORES,
            "traces": traces, "dynamic": dynamic}


def regenerate() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for key, trace in golden_traces().items():
        path = save_trace(trace, DATA_DIR / f"{key}.json.gz")
        print(f"{key:24s} {trace.num_tasks:5d} tasks -> {path.name}")
    for key, program in golden_dynamic_programs().items():
        elaboration = program.elaborate()
        path = save_trace(elaboration, DATA_DIR / f"dyn_{key}.json.gz")
        print(f"{key:24s} {elaboration.num_tasks:5d} tasks -> {path.name} (dynamic)")
    EXPECTED_PATH.write_text(
        json.dumps(compute_expected(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {EXPECTED_PATH}")
    return 0


def check_batch_equivalence(computed: dict) -> list[str]:
    """Replay every golden trace through ``Machine.run`` — the lane
    kernel for ideal and Nanos — under every golden manager and compare
    each makespan against the generic-loop values just computed.  Guards
    the kernel's byte-identity contract at the same choke point that
    guards the goldens themselves."""
    failures: list[str] = []
    traces = sorted(golden_traces().items())
    config = MachineConfig(num_cores=GOLDEN_CORES)
    for manager_key, factory in GOLDEN_MANAGERS.items():
        for key, trace in traces:
            makespan = Machine(factory(), config).run(trace).makespan_us
            expected = computed["traces"][key]["makespans_us"][manager_key]
            if makespan != expected:
                failures.append(
                    f"Machine.run [{manager_key}/{key}]: makespan "
                    f"{makespan!r} != generic loop {expected!r}")
    return failures


def check() -> int:
    """Fail (non-zero) when committed goldens drift from the generators."""
    from repro.trace.serialization import load_trace

    failures: list[str] = []
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    computed = compute_expected()
    if expected != computed:
        for section in ("traces", "dynamic"):
            want, got = expected.get(section, {}), computed.get(section, {})
            for key in sorted(set(want) | set(got)):
                if want.get(key) != got.get(key):
                    failures.append(
                        f"expected_makespans.json [{section}/{key}]: committed "
                        f"{want.get(key)} != regenerated {got.get(key)}")
        for scalar in ("seed", "cores"):
            if expected.get(scalar) != computed.get(scalar):
                failures.append(f"expected_makespans.json [{scalar}] drifted")
    committed_files = {
        **{f"{key}.json.gz": trace for key, trace in golden_traces().items()},
        **{f"dyn_{key}.json.gz": program.elaborate()
           for key, program in golden_dynamic_programs().items()},
    }
    for filename, fresh in committed_files.items():
        path = DATA_DIR / filename
        if not path.exists():
            failures.append(f"missing committed trace {filename}")
            continue
        if trace_digest(load_trace(path)) != trace_digest(fresh):
            failures.append(f"committed trace {filename} drifted from its generator")
    failures.extend(check_batch_equivalence(computed))
    if failures:
        print("golden drift detected:")
        for failure in failures:
            print(f"  - {failure}")
        print("intentional change? regenerate with: "
              "PYTHONPATH=src python tests/golden/regenerate.py")
        return 1
    print(f"goldens clean: {len(committed_files)} traces, "
          f"{len(computed['traces'])} static + {len(computed['dynamic'])} dynamic "
          "makespan sets match; Machine.run identical to the generic loop under "
          f"{len(GOLDEN_MANAGERS)} managers")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify committed goldens instead of rewriting them")
    args = parser.parse_args()
    return check() if args.check else regenerate()


if __name__ == "__main__":
    sys.exit(main())

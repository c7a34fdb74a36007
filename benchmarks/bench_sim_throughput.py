#!/usr/bin/env python3
"""Simulator throughput benchmark: live runtime vs. the frozen legacy stack.

Measures end-to-end wall time on the two paper workloads with the most
interesting dependency structure — ``sparselu`` and ``h264dec`` — for
**all four managers** (ideal / nanos / nexuspp / nexus#6), comparing the
live runtime (layered machine loop + compiled dependence-resolution
engine) against the frozen legacy stack:

* the ``ideal`` rows run against ``benchmarks/_legacy_machine.py`` — the
  verbatim pre-refactor monolithic loop plus pre-refactor tracker (the
  PR-2 headline baseline);
* the ``nanos`` / ``nexuspp`` / ``nexus#6`` rows run the frozen
  pre-compiled-engine managers of ``benchmarks/_legacy_depres.py``
  (access-by-access tracker, one serial reservation per access) on the
  same legacy loop.

Both sides replay the same generated traces under the default machine
configuration (FIFO scheduler, homogeneous topology,
``keep_schedule=True``), so each ratio measures the full stack the
simulator actually ships.

The acceptance gate lives on the **nexus rows** (nexuspp + nexus#6 over
both workloads): every row must reach its floor (1.0x) and their geomean
must reach the 1.5x target.  ``--check`` turns violations into a
non-zero exit status, which is how CI fails the build on a hot-path
regression.

The ``ideal`` and ``nanos`` rows time :meth:`Machine.run`, which
replays them on the lane kernel (:mod:`repro.sim.batch`).

Schema 4 re-points the **whole-sweep rows** (``batch_sweep``): a
(seeds × cores) sparselu grid executed cell by cell (fresh manager per
cell, exactly like ``SweepRunner`` with ``n_jobs=1``) through
:meth:`Machine.run` — the lane kernel — versus the generic loop
(``Machine._run_trace``).  The two sides produce byte-identical results
(enforced by the golden/differential suites); the rows measure wall
time only.  The ``ideal`` row is gated at a 5.0x floor under
``--check`` in both quick and full modes.

Run with::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py [--quick] [--check]

Writes ``BENCH_sim_throughput.json`` (schema 4, repo root by default).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _legacy_depres import LegacyNanosManager, legacy_manager_factory  # noqa: E402
from _legacy_machine import LegacyIdealManager, legacy_simulate  # noqa: E402
from repro.analysis.factories import (  # noqa: E402
    ideal_factory,
    nanos_factory,
    nexus_pp_factory,
    nexus_sharp_factory,
)
from repro.system.machine import Machine, MachineConfig  # noqa: E402
from repro.workloads.h264dec import generate_h264dec  # noqa: E402
from repro.workloads.sparselu import generate_sparselu  # noqa: E402

BENCH_SEED = 2015

#: Wall-time speedup floor every row must individually clear.
ROW_FLOOR = 1.0
#: Geomean target over the nexus (hardware-manager) rows.
NEXUS_TARGET = 1.5
#: Geomean target over the ideal rows (the PR-2 machine-loop headline).
IDEAL_TARGET = 1.5

#: Row key -> (live factory, frozen-legacy factory).  The row set is the
#: four golden managers; nexus rows carry the acceptance gate.
MANAGER_ROWS: Dict[str, Tuple[Callable, Callable]] = {
    "ideal": (ideal_factory(), lambda: LegacyIdealManager()),
    "nanos": (nanos_factory(), LegacyNanosManager),
    "nexuspp": (nexus_pp_factory(), legacy_manager_factory("nexuspp")),
    "nexus#6": (nexus_sharp_factory(6), legacy_manager_factory("nexus#6")),
}

#: Rows whose speedups feed the nexus geomean / floor gate.
NEXUS_ROWS = ("nexuspp", "nexus#6")

#: Whole-sweep section: the (seeds x cores) grid both paths execute,
#: the lane-kernel managers it is measured for, and the gate.
BATCH_SEEDS = (1, 2, 3, 4)
BATCH_CORES = (4, 8, 16, 32)
BATCH_MANAGERS: Dict[str, Callable] = {
    "ideal": ideal_factory(),
    "nanos": nanos_factory(),
}
#: Whole-sweep rows gated under ``--check`` (quick and full modes alike).
BATCH_GATED_ROWS = ("ideal",)
#: Whole-sweep wall-time speedup floor (kernel over generic loop).
BATCH_FLOOR = 5.0


def _traces(scale: float):
    return {
        "sparselu": generate_sparselu(scale=scale, seed=BENCH_SEED),
        "h264dec": generate_h264dec(grouping=2, num_frames=6, scale=scale, seed=BENCH_SEED),
    }


def _time_pair(
    current: Callable[[], int],
    legacy: Callable[[], int],
    repetitions: int,
) -> Tuple[float, int, float, int]:
    """Best-of-N wall times for both sides, with interleaved repetitions.

    Alternating current/legacy measurements (instead of timing one side
    to completion first) cancels slow machine-load drift out of the
    ratio, which is what the speedup criterion is computed from.
    """
    best_current = best_legacy = math.inf
    current_events = legacy_events = 0
    for _ in range(repetitions):
        start = time.perf_counter()
        current_events = current()
        best_current = min(best_current, time.perf_counter() - start)
        start = time.perf_counter()
        legacy_events = legacy()
        best_legacy = min(best_legacy, time.perf_counter() - start)
    return best_current, current_events, best_legacy, legacy_events


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_batch_section(scale: float, repetitions: int) -> Dict[str, object]:
    """Whole-sweep rows: the lane kernel vs the generic loop, per cell.

    Both sides run the identical (seeds × cores) sparselu grid with
    ``keep_schedule=False`` (the configuration large sweeps use) as
    ``len(seeds) * len(cores)`` independent runs with a fresh manager
    per cell: :meth:`Machine.run` (the lane kernel) on one side, the
    generic loop (``Machine._run_trace``) on the other.  Warm-up runs
    outside the timed region fill the per-trace structural caches, so
    the rows compare engine execution, not trace compilation.
    """
    traces = [generate_sparselu(scale=scale, seed=seed) for seed in BATCH_SEEDS]
    configs = [MachineConfig(num_cores=c, keep_schedule=False) for c in BATCH_CORES]
    rows: Dict[str, object] = {}
    for manager_name, factory in BATCH_MANAGERS.items():

        def run_generic() -> int:
            runs = 0
            for trace in traces:
                for config in configs:
                    Machine(factory(), config)._run_trace(trace)
                    runs += 1
            return runs

        def run_kernel() -> int:
            runs = 0
            for trace in traces:
                for config in configs:
                    Machine(factory(), config).run(trace)
                    runs += 1
            return runs

        run_kernel()
        run_generic()
        kernel_s, num_runs, generic_s, _ = _time_pair(
            run_kernel, run_generic, repetitions)
        speedup = generic_s / kernel_s if kernel_s > 0 else math.inf
        gated = manager_name in BATCH_GATED_ROWS
        rows[manager_name] = {
            "runs": num_runs,
            "kernel_seconds": round(kernel_s, 6),
            "generic_seconds": round(generic_s, 6),
            "speedup": round(speedup, 3),
            "floor": BATCH_FLOOR if gated else None,
            "meets_floor": speedup >= BATCH_FLOOR if gated else True,
        }
    return {
        "grid": {
            "workload": "sparselu",
            "scale": scale,
            "seeds": list(BATCH_SEEDS),
            "cores": list(BATCH_CORES),
            "keep_schedule": False,
        },
        "rows": rows,
        "gated_rows": list(BATCH_GATED_ROWS),
        "floor": BATCH_FLOOR,
        "meets_floor": all(
            rows[name]["meets_floor"] for name in BATCH_GATED_ROWS  # type: ignore[index]
        ),
    }


def run_benchmark(
    scale: float, cores: int, repetitions: int, batch_scale: float,
) -> Dict[str, object]:
    workloads: Dict[str, object] = {}
    speedups: Dict[str, List[float]] = {key: [] for key in MANAGER_ROWS}
    for trace_name, trace in _traces(scale).items():
        per_manager: Dict[str, object] = {}
        for manager_name, (factory, legacy_factory) in MANAGER_ROWS.items():
            machine = Machine(factory(), MachineConfig(num_cores=cores))

            def run_current() -> int:
                machine.run(trace)
                return machine.last_events_processed

            def run_legacy() -> int:
                _, processed = legacy_simulate(trace, legacy_factory(), cores)
                return processed

            # Warm-up runs outside the timed region (fills the per-trace
            # compiled caches the sweeps also benefit from).
            run_current()
            run_legacy()
            current_s, current_events, legacy_s, legacy_events = _time_pair(
                run_current, run_legacy, repetitions)
            speedup = legacy_s / current_s if current_s > 0 else math.inf
            speedups[manager_name].append(speedup)
            per_manager[manager_name] = {
                "events": current_events,
                "legacy_events": legacy_events,
                "current_events_per_sec": round(current_events / current_s),
                "legacy_events_per_sec": round(legacy_events / legacy_s),
                "current_seconds": round(current_s, 6),
                "legacy_seconds": round(legacy_s, 6),
                "speedup": round(speedup, 3),
                "floor": ROW_FLOOR,
                "meets_floor": speedup >= ROW_FLOOR,
            }
        workloads[trace_name] = per_manager

    batch_sweep = run_batch_section(scale=batch_scale, repetitions=repetitions)

    nexus_speedups = [s for key in NEXUS_ROWS for s in speedups[key]]
    geomean_nexus = _geomean(nexus_speedups)
    geomean_ideal = _geomean(speedups["ideal"])
    per_manager_geomean = {key: round(_geomean(values), 3) for key, values in speedups.items()}
    return {
        "benchmark": "sim_throughput",
        "schema": 4,
        "config": {
            "cores": cores,
            "scale": scale,
            "seed": BENCH_SEED,
            "repetitions": repetitions,
            "machine_config": "default (fifo scheduler, homogeneous topology, keep_schedule=True); "
                              "ideal and nanos rows run on the lane kernel",
            "baseline": "frozen legacy stack: _legacy_machine.py loop for all rows; "
                        "ideal rows use its pre-refactor tracker, nanos/nexuspp/nexus#6 "
                        "rows use the pre-compiled-engine managers of _legacy_depres.py",
            "note": "speedup is wall-time (legacy_seconds / current_seconds); events/sec "
                    "are per-side — the layered runtime coalesces back-to-back master "
                    "steps, so it dispatches fewer events for the same simulated work",
        },
        "workloads": workloads,
        "batch_sweep": batch_sweep,
        "per_manager_geomean_speedup": per_manager_geomean,
        "geomean_speedup_nexus": round(geomean_nexus, 3),
        "geomean_speedup_ideal": round(geomean_ideal, 3),
        "nexus_rows": list(NEXUS_ROWS),
        "row_floor": ROW_FLOOR,
        "target_speedup_nexus": NEXUS_TARGET,
        "target_speedup_ideal": IDEAL_TARGET,
        "meets_row_floor": all(s >= ROW_FLOOR for s in nexus_speedups),
        "meets_geomean_target": geomean_nexus >= NEXUS_TARGET,
        "meets_target": (geomean_nexus >= NEXUS_TARGET
                         and all(s >= ROW_FLOOR for s in nexus_speedups)),
    }


def check_report(report: Dict[str, object], enforce_geomean: bool = True) -> List[str]:
    """Return the list of gate violations in ``report`` (empty = pass).

    The per-row 1.0x floor is always enforced (a nexus row below it means
    the compiled engine regressed outright).  The 1.5x geomean target is
    enforced on full-scale runs; quick (CI smoke) runs report it but only
    gate on the floor, since tiny traces amplify machine-load noise.
    """
    failures: List[str] = []
    for trace_name, per_manager in report["workloads"].items():  # type: ignore[union-attr]
        for manager_name in report["nexus_rows"]:  # type: ignore[union-attr]
            row = per_manager[manager_name]
            # Gate on the unrounded verdict, not the 3-decimal display
            # value, so the exit status always agrees with the flags
            # recorded in the artifact.
            if not row["meets_floor"]:
                failures.append(
                    f"{trace_name}/{manager_name}: speedup {row['speedup']:.3f}x "
                    f"below the {row['floor']:.1f}x row floor"
                )
    if enforce_geomean and not report["meets_geomean_target"]:
        failures.append(
            f"nexus geomean {report['geomean_speedup_nexus']:.3f}x below the "
            f"{report['target_speedup_nexus']:.1f}x target"
        )
    batch = report["batch_sweep"]
    for manager_name in batch["gated_rows"]:  # type: ignore[index]
        row = batch["rows"][manager_name]  # type: ignore[index]
        if not row["meets_floor"]:
            failures.append(
                f"batch-sweep/{manager_name}: kernel-over-generic speedup "
                f"{row['speedup']:.3f}x below the {row['floor']:.1f}x floor"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small traces / few repetitions (CI smoke mode)")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default 0.3, quick 0.05)")
    parser.add_argument("--cores", type=int, default=32)
    parser.add_argument("--repetitions", type=int, default=None,
                        help="timed repetitions per side (default 7, quick 3)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a nexus row misses its floor "
                             "or the nexus geomean misses the target")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_sim_throughput.json"))
    args = parser.parse_args()

    scale = args.scale if args.scale is not None else (0.05 if args.quick else 0.3)
    repetitions = args.repetitions if args.repetitions is not None else (3 if args.quick else 7)
    # The whole-sweep grid multiplies the trace by 16 cells, so it runs at
    # its own (smaller) scale to keep the benchmark's wall time bounded.
    batch_scale = 0.02 if args.quick else 0.05
    report = run_benchmark(scale=scale, cores=args.cores, repetitions=repetitions,
                           batch_scale=batch_scale)

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"wrote {output}")
    for trace_name, per_manager in report["workloads"].items():
        for manager_name, row in per_manager.items():
            print(
                f"{trace_name:10s} {manager_name:8s} "
                f"{row['current_events_per_sec']:>10,} ev/s "
                f"(legacy {row['legacy_events_per_sec']:>10,} ev/s)  "
                f"speedup {row['speedup']:.2f}x"
            )
    print(f"geomean speedup (nexus rows): {report['geomean_speedup_nexus']:.2f}x "
          f"(target >= {report['target_speedup_nexus']}x, row floor {report['row_floor']}x)")
    print(f"geomean speedup (ideal rows): {report['geomean_speedup_ideal']:.2f}x")
    batch = report["batch_sweep"]
    grid = batch["grid"]
    for manager_name, row in batch["rows"].items():
        gate = f" (floor {row['floor']:.1f}x)" if row["floor"] is not None else ""
        print(
            f"batch-sweep {manager_name:8s} {row['runs']} runs "
            f"({len(grid['seeds'])} seeds x {len(grid['cores'])} cores): "
            f"generic loop {row['generic_seconds']:.3f}s, kernel {row['kernel_seconds']:.3f}s, "
            f"speedup {row['speedup']:.2f}x{gate}"
        )

    failures = check_report(report, enforce_geomean=not args.quick)
    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        if args.check:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``pins.json``: the result digest of every cell any
benchmark seed can select.

Run from the repository root on the commit whose results are the
reference (the benchmark then checks later commits against them):

    PYTHONPATH=src:. python -m perfbench.make_pins [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import time

from perfbench import grids
from perfbench.checks import PINS_PATH, digest


def universe():
    """Sweep specs covering every cell of every workload's universe."""
    from repro.experiments.spec import SweepSpec, WorkloadSpec

    pool = list(grids.SEED_POOL)
    managers, cores = list(grids.MANAGERS), list(grids.CORES)
    static = [WorkloadSpec(name, scale=scale) for name, scale in grids.STATIC_WORKLOADS]
    streamed = [WorkloadSpec(name, scale=scale) for name, scale in grids.STREAM_WORKLOADS]
    specs = [
        SweepSpec(static, managers, cores, seeds=pool),
        SweepSpec(static, managers, cores, seeds=pool, keep_schedule=True),
        SweepSpec(streamed, managers, cores, seeds=pool, stream=True),
    ]
    specs += [SweepSpec([name], managers, cores, seeds=pool, dynamic=True,
                        depths=list(depths))
              for name, depths in grids.DYNAMIC_WORKLOADS]
    return specs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    from repro.experiments.runner import SweepRunner

    runner = SweepRunner(n_jobs=args.jobs)
    cells = {}
    started = time.perf_counter()
    for spec in universe():
        for row in runner.run(spec).rows:
            cells[grids.row_key(row["point"])] = digest(row["result"])
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(cells.items())]
    PINS_PATH.write_text('{"format": 2, "cells": {\n' + ",\n".join(lines) + "\n}}\n",
                         encoding="utf-8")
    print(f"{len(cells)} cells pinned in {time.perf_counter() - started:.1f}s -> {PINS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

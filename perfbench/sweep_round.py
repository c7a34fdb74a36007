"""One round of a sweep workload, in a fresh process.

Prints ``ready`` once imports are done and the empty store exists (the
parent times process start to this line as set-up), then runs the cold
sweep and the warm replays and prints one JSON summary line.

    python -m perfbench.sweep_round --workload sweep_static --seed 1 \
        --workdir .perfbench_out/tmp [--traced] [--spans-out FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from perfbench import grids, layers
from perfbench.checks import Checker, aggregate
from perfbench.spans import END, NAME, PARENT, START, Recorder, count_by_name, restore, self_by_name

#: Warm replays per round (each is short; their median is reported).
WARM_REPLAYS = 20


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import SweepRunner

    workdir = Path(args.workdir)
    store = workdir / "store"
    runner = SweepRunner(n_jobs=1, cache=ResultCache(store))
    specs = grids.sweep_specs(args.workload, args.seed)
    print("ready", flush=True)
    checker = Checker()

    recorder = Recorder()
    patches = (layers.install_layers(recorder) if args.traced
               else layers.install_cell_timing(recorder))
    try:
        cold_start = len(recorder.spans)
        started = time.perf_counter()
        outcomes = [runner.run(spec, jsonl_path=workdir / f"cold-{i}.jsonl")
                    for i, spec in enumerate(specs)]
        cold_wall = time.perf_counter() - started
        cold_spans = recorder.spans[cold_start:]
        cold_bytes = [(workdir / f"cold-{i}.jsonl").read_bytes() for i in range(len(specs))]

        warm_walls, warm_cells, warm_hits, replays_differing = [], [], 0, 0
        for replay in range(WARM_REPLAYS):
            mark = len(recorder.spans)
            started = time.perf_counter()
            warm = [runner.run(spec, jsonl_path=workdir / f"warm-{i}.jsonl")
                    for i, spec in enumerate(specs)]
            warm_walls.append(time.perf_counter() - started)
            warm_cells.extend(layers.warm_cell_times(recorder.spans[mark:]))
            warm_hits += sum(outcome.cache_hits for outcome in warm)
            same = all((workdir / f"warm-{i}.jsonl").read_bytes() == cold_bytes[i]
                       for i in range(len(specs)))
            if not same:
                replays_differing += 1
                checker.fail(f"warm replay {replay} is not byte-identical to the cold sweep")
        if args.traced:
            drain_streams(recorder, specs)
    finally:
        restore(patches)

    cells = sum(len(outcome.rows) for outcome in outcomes)
    executed = sum(outcome.executed for outcome in outcomes)
    cold_hits = sum(outcome.cache_hits for outcome in outcomes)
    if executed != cells or cold_hits:
        checker.fail(f"cold sweep executed {executed} of {cells} cells ({cold_hits} hits)")
    if warm_hits != cells * WARM_REPLAYS:
        checker.fail(f"warm replays hit the store {warm_hits} of {cells * WARM_REPLAYS} times")
    bad_cells = 0
    sim_tasks = 0
    for outcome in outcomes:
        for row in outcome.rows:
            sim_tasks += int(row["result"]["num_tasks"])
            if not checker.check(grids.row_key(row["point"]), row["result"]):
                bad_cells += 1
    counters = aggregate(checker.live.items())

    summary = {
        "cells": cells,
        "cold_wall_s": cold_wall,
        "warm_walls_s": warm_walls,
        "cell_s": layers.cell_times(cold_spans),
        "warm_cell_s": warm_cells,
        "sim_tasks": sim_tasks,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": cells * (1 + WARM_REPLAYS),
        "failed": bad_cells + replays_differing * cells,
        "mismatches": checker.mismatches[:20],
        "counters": counters,
        "hit_ratio_cold": cold_hits / cells,
        "hit_ratio_warm": warm_hits / (cells * WARM_REPLAYS),
    }
    if args.traced:
        summary["layers"] = layer_totals(recorder.spans, cold_wall + sum(warm_walls))
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(recorder.spans), encoding="utf-8")
    print(json.dumps(summary), flush=True)
    return 0


def drain_streams(recorder: Recorder, specs) -> None:
    """Time iterating each streamed cell's task stream alone."""
    for spec in specs:
        if not spec.stream:
            continue
        for point in spec.points():
            index = recorder.begin("trace.stream")
            for _ in point.workload.resolve_stream().iter_events():
                pass
            recorder.end(index)


def layer_totals(spans, phase_wall: float) -> dict:
    """Self time and call count per span name, events per engine loop,
    and the phase time no span covers."""
    in_phases = [span for span in spans if span[NAME] != "trace.stream"]
    covered = sum(span[END] - span[START] for span in in_phases if span[PARENT] < 0)
    return {
        "self_s": self_by_name(spans),
        "calls": count_by_name(spans),
        "events": layers.events_by_name(spans),
        "unattributed_s": phase_wall - covered,
    }


if __name__ == "__main__":
    sys.exit(main())

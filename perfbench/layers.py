"""Span wrappers around the program's public layer boundaries.

:func:`install_cell_timing` (sweeps) and :func:`install_serve_timing`
(server) are all an untraced (``--trace 0``) round carries: the hooks
that time each cell from start to stored, each warm lookup, and each
block the server executes.
:func:`install_layers` adds one span per layer call for the traced run.
Both return patches for :func:`perfbench.spans.restore`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from perfbench.spans import CTX, END, NAME, PARENT, START, Recorder, wrap


def _set_ctx(recorder: Recorder, index: int, value: Any) -> None:
    recorder.spans[index][CTX] = value


def install_cell_timing(recorder: Recorder) -> List[Any]:
    from repro.experiments import cache, runner, spec

    def cell_docs(index, args, result):
        _set_ctx(recorder, index, [id(result[1])])

    def block_docs(index, args, result):
        _set_ctx(recorder, index, [id(document) for _, document in result])

    def put_doc(index, args, result):
        _set_ctx(recorder, index, id(args[2]))

    def get_hit(index, args, result):
        _set_ctx(recorder, index, result is not None)

    return [
        wrap(recorder, runner, "run_job", "experiments.run_job", cell_docs),
        wrap(recorder, runner, "execute_lane_block", "experiments.run_job", block_docs),
        wrap(recorder, spec.RunPoint, "cache_key", "experiments.cache_key"),
        wrap(recorder, cache.ResultCache, "get", "experiments.cache_get", get_hit),
        wrap(recorder, cache.ResultCache, "put", "experiments.cache_put", put_doc),
    ]


def install_layers(recorder: Recorder, *, serve: bool = False) -> List[Any]:
    """Wrap every layer boundary the per-layer metrics are made of."""
    from repro.experiments import cache, runner
    from repro.managers.base import TaskManagerModel
    from repro.sim import batch
    from repro.system import machine
    from repro.trace.trace import Trace
    from repro.workloads import registry

    def events(index, args, result):
        _set_ctx(recorder, index, getattr(args[0], "last_events_processed", 0))

    patches = install_cell_timing(recorder) + [
        wrap(recorder, registry, "get_workload", "workloads.generate"),
        wrap(recorder, Trace, "access_program", "trace.compile"),
        wrap(recorder, machine, "_compile_trace", "trace.compile"),
        wrap(recorder, TaskManagerModel, "prepare_trace", "taskgraph.bind"),
        wrap(recorder, machine.Machine, "run", "system.run", events),
        wrap(recorder, machine.Machine, "run_stream", "system.run_stream", events),
        wrap(recorder, machine.Machine, "run_dynamic", "system.run_dynamic", events),
        wrap(recorder, batch, "run_lanes", "system.run_lanes"),
        wrap(recorder, runner, "result_to_json", "trace.serialize"),
        wrap(recorder, runner, "canonical_json_line", "trace.serialize"),
        wrap(recorder, cache, "canonical_json_line", "trace.serialize"),
        wrap(recorder, runner, "write_jsonl", "experiments.jsonl_write"),
        wrap(recorder, runner.SweepRunner, "run", "experiments.runner"),
    ]
    if serve:
        patches += _install_serve(recorder)
    return patches


def install_serve_timing(recorder: Recorder) -> List[Any]:
    from repro.serve import batcher as serve_batcher

    def block_points(index, args, result):
        _set_ctx(recorder, index, [id(point) for _, point in args[0]])

    return [wrap(recorder, serve_batcher, "execute_block", "serve.execute", block_points)]


def _install_serve(recorder: Recorder) -> List[Any]:
    from repro.serve import admission, app
    from repro.serve import batcher as serve_batcher

    def lookup_hit(index, args, result):
        _set_ctx(recorder, index, result[1] is not None)

    def submitted(index, args, result):
        _set_ctx(recorder, index, [id(point) for point in args[1]])

    return install_serve_timing(recorder) + [
        wrap(recorder, serve_batcher.Batcher, "lookup", "serve.lookup", lookup_hit),
        wrap(recorder, serve_batcher.Batcher, "submit_many", "serve.submit", submitted),
        wrap(recorder, admission.AdmissionController, "try_acquire", "serve.admission"),
        wrap(recorder, app, "canonical_json_line", "trace.serialize"),
    ]


# -- span arithmetic specific to these layers ----------------------------------
def cell_times(spans: List[list]) -> List[float]:
    """Per-cell seconds from execution start to stored (cold phase)."""
    puts: Dict[int, float] = {}
    for span in spans:
        if span[NAME] == "experiments.cache_put" and span[END] is not None:
            puts[span[CTX]] = span[END] - span[START]
    out: List[float] = []
    for span in spans:
        if span[NAME] == "experiments.run_job" and span[CTX]:
            for doc_id in span[CTX]:
                out.append(span[END] - span[START] + puts.get(doc_id, 0.0))
    return out


def served_cell_times(spans: List[list]) -> List[float]:
    """Per-cell seconds of server-side execution: each executed block's
    time, split evenly over its cells."""
    out: List[float] = []
    for span in spans:
        if span[NAME] == "serve.execute" and span[CTX]:
            out += [(span[END] - span[START]) / len(span[CTX])] * len(span[CTX])
    return out


def warm_cell_times(spans: List[list]) -> List[float]:
    """Per-cell seconds of a warm replay: key hashing plus store lookup."""
    keys = [s[END] - s[START] for s in spans if s[NAME] == "experiments.cache_key"]
    gets = [s[END] - s[START] for s in spans if s[NAME] == "experiments.cache_get"]
    return [key + get for key, get in zip(keys, gets)]


def events_by_name(spans: List[list]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for span in spans:
        if span[NAME].startswith("system.run") and isinstance(span[CTX], int):
            totals[span[NAME]] = totals.get(span[NAME], 0) + span[CTX]
    return totals


def lookup_outcomes(spans: List[list]) -> Dict[str, int]:
    """Serve lookups split into memo hits, store hits and misses."""
    store_hit_parents = {span[PARENT] for span in spans
                         if span[NAME] == "experiments.cache_get" and span[CTX]}
    outcome = {"memo": 0, "store": 0, "miss": 0}
    for index, span in enumerate(spans):
        if span[NAME] != "serve.lookup":
            continue
        if not span[CTX]:
            outcome["miss"] += 1
        elif index in store_hit_parents:
            outcome["store"] += 1
        else:
            outcome["memo"] += 1
    return outcome


def queue_waits(spans: List[list]) -> List[float]:
    """Seconds from a cell's submission to the start of its block."""
    submitted: Dict[int, float] = {}
    waits: List[float] = []
    for span in sorted((s for s in spans if s[NAME] in ("serve.submit", "serve.execute")),
                       key=lambda s: s[START]):
        if span[NAME] == "serve.submit":
            for point_id in span[CTX] or ():
                submitted[point_id] = span[END]
        else:
            for point_id in span[CTX] or ():
                start: Optional[float] = submitted.get(point_id)
                if start is not None:
                    waits.append(max(0.0, span[START] - start))
    return waits

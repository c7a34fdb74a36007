"""Seeded inputs of the three workloads.

Every grid cell is drawn from a fixed universe (workload × scale ×
generator seed × manager × core count), so the digests pinned in
``pins.json`` cover whatever a benchmark seed selects.  The benchmark
seed only picks generator seeds and orders requests; the amount of
work per run stays the same across seeds.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

#: Paper Table-II workloads at scales giving tens-of-ms cells.
STATIC_WORKLOADS: Tuple[Tuple[str, float], ...] = (
    ("c-ray", 0.5),
    ("rot-cc", 0.08),
    ("sparselu", 0.02),
    ("streamcluster", 0.002),
    ("h264dec-1x1-10f", 0.01),
    ("h264dec-4x4-10f", 0.1),
    ("gaussian-250", 0.04),
)
#: Table-II families replayed through ``Machine.run_stream``.
STREAM_WORKLOADS: Tuple[Tuple[str, float], ...] = (
    ("rot-cc", 0.06),
    ("sparselu", 0.012),
    ("h264dec-1x1-10f", 0.008),
    ("gaussian-250", 0.03),
)
#: Dynamic programs (``Machine.run_dynamic``) and their recursion depths.
DYNAMIC_WORKLOADS: Tuple[Tuple[str, Tuple[int, int]], ...] = (
    ("fib", (11, 12)),
    ("nqueens", (6, 7)),
    ("recursive-sort", (6, 7)),
    ("strassen", (2, 3)),
)
MANAGERS = ("ideal", "nanos", "nexuspp", "nexus#6")
CORES = (4, 16, 64)
#: Generator seeds a benchmark seed may select.
SEED_POOL = (1, 2, 3, 4, 5)
#: Generator seeds per sweep_static grid (each trace is shared by 12 cells).
STATIC_SEEDS = 2


def pick_seeds(seed: int, count: int) -> List[int]:
    return sorted(random.Random(seed).sample(SEED_POOL, count))


def static_spec(seed: int):
    """sweep_static: 7 workloads × 2 seeds × 4 managers × 3 core counts."""
    from repro.experiments.spec import SweepSpec, WorkloadSpec

    return SweepSpec(
        [WorkloadSpec(name, scale=scale) for name, scale in STATIC_WORKLOADS],
        list(MANAGERS), list(CORES), seeds=pick_seeds(seed, STATIC_SEEDS),
        name="perfbench-static")


def stream_specs(seed: int):
    """sweep_stream: streamed Table-II cells, then dynamic-program cells."""
    from repro.experiments.spec import SweepSpec, WorkloadSpec

    [chosen] = pick_seeds(seed, 1)
    streamed = SweepSpec(
        [WorkloadSpec(name, scale=scale) for name, scale in STREAM_WORKLOADS],
        list(MANAGERS), list(CORES), seeds=[chosen], stream=True,
        name="perfbench-stream")
    dynamic = [
        SweepSpec([name], list(MANAGERS), list(CORES), seeds=[chosen],
                  dynamic=True, depths=list(depths), name="perfbench-dynamic")
        for name, depths in DYNAMIC_WORKLOADS
    ]
    return [streamed] + dynamic


def sweep_specs(workload: str, seed: int):
    if workload == "sweep_static":
        return [static_spec(seed)]
    if workload == "sweep_stream":
        return stream_specs(seed)
    raise ValueError(f"not a sweep workload: {workload!r}")


# -- cell identity ---------------------------------------------------------------
def row_key(point: Dict[str, Any]) -> str:
    """Pin key of a sweep row's ``point`` document (or a request's twin)."""
    workload = point["workload"]
    mode = "dynamic" if point.get("dynamic") else "stream" if point.get("stream") else "static"
    return "|".join(str(part) for part in (
        workload["name"], workload.get("scale"), workload.get("seed"),
        workload.get("depth"), point["manager"], point["cores"], mode,
        int(bool(point.get("keep_schedule")))))


def display_name(manager: str) -> str:
    from repro.analysis.factories import parse_manager

    return parse_manager(manager)[0]


def request_key(body: Dict[str, Any]) -> str:
    return row_key({
        "workload": {"name": body["workload"], "scale": body["scale"],
                     "seed": body["seed"]},
        "manager": display_name(body["manager"]), "cores": body["cores"],
        "keep_schedule": body.get("keep_schedule", False)})


# -- serve_mixed ---------------------------------------------------------------
#: Requests of one client per round, and their kinds.  The shares are the
#: serving mix this repository measured (``BENCH_serving.json``, 600
#: requests of loadgen's default mix): its sustained phase executed 15
#: cells, coalesced 14 requests onto them and answered 571 from cache,
#: and its warm restart read each of the 15 cells once from the store.
#: Two clients × 600 requests give 30 executed cells (28 coalesced pairs
#: and one plain miss per client), 28 coalesced, 30 store hits and 1112
#: memo hits: 1142 of 1200 cached, as 571 of 600 were.
REQUESTS_PER_CLIENT = 600
COALESCED_PAIRS = 28
MISSES_PER_CLIENT = 1
STORE_PER_CLIENT = 15
MEMO_PER_CLIENT = REQUESTS_PER_CLIENT - COALESCED_PAIRS - MISSES_PER_CLIENT - STORE_PER_CLIENT
#: Generator seeds per workload: the 28 executed pairs use 7 × 4 = 28
#: distinct traces, more than the server's 16-entry trace memo.
SERVE_SEEDS_PER_WORKLOAD = 4
#: Every fifth new cell asks for the full schedule (a large document to
#: simulate, store and encode).  The measured mix has none; the share is
#: chosen so the serialization layer carries real weight, and 5 is
#: coprime with the 7 workloads, 4 managers and 3 core counts, so those
#: cells spread over all of them.
KEEP_SCHEDULE_EVERY = 5


def _new_cells(seed: int, count: int) -> List[Dict[str, Any]]:
    """``count`` (at most 84) distinct cells over workload × manager × cores.

    Cell ``k`` takes workload ``k % 7``, manager ``k % 4`` and core
    count ``k % 3``, so any run of cells covers all three axes and every
    seed simulates the same cell sizes; the seed only chooses the four
    generator seeds of each workload.
    """
    rng = random.Random(seed)
    gen_seeds = {name: rng.sample(SEED_POOL, SERVE_SEEDS_PER_WORKLOAD)
                 for name, _ in STATIC_WORKLOADS}
    cells = []
    for k in range(count):
        name, scale = STATIC_WORKLOADS[k % len(STATIC_WORKLOADS)]
        body = {"workload": name, "scale": scale,
                "seed": gen_seeds[name][(k // len(STATIC_WORKLOADS)) % SERVE_SEEDS_PER_WORKLOAD],
                "manager": MANAGERS[k % len(MANAGERS)], "cores": CORES[k % len(CORES)]}
        if k % KEEP_SCHEDULE_EVERY == KEEP_SCHEDULE_EVERY - 1:
            body["keep_schedule"] = True
        cells.append(body)
    return cells


def _spread(counts: Dict[str, int]) -> List[str]:
    """The kinds interleaved evenly: the ``j``-th of ``n`` requests of a
    kind sits at ``j / n`` of the sequence.  Memo repeats sit half a
    step later, so the sequence opens with new cells."""
    slots = []
    for order, (kind, n) in enumerate(counts.items()):
        offset = 0.5 if kind == "memo" else 0.0
        slots += [((j + offset) / n, order, kind) for j in range(n)]
    return [kind for _, _, kind in sorted(slots)]


def serve_plan(seed: int) -> Dict[str, Any]:
    """The closed-loop request lists of both clients, and the cells to prefill.

    Returns ``{"clients": [[slot, ...], [slot, ...]], "prefill": [body, ...]}``
    where a slot is ``(kind, body)`` and kind is ``miss``, ``store``,
    ``memo`` or ``coalesce``.  Both clients send the same kinds in the
    same order, so the shares and their interleaving are the same for
    every seed.  A ``coalesce`` cell is sent by both clients at once;
    a ``memo`` repeat names a cell the same client already completed.
    """
    rng = random.Random(seed)
    fresh = _new_cells(seed, COALESCED_PAIRS + 2 * (MISSES_PER_CLIENT + STORE_PER_CLIENT))
    coalesce = fresh[:COALESCED_PAIRS]
    misses = fresh[COALESCED_PAIRS:COALESCED_PAIRS + 2 * MISSES_PER_CLIENT]
    stored = fresh[COALESCED_PAIRS + 2 * MISSES_PER_CLIENT:]
    kinds = _spread({"store": STORE_PER_CLIENT, "miss": MISSES_PER_CLIENT,
                     "coalesce": COALESCED_PAIRS, "memo": MEMO_PER_CLIENT})
    clients: List[List[Tuple[str, Dict[str, Any]]]] = []
    for client in range(2):
        queues = {"miss": misses[client::2], "store": stored[client::2], "coalesce": list(coalesce)}
        done: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
        slots: List[Tuple[str, Dict[str, Any]]] = []
        repeats = 0
        for kind in kinds:
            if kind == "memo":
                # Every fifth repeat is of a full-schedule cell, as every
                # fifth new cell is one: encode work must not vary by seed.
                big = repeats % KEEP_SCHEDULE_EVERY == KEEP_SCHEDULE_EVERY - 1 and bool(done[True])
                body = rng.choice(done[big])
                repeats += 1
            else:
                body = queues[kind].pop(0)
                done["keep_schedule" in body].append(body)
            slots.append((kind, body))
        clients.append(slots)
    return {"clients": clients, "prefill": stored}


def serve_expectations() -> Dict[str, int]:
    """Server counters every serve_mixed round must end with."""
    return {"requests": 2 * REQUESTS_PER_CLIENT,
            "executed": 2 * MISSES_PER_CLIENT + COALESCED_PAIRS}

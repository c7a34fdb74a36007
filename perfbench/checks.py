"""Correctness checks: pinned result digests, plus the modelled-hardware
counters reported by traced runs.

``pins.json`` maps every cell of the grid universes (see
:mod:`perfbench.grids`) to the SHA-256 of its canonical result document,
as produced by the commit the benchmark was defined on
(``make_pins.py``).  The counters are a pure function of the document,
so a matching digest already pins them; to see which counter moved in a
mismatching cell, compare :func:`cell_counters` of the two documents.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

PINS_PATH = Path(__file__).with_name("pins.json")


def digest(document: Dict[str, Any]) -> str:
    """SHA-256 of a result document in canonical JSON."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _total(value: Any) -> Optional[float]:
    if value is None:
        return None
    return sum(value) if isinstance(value, list) else value


def cell_counters(document: Dict[str, Any]) -> List[Optional[float]]:
    """``[set_conflicts, tg_busy, arbiter_busy, ready_latency, lock_wait, makespan]``."""
    stats = document.get("manager_stats", {})
    return [
        _total(stats.get("set_conflicts")),
        _total(stats.get("task_graph_busy_us")),
        stats.get("arbiter_busy_us"),
        stats.get("mean_ready_latency_us") if "task_graph_busy_us" in stats else None,
        stats.get("lock_mean_wait_us"),
        document["makespan_us"],
    ]


def aggregate(per_cell: Iterable[Tuple[str, List[Optional[float]]]]) -> Dict[str, float]:
    """Run-level counters from per-cell counters, summed in key order."""
    cells = sorted(per_cell, key=lambda item: item[0])
    sums = [0.0] * 5
    counts = [0] * 5
    log_makespan = 0.0
    for _, values in cells:
        for slot in range(5):
            if values[slot] is not None:
                sums[slot] += values[slot]
                counts[slot] += 1
        log_makespan += math.log(values[5])
    return {
        "nexus.set_conflicts": sums[0],
        "nexus.tg_busy_us": sums[1],
        "nexus.arbiter_busy_us": sums[2],
        "nexus.ready_latency_us_mean": sums[3] / counts[3] if counts[3] else 0.0,
        "managers.nanos_lock_wait_us_mean": sums[4] / counts[4] if counts[4] else 0.0,
        "sim.makespan_us_geomean": math.exp(log_makespan / len(cells)) if cells else 0.0,
    }


def load_pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))["cells"]


class Checker:
    """Checks documents against the pins; collects readable mismatches.

    ``live`` keeps the counters of every checked cell for the traced
    run's modelled-hardware metrics.
    """

    def __init__(self, pins: Optional[Dict[str, str]] = None) -> None:
        self.pins = load_pins() if pins is None else pins
        self.mismatches: List[str] = []
        self.live: Dict[str, List[Optional[float]]] = {}

    def fail(self, message: str) -> None:
        self.mismatches.append(message)

    def check(self, key: str, document: Dict[str, Any]) -> bool:
        """Whether ``document`` is the pinned result of cell ``key``."""
        pin = self.pins.get(key)
        if pin is None:
            self.fail(f"{key}: no pinned result for this cell")
            return False
        self.live[key] = cell_counters(document)
        if digest(document) != pin:
            self.fail(f"{key}: result document differs from its pin")
            return False
        return True

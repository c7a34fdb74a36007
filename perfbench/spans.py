"""In-memory span recorder plus the statistics the benchmark reports.

A span is ``[name, start, end, parent, thread, ctx]``: ``parent`` is the
index of the enclosing span on the same thread (``-1`` at the root) and
``ctx`` an optional cell or request id.  Spans stay in memory and are
written out once, when the run ends.  :func:`install` wraps public
functions of the program so every call records a span; the wrappers
live here, never in the program.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, THREAD, CTX = range(6)


class Recorder:
    """Thread-aware span list (one parent stack per thread)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, ctx: Any = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), ctx])
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        return span[END] - span[START]


Patch = Tuple[Any, str, Any]


def wrap(recorder: Recorder, owner: Any, attr: str, name: str,
         after: Optional[Callable[[int, tuple, Any], None]] = None) -> Patch:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``after(span_index, args, result)`` runs once the call returned.
    A missing attribute raises :class:`AttributeError`: a layer that was
    renamed or removed must fail the run, not report zero time.
    """
    original = getattr(owner, attr, None)
    if original is None:
        raise AttributeError(f"layer {name!r}: {getattr(owner, '__name__', owner)}.{attr} "
                             "not found; update perfbench/layers.py")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(index, args, result)
        return result

    setattr(owner, attr, wrapper)
    return owner, attr, original


def restore(patches: Iterable[Patch]) -> None:
    for owner, attr, original in reversed(list(patches)):
        setattr(owner, attr, original)


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def self_by_name(spans: Sequence[list]) -> Dict[str, float]:
    """Total self time per span name (seconds)."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return totals


def count_by_name(spans: Sequence[list]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span[NAME]] = counts.get(span[NAME], 0) + 1
    return counts


# -- percentiles ---------------------------------------------------------------
#: Percentiles tried, highest first, when a named tail lacks samples.
LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample covering a ``q`` share."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q * n))


def tail(samples: Sequence[float], q: float, need: int = 10) -> Tuple[float, float]:
    """``(value, q_used)``: the ``q`` percentile if at least ``need``
    samples lie beyond it, else the highest percentile of
    :data:`LADDER` below ``q`` that has them (the median as a floor)."""
    n = len(samples)
    for candidate in (q,) + tuple(p for p in LADDER if p < q):
        if beyond(n, candidate) >= need or candidate <= 0.5:
            return nearest_rank(samples, candidate), candidate
    raise AssertionError("unreachable")


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2

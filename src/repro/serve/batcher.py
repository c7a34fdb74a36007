"""Request coalescing and batched dispatch for the serving layer.

Every HTTP request bottoms out in one or more
:class:`~repro.experiments.spec.RunPoint` grid cells, and the batcher is
the single funnel they all pass through:

1. **Cache** — a cell whose spec-hash key is already in the shared
   :class:`~repro.experiments.cache.ResultCache` is answered without
   touching the queue (the same content addressing the sweep runner and
   the distributed fabric use, so results are interchangeable between
   all three).
2. **Single-flight dedupe** — identical cells in flight share one
   simulation: the second..Nth identical request awaits the first one's
   future instead of enqueueing a duplicate.
3. **Admission** — genuinely new cells pass the bounded-queue
   :class:`~repro.serve.admission.AdmissionController` (all-or-nothing
   for multi-cell sweeps) or the request is rejected with a measured
   Retry-After.
4. **Batched execution** — admitted cells are grouped into blocks of
   up to ``block_cells`` cells and each block runs on a thread-pool
   executor (:func:`repro.experiments.runner.execute_lane_block`), cell
   by cell, exactly like the sweep runner.  With ``fabric_workers`` > 0,
   large blocks are fanned out over the distributed sweep fabric
   (:class:`~repro.distributed.scheduler.SweepScheduler`) instead.

All bookkeeping runs on the server's event loop (no locks); only the
simulation blocks run on executor threads.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.runner import execute_lane_block, intern_jobs
from repro.experiments.spec import RunPoint
from repro.resilience.circuit import CircuitBreaker
from repro.serve.admission import AdmissionController, Saturated

__all__ = ["Batcher", "BatcherStats", "Saturated", "execute_block"]


def execute_block(block: List[Tuple[int, RunPoint]]) -> List[Tuple[int, Dict[str, Any]]]:
    """Run one block of grid cells on the local executor, in order."""
    return execute_lane_block(block)


def execute_block_fabric(
    block: List[Tuple[int, RunPoint]],
    *,
    workers: int,
    cache_dir: Optional[str],
) -> List[Tuple[int, Dict[str, Any]]]:
    """Fan one block out over the distributed sweep fabric.

    Spawns ``workers`` local socket workers for the duration of the
    block (the fabric's own locality chunking, stealing and heartbeat
    recovery apply), so a serving deployment with attached workers keeps
    the event loop free of simulation work entirely.
    """
    from repro.distributed.scheduler import SweepScheduler

    jobs, table = intern_jobs(block)
    scheduler = SweepScheduler(
        jobs, table, workers=workers, cache_dir=cache_dir)
    return scheduler.run()


@dataclass
class BatcherStats:
    """Serving counters (reported by ``GET /v1/stats``)."""

    requests: int = 0
    cells: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    executed: int = 0
    rejected: int = 0
    blocks: int = 0
    errors: int = 0
    fabric_blocks: int = 0
    fabric_failures: int = 0
    fabric_fallbacks: int = 0
    started_at: float = field(default_factory=time.time)

    def to_json(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "rejected": self.rejected,
            "blocks": self.blocks,
            "errors": self.errors,
            "fabric_blocks": self.fabric_blocks,
            "fabric_failures": self.fabric_failures,
            "fabric_fallbacks": self.fabric_fallbacks,
            "uptime_s": round(time.time() - self.started_at, 3),
        }


class _Pending:
    """One admitted cell waiting for (or running in) a block."""

    __slots__ = ("point", "key", "future")

    def __init__(self, point: RunPoint, key: Optional[str], future: asyncio.Future) -> None:
        self.point = point
        self.key = key
        self.future = future


class _MemoEntry:
    """A memoised result document and, once rendered, its JSON bytes."""

    __slots__ = ("document", "rendered")

    def __init__(self, document: Dict[str, Any]) -> None:
        self.document = document
        self.rendered: Optional[bytes] = None


class Batcher:
    """The cache → dedupe → admit → batch funnel (event-loop resident).

    Parameters
    ----------
    cache:
        Shared on-disk result store, or ``None``.  Independently of it,
        the batcher keeps a bounded in-memory memo of results by cache
        key, so repeated identical requests are warm even on a server
        without a cache directory.  Each memo entry also holds the
        result's canonical JSON bytes once :meth:`rendered` has made
        them, so a memo hit is answered without re-rendering.
    block_cells:
        Cells per executor block (1 = one cell per block); also the
        size a coalescing burst waits to fill (see ``batch_window``).
    batch_window:
        Seconds the dispatcher waits for a partial block to fill before
        running it anyway — the latency cost of coalescing (default 2 ms).
    max_pending:
        Bounded-queue depth handed to the :class:`AdmissionController`.
    memo_entries:
        Results the in-memory memo keeps (LRU beyond this), each with at
        most one rendered JSON copy.
    executor_threads:
        Simulation threads.  Simulations are pure Python (GIL-bound), so
        this mainly overlaps simulation with request I/O; real scale-out
        comes from ``fabric_workers``.
    fabric_workers / fabric_min_cells:
        With ``fabric_workers`` > 0, blocks of at least
        ``fabric_min_cells`` cells run on the distributed sweep fabric
        (worker processes spawned per block) instead of in-process.
        The fabric path sits behind a
        :class:`~repro.resilience.circuit.CircuitBreaker`: consecutive
        fabric failures trip it open and blocks run on the local
        executor until a cooled-down probe succeeds — and a block whose
        fabric attempt fails is re-run locally *right away*, so a
        broken fabric degrades throughput, never correctness.
    chaos:
        Optional :class:`~repro.chaos.hooks.ServeChaos` (or a
        :class:`~repro.chaos.plan.FaultPlan` to wrap in one):
        deterministic injected engine failures per admitted request,
        for soak tests of the failure path.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        block_cells: int = 8,
        batch_window: float = 0.002,
        max_pending: int = 256,
        executor_threads: int = 2,
        fabric_workers: int = 0,
        fabric_min_cells: Optional[int] = None,
        memo_entries: int = 4096,
        breaker: Optional[CircuitBreaker] = None,
        chaos: Optional[Any] = None,
    ) -> None:
        if block_cells < 1:
            raise ValueError(f"block_cells must be >= 1, got {block_cells}")
        self.cache = cache
        self.block_cells = block_cells
        self.batch_window = batch_window
        self.admission = AdmissionController(max_pending)
        self.stats = BatcherStats()
        self.breaker = breaker or CircuitBreaker(failure_threshold=3, cooldown=10.0)
        if chaos is not None and not hasattr(chaos, "maybe_fail"):
            from repro.chaos.hooks import ServeChaos

            chaos = ServeChaos(chaos)
        self.chaos = chaos
        self.fabric_workers = fabric_workers
        if fabric_min_cells is None:
            fabric_min_cells = max(2, 2 * fabric_workers)
        self.fabric_min_cells = fabric_min_cells
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="serve-sim")
        self.memo_entries = memo_entries
        self._memo: "OrderedDict[str, _MemoEntry]" = OrderedDict()
        self._queue: deque[_Pending] = deque()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._block_tasks: set = set()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Start the dispatcher on the running event loop."""
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-batcher")

    async def close(self) -> None:
        """Stop dispatching; fail whatever is still queued."""
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        while self._queue:
            pending = self._queue.popleft()
            if not pending.future.done():
                pending.future.set_exception(
                    ConnectionError("server shutting down"))
            self._forget(pending)
        if self._block_tasks:
            await asyncio.gather(*self._block_tasks, return_exceptions=True)
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- submission --------------------------------------------------------
    def lookup(self, point: RunPoint) -> Tuple[Optional[str], Optional[Dict[str, Any]]]:
        """Resolve a cell against memo + cache: ``(key, cached_document)``."""
        key = point.cache_key() if point.cacheable else None
        if key is None:
            return None, None
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
            return key, entry.document
        if self.cache is not None:
            document = self.cache.get(key)
            if document is not None:
                self._remember(key, document)
            return key, document
        return key, None

    def _remember(self, key: str, document: Dict[str, Any]) -> None:
        self._memo[key] = _MemoEntry(document)
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)

    def rendered(self, key: Optional[str], document: Dict[str, Any],
                 render: Callable[[Dict[str, Any]], bytes]) -> bytes:
        """``render(document)``, made at most once per memoised result.

        The bytes are kept in the memo entry only while that entry still
        holds this very document for ``key``, so they are evicted with
        it and the memo's LRU bound stays its memory bound.  Anything
        else (an uncacheable point, an evicted entry) renders afresh.
        """
        entry = self._memo.get(key) if key is not None else None
        if entry is None or entry.document is not document:
            return render(document)
        if entry.rendered is None:
            entry.rendered = render(document)
        return entry.rendered

    def submit_many(self, points: List[RunPoint]) -> List["asyncio.Future[Dict[str, Any]]"]:
        """Admit a batch of cells atomically; return one awaitable each.

        Runs entirely synchronously on the event loop: cache lookups and
        dedupe first, then **one** all-or-nothing admission check for the
        genuinely new cells — a saturated queue rejects the whole request
        (:class:`Saturated`) without enqueueing half of it.  The returned
        futures resolve to result documents in the order of ``points``.
        """
        if self._closed:
            raise ConnectionError("server shutting down")
        loop = asyncio.get_running_loop()
        self.stats.requests += 1
        self.stats.cells += len(points)
        if self.chaos is not None:
            # Injected *before* admission so a failed request holds no
            # queue slots; it surfaces exactly like an engine bug (500).
            try:
                self.chaos.maybe_fail()
            except Exception:
                self.stats.errors += 1
                raise

        resolved: List[Tuple[RunPoint, Optional[str], Optional[Dict[str, Any]]]] = []
        fresh = 0
        seen_keys: Dict[str, int] = {}
        for point in points:
            key, cached = self.lookup(point)
            resolved.append((point, key, cached))
            if cached is None and (key is None or (
                    key not in self._inflight and key not in seen_keys)):
                fresh += 1
                if key is not None:
                    seen_keys[key] = fresh
        self.admission.try_acquire(fresh)  # raises Saturated; nothing queued

        futures: List[asyncio.Future] = []
        enqueued: Dict[str, asyncio.Future] = {}
        for point, key, cached in resolved:
            if cached is not None:
                self.stats.cache_hits += 1
                future = loop.create_future()
                future.set_result(cached)
                futures.append(future)
                continue
            if key is not None:
                shared = self._inflight.get(key) or enqueued.get(key)
                if shared is not None:
                    self.stats.coalesced += 1
                    futures.append(shared)
                    continue
            future = loop.create_future()
            if key is not None:
                self._inflight[key] = future
                enqueued[key] = future
            self._queue.append(_Pending(point, key, future))
            futures.append(future)
        if self._wakeup is not None:
            self._wakeup.set()
        return futures

    async def submit(self, point: RunPoint) -> Dict[str, Any]:
        """Admit one cell and await its result document."""
        [future] = self.submit_many([point])
        # shield: a client disconnecting must not cancel a simulation
        # other coalesced requests may be awaiting.
        return await asyncio.shield(future)

    # -- dispatch ----------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            while self._queue:
                if 0 < len(self._queue) < self.block_cells and self.batch_window > 0:
                    # Let a burst coalesce into a fuller block.
                    await asyncio.sleep(self.batch_window)
                block = [
                    self._queue.popleft()
                    for _ in range(min(self.block_cells, len(self._queue)))
                ]
                task = asyncio.create_task(self._run_block(block))
                self._block_tasks.add(task)
                task.add_done_callback(self._block_tasks.discard)

    async def _run_block(self, block: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        indexed = list(enumerate(pending.point for pending in block))
        started = time.monotonic()
        use_fabric = (self.fabric_workers > 0
                      and len(block) >= self.fabric_min_cells)
        try:
            pairs = None
            if use_fabric and self.breaker.allow():
                cache_dir = str(self.cache.root) if self.cache is not None else None
                try:
                    pairs = await loop.run_in_executor(
                        self._executor, lambda: execute_block_fabric(
                            indexed, workers=self.fabric_workers,
                            cache_dir=cache_dir))
                    self.breaker.record_success()
                    self.stats.fabric_blocks += 1
                except Exception:
                    # The fabric is the *optimisation*; the local
                    # executor is the truth.  Fail the breaker, run the
                    # same block locally, and only a local failure can
                    # fail the requests.
                    self.breaker.record_failure()
                    self.stats.fabric_failures += 1
            elif use_fabric:
                self.stats.fabric_fallbacks += 1  # breaker open: skip straight to local
            if pairs is None:
                pairs = await loop.run_in_executor(
                    self._executor, execute_block, indexed)
        except Exception as exc:
            self.stats.errors += len(block)
            self.admission.release(len(block), time.monotonic() - started)
            for pending in block:
                self._forget(pending)
                if not pending.future.done():
                    pending.future.set_exception(exc)
            return
        self.stats.executed += len(block)
        self.stats.blocks += 1
        self.admission.release(len(block), time.monotonic() - started)
        documents = dict(pairs)
        for position, pending in enumerate(block):
            document = documents[position]
            if pending.key is not None:
                self._remember(pending.key, document)
                if self.cache is not None:
                    self.cache.put(pending.key, document)
            self._forget(pending)
            if not pending.future.done():
                pending.future.set_result(document)

    def _forget(self, pending: _Pending) -> None:
        if pending.key is not None and self._inflight.get(pending.key) is pending.future:
            del self._inflight[pending.key]

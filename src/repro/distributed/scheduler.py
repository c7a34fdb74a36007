"""The central sweep scheduler: owns the frontier, serves the workers.

One :class:`SweepScheduler` instance drives one distributed sweep.  It

* binds a TCP server socket and (optionally) spawns ``workers`` local
  worker processes pointed at it — remote workers started by hand via
  ``python -m repro.distributed.worker --connect host:port`` join the
  same pool;
* hands each worker the pickled job table **once** at handshake, then
  dispatches cells by index in locality-aware chunks pulled from the
  :class:`~repro.distributed.frontier.SweepFrontier`;
* rebalances by **work stealing**: when a worker asks for work and the
  queue is dry, the tail half of the most-loaded worker's unfinished
  assignment is revoked from it and handed to the idle one;
* detects dead workers two ways — socket EOF (a SIGKILLed process drops
  its connection immediately) as the fast path, and a
  :class:`HeartbeatMonitor` timeout as the backstop for hung-but-
  connected workers — and requeues their unfinished cells with a
  bounded per-cell retry budget, so a killed worker never loses
  results;
* assembles the streamed result documents keyed by grid index, which is
  what lets the runner emit canonical JSONL in deterministic cell order
  regardless of which worker finished what when.

Failure semantics are documented in ``docs/distributed.md``.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.distributed.frontier import SweepFrontier
from repro.distributed.protocol import FrameStream, ProtocolError, encode_payload
from repro.resilience.journal import FrontierJournal
from repro.resilience.quarantine import WorkerQuarantine

#: Main-loop tick: heartbeat checks and liveness checks run this often.
_TICK_SECONDS = 0.05


class HeartbeatMonitor:
    """Last-seen ledger with an expiry rule (injectable clock for tests).

    The scheduler calls :meth:`beat` on *every* frame a worker sends
    (results count as life signs, not just dedicated heartbeats) and
    periodically closes the connections :meth:`expired` names.
    """

    def __init__(self, timeout: float, clock: Callable[[], float] = time.monotonic) -> None:
        if timeout <= 0:
            raise SimulationError(f"heartbeat timeout must be positive, got {timeout}")
        self.timeout = timeout
        self._clock = clock
        self._last_seen: Dict[str, float] = {}

    def beat(self, worker_id: str) -> None:
        self._last_seen[worker_id] = self._clock()

    def forget(self, worker_id: str) -> None:
        self._last_seen.pop(worker_id, None)

    def last_seen(self, worker_id: str) -> Optional[float]:
        return self._last_seen.get(worker_id)

    def expired(self) -> List[str]:
        """Workers whose last life sign is older than ``timeout``."""
        now = self._clock()
        return [wid for wid, seen in self._last_seen.items()
                if now - seen > self.timeout]


class _Connection:
    """Scheduler-side state of one connected worker."""

    __slots__ = ("worker_id", "stream")

    def __init__(self, worker_id: str, stream: FrameStream) -> None:
        self.worker_id = worker_id
        self.stream = stream


class SweepScheduler:
    """Run one distributed sweep over socket workers.

    Parameters
    ----------
    jobs:
        ``(grid_index, point, workload_ref)`` triples — exactly the job
        shape the ``multiprocessing`` path ships to its pool (inline
        traces interned into ``table``).
    table:
        Interned workload table referenced by the jobs' ``workload_ref``.
    groups:
        Locality keys parallel to ``jobs`` (cells sharing a key are
        chunked together; defaults to one key per distinct workload).
    workers:
        Local worker processes to spawn against the server socket.
    external_workers:
        Number of additional workers expected to connect from elsewhere
        (started by hand; the scheduler prints nothing and simply
        serves whoever completes the handshake).
    cache_dir:
        Shared content-addressed result store.  Workers publish every
        finished cell into it with atomic writes, so results survive
        worker death and are reusable by any process that can see the
        directory.
    chunk_size:
        Cells per dispatch chunk (default: sized so every worker gets
        ~8 chunks, clamped to [1, 64]).
    max_attempts:
        Per-cell dispatch budget across worker deaths (see
        :class:`SweepFrontier`).
    heartbeat_interval / heartbeat_timeout:
        Workers send a life sign every ``interval`` seconds; the
        scheduler declares a worker dead after ``timeout`` seconds of
        silence.  The interval workers are told to use is clamped to
        ``timeout / 4`` so a short expiry deadline can never outpace
        the life signs of a healthy-but-busy worker.
    clock:
        Injectable monotonic clock (tests drive expiry with a fake one).
    timeout:
        Overall wall-clock bound on :meth:`run`; ``None`` waits forever.
    on_result:
        Optional ``(grid_index, document) -> None`` progress hook,
        called once per newly finished cell.
    chaos:
        Optional :class:`~repro.chaos.plan.FaultPlan`.  Shipped to every
        worker in its ``setup`` frame (with a per-connection epoch so a
        respawned worker draws a fresh fault stream instead of replaying
        its own crash), and wraps the scheduler side of each connection
        in a :class:`~repro.chaos.stream.ChaosFrameStream`.
    journal:
        Optional :class:`~repro.resilience.journal.FrontierJournal`.
        Cells it already holds are pre-completed (their documents
        replayed) and never dispatched; every fresh result is appended,
        so a scheduler killed mid-sweep resumes instead of restarting.
    quarantine:
        Death ledger distinguishing bad workers from poisoned cells
        (default: 5 deaths across ≥2 distinct cells).  A quarantined
        identity is refused at handshake and never respawned.
    max_respawns:
        Budget of local worker *re*-spawns across the whole sweep (dead
        local processes are relaunched under their original identity
        while budget remains, so transient worker crashes do not sink
        the sweep).
    speculate_after:
        Straggler threshold in seconds: a worker holding cells but
        silent on the result channel this long gets its head-of-line
        cells speculatively duplicated onto an idle worker (first
        result wins); ``None`` disables speculation.
    """

    def __init__(
        self,
        jobs: Sequence[Tuple[int, Any, Optional[int]]],
        table: Sequence[Any] = (),
        *,
        groups: Optional[Sequence[Any]] = None,
        workers: int = 0,
        external_workers: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[str] = None,
        chunk_size: Optional[int] = None,
        max_attempts: int = 3,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        timeout: Optional[float] = None,
        on_result: Optional[Callable[[int, Dict[str, Any]], None]] = None,
        chaos: Optional[Any] = None,
        journal: Optional[FrontierJournal] = None,
        quarantine: Optional[WorkerQuarantine] = None,
        max_respawns: int = 8,
        speculate_after: Optional[float] = 2.0,
    ) -> None:
        if workers < 0 or external_workers < 0:
            raise SimulationError("worker counts must be >= 0")
        if workers + external_workers < 1 and jobs:
            raise SimulationError(
                "a distributed sweep needs at least one worker "
                "(workers >= 1 or external_workers >= 1)")
        self.jobs = list(jobs)
        self.table = list(table)
        self.workers = workers
        self.external_workers = external_workers
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.heartbeat_interval = min(heartbeat_interval, heartbeat_timeout / 4)
        self.timeout = timeout
        self.on_result = on_result
        self.monitor = HeartbeatMonitor(heartbeat_timeout, clock)
        self._clock = clock
        if chunk_size is None:
            per_worker = max(1, len(self.jobs) // max(1, workers + external_workers))
            chunk_size = max(1, min(64, per_worker // 8 or 1))
        cells = [index for index, _, _ in self.jobs]
        if groups is None:
            groups = [id(point.workload) for _, point, _ in self.jobs]
        self.frontier = SweepFrontier(
            cells, list(groups), chunk_size=chunk_size, max_attempts=max_attempts)

        self.chaos = chaos
        self.journal = journal
        self.quarantine = quarantine or WorkerQuarantine()
        if max_respawns < 0:
            raise SimulationError(f"max_respawns must be >= 0, got {max_respawns}")
        self.max_respawns = max_respawns
        self.speculate_after = speculate_after
        self.respawns = 0
        self.speculations = 0
        #: Operator-facing fault timeline: quarantines, respawns,
        #: speculations, expiries — what the chaos tests and the bench
        #: read back instead of scraping logs.
        self.events: List[Dict[str, Any]] = []

        self.address: Optional[Tuple[str, int]] = None
        self.processes: List[subprocess.Popen] = []
        self.results_received = 0
        self.resumed_cells = 0
        self._local_procs: Dict[str, subprocess.Popen] = {}
        self._local_respawns: Dict[str, int] = {}
        self._epochs: Dict[str, int] = {}
        self._worker_activity: Dict[str, float] = {}
        self._documents: Dict[int, Dict[str, Any]] = {}
        self._lock = threading.RLock()
        #: Notified on every observable state change (result recorded,
        #: chunk dispatched, worker connected/disconnected, address
        #: bound, failure) — the event-driven backbone of
        #: :meth:`wait_until`, so tests never poll with sleeps.
        self._progress = threading.Condition(self._lock)
        self._conns: Dict[str, _Connection] = {}
        self._idle: set = set()
        self._next_anon = 0
        self._done = threading.Event()
        self._stopping = False
        self._failure: Optional[BaseException] = None
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._payload: Optional[str] = None

        if journal is not None:
            # Resume: replayed completions are real results — mark them
            # done before any dispatch so no worker ever re-runs them.
            wanted = {index for index, _, _ in self.jobs}
            for cell, doc in journal.completed.items():
                if cell in wanted and self.frontier.complete(None, cell):
                    self._documents[cell] = doc
                    self.resumed_cells += 1
            if self.resumed_cells:
                self._event("resume", cells=self.resumed_cells,
                            journal=str(journal.path))

    # -- lifecycle ---------------------------------------------------------
    def run(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Serve workers until every cell has a result; return them.

        Results come back as ``(grid_index, document)`` pairs in
        completion order — the caller (the runner) re-orders them into
        grid order, which is what keeps the JSONL deterministic.
        """
        if not self.jobs:
            return []
        if self.frontier.is_done:
            # Every cell was replayed from the journal: nothing to
            # serve, no socket to bind, no worker to spawn.
            return sorted(self._documents.items())
        self._payload = encode_payload((self.jobs, self.table))
        self._server = socket.create_server((self.host, self.port), backlog=64)
        with self._progress:
            self.address = self._server.getsockname()[:2]
            self._progress.notify_all()
        accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-accept", daemon=True)
        accept_thread.start()
        self._threads.append(accept_thread)
        try:
            for i in range(self.workers):
                self._launch_local(f"local-{i}")
            deadline = None if self.timeout is None else self._clock() + self.timeout
            while not self._done.wait(_TICK_SECONDS):
                if self._failure is not None:
                    break
                self._expire_silent_workers()
                self._respawn_dead_locals()
                self._speculate_tick()
                self._check_liveness()
                if deadline is not None and self._clock() > deadline:
                    self._fail(SimulationError(
                        f"distributed sweep timed out after {self.timeout}s "
                        f"({self.frontier.done_count}/{self.frontier.total} cells done)"))
        finally:
            self._shutdown()
        if self._failure is not None:
            raise SimulationError(f"distributed sweep failed: {self._failure}") \
                from self._failure
        missing = self.frontier.total - len(self._documents)
        if missing:  # pragma: no cover - defensive
            raise SimulationError(f"sweep lost results for {missing} grid cells")
        return sorted(self._documents.items())

    def _launch_local(self, worker_id: str) -> subprocess.Popen:
        process = self._spawn_local(worker_id)
        self.processes.append(process)
        self._local_procs[worker_id] = process
        return process

    def _spawn_local(self, worker_id: str) -> subprocess.Popen:
        host, port = self.address
        if host in ("0.0.0.0", "::"):
            host = "127.0.0.1"
        env = dict(os.environ)
        # Workers must import the same repro package as the scheduler,
        # wherever it lives (a src/ checkout or an installed wheel).
        import repro

        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (package_root + os.pathsep + existing) if existing \
                else package_root
        return subprocess.Popen(
            [sys.executable, "-m", "repro.distributed.worker",
             "--connect", f"{host}:{port}", "--worker-id", worker_id],
            env=env,
        )

    def _event(self, kind: str, **detail: Any) -> None:
        entry = {"t": round(self._clock(), 4), "event": kind, **detail}
        self.events.append(entry)

    def _shutdown(self) -> None:
        self._stopping = True
        with self._lock:
            conns = list(self._conns.values())
        for conn in conns:
            try:
                conn.stream.send({"type": "shutdown"})
            except OSError:
                pass
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        for process in self.processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5)
        for conn in conns:
            conn.stream.close()
        for thread in self._threads:
            thread.join(timeout=5)

    def _fail(self, exc: BaseException) -> None:
        with self._progress:
            if self._failure is None:
                self._failure = exc
            self._progress.notify_all()
        self._done.set()

    # -- event-driven waiting (tests, monitoring) ----------------------------
    def wait_until(self, predicate: Callable[[], bool], timeout: float = 60.0) -> bool:
        """Block until ``predicate()`` is true; return its final value.

        The predicate is evaluated under the scheduler lock and
        re-checked whenever scheduler state changes (a result lands, a
        chunk is dispatched, a worker joins or dies, the server binds),
        plus a coarse periodic backstop for conditions the scheduler
        cannot observe itself (e.g. an external thread dying).  This is
        the replacement for sleep-based polling in tests: no interval
        tuning, no wall-clock flakiness — the wait ends the moment the
        state change is published.
        """
        deadline = time.monotonic() + timeout
        with self._progress:
            while True:
                if predicate():
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return bool(predicate())
                self._progress.wait(min(remaining, 0.25))

    def wait_for_results(self, count: int, timeout: float = 60.0) -> bool:
        """Block until at least ``count`` results have been recorded."""
        return self.wait_until(lambda: self.results_received >= count, timeout)

    # -- connection handling -----------------------------------------------
    def _accept_loop(self) -> None:
        assert self._server is not None
        # A timeout (not a bare blocking accept): on Linux, closing the
        # listening socket does not wake a thread already blocked in
        # accept(), so shutdown would stall until the join times out.
        self._server.settimeout(0.25)
        while not self._stopping:
            try:
                sock, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # server socket closed during shutdown
            thread = threading.Thread(
                target=self._serve, args=(sock,), name="fabric-serve", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _serve(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        stream = FrameStream(sock)
        worker_id: Optional[str] = None
        try:
            hello = stream.recv(timeout=30)
            if hello is None or hello.get("type") != "hello":
                stream.close()
                return
            claimed = str(hello.get("worker_id") or "")
            if self.quarantine.is_quarantined(claimed):
                # A quarantined identity gets no second handshake: close
                # without setup so its reconnect loop exhausts quickly.
                self._event("refused", worker=claimed)
                stream.close()
                return
            with self._lock:
                worker_id = claimed
                if not worker_id or worker_id in self._conns:
                    worker_id = f"{worker_id or 'worker'}-{self._next_anon}"
                    self._next_anon += 1
                epoch = self._epochs.get(worker_id, 0)
                self._epochs[worker_id] = epoch + 1
                self._conns[worker_id] = _Connection(worker_id, stream)
                self.monitor.beat(worker_id)
                self._worker_activity[worker_id] = self._clock()
                self._progress.notify_all()
            setup: Dict[str, Any] = {
                "type": "setup",
                "worker_id": worker_id,
                "jobs": self._payload,
                "cache_dir": self.cache_dir,
                "heartbeat_interval": self.heartbeat_interval,
            }
            if self.chaos is not None:
                # The epoch keeps respawns out of fault lockstep: the
                # replacement of a crashed worker draws a fresh fault
                # stream instead of replaying the identical crash.
                setup["chaos"] = self.chaos.to_doc()
                setup["chaos_epoch"] = epoch
            stream.send(setup)
            if self.chaos is not None:
                from repro.chaos.stream import ChaosFrameStream

                stream = ChaosFrameStream.adopt(
                    stream, self.chaos, f"sched:{worker_id}:e{epoch}")
                with self._lock:
                    conn = self._conns.get(worker_id)
                    if conn is not None and conn.stream is not stream:
                        conn.stream = stream
            while True:
                frame = stream.recv()
                if frame is None:
                    return
                self.monitor.beat(worker_id)
                kind = frame.get("type")
                if kind == "need_work":
                    self._dispatch(worker_id)
                elif kind == "result":
                    self._record_result(worker_id, int(frame["cell"]), frame["doc"])
                elif kind == "heartbeat":
                    pass
                elif kind == "error":
                    # The engine rejected a cell — deterministic, so a
                    # retry on another worker would fail identically.
                    self._fail(SimulationError(
                        f"worker {worker_id} failed on cells "
                        f"{frame.get('cells')}: {frame.get('message')}"))
                    return
                elif kind == "goodbye":
                    return
                else:
                    raise ProtocolError(f"unexpected frame from worker: {kind!r}")
        except (ProtocolError, OSError, TimeoutError, ValueError, KeyError):
            pass  # treated as a dead worker below
        finally:
            self._disconnect(worker_id, stream)

    def _disconnect(self, worker_id: Optional[str], stream: FrameStream) -> None:
        stream.close()
        if worker_id is None:
            return
        requeued: List[int] = []
        with self._progress:
            if worker_id not in self._conns:
                return
            del self._conns[worker_id]
            self._idle.discard(worker_id)
            self.monitor.forget(worker_id)
            self._progress.notify_all()
            if self._stopping or self.frontier.is_done:
                return
            held = self.frontier.assigned_cells(worker_id)
            if self.quarantine.record_death(worker_id, held):
                # Diverse cells, repeated deaths: the worker is the
                # problem.  Refuse its handshakes, stop respawning it.
                self._event("quarantine", worker=worker_id,
                            deaths=self.quarantine.deaths(worker_id))
            try:
                requeued = self.frontier.fail_worker(worker_id)
            except SimulationError as exc:
                self._fail(exc)
                return
            self._event("death", worker=worker_id, requeued=len(requeued))
        if requeued:
            self._kick_idle()

    # -- scheduling --------------------------------------------------------
    def _dispatch(self, worker_id: str) -> None:
        """Assign the next chunk to ``worker_id`` — stealing if dry."""
        revoke_from: Optional[str] = None
        stolen: List[int] = []
        with self._progress:
            chunk = self.frontier.next_chunk(worker_id)
            if not chunk:
                victim = self.frontier.steal_victim(worker_id)
                if victim is not None:
                    stolen = self.frontier.steal(victim, worker_id)
                    if stolen:
                        revoke_from = victim
            self._progress.notify_all()
            if not chunk and not stolen:
                self._idle.add(worker_id)
                return
            self._idle.discard(worker_id)
            self._worker_activity[worker_id] = self._clock()
            thief_conn = self._conns.get(worker_id)
            victim_conn = self._conns.get(revoke_from) if revoke_from else None
        if victim_conn is not None:
            # Best effort: if the victim is dying, its disconnect path
            # requeues whatever the steal did not claim.
            try:
                victim_conn.stream.send({"type": "revoke", "cells": stolen})
            except OSError:
                pass
        if thief_conn is not None:
            try:
                thief_conn.stream.send({"type": "work", "cells": chunk or stolen})
            except OSError:
                pass  # the thief's reader thread will requeue on EOF

    def _kick_idle(self) -> None:
        with self._lock:
            idle = list(self._idle)
        for worker_id in idle:
            self._dispatch(worker_id)

    def _record_result(self, worker_id: str, cell: int, doc: Dict[str, Any]) -> None:
        with self._progress:
            self._worker_activity[worker_id] = self._clock()
            fresh = self.frontier.complete(worker_id, cell)
            if fresh:
                self._documents[cell] = doc
                self.results_received += 1
                if self.journal is not None:
                    self.journal.record(cell, doc)
            done = self.frontier.is_done
            self._progress.notify_all()
        if fresh and self.on_result is not None:
            self.on_result(cell, doc)
        if done:
            self._done.set()

    # -- failure detection -------------------------------------------------
    def _expire_silent_workers(self) -> None:
        for worker_id in self.monitor.expired():
            with self._lock:
                conn = self._conns.get(worker_id)
            if conn is not None:
                # Closing the socket unblocks the reader thread, which
                # funnels into the normal disconnect/requeue path.
                self._event("expired", worker=worker_id)
                conn.stream.close()

    def _respawn_dead_locals(self) -> None:
        """Relaunch dead local workers under their original identity.

        A transient crash (chaos, OOM, a flaky host) costs one unit of
        the sweep-wide ``max_respawns`` budget instead of a worker slot
        for the rest of the sweep; quarantined identities stay dead.
        """
        if self._stopping or self.frontier.is_done:
            return
        for worker_id, process in list(self._local_procs.items()):
            if process.poll() is None:
                continue
            if self.quarantine.is_quarantined(worker_id):
                continue
            if self.respawns >= self.max_respawns:
                return
            with self._lock:
                if worker_id in self._conns:
                    continue  # its connection is still being torn down
            self.respawns += 1
            self._local_respawns[worker_id] = \
                self._local_respawns.get(worker_id, 0) + 1
            self._event("respawn", worker=worker_id, total=self.respawns)
            self._launch_local(worker_id)

    def _speculate_tick(self) -> None:
        """Duplicate stale in-flight cells (stragglers, lost frames).

        Two recovery cases share this path, both detected as "a worker
        holds cells but the result channel has been silent too long":

        * **idle victim** — the worker itself reports idle while the
          frontier still charges it with cells: its ``work`` or
          ``result`` frames were lost on the wire.  Re-arming the
          worker with its own cells (self-speculation) recovers both.
        * **busy victim** — a straggler.  Its head-of-line cells are
          duplicated onto an idle worker; first result wins and
          :meth:`SweepFrontier.complete` discards the loser.
        """
        if self.speculate_after is None:
            return
        now = self._clock()
        dispatches: List[Tuple[_Connection, List[int]]] = []
        with self._progress:
            if self.frontier.is_done or self.frontier.has_queued:
                return
            idle = [w for w in sorted(self._idle) if w in self._conns]
            for victim in self.frontier.workers_with_assignments():
                last = self._worker_activity.get(victim)
                if last is None or now - last <= self.speculate_after:
                    continue
                if victim in self._idle and victim in self._conns:
                    thief = victim
                else:
                    thief = next((w for w in idle if w != victim), None)
                    if thief is None:
                        continue  # nobody free; the heartbeat backstop rules
                cells = self.frontier.speculate(victim, thief)
                if not cells:
                    continue
                self._worker_activity[victim] = now  # back off between rounds
                self._worker_activity[thief] = now
                self._idle.discard(thief)
                if thief in idle:
                    idle.remove(thief)
                self.speculations += 1
                self._event("speculate", victim=victim, thief=thief,
                            cells=len(cells))
                conn = self._conns.get(thief)
                if conn is not None:
                    dispatches.append((conn, cells))
            self._progress.notify_all()
        for conn, cells in dispatches:
            try:
                conn.stream.send({"type": "work", "cells": cells})
            except OSError:
                pass  # its reader thread will requeue on EOF

    def _check_liveness(self) -> None:
        """Fail fast when every worker is gone and none can return."""
        if self.external_workers > 0:
            return  # externals may still connect; the timeout bounds us
        if not self.processes:
            return
        alive = any(process.poll() is None for process in self.processes)
        can_respawn = (self.respawns < self.max_respawns and any(
            not self.quarantine.is_quarantined(w) for w in self._local_procs))
        with self._lock:
            connected = bool(self._conns)
        if not alive and not connected and not can_respawn \
                and not self.frontier.is_done:
            self._fail(SimulationError(
                "all local workers exited before the sweep completed "
                f"({self.frontier.done_count}/{self.frontier.total} cells done)"))

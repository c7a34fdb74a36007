"""Distributed sweep fabric: one scheduler, N socket workers.

The experiments layer's ``multiprocessing`` fan-out tops out at a single
box.  This package graduates it to a Dask-style architecture (one
central scheduler, a number of worker processes, sub-millisecond
dispatch overhead):

* :mod:`repro.distributed.protocol` — the wire format: length-prefixed
  JSON frames over TCP, with zlib-compressed pickle payloads for the
  one-time job-table transfer.
* :mod:`repro.distributed.frontier` — :class:`SweepFrontier`, the
  scheduler-side ownership ledger of every grid cell: locality-aware
  chunking, per-worker assignment, work stealing, bounded
  retry/requeue when a worker dies.
* :mod:`repro.distributed.scheduler` — :class:`SweepScheduler`, the
  TCP server that spawns/accepts workers, dispatches chunks, detects
  dead workers (socket EOF fast path + heartbeat-timeout backstop) and
  assembles results in deterministic cell order.
* :mod:`repro.distributed.worker` — the pull-based worker loop and the
  standalone ``python -m repro.distributed.worker`` entry point for
  remote hosts.

The fabric is an *execution* option exactly like ``n_jobs``:
``SweepRunner(transport="sockets", workers=N)`` emits
JSONL byte-identical to a serial ``n_jobs=1`` run, and the shared
content-addressed :class:`~repro.experiments.cache.ResultCache` makes
any worker's result reusable by all (a warm re-run does zero
simulations).  See ``docs/distributed.md`` for the protocol frames,
failure semantics and the work-stealing policy.
"""

from repro.distributed.frontier import SweepFrontier
from repro.distributed.protocol import (
    FrameStream,
    ProtocolError,
    decode_payload,
    encode_payload,
)
from repro.distributed.scheduler import HeartbeatMonitor, SweepScheduler

__all__ = [
    "FrameStream",
    "HeartbeatMonitor",
    "ProtocolError",
    "SweepFrontier",
    "SweepScheduler",
    "decode_payload",
    "encode_payload",
]

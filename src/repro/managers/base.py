"""The task-manager interface driven by the machine simulator.

The paper's testbench "simulates the RTS.  It submits new tasks to
Nexus#, receives ready task information from it, schedules ready tasks to
worker cores and simulates their execution, and finally notifies Nexus#
of finished tasks" (Section V-B).  The interface below is exactly that
contract, expressed in simulation time (micro-seconds):

* :meth:`TaskManagerModel.submit` — the master thread hands a task to the
  manager at a given time; the manager reports when the master may
  continue (back-pressure / software cost) and which tasks it has already
  determined to be ready, with their ready times.
* :meth:`TaskManagerModel.finish` — a worker core reports a finished task;
  the manager reports which waiting tasks become ready, and when.

All manager models are *passive*: they never call back into the machine;
they only answer these two calls with timestamps, which keeps them easy
to unit-test in isolation.
"""

from __future__ import annotations

import abc
from typing import Mapping, NamedTuple

from repro.trace.task import TaskDescriptor

# The outcome records are NamedTuples: one SubmitOutcome and one
# FinishOutcome is created per task on the simulation hot path, and tuple
# construction is several times cheaper than a frozen-dataclass __init__.


class ReadyNotification(NamedTuple):
    """A task reported ready by the manager at ``time_us``."""

    task_id: int
    time_us: float


class SubmitOutcome(NamedTuple):
    """Result of submitting one task to a manager.

    Attributes
    ----------
    accept_time_us:
        Time at which the master thread regains control and may submit the
        next trace event.  For hardware managers this models the IO-unit
        back-pressure (the PCIe-style transfer of the task descriptor);
        for software managers it additionally contains the task-creation
        and dependency-analysis work performed on the master core.
    ready:
        Ready notifications produced directly by this submission (the
        submitted task itself when it has no dependencies — possibly
        other tasks for managers that defer work).
    """

    accept_time_us: float
    ready: tuple[ReadyNotification, ...] = ()


class LaneKernelSpec(NamedTuple):
    """Constant-folded description of a manager for the lane kernel.

    :meth:`repro.system.machine.Machine.run` replays eligible runs on a
    specialised event loop (:mod:`repro.sim.batch`) that keeps flat run
    state and cannot call back into stateful manager objects per event,
    so a manager that wants that fast path must describe itself as pure
    constants.  Two kernel kinds exist today:

    * ``"ideal"`` — zero-overhead dependency resolution (submission and
      retirement cost no simulated time);
    * ``"nanos"`` — the Nanos software-runtime cost model: serial
      master-side task creation plus a single runtime lock whose
      reservations the lane kernel replays arithmetically (exactly
      :meth:`repro.sim.resource.SerialResource.reserve`).

    The hardware managers (Nexus++/Nexus#) model history-dependent
    pipeline contention (per-task-graph ports, arbiters, set-conflict
    stalls) that has no constant folding; they return ``None`` from
    :meth:`TaskManagerModel.lane_kernel` and run on the generic loop
    (see ``repro.sim.batch.lane_fallback_reason``).
    """

    kind: str
    worker_overhead_us: float = 0.0
    creation_base_us: float = 0.0
    creation_per_param_us: float = 0.0
    insert_lock_us: float = 0.0
    insert_lock_per_param_us: float = 0.0
    finish_lock_us: float = 0.0
    wakeup_per_task_us: float = 0.0


class FinishOutcome(NamedTuple):
    """Result of notifying a manager that a task finished.

    Attributes
    ----------
    ready:
        Tasks that became ready because of this completion, with the time
        the manager reports them (i.e. when a free core could start them).
    notify_done_us:
        Time at which the finished-task notification itself has been fully
        processed; only used for statistics.
    """

    ready: tuple[ReadyNotification, ...] = ()
    notify_done_us: float = 0.0


class TaskManagerModel(abc.ABC):
    """Abstract base class of every dependency-resolution scheme."""

    #: Human-readable name used in reports ("Nanos", "Nexus++", "Nexus# 6TG").
    name: str = "abstract"

    #: Whether the manager supports the ``taskwait on`` pragma.  When it
    #: does not (Nexus++), the machine degrades the barrier to a full
    #: ``taskwait``, reproducing the behaviour described in Section III.
    supports_taskwait_on: bool = True

    #: Extra time (µs) a worker core spends per task besides the task body
    #: (software scheduling overhead).  Zero for the hardware managers,
    #: matching the paper's "no communication or other non-dependency
    #: resolution overhead is accounted for".
    worker_overhead_us: float = 0.0

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all state so the same instance can run another trace."""

    @abc.abstractmethod
    def submit(self, task: TaskDescriptor, time_us: float) -> SubmitOutcome:
        """Submit ``task`` at ``time_us`` and return the outcome."""

    @abc.abstractmethod
    def finish(self, task_id: int, time_us: float) -> FinishOutcome:
        """Notify the manager at ``time_us`` that ``task_id`` finished."""

    # -- optional hooks ------------------------------------------------------
    def prepare_trace(self, trace) -> None:
        """Optional hook: the machine announces the trace it will replay.

        Called by :meth:`repro.system.machine.Machine.run` after
        :meth:`reset` and before the first :meth:`submit`.  The default
        forwards the trace's compiled access program to
        :meth:`prepare_program`; managers that run a
        :class:`~repro.taskgraph.tracker.DependencyTracker` bind it there
        so dependency resolution runs over preresolved int arrays.
        Streaming replays (:meth:`~repro.system.machine.Machine.run_stream`)
        never call it — :meth:`reset` must therefore also undo whatever
        this hook set up.
        """
        self.prepare_program(trace.access_program())

    def prepare_program(self, program) -> None:
        """Optional hook: bind a compiled access program for the next run.

        ``program`` is a :class:`~repro.trace.compiled.
        CompiledAccessProgram`; it may be *empty and growable* — dynamic
        runs (:meth:`repro.system.machine.Machine.run_dynamic`) bind a
        fresh program per run and intern each task as it is spawned, so
        a binding manager must tolerate tasks appearing after the bind
        (the tracker's resolution extends itself lazily).  The default
        is a no-op: managers without a tracker simply ignore programs.
        """

    def lane_kernel(self) -> "LaneKernelSpec | None":
        """Constant description for the lane kernel, or ``None``.

        Returning a :class:`LaneKernelSpec` declares that this manager's
        behaviour is fully captured by the spec's constants, so
        :meth:`repro.system.machine.Machine.run` may replay it on the
        lane kernel in :mod:`repro.sim.batch` instead of calling
        :meth:`submit`/:meth:`finish` per event.  A subclass that
        changes :meth:`submit`/:meth:`finish` must therefore override
        this too.  The lane kernel must be **byte-identical** to the
        generic loop — the golden batch-equivalence suite and the
        differential tests in ``tests/batch/`` pin this.  The default
        ``None`` keeps every run on the generic loop, which is always
        correct.
        """
        return None

    def abandon_run(self) -> None:
        """A run died mid-flight: drop every per-run binding *now*.

        Called by the machine when a replay raises, **before** the
        exception propagates.  Without it, a failed run leaves the
        manager's tracker bound to the trace's shared compiled program
        with tasks still marked in flight — poisoning any later direct
        use of the manager (e.g. ``bind_program`` refuses to rebind) in
        the same process.  The default simply :meth:`reset`\\ s, which
        every manager already guarantees to clear bindings.
        """
        self.reset()

    def describe(self) -> Mapping[str, object]:
        """Return a serialisable description of the configuration."""
        return {"name": self.name, "supports_taskwait_on": self.supports_taskwait_on}

    def statistics(self) -> Mapping[str, object]:
        """Return manager-internal statistics collected during a run."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"

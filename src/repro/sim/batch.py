"""The lane kernel: :meth:`Machine.run`'s fast path for ideal and Nanos.

:meth:`~repro.system.machine.Machine.run` replays a materialised trace
on this specialised event loop whenever :func:`lane_fallback_reason`
returns ``None``; every other run keeps the generic loop
(``Machine._run_trace``), which stays the reference the kernel is tested
against.  No option selects the path: it follows from the manager, the
scheduler policy, the topology and the trace alone.

* **structural compilation is cached on the trace.**  A trace is
  compiled once into a :class:`LaneProgram`: per-task access rows from
  the existing :class:`~repro.trace.compiled.CompiledAccessProgram`,
  augmented (with numpy) by an address-major CSR of each address's
  program-order access sequence.  Because the master thread submits
  tasks in trace order, the per-address OmpSs dependency state machine
  (:class:`~repro.taskgraph.address_state.AddressCell`) collapses to
  **four small integers per address** — inserted cursor, activated
  cursor, active count, active-is-writer — advanced over the static
  address-major arrays.  No cells, sets or deques.
* **manager behaviour is constant-folded.**  A manager that publishes a
  :class:`~repro.managers.base.LaneKernelSpec` (ideal and Nanos today)
  is replayed arithmetically; the Nanos per-parameter costs depend only
  on a task's access count, so they are small per-count tables.
* **the event loop is inlined**: a plain-tuple heap replicating the
  :class:`~repro.sim.engine.EventQueue` ``(time, priority, sequence)``
  discipline, flat dependence-count/finished/dispatched state, an int
  heap of idle cores and a deque of queued ready tasks.

Results — and the dispatched-event count — are byte-identical to the
generic loop; the golden and differential suites (``tests/batch/``,
``tests/golden/test_batch_equivalence.py``) pin the pairing.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.managers.base import LaneKernelSpec, TaskManagerModel
from repro.system.results import MachineResult
from repro.system.scheduling import FifoPolicy, SchedulerPolicy
from repro.system.timeline import TaskTimeline
from repro.system.topology import CoreTopology
from repro.trace.dag import validate_schedule
from repro.trace.trace import Trace

#: Attribute under which a trace caches its lane program (``_compiled*``
#: prefixed, so ``Trace.__getstate__`` excludes it from pickles).
_LANE_PROGRAM_ATTR = "_compiled_lane_program"

# Event op codes, mirroring repro.system.machine's compiled trace.
_OP_SUBMIT = 0
_OP_WAIT = 1
_OP_WAIT_ON = 2


@dataclass(frozen=True)
class LaneSpec:
    """One run for :func:`run_lanes`: a trace replayed on a manager under a config."""

    trace: Trace
    manager: TaskManagerModel
    config: "MachineConfig"  # noqa: F821 - resolved via repro.system.machine


class LaneProgram:
    """Manager-independent structural compilation of one trace.

    Everything here depends only on the trace — never on the manager,
    core count or seed of a run — so one program is shared by every run
    of the trace (and cached on the trace object like the machine's
    compiled form).  Per-access and per-task lists hold references to
    ints and floats the trace already owns wherever possible, so the
    program adds little beyond its list slots.
    """

    __slots__ = (
        "num_tasks", "num_events", "num_addresses", "ops", "wait_task",
        "acc_off", "acc_aid", "acc_flags",
        "addr_off", "addr_task", "addr_flags",
        "duration", "creation", "max_params", "total_work_us",
        "has_wait_on", "dense_ids",
    )

    def __init__(self, trace: Trace) -> None:
        from repro.system.machine import _compile_trace

        compiled = _compile_trace(trace)
        program = trace.access_program()
        self.dense_ids = compiled.slot_of is None and program._slot_of is None
        self.num_tasks = compiled.num_tasks
        self.num_events = len(compiled.ops)
        self.num_addresses = program.num_addresses
        self.ops = compiled.ops
        # `taskwait on` targets, by event index: the last preceding
        # writer of the address in trace order, or -1.  The generic loop
        # resolves them from a live last-writer dict, but the dict is
        # only ever *grown* in trace order, so the resolution is static.
        self.has_wait_on = _OP_WAIT_ON in self.ops
        self.wait_task: Optional[Dict[int, int]] = None
        if self.has_wait_on:
            wait_task: Dict[int, int] = {}
            last_writer: Dict[int, int] = {}
            for index, op in enumerate(self.ops):
                if op == _OP_SUBMIT:
                    task_id = compiled.tasks[index].task_id
                    for address in compiled.write_addrs[index]:
                        last_writer[address] = task_id
                elif op == _OP_WAIT_ON:
                    wait_task[index] = last_writer.get(compiled.wait_addrs[index], -1)
            self.wait_task = wait_task

        # Task-major access rows (straight from the compiled program).
        self.acc_off = program.offsets
        self.acc_aid = program.addr_ids
        self.acc_flags = program.flags

        # Address-major CSR: each address's accesses in program order.
        # A stable argsort groups the flat task-major accesses by
        # address while preserving the submission order within each
        # address.  Task slots are looked up in the trace's own task-id
        # list (slot == id for dense ids), so no new int objects are
        # retained per access.
        offsets = np.asarray(program.offsets, dtype=np.int64)
        row_lengths = np.diff(offsets)
        self.max_params = int(row_lengths.max()) if self.num_tasks else 0
        if program.addr_ids:
            aid = np.asarray(program.addr_ids, dtype=np.int64)
            counts = np.bincount(aid, minlength=self.num_addresses)
            addr_off = np.zeros(self.num_addresses + 1, dtype=np.int64)
            np.cumsum(counts, out=addr_off[1:])
            order = np.argsort(aid, kind="stable")
            slot_of_access = np.repeat(
                np.arange(self.num_tasks, dtype=np.int64), row_lengths
            )
            slots = compiled.task_ids if self.dense_ids else list(range(self.num_tasks))
            self.addr_off = addr_off.tolist()
            self.addr_task = list(map(slots.__getitem__, slot_of_access[order].tolist()))
            # Direction flags are 2-bit values: a bytes column indexes
            # like a list of small ints at an eighth of the size.
            self.addr_flags = np.asarray(program.flags, dtype=np.uint8)[order].tobytes()
        else:
            self.addr_off = [0] * (self.num_addresses + 1)
            self.addr_task = []
            self.addr_flags = b""

        tasks = compiled.task_by_slot
        self.duration = [task.duration_us for task in tasks]
        self.creation = [task.creation_overhead_us for task in tasks]
        # Cached once per trace; every MachineResult repeats it (same
        # left-to-right float sum as Trace.total_work_us).
        self.total_work_us = trace.total_work_us

    def nanos_tables(self, kern: LaneKernelSpec) -> Tuple[List[float], List[float]]:
        """The Nanos per-task costs, indexed by a task's access count ``n``.

        Returns ``(creation_pp, insert_cost)``:

        * ``creation_pp[n]`` — ``creation_per_param_us * max(1, n)``,
          kept as a separate addend so the runtime sum ``(time + base) +
          pp`` associates exactly like the generic expression;
        * ``insert_cost[n]`` — ``insert_lock_us + insert_lock_per_param_us
          * max(1, n)``, the locked-insertion cost.

        Both are the generic per-event expressions evaluated once per
        distinct count, hence byte-identical values.
        """
        counts = [max(1, n) for n in range(self.max_params + 1)]
        creation_pp = [kern.creation_per_param_us * n for n in counts]
        insert_cost = [kern.insert_lock_us + kern.insert_lock_per_param_us * n
                       for n in counts]
        return creation_pp, insert_cost


def lane_program(trace: Trace) -> LaneProgram:
    """Return the cached :class:`LaneProgram` of ``trace``."""
    program = trace.__dict__.get(_LANE_PROGRAM_ATTR)
    if program is None:
        program = LaneProgram(trace)
        object.__setattr__(trace, _LANE_PROGRAM_ATTR, program)
    return program


def lane_fallback_reason(
    trace: object,
    manager: TaskManagerModel,
    policy: SchedulerPolicy,
    topology: CoreTopology,
) -> Optional[str]:
    """Why a run must take the generic loop, or ``None`` if the lane
    kernel applies.

    ``policy`` and ``topology`` are the machine's resolved scheduler and
    core topology.  The rules (documented in ``docs/performance.md``):
    the manager must publish a :class:`~repro.managers.base.
    LaneKernelSpec`, the trace must be a materialised static trace with
    dense task ids, dispatch must be FIFO over unit-speed cores, and
    ``taskwait on`` pragmas require manager support (no Nexus++-style
    degradation is folded into lane programs).
    """
    if not isinstance(trace, Trace):
        return "not a materialised static trace"
    if manager.lane_kernel() is None:
        return f"manager {manager.name!r} publishes no lane kernel"
    if type(policy) is not FifoPolicy:
        return "non-FIFO scheduler policy"
    if not topology.is_uniform_unit_speed:
        return "non-unit core speeds"
    prog = lane_program(trace)
    if not prog.dense_ids:
        return "sparse task ids"
    if prog.has_wait_on and not manager.supports_taskwait_on:
        return "taskwait-on degradation requires the generic master loop"
    return None


def run_lanes(lanes: Sequence[LaneSpec]) -> List[MachineResult]:
    """Run each lane through :meth:`Machine.run`; results in lane order."""
    from repro.system.machine import Machine

    return [Machine(lane.manager, lane.config).run(lane.trace) for lane in lanes]


def lane_run(
    trace: Trace,
    manager: TaskManagerModel,
    config: "MachineConfig",  # noqa: F821 - resolved via repro.system.machine
    topology: CoreTopology,
) -> Tuple[MachineResult, int]:
    """Replay ``trace`` on the lane kernel; return the result and the
    number of events dispatched (equal to the generic loop's count).

    The caller has checked :func:`lane_fallback_reason`.  This inlines —
    in replicated order — the generic stack for the FIFO / unit-speed /
    dense-ids configuration: ``Machine._run_trace``'s master loop and
    event handlers, ``EventQueue``'s ``(time, priority, sequence)`` heap
    discipline, ``CorePool``'s lowest-id idle-core heap, ``FifoPolicy``'s
    deque, the compiled ``DependencyTracker`` insert / finish semantics
    reduced to per-address cursors, and the lane kernel's manager
    arithmetic (including exact :meth:`~repro.sim.resource.
    SerialResource.reserve` replication for the Nanos lock).  Any
    behavioural change to the generic loop must land here too (the
    golden and differential suites guard the pairing).
    """
    kern = manager.lane_kernel()
    assert kern is not None
    prog = lane_program(trace)

    num_tasks = prog.num_tasks
    num_events = prog.num_events
    num_cores = config.num_cores
    ops = prog.ops
    wait_task = prog.wait_task
    acc_off = prog.acc_off
    acc_aid = prog.acc_aid
    acc_flags = prog.acc_flags
    addr_off = prog.addr_off
    addr_task = prog.addr_task
    addr_flags = prog.addr_flags
    durations = prog.duration
    creation = prog.creation

    worker_overhead = kern.worker_overhead_us
    nanos = kern.kind == "nanos"
    if nanos:
        creation_pp, insert_cost = prog.nanos_tables(kern)
    creation_base = kern.creation_base_us
    finish_lock_us = kern.finish_lock_us
    wakeup_us = kern.wakeup_per_task_us

    # --- flat run state -----------------------------------------------------
    num_addresses = prog.num_addresses
    dep_count = [0] * num_tasks
    finished = bytearray(num_tasks)
    dispatched = bytearray(num_tasks)
    ins_n = [0] * num_addresses      # accesses inserted per address
    act_n = [0] * num_addresses      # accesses activated per address
    act_rem = [0] * num_addresses    # unfinished activated tasks
    act_writer = bytearray(num_addresses)

    heap: List[Tuple[float, int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    seq = 0                          # events pushed (all are popped)
    idle = list(range(num_cores))    # already a valid min-heap
    ready_queue: deque = deque()
    rq_append = ready_queue.append
    rq_popleft = ready_queue.popleft
    busy_us = [0.0] * num_cores
    core_busy_us = 0.0
    master_time = 0.0
    event_index = 0
    blocked_kind = 0                 # 0 = free, 1 = taskwait, 2 = taskwait-on
    blocked_task = -1
    master_done = False
    outstanding = 0
    finished_count = 0
    inserted_count = 0               # also the next submission's slot
    lock_free = 0.0                  # Nanos runtime lock (SerialResource)
    lock_reservations = 0
    lock_busy = 0.0
    lock_wait = 0.0
    now = 0.0

    collect = config.keep_schedule or config.validate
    if collect:
        nan = float("nan")
        submit_arr = [nan] * num_tasks
        ready_arr = [nan] * num_tasks
        start_arr = [nan] * num_tasks
        finish_arr = [nan] * num_tasks
        core_arr = [-1] * num_tasks

    # --- main loop ----------------------------------------------------------
    # The master advance is inlined into the loop rather than kept as a
    # closure: any variable shared with a nested function becomes a
    # cell, which would turn every hot-path access in BOTH the master
    # loop and the event loop into a (slower) dereference.  With
    # everything a plain local, the interpreter uses fast locals
    # throughout.
    do_master = True
    while True:
        if do_master:
            do_master = False
            while event_index < num_events:
                op = ops[event_index]
                if op == _OP_SUBMIT:
                    # Tasks are submitted in slot order (dense ids).
                    slot = inserted_count
                    outstanding += 1
                    if collect:
                        submit_arr[slot] = master_time
                    event_index += 1
                    # -- tracker insert: per-address cursor state machine --
                    index = acc_off[slot]
                    row_end = acc_off[slot + 1]
                    params = row_end - index
                    deps = 0
                    while index < row_end:
                        address = acc_aid[index]
                        flag = acc_flags[index]
                        index += 1
                        if act_n[address] == ins_n[address]:  # no queued waiters
                            if flag & 2:
                                if act_rem[address] == 0:
                                    act_writer[address] = 1
                                    act_rem[address] = 1
                                    act_n[address] += 1
                                    ins_n[address] += 1
                                    continue
                            elif act_rem[address] == 0 or not act_writer[address]:
                                act_writer[address] = 0
                                act_rem[address] += 1
                                act_n[address] += 1
                                ins_n[address] += 1
                                continue
                        ins_n[address] += 1
                        deps += 1
                    dep_count[slot] = deps
                    inserted_count += 1
                    # -- manager submit arithmetic --
                    if nanos:
                        creation_done = (master_time + creation_base) + creation_pp[params]
                        cost = insert_cost[params]
                        lock_start = creation_done if creation_done > lock_free else lock_free
                        lock_end = lock_start + cost
                        lock_free = lock_end
                        lock_reservations += 1
                        lock_busy += cost
                        lock_wait += lock_start - creation_done
                        accept = lock_end
                        ready_time = lock_end
                    else:
                        accept = master_time
                        ready_time = master_time
                    if deps == 0:
                        if collect:
                            ready_arr[slot] = ready_time
                        heappush(heap, (
                            ready_time if ready_time > master_time else master_time,
                            1, seq, slot, -1,
                        ))
                        seq += 1
                    next_time = master_time + creation[slot]
                    if accept > next_time:
                        next_time = accept
                    if next_time < master_time:
                        raise SimulationError(
                            f"manager {manager.name} accepted task {slot} in the past"
                        )
                    master_time = next_time
                    if event_index >= num_events:
                        master_done = True
                        break
                    if heap and heap[0][0] <= master_time:
                        heappush(heap, (master_time, 2, seq, -1, -1))
                        seq += 1
                        break
                    # Inline-submission fast path, exactly as in the generic
                    # master loop: no pending event sorts before the next
                    # master step, so skip the queue bounce.
                    continue
                if op == _OP_WAIT:
                    if outstanding == 0:
                        event_index += 1
                        continue
                    blocked_kind = 1
                    break
                # op == _OP_WAIT_ON (manager support checked by lane_fallback_reason)
                waited = wait_task[event_index]
                if waited < 0 or finished[waited]:
                    event_index += 1
                    continue
                blocked_kind = 2
                blocked_task = waited
                break
            else:
                master_done = True
        if not heap:
            break
        time, priority, _, task_id, core = heappop(heap)
        if time > now:
            now = time
        if priority == 0:  # task done
            outstanding -= 1
            finished[task_id] = 1
            finished_count += 1
            # -- tracker finish: release waiters in row x queue order --
            index = acc_off[task_id]
            row_end = acc_off[task_id + 1]
            newly_ready: List[int] = []
            kickoffs = 0
            while index < row_end:
                address = acc_aid[index]
                index += 1
                act_rem[address] -= 1
                cursor = act_n[address]
                limit = ins_n[address]
                if cursor < limit:
                    base = addr_off[address]
                    while cursor < limit:
                        waiter_flag = addr_flags[base + cursor]
                        if waiter_flag & 2:
                            if act_rem[address] == 0:
                                waiter = addr_task[base + cursor]
                                cursor += 1
                                act_rem[address] = 1
                                act_writer[address] = 1
                                kickoffs += 1
                                remaining = dep_count[waiter] - 1
                                dep_count[waiter] = remaining
                                if remaining == 0:
                                    newly_ready.append(waiter)
                            break
                        if act_rem[address] and act_writer[address]:
                            break
                        waiter = addr_task[base + cursor]
                        cursor += 1
                        act_rem[address] += 1
                        act_writer[address] = 0
                        kickoffs += 1
                        remaining = dep_count[waiter] - 1
                        dep_count[waiter] = remaining
                        if remaining == 0:
                            newly_ready.append(waiter)
                    act_n[address] = cursor
            # -- manager finish arithmetic --
            if nanos:
                cost = finish_lock_us + wakeup_us * kickoffs
                lock_start = time if time > lock_free else lock_free
                lock_end = lock_start + cost
                lock_free = lock_end
                lock_reservations += 1
                lock_busy += cost
                lock_wait += lock_start - time
                ready_time = lock_end
            else:
                ready_time = time
            for waiter in newly_ready:
                if collect:
                    ready_arr[waiter] = ready_time
                heappush(heap, (
                    ready_time if ready_time > time else time,
                    1, seq, waiter, -1,
                ))
                seq += 1
            # The freed core picks up the next queued ready task, if any
            # (inlined core dispatch: heappop(idle) is the lowest idle id,
            # matching CorePool on a unit-speed topology).
            heappush(idle, core)
            if ready_queue:
                next_task = rq_popleft()
                run_core = heappop(idle)
                duration = worker_overhead + durations[next_task]
                end = time + duration
                core_busy_us += duration
                busy_us[run_core] += duration
                if collect:
                    start_arr[next_task] = time
                    finish_arr[next_task] = end
                    core_arr[next_task] = run_core
                heappush(heap, (end, 0, seq, next_task, run_core))
                seq += 1
            # Barriers resolve on completions.
            if blocked_kind:
                if blocked_kind == 1:
                    satisfied = outstanding == 0
                else:
                    satisfied = bool(finished[blocked_task])
                if satisfied:
                    blocked_kind = 0
                    if time > master_time:
                        master_time = time
                    if not master_done:
                        heappush(heap, (master_time, 2, seq, -1, -1))
                        seq += 1
        elif priority == 1:  # task ready
            if dispatched[task_id]:
                raise SimulationError(f"task {task_id} reported ready twice")
            dispatched[task_id] = 1
            if idle:
                run_core = heappop(idle)
                duration = worker_overhead + durations[task_id]
                end = time + duration
                core_busy_us += duration
                busy_us[run_core] += duration
                if collect:
                    start_arr[task_id] = time
                    finish_arr[task_id] = end
                    core_arr[task_id] = run_core
                heappush(heap, (end, 0, seq, task_id, run_core))
                seq += 1
            else:
                rq_append(task_id)
        else:  # master step
            if blocked_kind == 0 and not master_done:
                if time > master_time:
                    master_time = time
                do_master = True

    makespan = now if now > master_time else master_time

    # --- consistency checks (mirroring the generic loop) ---------------------
    if finished_count != num_tasks:
        missing = num_tasks - finished_count
        raise SimulationError(
            f"{manager.name} on {trace.name}: {missing} of {num_tasks} tasks never ran "
            "(deadlock or lost ready notification)"
        )
    if not master_done or blocked_kind:
        raise SimulationError(
            f"{manager.name} on {trace.name}: master thread did not reach the end of the trace"
        )

    timeline = TaskTimeline.from_columns(
        submit_arr, ready_arr, start_arr, finish_arr, core_arr
    ) if collect else None

    if config.validate:
        assert timeline is not None
        validate_schedule(trace, timeline.start_dict(), timeline.finish_dict())

    if nanos:
        manager_stats = {
            "tasks_inserted": inserted_count,
            "tasks_finished": finished_count,
            "lock_busy_us": lock_busy,
            "lock_mean_wait_us": lock_wait / lock_reservations if lock_reservations else 0.0,
        }
    else:
        manager_stats = {
            "tasks_inserted": inserted_count,
            "tasks_finished": finished_count,
        }

    keep = config.keep_schedule and timeline is not None
    result = MachineResult(
        trace_name=trace.name,
        manager_name=manager.name,
        num_cores=num_cores,
        makespan_us=makespan,
        total_work_us=prog.total_work_us,
        num_tasks=num_tasks,
        submit_times=timeline.submit_dict() if keep else {},
        ready_times=timeline.ready_dict() if keep else {},
        start_times=timeline.start_dict() if keep else {},
        finish_times=timeline.finish_dict() if keep else {},
        master_finish_us=master_time,
        core_busy_us=core_busy_us,
        manager_stats=manager_stats,
        scheduler="fifo",
        topology=topology.describe(),
        per_core_busy_us=tuple(busy_us),
        task_cores=timeline.core_dict() if keep else {},
    )
    return result, seq

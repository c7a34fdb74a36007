"""Nexus# — the distributed hardware task manager (the paper's contribution).

Nexus# replaces the single task graph of Nexus++ with ``n`` independent
task graphs and scatters the parameters of incoming tasks over them with
the XOR-fold hash of :mod:`repro.nexus.distribution`.  The pipeline
(Section IV, Figures 2/4/5) becomes:

1. **Input Parser (IP)** — receives the header (2 cycles) and each
   48-bit parameter (2 cycles), *immediately* forwarding every parameter
   to its task graph's New Args. buffer, and finally writes the task
   descriptor to the Task Pool (1 cycle);
2. **Insertion (IN)** — each task graph independently inserts the
   parameters queued at its New Args. buffer (5 cycles per parameter,
   after the buffer's 3-cycle fall-through);
3. **Arbitration (AR)** — the Dependence Counts Arbiter gathers the
   per-task-graph results, concludes the task's final dependence count
   and forwards ready tasks to the Internal Ready Tasks buffer;
4. **Write Back (WB)** — ready task ids are translated through the
   Function Pointers table and handed to the Nexus IO unit (3 cycles),
   after the ready buffer's 3-cycle fall-through.

Finished tasks follow the symmetric path: the Input Parser reads the
task's I/O list back from the Task Pool, redistributes the addresses to
the Finished Args. buffers, each task graph updates its tables and emits
the kicked-off waiters, and the arbiter decrements their dependence
counts, forwarding those reaching zero to the Write Back stage.

Unlike Nexus++, Nexus# supports the ``taskwait on`` pragma, which is what
lets the fine-grained H264dec benchmark scale (Section VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.common.constants import (
    DEFAULT_KICKOFF_CAPACITY,
    DEFAULT_TABLE_SETS,
    DEFAULT_TABLE_WAYS,
    DEFAULT_TASK_POOL_ENTRIES,
    MAX_TASK_GRAPHS,
)
from repro.common.errors import ConfigurationError
from repro.common.units import Frequency
from repro.common.validation import check_positive
from repro.managers.base import FinishOutcome, ReadyNotification, SubmitOutcome, TaskManagerModel
from repro.nexus.arbiter import DependenceCountsArbiter
from repro.nexus.distribution import nexus_hash
from repro.nexus.timing import (
    NexusSharpTiming,
    shared_offset_tables,
    synthesis_frequency_mhz,
)
from repro.sim.resource import SerialResource
from repro.taskgraph.table import AddressTable
from repro.taskgraph.task_pool import TaskPool
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.task import TaskDescriptor


@dataclass(frozen=True)
class NexusSharpConfig:
    """Configuration of a Nexus# instance."""

    #: Number of distributed task graphs (1..32).
    num_task_graphs: int = 6
    #: Manager clock frequency in MHz.  ``None`` selects the synthesis
    #: (test) frequency of Table I for the chosen number of task graphs;
    #: Figure 7(a) style experiments pass an explicit 100.0 instead.
    frequency_mhz: Optional[float] = None
    #: Pipeline latencies.
    timing: NexusSharpTiming = field(default_factory=NexusSharpTiming)
    #: Geometry of each task graph.
    table_sets: int = DEFAULT_TABLE_SETS
    table_ways: int = DEFAULT_TABLE_WAYS
    kickoff_capacity: int = DEFAULT_KICKOFF_CAPACITY
    #: Task pool entries (shared by all task graphs).
    task_pool_entries: int = DEFAULT_TASK_POOL_ENTRIES

    def __post_init__(self) -> None:
        if not 1 <= self.num_task_graphs <= MAX_TASK_GRAPHS:
            raise ConfigurationError(
                f"num_task_graphs must be in [1, {MAX_TASK_GRAPHS}], got {self.num_task_graphs}"
            )
        if self.frequency_mhz is not None:
            check_positive("frequency_mhz", self.frequency_mhz)
        check_positive("table_sets", self.table_sets)
        check_positive("table_ways", self.table_ways)
        check_positive("kickoff_capacity", self.kickoff_capacity)
        check_positive("task_pool_entries", self.task_pool_entries)

    @property
    def effective_frequency_mhz(self) -> float:
        """The frequency the manager actually runs at."""
        if self.frequency_mhz is not None:
            return self.frequency_mhz
        return synthesis_frequency_mhz(self.num_task_graphs)


class NexusSharpManager(TaskManagerModel):
    """Cycle-approximate model of the Nexus# distributed task manager."""

    supports_taskwait_on = True
    worker_overhead_us = 0.0

    def __init__(self, config: Optional[NexusSharpConfig] = None) -> None:
        self.config = config or NexusSharpConfig()
        self.name = f"Nexus# {self.config.num_task_graphs}TG"
        self._frequency = Frequency(self.config.effective_frequency_mhz)
        self._cycle_us = self._frequency.cycle_time_us
        num_tg = self.config.num_task_graphs
        self._tracker = DependencyTracker(
            num_tables=num_tg,
            distribute=lambda address: nexus_hash(address, num_tg),
            table_factory=lambda index: AddressTable(
                num_sets=self.config.table_sets,
                ways=self.config.table_ways,
                kickoff_capacity=self.config.kickoff_capacity,
                name=f"nexus#-TG{index}",
            ),
            task_pool=TaskPool(capacity=self.config.task_pool_entries, name="nexus#-task-pool"),
            distribution_key=("nexus-hash", num_tg),
        )
        timing = self.config.timing
        self._input_parser = SerialResource("nexus#-input-parser")
        # The per-task-graph insertion ports are plain next-free/busy-time
        # arrays: the submit/finish loops touch one port per access, and
        # the serial-reservation arithmetic (start = max(visible, free);
        # end = start + duration) is accumulated inline instead of one
        # SerialResource.reserve call per access.
        self._tg_next_free: List[float] = [0.0] * num_tg
        self._tg_busy_us: List[float] = [0.0] * num_tg
        self._write_back = SerialResource("nexus#-write-back")
        self._arbiter = DependenceCountsArbiter(
            cycles_per_result=timing.arbiter_cycles_per_result,
            conclude_cycles=timing.arbiter_conclude_cycles,
            decrement_cycles=timing.arbiter_decrement_cycles,
            cycle_us=self._cycle_us,
        )
        # Precomputed cycle->µs constants and per-index offset tables
        # (grown on demand): every per-access multiply in the pipeline
        # model becomes a table lookup with bit-identical values.
        cycle_us = self._cycle_us
        self._args_fifo_us = timing.args_fifo_latency_cycles * cycle_us
        self._insert_us = timing.insert_cycles_per_param * cycle_us
        self._insert_conflict_us = (
            (timing.insert_cycles_per_param + timing.set_conflict_stall_cycles) * cycle_us
        )
        # Per-index offset tables, process-shared per (timing, cycle_us):
        # batch lanes and sweep points with the same configuration alias
        # the same monotonically grown lists.
        self._tables = shared_offset_tables(timing, cycle_us)
        self._fwd_us = self._tables.fwd_us
        self._fin_fwd_us = self._tables.fin_fwd_us
        self._input_us = self._tables.input_us
        self._fin_input_us = self._tables.fin_input_us
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    # -- helpers ---------------------------------------------------------------
    def _cycles(self, cycles: float) -> float:
        return cycles * self._cycle_us

    def _grow_submit_tables(self, count: int) -> None:
        """Extend the (shared) per-parameter-index offset tables."""
        self._tables.grow_sharp_submit(count)

    def _grow_finish_tables(self, count: int) -> None:
        self._tables.grow_sharp_finish(count)

    @property
    def frequency(self) -> Frequency:
        """The manager clock actually in use."""
        return self._frequency

    @property
    def num_task_graphs(self) -> int:
        return self.config.num_task_graphs

    def reset(self) -> None:
        self._tracker.reset()
        self._input_parser.reset()
        num_tg = self.config.num_task_graphs
        self._tg_next_free = [0.0] * num_tg
        self._tg_busy_us = [0.0] * num_tg
        self._write_back.reset()
        self._arbiter.reset()
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    def prepare_program(self, program) -> None:
        self._tracker.bind_program(program)

    # -- ready-path helper --------------------------------------------------------
    def _write_back_ready(self, task_id: int, concluded_us: float, reference_us: float) -> ReadyNotification:
        """Send a ready task through the Internal Ready Tasks buffer and WB stage."""
        timing = self.config.timing
        wb_available = concluded_us + self._cycles(timing.ready_fifo_latency_cycles)
        _, wb_end = self._write_back.reserve(wb_available, self._cycles(timing.writeback_cycles))
        self._ready_latency_total_us += wb_end - reference_us
        self._ready_count += 1
        return ReadyNotification(task_id, wb_end)

    # -- TaskManagerModel --------------------------------------------------------
    def submit(self, task: TaskDescriptor, time_us: float) -> SubmitOutcome:
        result = self._tracker.insert_task(task)
        accesses = result.accesses
        num_params = task.num_params
        if num_params < 1:
            num_params = 1
        input_us = self._input_us
        if num_params >= len(input_us) or len(accesses) > len(self._fwd_us):
            self._grow_submit_tables(max(num_params, len(accesses)))
            input_us = self._input_us

        # Stage 1: Input Parser.  Parameters are forwarded to their task
        # graphs as they arrive; the descriptor is written to the Task
        # Pool at the end.  (SerialResource.reserve inlined: start =
        # max(earliest, next_free); end = start + duration.)
        parser = self._input_parser
        duration = input_us[num_params]
        next_free = parser._next_free
        ip_start = time_us if time_us > next_free else next_free
        ip_end = ip_start + duration
        parser._next_free = ip_end
        parser_stats = parser.stats
        parser_stats.reservations += 1
        parser_stats.busy_time += duration
        parser_stats.total_wait += ip_start - time_us
        parser_stats.last_busy_until = ip_end

        if not accesses:
            # A task with an empty parameter list is trivially ready; it
            # skips the task graphs entirely and is reported straight from
            # the Input Parser through the ready path.
            ready = (self._write_back_ready(task.task_id, ip_end, time_us),)
            return SubmitOutcome(accept_time_us=ip_end, ready=ready)

        # Stage 2: per-parameter insertion at the owning task graph.  One
        # serial port per task graph, accumulated arithmetically: the
        # reservation is start = max(visible, next_free), end = start +
        # occupancy, exactly what SerialResource.reserve computes.
        fwd_us = self._fwd_us
        fifo_us = self._args_fifo_us
        plain_us = self._insert_us
        conflict_us = self._insert_conflict_us
        tg_next_free = self._tg_next_free
        tg_busy_us = self._tg_busy_us
        insert_ends: List[float] = []
        append_end = insert_ends.append
        index = 0
        for access in accesses:
            visible_us = ip_start + fwd_us[index] + fifo_us
            index += 1
            occupancy_us = conflict_us if access.set_conflict else plain_us
            port = access.table_index
            next_free = tg_next_free[port]
            start = visible_us if visible_us > next_free else next_free
            tg_end = start + occupancy_us
            tg_next_free[port] = tg_end
            tg_busy_us[port] += occupancy_us
            append_end(tg_end)

        # Stage 3: the arbiter gathers one result per parameter, in the
        # order the task graphs produce them.
        insert_ends.sort()
        concluded = self._arbiter.gather(insert_ends)
        ready: tuple[ReadyNotification, ...] = ()
        if result.ready:
            ready = (self._write_back_ready(task.task_id, concluded, time_us),)

        return SubmitOutcome(accept_time_us=ip_end, ready=ready)

    def finish(self, task_id: int, time_us: float) -> FinishOutcome:
        timing = self.config.timing
        result = self._tracker.finish_task(task_id)
        accesses = result.accesses
        num_params = len(accesses)
        if num_params < 1:
            num_params = 1
        fin_input_us = self._fin_input_us
        if num_params >= len(fin_input_us) or len(accesses) > len(self._fin_fwd_us):
            self._grow_finish_tables(max(num_params, len(accesses)))
            fin_input_us = self._fin_input_us

        # The Input Parser reads the finished task's I/O list from the Task
        # Pool and redistributes the addresses to the Finished Args
        # buffers (serial reservation inlined as in submit).
        parser = self._input_parser
        duration = fin_input_us[num_params]
        next_free = parser._next_free
        fp_start = time_us if time_us > next_free else next_free
        fp_end = fp_start + duration
        parser._next_free = fp_end
        parser_stats = parser.stats
        parser_stats.reservations += 1
        parser_stats.busy_time += duration
        parser_stats.total_wait += fp_start - time_us
        parser_stats.last_busy_until = fp_end

        # Each owning task graph updates its entry and emits the kicked-off
        # waiters; the arbiter then decrements their dependence counts.
        fwd_us = self._fin_fwd_us
        fifo_us = self._args_fifo_us
        cycle_us = self._cycle_us
        update_cycles_base = timing.finish_update_cycles_per_param
        kickoff_cycles = timing.kickoff_cycles_per_waiter
        tg_next_free = self._tg_next_free
        tg_busy_us = self._tg_busy_us
        decrement_many = self._arbiter.decrement_many
        last_decrement: Dict[int, float] = {}
        index = 0
        for access in accesses:
            visible_us = fp_start + fwd_us[index] + fifo_us
            index += 1
            kicked = access.kicked_off
            occupancy_us = (update_cycles_base + kickoff_cycles * len(kicked)) * cycle_us
            port = access.table_index
            next_free = tg_next_free[port]
            start = visible_us if visible_us > next_free else next_free
            tg_end = start + occupancy_us
            tg_next_free[port] = tg_end
            tg_busy_us[port] += occupancy_us
            if kicked:
                for waiter, decrement_end in zip(kicked, decrement_many(tg_end, len(kicked))):
                    previous = last_decrement.get(waiter, 0.0)
                    if decrement_end > previous:
                        last_decrement[waiter] = decrement_end
        notifications: List[ReadyNotification] = []
        for ready_task in result.newly_ready:
            concluded = last_decrement.get(ready_task, fp_end)
            notifications.append(self._write_back_ready(ready_task, concluded, time_us))
        return FinishOutcome(ready=tuple(notifications), notify_done_us=fp_end)

    def lane_kernel(self) -> None:
        """Nexus# declines the lane kernel.

        The distributed pipeline is far too history-dependent to
        constant-fold: per-task-graph insertion ports, the Dependence
        Counts Arbiter's result interleaving, set-conflict stalls and
        dummy-entry occupancy all couple a task's cost to every earlier
        task's placement.  Its runs take the generic loop; they still
        benefit from the process-shared latency tables
        (:func:`repro.nexus.timing.shared_offset_tables`).
        """
        return None

    # -- reporting -----------------------------------------------------------------
    def describe(self) -> Mapping[str, object]:
        return {
            "name": self.name,
            "supports_taskwait_on": self.supports_taskwait_on,
            "num_task_graphs": self.config.num_task_graphs,
            "frequency_mhz": self.config.effective_frequency_mhz,
            "table_sets": self.config.table_sets,
            "table_ways": self.config.table_ways,
        }

    def statistics(self) -> Mapping[str, object]:
        per_tg_busy = list(self._tg_busy_us)
        per_tg_conflicts = [table.stats.set_conflicts for table in self._tracker.tables]
        return {
            "tasks_inserted": self._tracker.total_inserted,
            "tasks_finished": self._tracker.total_finished,
            "input_parser_busy_us": self._input_parser.stats.busy_time,
            "write_back_busy_us": self._write_back.stats.busy_time,
            "arbiter_busy_us": self._arbiter.busy_time_us,
            "task_graph_busy_us": per_tg_busy,
            "set_conflicts": per_tg_conflicts,
            "mean_ready_latency_us": (
                self._ready_latency_total_us / self._ready_count if self._ready_count else 0.0
            ),
        }

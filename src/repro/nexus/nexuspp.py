"""Nexus++ — the centralised hardware task manager (the paper's baseline).

Nexus++ [7], [11] keeps a *single* task graph and processes whole tasks
through a 3-stage pipeline (Figure 1 of the paper):

1. **Input Parser** — receives the complete task descriptor from the host
   (4 header/synchronisation cycles plus 2 cycles per parameter; 12
   cycles for the 4-parameter example);
2. **Insert** — inserts all parameters into the set-associative task
   graph (2 + 4·P cycles; 18 cycles for the example) and determines the
   task's dependence count;
3. **Write Back** — forwards ready task ids to the Nexus IO unit
   (3 cycles each).

A second pipeline handles finished tasks: it kicks off waiting tasks and
cleans the tables; because there is only one task graph, that cleanup
contends with new insertions for the same table port, which this model
captures by running both on the same serial resource.

Nexus++ does **not** support the ``taskwait on`` pragma (Section III);
the machine simulator therefore degrades that barrier to a full
``taskwait`` when driving this manager, reproducing the H264dec behaviour
the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.common.constants import (
    DEFAULT_KICKOFF_CAPACITY,
    DEFAULT_TABLE_SETS,
    DEFAULT_TABLE_WAYS,
    DEFAULT_TASK_POOL_ENTRIES,
)
from repro.common.errors import ConfigurationError
from repro.common.units import Frequency
from repro.common.validation import check_positive
from repro.managers.base import FinishOutcome, ReadyNotification, SubmitOutcome, TaskManagerModel
from repro.nexus.timing import (
    NEXUS_PP_TEST_FREQUENCY_MHZ,
    NexusPlusPlusTiming,
    shared_offset_tables,
)
from repro.sim.resource import SerialResource
from repro.taskgraph.table import AddressTable
from repro.taskgraph.task_pool import TaskPool
from repro.taskgraph.tracker import DependencyTracker
from repro.trace.task import TaskDescriptor


@dataclass(frozen=True)
class NexusPlusPlusConfig:
    """Configuration of a Nexus++ instance."""

    #: Manager clock frequency in MHz (100 MHz on the ZC706, Table I).
    frequency_mhz: float = NEXUS_PP_TEST_FREQUENCY_MHZ
    #: Pipeline latencies.
    timing: NexusPlusPlusTiming = field(default_factory=NexusPlusPlusTiming)
    #: Fall-through latency (cycles) of the FIFOs between pipeline stages.
    fifo_latency_cycles: int = 3
    #: Geometry of the single task graph.
    table_sets: int = DEFAULT_TABLE_SETS
    table_ways: int = DEFAULT_TABLE_WAYS
    kickoff_capacity: int = DEFAULT_KICKOFF_CAPACITY
    #: Task pool entries.
    task_pool_entries: int = DEFAULT_TASK_POOL_ENTRIES

    def __post_init__(self) -> None:
        check_positive("frequency_mhz", self.frequency_mhz)
        check_positive("fifo_latency_cycles", self.fifo_latency_cycles + 1)  # allow 0
        check_positive("table_sets", self.table_sets)
        check_positive("table_ways", self.table_ways)
        check_positive("kickoff_capacity", self.kickoff_capacity)
        check_positive("task_pool_entries", self.task_pool_entries)


class NexusPlusPlusManager(TaskManagerModel):
    """Cycle-approximate model of the Nexus++ centralised task manager."""

    supports_taskwait_on = False
    worker_overhead_us = 0.0

    def __init__(self, config: Optional[NexusPlusPlusConfig] = None) -> None:
        self.config = config or NexusPlusPlusConfig()
        self.name = "Nexus++"
        self._frequency = Frequency(self.config.frequency_mhz)
        self._cycle_us = self._frequency.cycle_time_us
        self._tracker = DependencyTracker(
            num_tables=1,
            table_factory=lambda index: AddressTable(
                num_sets=self.config.table_sets,
                ways=self.config.table_ways,
                kickoff_capacity=self.config.kickoff_capacity,
                name="nexus++-task-graph",
            ),
            task_pool=TaskPool(capacity=self.config.task_pool_entries, name="nexus++-task-pool"),
            distribution_key=("central",),
        )
        # Pipeline resources.  The Insert stage and the finished-task
        # cleanup share the single task graph's port.
        self._input_parser = SerialResource("nexus++-input-parser")
        self._task_graph = SerialResource("nexus++-task-graph-port")
        self._write_back = SerialResource("nexus++-write-back")
        # Precomputed cycle->µs constants and per-parameter-count tables
        # (grown on demand): per-task pipeline costs are table lookups
        # with bit-identical values instead of method calls + multiplies.
        # The tables are process-shared per (timing, cycle_us) — every
        # sweep point / batch lane with the same configuration aliases
        # the same grown lists instead of re-deriving them.
        timing = self.config.timing
        cycle_us = self._cycle_us
        self._fifo_us = self.config.fifo_latency_cycles * cycle_us
        self._writeback_us = timing.writeback_cycles * cycle_us
        self._notify_us = timing.finish_notify_cycles * cycle_us
        self._tables = shared_offset_tables(timing, cycle_us)
        self._input_us = self._tables.input_us
        self._insert_cycles = self._tables.insert_cycles
        self._cleanup_cycles = self._tables.cleanup_cycles
        #: Per-task bookkeeping for statistics.
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    # -- helpers ---------------------------------------------------------------
    def _cycles(self, cycles: float) -> float:
        """Convert manager cycles to micro-seconds."""
        return cycles * self._cycle_us

    def _grow_tables(self, count: int) -> None:
        """Extend the (shared) per-parameter-count latency tables."""
        self._tables.grow_pp(count)

    @property
    def frequency(self) -> Frequency:
        """The manager clock."""
        return self._frequency

    def reset(self) -> None:
        self._tracker.reset()
        self._input_parser.reset()
        self._task_graph.reset()
        self._write_back.reset()
        self._ready_latency_total_us = 0.0
        self._ready_count = 0

    def prepare_program(self, program) -> None:
        self._tracker.bind_program(program)

    # -- TaskManagerModel --------------------------------------------------------
    def submit(self, task: TaskDescriptor, time_us: float) -> SubmitOutcome:
        timing = self.config.timing
        result = self._tracker.insert_task(task)
        accesses = result.accesses
        num_params = task.num_params
        if num_params < 1:
            num_params = 1
        num_accesses = len(accesses) or 1
        if max(num_params, num_accesses) >= len(self._input_us):
            self._grow_tables(max(num_params, num_accesses))

        # Stage 1: Input Parser receives the whole task.  The serial
        # reservations below inline SerialResource.reserve (start =
        # max(earliest, next_free); end = start + duration) — identical
        # arithmetic without a call per pipeline stage.
        parser = self._input_parser
        duration = self._input_us[num_params]
        next_free = parser._next_free
        start = time_us if time_us > next_free else next_free
        input_end = start + duration
        parser._next_free = input_end
        stats = parser.stats
        stats.reservations += 1
        stats.busy_time += duration
        stats.total_wait += start - time_us
        stats.last_busy_until = input_end

        # Stage 2: Insert into the single task graph (whole task at once).
        insert_available = input_end + self._fifo_us
        insert_cycles = self._insert_cycles[num_accesses]
        conflicts = result.set_conflict_count
        if conflicts:
            insert_cycles += timing.set_conflict_stall_cycles * conflicts
        graph = self._task_graph
        duration = insert_cycles * self._cycle_us
        next_free = graph._next_free
        start = insert_available if insert_available > next_free else next_free
        insert_end = start + duration
        graph._next_free = insert_end
        stats = graph.stats
        stats.reservations += 1
        stats.busy_time += duration
        stats.total_wait += start - insert_available
        stats.last_busy_until = insert_end

        ready: tuple[ReadyNotification, ...] = ()
        if result.ready:
            wb_available = insert_end + self._fifo_us
            _, wb_end = self._write_back.reserve(wb_available, self._writeback_us)
            ready = (ReadyNotification(task.task_id, wb_end),)
            self._ready_latency_total_us += wb_end - time_us
            self._ready_count += 1

        # The host regains the bus as soon as the Input Parser consumed the
        # descriptor; the deeper pipeline stages overlap with the next task.
        return SubmitOutcome(accept_time_us=input_end, ready=ready)

    def finish(self, task_id: int, time_us: float) -> FinishOutcome:
        timing = self.config.timing
        result = self._tracker.finish_task(task_id)
        num_params = result.num_accesses
        if num_params < 1:
            num_params = 1
        if num_params >= len(self._cleanup_cycles):
            self._grow_tables(num_params)

        # The finished-task notification arrives over the same IO unit
        # (serial reservations inlined as in submit).
        parser = self._input_parser
        duration = self._notify_us
        next_free = parser._next_free
        start = time_us if time_us > next_free else next_free
        notify_end = start + duration
        parser._next_free = notify_end
        stats = parser.stats
        stats.reservations += 1
        stats.busy_time += duration
        stats.total_wait += start - time_us
        stats.last_busy_until = notify_end

        # Cleanup of the single task graph: delete the task's entries and
        # walk the kick-off lists of its addresses.
        cleanup_available = notify_end + self._fifo_us
        cleanup_cycles = self._cleanup_cycles[num_params]
        cleanup_cycles += timing.kickoff_cycles_per_waiter * result.kickoff_count
        graph = self._task_graph
        duration = cleanup_cycles * self._cycle_us
        next_free = graph._next_free
        start = cleanup_available if cleanup_available > next_free else next_free
        cleanup_end = start + duration
        graph._next_free = cleanup_end
        stats = graph.stats
        stats.reservations += 1
        stats.busy_time += duration
        stats.total_wait += start - cleanup_available
        stats.last_busy_until = cleanup_end

        notifications: List[ReadyNotification] = []
        wb_available = cleanup_end + self._fifo_us
        for ready_task in result.newly_ready:
            _, wb_end = self._write_back.reserve(wb_available, self._writeback_us)
            notifications.append(ReadyNotification(ready_task, wb_end))
            self._ready_latency_total_us += wb_end - time_us
            self._ready_count += 1
        return FinishOutcome(ready=tuple(notifications), notify_done_us=cleanup_end)

    def lane_kernel(self) -> None:
        """Nexus++ declines the lane kernel.

        Its pipeline state is history-dependent in ways the lane kernel
        cannot constant-fold: three serial resources (Input Parser, the
        task graph's single port, Write Back) interleave submit- and
        finish-side reservations, and the set-associative address table
        adds occupancy-dependent conflict stalls.  Its runs take the
        generic loop; they still benefit from the process-shared
        latency tables (:func:`repro.nexus.timing.shared_offset_tables`).
        """
        return None

    # -- reporting -----------------------------------------------------------------
    def describe(self) -> Mapping[str, object]:
        return {
            "name": self.name,
            "supports_taskwait_on": self.supports_taskwait_on,
            "frequency_mhz": self.config.frequency_mhz,
            "table_sets": self.config.table_sets,
            "table_ways": self.config.table_ways,
        }

    def statistics(self) -> Mapping[str, object]:
        table = self._tracker.tables[0]
        return {
            "tasks_inserted": self._tracker.total_inserted,
            "tasks_finished": self._tracker.total_finished,
            "input_parser_busy_us": self._input_parser.stats.busy_time,
            "task_graph_busy_us": self._task_graph.stats.busy_time,
            "write_back_busy_us": self._write_back.stats.busy_time,
            "set_conflicts": table.stats.set_conflicts,
            "max_live_addresses": table.stats.max_live_entries,
            "mean_ready_latency_us": (
                self._ready_latency_total_us / self._ready_count if self._ready_count else 0.0
            ),
        }

"""Serially-occupied resources.

The hardware models reason about *when* a unit (Input Parser, a task
graph's insertion port, the Dependence Counts Arbiter, the Write-Back
port) finishes a piece of work, given that the unit can only work on one
item at a time and items are handed to it in simulation-time order.

:class:`SerialResource` captures exactly that: ``reserve(earliest, dur)``
returns the interval actually occupied, advancing the resource's
"next free" pointer.  Because the machine-level event loop calls the
manager models in non-decreasing time order, a simple pointer is
sufficient — no backtracking is ever needed.  The resource additionally
accumulates busy time so the analysis layer can report utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SimulationError


@dataclass(slots=True)
class ResourceStats:
    """Aggregate statistics of a :class:`SerialResource`.

    ``slots=True``: one instance is updated on every reservation of every
    pipeline resource, which makes these the hottest attribute writes in
    the hardware-manager models.
    """

    reservations: int = 0
    busy_time: float = 0.0
    total_wait: float = 0.0
    last_busy_until: float = 0.0

    @property
    def mean_service_time(self) -> float:
        """Average occupancy per reservation (0 when never used)."""
        if self.reservations == 0:
            return 0.0
        return self.busy_time / self.reservations

    @property
    def mean_wait(self) -> float:
        """Average queuing delay per reservation (0 when never used)."""
        if self.reservations == 0:
            return 0.0
        return self.total_wait / self.reservations

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` during which the resource was busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)


class SerialResource:
    """A unit that processes one item at a time, in arrival order.

    Parameters
    ----------
    name:
        Human-readable identifier used in error messages and statistics.
    """

    __slots__ = ("name", "_next_free", "stats")

    def __init__(self, name: str) -> None:
        self.name = name
        self._next_free: float = 0.0
        self.stats = ResourceStats()

    @property
    def next_free(self) -> float:
        """Earliest time at which a new reservation could start."""
        return self._next_free

    def reserve(self, earliest: float, duration: float) -> tuple[float, float]:
        """Occupy the resource for ``duration`` starting no earlier than ``earliest``.

        Returns ``(start, end)``.  ``duration`` may be zero (the
        reservation then only orders subsequent work after ``earliest``).
        """
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        if earliest < 0:
            raise SimulationError(f"{self.name}: negative start time {earliest}")
        next_free = self._next_free
        start = earliest if earliest > next_free else next_free
        end = start + duration
        self._next_free = end
        stats = self.stats
        stats.reservations += 1
        stats.busy_time += duration
        stats.total_wait += start - earliest
        stats.last_busy_until = end
        return start, end

    def peek_start(self, earliest: float) -> float:
        """Return the time a reservation made now would start, without reserving."""
        return max(earliest, self._next_free)

    def reset(self) -> None:
        """Forget all reservations."""
        self._next_free = 0.0
        self.stats = ResourceStats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SerialResource({self.name!r}, next_free={self._next_free:.3f})"


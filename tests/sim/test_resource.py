"""Tests for SerialResource."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.resource import SerialResource


class TestSerialResource:
    def test_first_reservation_starts_at_earliest(self):
        r = SerialResource("unit")
        start, end = r.reserve(5.0, 2.0)
        assert (start, end) == (5.0, 7.0)

    def test_back_to_back_reservations_queue(self):
        r = SerialResource("unit")
        r.reserve(0.0, 10.0)
        start, end = r.reserve(2.0, 3.0)
        assert start == pytest.approx(10.0)
        assert end == pytest.approx(13.0)

    def test_idle_gap_is_allowed(self):
        r = SerialResource("unit")
        r.reserve(0.0, 1.0)
        start, _ = r.reserve(100.0, 1.0)
        assert start == pytest.approx(100.0)

    def test_zero_duration_reservation(self):
        r = SerialResource("unit")
        start, end = r.reserve(1.0, 0.0)
        assert start == end == pytest.approx(1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            SerialResource("unit").reserve(0.0, -1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SerialResource("unit").reserve(-1.0, 1.0)

    def test_peek_start_does_not_reserve(self):
        r = SerialResource("unit")
        r.reserve(0.0, 5.0)
        assert r.peek_start(1.0) == pytest.approx(5.0)
        assert r.next_free == pytest.approx(5.0)

    def test_stats_accumulate(self):
        r = SerialResource("unit")
        r.reserve(0.0, 2.0)
        r.reserve(0.0, 2.0)  # waits 2
        assert r.stats.reservations == 2
        assert r.stats.busy_time == pytest.approx(4.0)
        assert r.stats.total_wait == pytest.approx(2.0)
        assert r.stats.mean_service_time == pytest.approx(2.0)
        assert r.stats.mean_wait == pytest.approx(1.0)

    def test_utilization(self):
        r = SerialResource("unit")
        r.reserve(0.0, 5.0)
        assert r.stats.utilization(10.0) == pytest.approx(0.5)
        assert r.stats.utilization(0.0) == 0.0

    def test_reset(self):
        r = SerialResource("unit")
        r.reserve(0.0, 5.0)
        r.reset()
        assert r.next_free == 0.0
        assert r.stats.reservations == 0


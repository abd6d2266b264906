"""The allocation-free scheduling path and its determinism contract."""

import pytest

from repro.errors import SimulationError
from repro.simkit.engine import Event, Simulator


class TestScheduleFast:
    def test_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_fast(0.3, lambda: fired.append("c"))
        sim.schedule_fast(0.1, lambda: fired.append("a"))
        sim.schedule_fast(0.2, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for name in "abcd":
            sim.schedule_at_fast(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcd")

    def test_mixed_paths_share_one_sequence(self):
        """Fast and Event entries scheduled for the same instant fire in
        scheduling order regardless of which path each went through."""
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("event1"))
        sim.schedule_at_fast(1.0, lambda: fired.append("fast1"))
        sim.schedule_at(1.0, lambda: fired.append("event2"))
        sim.schedule_at_fast(1.0, lambda: fired.append("fast2"))
        sim.run()
        assert fired == ["event1", "fast1", "event2", "fast2"]

    def test_cancellation_still_works_alongside_fast(self):
        sim = Simulator()
        fired = []
        victim = sim.schedule_at(1.0, lambda: fired.append("victim"))
        sim.schedule_at_fast(1.0, lambda: fired.append("fast"))
        victim.cancel()
        sim.run()
        assert fired == ["fast"]

    def test_returns_nothing(self):
        """No Event handle: the contract is no-cancel, no-label."""
        sim = Simulator()
        assert sim.schedule_fast(0.1, lambda: None) is None
        assert sim.schedule_at_fast(0.2, lambda: None) is None

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_fast(-1e-9, lambda: None)

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.schedule_at_fast(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at_fast(0.5, lambda: None)

    def test_counters_cover_both_paths(self):
        sim = Simulator()
        sim.schedule_fast(0.1, lambda: None)
        sim.schedule(0.2, lambda: None)
        sim.schedule_fast(0.3, lambda: None)
        assert len(sim._queue) == 3
        sim.run()
        assert sim.events_processed == 3
        assert sim.peak_pending_events == 3

    def test_until_pushes_entry_back(self):
        """run(until=...) must not lose the first out-of-window event."""
        sim = Simulator()
        fired = []
        sim.schedule_at_fast(1.0, lambda: fired.append(1))
        sim.schedule_at_fast(2.0, lambda: fired.append(2))
        sim.run(until=1.5)
        assert fired == [1]
        assert len(sim._queue) == 1
        assert sim.now == 1.5
        sim.run()
        assert fired == [1, 2]

    def test_max_events_pushes_entry_back(self):
        sim = Simulator()
        fired = []
        for i in range(3):
            sim.schedule_at_fast(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]
        assert len(sim._queue) == 1
        sim.run()
        assert fired == [0, 1, 2]

    def test_event_class_still_orderable(self):
        """Event keeps __lt__ for external consumers."""
        a = Event(1.0, 0, lambda: None)
        b = Event(1.0, 1, lambda: None)
        c = Event(2.0, 0, lambda: None)
        assert a < b < c

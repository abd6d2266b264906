"""Tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.simkit import Simulator


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_single_event_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]

    def test_relative_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, lambda: order.append(3))
        sim.schedule_at(1.0, lambda: order.append(1))
        sim.schedule_at(2.0, lambda: order.append(2))
        sim.run()
        assert order == [1, 2, 3]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_past_schedule_rejected(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule_at(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()  # must not raise

    def test_cancel_one_of_many(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("a"))
        victim = sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        victim.cancel()
        sim.run()
        assert fired == ["a", "c"]


class TestRunControl:
    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_until_leaves_later_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert len(sim._queue) == 1

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule_at(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule_at(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_drain_discards(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.drain()
        sim.run()
        assert fired == []

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule_at(1.0, nested)
        sim.run()
        assert len(errors) == 1


class TestDeterminism:
    def test_identical_schedules_produce_identical_traces(self):
        def build():
            sim = Simulator()
            trace = []
            for i in range(50):
                sim.schedule_at(((i * 7919) % 100) / 10.0, lambda i=i: trace.append(i))
            sim.run()
            return trace

        assert build() == build()

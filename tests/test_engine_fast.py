"""The allocation-free scheduling paths, their determinism contract and
the run loop's bookkeeping."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.simkit import engine, sanitizer
from repro.simkit.engine import Event, Simulator
from repro.simkit.sanitizer import SanitizerError


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


class _PushWatch:
    """Stands in for the engine's ``heapq``: records the heap's length
    after every push, which is where the engine used to track its
    high-water mark. Pop and everything else go to the real module."""

    def __init__(self):
        self.peak = 0

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        self.peak = max(self.peak, len(heap))

    def __getattr__(self, name):
        return getattr(heapq, name)


@pytest.fixture
def watch(monkeypatch):
    """Patch the engine's heap pushes; build simulators after this."""
    watch = _PushWatch()
    monkeypatch.setattr(engine, "heapq", watch)
    return watch


def _fan(sim, push, next_seq, fired, width):
    """A callback that fires, then schedules ``width`` children through
    all three scheduling paths (one of them cancelled)."""
    def callback():
        fired.append(sim.now)
        for k in range(width):
            delay = 0.25 * (k + 1)
            if k % 3 == 0:
                sim.schedule_fast(delay, _fan(sim, push, next_seq, fired, width - 1))
            elif k % 3 == 1:
                push((sim.now + delay, next_seq(), _fan(sim, push, next_seq, fired, width - 1)))
            else:
                sim.schedule(delay, _fan(sim, push, next_seq, fired, width - 1))
                sim.schedule(delay, lambda: fired.append("victim")).cancel()
    return callback


class TestBookkeeping:
    """``peak_pending_events`` is sampled by the loops, not the pushes;
    it must still equal the push-time high-water mark everywhere."""

    def _seeded(self, width=4, fast=True):
        sim = Simulator()
        push, next_seq = sim.pusher(fast)
        fired = []
        for t in (0.5, 0.1, 0.3):
            push((t, next_seq(), _fan(sim, push, next_seq, fired, width)))
        return sim, fired

    def test_scheduled_before_run(self, watch):
        sim = Simulator()
        for k in range(5):
            sim.schedule_fast(0.1 * k, lambda: None)
        assert sim.peak_pending_events == watch.peak == 5
        sim.run()
        assert sim.peak_pending_events == watch.peak == 5
        assert sim.events_processed == 5

    @pytest.mark.parametrize("fast", [True, False])
    def test_run_to_completion(self, watch, fast):
        sim, fired = self._seeded(fast=fast)
        sim.run()
        assert "victim" not in fired
        assert sim.events_processed == len(fired)
        assert sim.peak_pending_events == watch.peak
        assert watch.peak > 3

    def test_during_step(self, watch):
        sim, fired = self._seeded()
        steps = 0
        while sim.step():
            steps += 1
            assert sim.peak_pending_events == watch.peak
            assert sim.events_processed == steps == len(fired)
        assert steps > 10

    def test_across_run_until_calls(self, watch):
        sim, fired = self._seeded()
        for until in (0.2, 0.55, 0.9, 1.4, 2.0):
            sim.run(until=until)
            assert sim.now == until
            assert sim.peak_pending_events == watch.peak
            assert sim.events_processed == len(fired)
        sim.run()
        assert sim.peak_pending_events == watch.peak

    def test_under_max_events(self, watch):
        sim, fired = self._seeded()
        while sim._queue:
            sim.run(max_events=3)
            assert sim.peak_pending_events == watch.peak
            assert sim.events_processed == len(fired)
        assert len(fired) > 10

    def test_after_run_returns(self, watch):
        sim, _fired = self._seeded(width=2)
        sim.run(until=0.35)
        for k in range(40):
            sim.schedule_fast(1.0 + k, lambda: None)
        assert sim.peak_pending_events == watch.peak
        sim.drain()
        assert sim.peak_pending_events == watch.peak

    def test_mixed_step_and_run(self, watch):
        sim, fired = self._seeded()
        sim.step()
        sim.run(until=0.7)
        sim.step()
        sim.run(max_events=2)
        sim.run()
        assert sim.peak_pending_events == watch.peak
        assert sim.events_processed == len(fired)


class TestPusher:
    def test_shares_the_sequence_with_every_path(self):
        sim = Simulator()
        push, next_seq = sim.pusher()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("event"))
        push((1.0, next_seq(), lambda: fired.append("pushed")))
        sim.schedule_at_fast(1.0, lambda: fired.append("fast"))
        push((1.0, next_seq(), lambda: fired.append("pushed2")))
        sim.run()
        assert fired == ["event", "pushed", "fast", "pushed2"]

    def test_reference_pusher_allocates_events_with_the_same_seq(self):
        fast_sim, ref_sim = Simulator(), Simulator()
        for sim, fast in ((fast_sim, True), (ref_sim, False)):
            push, next_seq = sim.pusher(fast)
            sim.schedule(0.5, lambda: None)
            push((0.25, next_seq(), lambda: None))
        fast_entries = sorted(fast_sim._queue)
        ref_entries = sorted(ref_sim._queue)
        assert [e[:2] for e in fast_entries] == [e[:2] for e in ref_entries]
        assert fast_entries[0][2].__class__ is not Event
        event = ref_entries[0][2]
        assert event.__class__ is Event
        assert (event.time, event.seq) == ref_entries[0][:2]

    def test_san001_flags_a_hand_pushed_unissued_seq(self):
        with sanitizer.enabled(True):
            sim = Simulator()
        push, next_seq = sim.pusher()
        push((1.0, next_seq(), lambda: None))
        push((1.5, next_seq(), lambda: None))
        sim.run()  # issued sequence numbers pass
        push((2.0, next_seq(), lambda: None))
        heapq.heappush(sim._queue, (3.0, next_seq() + 1, lambda: None))
        with pytest.raises(SanitizerError) as err:
            sim.run()
        assert err.value.finding.rule_id == "SAN001"
        assert "never issued" in err.value.finding.message
        assert "counter at 4" in err.value.finding.message

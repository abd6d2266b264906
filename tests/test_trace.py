"""Tests for the trace recorder."""

from collections import Counter

from repro.simkit import TraceRecorder
from repro.simkit.trace import NULL_TRACE


class TestRecording:
    def test_records_events(self):
        t = TraceRecorder()
        t.record(1.0, "core0", "enter_c6a")
        assert len(t) == 1
        event = t.events[0]
        assert event.time == 1.0
        assert event.source == "core0"
        assert event.kind == "enter_c6a"

    def test_disabled_records_nothing(self):
        t = TraceRecorder(enabled=False)
        t.record(1.0, "x", "y")
        assert len(t) == 0

    def test_null_trace_is_disabled(self):
        NULL_TRACE.record(1.0, "x", "y")
        assert len(NULL_TRACE) == 0

    def test_capacity_drops_and_counts(self):
        t = TraceRecorder(capacity=2)
        for i in range(5):
            t.record(float(i), "s", "k")
        assert len(t) == 2
        assert t.dropped == 3

    def test_payload_preserved(self):
        t = TraceRecorder()
        t.record(0.0, "s", "k", payload={"a": 1})
        assert t.events[0].payload == {"a": 1}


class TestFiltering:
    def _make(self):
        t = TraceRecorder()
        t.record(0.0, "core0", "wake")
        t.record(1.0, "core0", "sleep")
        t.record(2.0, "core1", "wake")
        return t

    def test_filter_by_source(self):
        t = self._make()
        assert len(t.filter(source="core0")) == 2

    def test_filter_by_kind(self):
        t = self._make()
        assert len(t.filter(kind="wake")) == 2

    def test_filter_by_both(self):
        t = self._make()
        events = t.filter(source="core0", kind="wake")
        assert len(events) == 1
        assert events[0].time == 0.0

    def test_counts_by_kind(self):
        t = self._make()
        assert Counter(event.kind for event in t) == {"wake": 2, "sleep": 1}

    def test_clear(self):
        t = self._make()
        t.clear()
        assert len(t) == 0
        assert t.dropped == 0

    def test_iteration(self):
        t = self._make()
        assert [e.time for e in t] == [0.0, 1.0, 2.0]

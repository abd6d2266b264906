"""Tests for event tracing wired into the server node."""

from collections import Counter

import pytest

from repro.server import ServerNode, named_configuration
from repro.simkit.trace import TraceRecorder
from repro.workloads import memcached_workload


@pytest.fixture(scope="module")
def traced_run():
    trace = TraceRecorder()
    node = ServerNode(
        workload=memcached_workload(),
        configuration=named_configuration("NT_Baseline"),
        qps=50_000,
        horizon=0.05,
        seed=3,
        trace=trace,
    )
    result = node.run()
    return trace, result


class TestNodeTracing:
    def test_records_idle_entries_and_wakes(self, traced_run):
        trace, _ = traced_run
        counts = Counter(event.kind for event in trace)
        assert counts.get("enter_idle", 0) > 0
        assert counts.get("wake", 0) > 0

    def test_wakes_roughly_match_entries(self, traced_run):
        # Every completed idle interval has one enter and one wake; a few
        # cores may end the run still idle.
        trace, result = traced_run
        counts = Counter(event.kind for event in trace)
        assert abs(counts["enter_idle"] - counts["wake"]) <= result.cores

    def test_trace_states_match_catalog(self, traced_run):
        trace, _ = traced_run
        catalog_states = {"C1", "C1E", "C6"}
        for event in trace.filter(kind="enter_idle"):
            assert event.payload in catalog_states

    def test_snoop_events_recorded(self, traced_run):
        trace, result = traced_run
        assert len(trace.filter(kind="snoop")) == result.snoops_served

    def test_events_time_ordered(self, traced_run):
        trace, _ = traced_run
        times = [event.time for event in trace]
        assert times == sorted(times)

    def test_per_core_filtering(self, traced_run):
        trace, result = traced_run
        total = sum(
            len(trace.filter(source=f"core{i}", kind="wake"))
            for i in range(result.cores)
        )
        assert total == Counter(event.kind for event in trace)["wake"]

    def test_default_node_does_not_trace(self):
        node = ServerNode(
            workload=memcached_workload(),
            configuration=named_configuration("NT_Baseline"),
            qps=20_000,
            horizon=0.02,
            seed=4,
        )
        node.run()
        assert len(node.trace) == 0  # NULL_TRACE stays empty

    def test_trace_wake_durations_consistent_with_governor(self, traced_run):
        # Idle intervals observed in the trace must be positive.
        trace, _ = traced_run
        enters = trace.filter(source="core0", kind="enter_idle")
        wakes = trace.filter(source="core0", kind="wake")
        for enter, wake in zip(enters, wakes):
            assert wake.time >= enter.time

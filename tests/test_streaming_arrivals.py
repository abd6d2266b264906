"""Streaming arrival generation: determinism and heap-size bounds.

The server node schedules arrivals lazily (each arrival event chains the
next) instead of pre-scheduling the whole open-loop schedule. These tests
pin the two properties that refactor promised: results stay bit-identical
to eager pre-scheduling for the same seed, and the event heap stays
O(cores + in-flight) instead of O(qps * horizon).
"""

import pytest

from repro.server import ServerNode, named_configuration
from repro.workloads import memcached_workload
from repro.workloads.loadgen import LoadGenerator


def _node(qps=50_000, horizon=0.05, seed=7, config="baseline", **kw):
    return ServerNode(
        memcached_workload(), named_configuration(config),
        qps=qps, horizon=horizon, seed=seed, **kw,
    )


def _eager_schedule_arrivals(node):
    """The pre-refactor behaviour: push every arrival up front."""
    for t in node._loadgen.arrivals(node.horizon):
        node.sim.schedule_at(t, lambda t=t: node.arrive(t), label="arrival")


class TestStreamingDeterminism:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_bit_identical_to_eager_baseline(self, seed):
        streaming = _node(seed=seed).run()
        eager_node = _node(seed=seed)
        eager_node._schedule_arrivals = lambda: _eager_schedule_arrivals(eager_node)
        eager = eager_node.run()
        assert streaming.completed == eager.completed
        assert streaming.avg_core_power == eager.avg_core_power
        assert streaming.residency == eager.residency
        assert streaming.server_latency.p99 == eager.server_latency.p99
        assert streaming.transitions_per_second == eager.transitions_per_second
        assert streaming.snoops_served == eager.snoops_served

    def test_repeat_runs_identical(self):
        a = _node(seed=11).run()
        b = _node(seed=11).run()
        assert a.avg_core_power == b.avg_core_power
        assert a.residency == b.residency

    def test_all_arrivals_processed(self):
        node = _node(qps=20_000, horizon=0.05, seed=3)
        expected = sum(1 for _ in type(node._loadgen)(20_000, seed=3 + 1).arrivals(0.05))
        result = node.run()
        # Every generated arrival either completed or is still queued at
        # the horizon; none were dropped by the streaming chain.
        queued = sum(len(rt.queue) for rt in node._runtimes)
        in_service = sum(1 for rt in node._runtimes if rt.busy)
        assert result.completed + queued + in_service == expected


class TestHorizonGuard:
    def test_arrival_at_or_past_horizon_never_fires(self):
        class AtHorizon(LoadGenerator):
            def __init__(self, horizon):
                self._h = horizon

            def arrivals(self, horizon):
                # Misbehaving generator: boundary and out-of-window times.
                yield self._h / 2
                yield self._h
                yield self._h * 2

        node = _node(qps=1_000, horizon=0.01, seed=1)
        node._loadgen = AtHorizon(node.horizon)
        result = node.run()
        # Only the in-window arrival dispatched; the t >= horizon ones were
        # dropped by the guard rather than firing past the window.
        assert result.completed == 1
        assert node.sim.now == node.horizon

    def test_in_window_arrivals_survive_out_of_window_yields(self):
        class Mixed(LoadGenerator):
            def __init__(self, horizon):
                self._h = horizon

            def arrivals(self, horizon):
                # An out-of-window yield mid-stream must not truncate the
                # rest of the schedule.
                yield self._h / 4
                yield self._h * 2
                yield self._h / 2

        node = _node(qps=1_000, horizon=0.01, seed=1)
        node._loadgen = Mixed(node.horizon)
        result = node.run()
        assert result.completed == 2


class TestHeapBounds:
    def test_peak_pending_reduced_10x_at_100kqps(self):
        # Acceptance criterion: 100 KQPS x 0.4 s would eagerly pin
        # ~40 000 arrival events; streaming must stay >= 10x below that.
        node = _node(qps=100_000, horizon=0.4, seed=1)
        result = node.run()
        eager_heap = 100_000 * 0.4
        assert result.completed > 30_000  # the run actually happened
        assert node.sim.peak_pending_events <= eager_heap / 10

    def test_peak_scales_with_cores_not_load(self):
        small = _node(qps=200_000, horizon=0.02, seed=2)
        small.run()
        # 4000 offered requests; the heap should stay in the dozens.
        assert small.sim.peak_pending_events < 100

"""Tests for RunResult views and comparison helpers."""

import pytest

from repro.server.metrics import RunResult, compare_power
from repro.simkit.stats import PercentileTracker
from repro.units import US


def _result(power=1.0, latencies=(10 * US, 20 * US, 30 * US), completed=3,
            horizon=1.0, network=117 * US):
    tracker = PercentileTracker()
    tracker.add_many(latencies)
    return RunResult(
        config_name="test",
        workload_name="w",
        qps=1000.0,
        horizon=horizon,
        cores=10,
        residency={"C0": 0.3, "C1": 0.7},
        transitions_per_second={"C1": 100.0},
        avg_core_power=power,
        package_power=power * 10 + 38.0,
        server_latency=tracker,
        completed=completed,
        turbo_grant_rate=0.5,
        network_latency=network,
    )


class TestRunResultViews:
    def test_avg_latency(self):
        assert _result().avg_latency == pytest.approx(20 * US)

    def test_tail_at_least_avg(self):
        r = _result()
        assert r.tail_latency >= r.avg_latency

    def test_e2e_adds_network(self):
        r = _result()
        assert r.avg_latency_e2e == pytest.approx(r.avg_latency + 117 * US)
        assert r.tail_latency_e2e == pytest.approx(r.tail_latency + 117 * US)

    def test_achieved_qps(self):
        assert _result(completed=500, horizon=0.5).achieved_qps == 1000.0

    def test_achieved_qps_zero_horizon(self):
        assert _result(horizon=0).achieved_qps == 0.0

    def test_utilization_is_c0(self):
        assert _result().utilization == pytest.approx(0.3)

    def test_summary_contains_key_fields(self):
        text = _result().summary()
        assert "w/test" in text
        assert "p99" in text


class TestComparisons:
    def test_compare_power_fraction(self):
        base = _result(power=2.0)
        other = _result(power=1.0)
        assert compare_power(base, other) == pytest.approx(0.5)

    def test_compare_power_zero_base(self):
        assert compare_power(_result(power=0.0), _result(power=1.0)) == 0.0

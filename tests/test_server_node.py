"""Tests for the server-node simulator."""

import pytest

from degenerate import Degenerate

from repro.errors import ConfigurationError
from repro.server import ServerNode, named_configuration, simulate
from repro.server.metrics import compare_power
from repro.units import US
from repro.workloads import memcached_workload
from repro.workloads.base import ServiceTimeModel, Workload


def _quick(config_name="baseline", qps=50_000, horizon=0.05, seed=7, **kw):
    return simulate(
        memcached_workload(),
        named_configuration(config_name),
        qps=qps,
        horizon=horizon,
        seed=seed,
        **kw,
    )


def _deterministic_workload(service_us=10.0, network=117 * US):
    service = ServiceTimeModel(
        scalable=Degenerate(0.0), fixed=Degenerate(service_us * US)
    )
    return Workload("fixed", service, network_latency=network, snoop_rate_hz=0.0)


class TestBasicOperation:
    def test_completes_requests(self):
        result = _quick()
        assert result.completed > 0
        assert result.achieved_qps == pytest.approx(50_000, rel=0.1)

    def test_residency_sums_to_one(self):
        result = _quick()
        assert sum(result.residency.values()) == pytest.approx(1.0, abs=1e-6)

    def test_power_positive_and_below_turbo_max(self):
        result = _quick()
        assert 0.0 < result.avg_core_power < 5.5

    def test_package_power_includes_uncore(self):
        result = _quick()
        assert result.package_power > result.avg_core_power * result.cores

    def test_latency_views(self):
        result = _quick()
        assert result.avg_latency > 0
        assert result.tail_latency >= result.avg_latency
        assert result.avg_latency_e2e == pytest.approx(
            result.avg_latency + result.network_latency
        )

    def test_deterministic_for_fixed_seed(self):
        a = _quick(seed=11)
        b = _quick(seed=11)
        assert a.avg_core_power == b.avg_core_power
        assert a.completed == b.completed
        assert a.residency == b.residency
        assert a.avg_latency == b.avg_latency

    def test_different_seeds_differ(self):
        assert _quick(seed=1).avg_latency != _quick(seed=2).avg_latency

    def test_summary_string(self):
        text = _quick().summary()
        assert "memcached" in text
        assert "residency" in text


class TestValidation:
    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerNode(memcached_workload(), named_configuration("baseline"),
                       qps=1000, cores=0)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerNode(memcached_workload(), named_configuration("baseline"),
                       qps=1000, horizon=0.0)


class TestLatencySemantics:
    def test_unloaded_latency_close_to_service_time(self):
        # At trivial load with C-states, latency ~= service + exit latency.
        workload = _deterministic_workload(service_us=10.0)
        result = simulate(
            workload, named_configuration("NT_No_C6_No_C1E"),
            qps=1_000, cores=10, horizon=0.2, seed=3,
        )
        # C1 exit is 1 us; queueing negligible at 0.1% utilisation.
        assert result.avg_latency == pytest.approx(11 * US, rel=0.05)

    def test_c6_wakes_inflate_tail(self):
        # With C6 enabled at low load, wake penalties push p99 up.
        base = _quick("NT_Baseline", qps=10_000, horizon=0.2)
        no_c6 = _quick("NT_No_C6", qps=10_000, horizon=0.2)
        assert base.tail_latency > no_c6.tail_latency

    def test_latency_grows_with_load(self):
        low = _quick(qps=50_000, horizon=0.1)
        high = _quick(qps=450_000, horizon=0.1)
        assert high.tail_latency > low.tail_latency


class TestResidencySemantics:
    def test_utilization_grows_with_load(self):
        low = _quick(qps=20_000)
        high = _quick(qps=400_000)
        assert high.utilization > low.utilization

    def test_only_enabled_states_appear(self):
        result = _quick("NT_No_C6_No_C1E", qps=100_000)
        assert "C6" not in result.residency or result.residency["C6"] == 0.0
        assert "C1E" not in result.residency or result.residency["C1E"] == 0.0

    def test_aw_config_reports_aw_states(self):
        result = _quick("AW", qps=100_000)
        names = set(result.residency)
        assert "C6A" in names or "C6AE" in names
        assert "C1" not in names

    def test_deep_idle_at_low_load(self):
        result = _quick("NT_Baseline", qps=10_000, horizon=0.2)
        deep = result.residency.get("C1E", 0.0) + result.residency.get("C6", 0.0)
        assert deep > 0.5

    def test_transitions_recorded(self):
        result = _quick(qps=100_000)
        assert sum(result.transitions_per_second.values()) > 0


class TestPowerSemantics:
    def test_aw_cheaper_than_baseline(self):
        base = _quick("baseline", qps=100_000)
        aw = _quick("AW", qps=100_000)
        assert compare_power(base, aw) > 0.15

    def test_disabling_c1e_costs_power_at_low_load(self):
        # Sec 7.2: idle cores parked in C1 burn more than C1E.
        with_c1e = _quick("NT_No_C6", qps=50_000, horizon=0.1)
        without = _quick("NT_No_C6_No_C1E", qps=50_000, horizon=0.1)
        assert without.avg_core_power > with_c1e.avg_core_power

    def test_power_grows_with_load(self):
        low = _quick(qps=20_000)
        high = _quick(qps=400_000)
        assert high.avg_core_power > low.avg_core_power

    def test_turbo_config_grants_recorded(self):
        result = _quick("baseline", qps=50_000)
        assert 0.0 <= result.turbo_grant_rate <= 1.0
        nt = _quick("NT_Baseline", qps=50_000)
        assert nt.turbo_grant_rate == 0.0


class TestSnoops:
    def test_snoops_served_when_enabled(self):
        result = _quick(qps=20_000, horizon=0.2, snoops_enabled=True)
        assert result.snoops_served > 0

    def test_snoops_disabled(self):
        result = _quick(qps=20_000, snoops_enabled=False)
        assert result.snoops_served == 0

    def test_snoop_traffic_costs_power(self):
        quiet = _quick("NT_No_C6_No_C1E", qps=10_000, horizon=0.2,
                       snoops_enabled=False)
        noisy = _quick("NT_No_C6_No_C1E", qps=10_000, horizon=0.2,
                       snoops_enabled=True)
        assert noisy.avg_core_power >= quiet.avg_core_power


class TestCompareHelpers:
    def test_compare_power_sign(self):
        base = _quick("NT_Baseline", qps=50_000)
        aw = _quick("NT_AW", qps=50_000)
        assert compare_power(base, aw) > 0
        assert compare_power(aw, base) < 0

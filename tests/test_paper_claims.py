"""End-to-end assertions of the paper's headline claims.

Each test names the claim it checks (abstract / section) and verifies our
reproduction preserves it — direction, rough factor, crossovers — not the
authors' testbed-exact numbers.
"""

import pytest

from repro import AgileWattsDesign, named_configuration, simulate
from repro.analytical import ideal_savings, snoop_bounds, validate_power_model
from repro.core.latency import C6ALatencyModel, C6LatencyModel, transition_speedup
from repro.workloads import memcached_workload


@pytest.fixture(scope="module")
def design():
    return AgileWattsDesign()


class TestAbstractClaims:
    def test_c6a_power_is_7pct_of_c0(self, design):
        """Abstract: C6A consumes only ~7% of the active state power."""
        fraction = design.c6a_power / 4.0
        assert fraction == pytest.approx(0.07, abs=0.01)

    def test_c6ae_power_is_5pct_of_c0(self, design):
        """Abstract: C6AE consumes only ~5% of the active state power."""
        fraction = design.c6ae_power / 4.0
        assert fraction == pytest.approx(0.055, abs=0.01)

    def test_transition_up_to_900x_faster(self):
        """Abstract: up to 900x faster transition than C6 — we assert the
        three-orders-of-magnitude band."""
        speedup = transition_speedup(C6LatencyModel(), C6ALatencyModel())
        assert speedup >= 900 * 0.6  # same order of magnitude as claimed
        assert speedup <= 900 * 3

    def test_memcached_savings_up_to_70pct(self):
        """Abstract: reduces Memcached energy by up to 71%."""
        base = simulate(
            memcached_workload(), named_configuration("NT_No_C6_No_C1E"),
            qps=10_000, horizon=0.2, seed=42,
        )
        aw = simulate(
            memcached_workload(), named_configuration("NT_C6A_No_C6_No_C1E"),
            qps=10_000, horizon=0.2, seed=42,
        )
        savings = (base.avg_core_power - aw.avg_core_power) / base.avg_core_power
        assert savings >= 0.6

    def test_end_to_end_degradation_under_1pct(self):
        """Abstract: < 1% end-to-end performance degradation."""
        base = simulate(
            memcached_workload(), named_configuration("baseline"),
            qps=100_000, horizon=0.15, seed=42,
        )
        aw = simulate(
            memcached_workload(), named_configuration("AW"),
            qps=100_000, horizon=0.15, seed=42,
        )
        degradation = (aw.avg_latency_e2e - base.avg_latency_e2e) / base.avg_latency_e2e
        assert degradation < 0.01


class TestSection2Claims:
    def test_ideal_savings_23_41_55(self):
        """Sec 2: Eq. 1 bounds are 23% / 41% / 55% for the examples."""
        assert ideal_savings({"C0": 0.50, "C1": 0.45, "C6": 0.05}) == pytest.approx(0.23, abs=0.005)
        assert ideal_savings({"C0": 0.25, "C1": 0.55, "C6": 0.20}) == pytest.approx(0.41, abs=0.005)
        assert ideal_savings({"C0": 0.20, "C1": 0.80, "C6": 0.00}) == pytest.approx(0.55, abs=0.005)


class TestSection5Claims:
    def test_entry_exit_budgets(self, design):
        """Sec 5.2: entry < 20 ns, exit < 80 ns, round trip < 100 ns."""
        assert design.flow.entry_latency < 20e-9
        assert design.flow.exit_latency < 80e-9
        assert design.hardware_round_trip < 100e-9

    def test_staggered_wake_under_70ns(self, design):
        """Sec 5.3: five zones wake in < 70 ns (4.5 x 15 ns)."""
        assert design.ufpg.wake_latency < 70e-9
        assert design.ufpg.wake_latency == pytest.approx(67.5e-9, rel=0.01)

    def test_table3_overall_bands(self, design):
        """Table 3: C6A 290-315 mW, C6AE 227-243 mW, 3-7% core area."""
        low, high = design.breakdown.total_power_range("C6A")
        assert (low, high) == pytest.approx((0.290, 0.315), rel=0.03)
        low_e, high_e = design.breakdown.total_power_range("C6AE")
        assert (low_e, high_e) == pytest.approx((0.227, 0.243), rel=0.04)
        area_low, area_high = design.breakdown.area_overhead_range
        assert 0.01 <= area_low <= 0.03
        assert 0.05 <= area_high <= 0.08

    def test_c6_entry_dominated_by_flush(self):
        """Sec 3: flush ~75 us of the ~87 us C6 entry at 50% dirty."""
        model = C6LatencyModel()
        breakdown = model.breakdown()
        assert breakdown["flush_l1_l2"] == pytest.approx(75e-6, rel=0.05)
        assert model.entry_latency == pytest.approx(87e-6, rel=0.02)


class TestSection6Claims:
    def test_power_model_accuracy_above_94pct(self):
        """Sec 6.3: model accuracy 94.4-96.1% across four workloads."""
        for result in validate_power_model():
            assert 94.0 <= result.accuracy_percent <= 96.5


class TestSection7Claims:
    def test_memcached_never_deep_at_high_load(self):
        """Sec 2/7: at high load, cores never go deeper than C1."""
        result = simulate(
            memcached_workload(), named_configuration("baseline"),
            qps=500_000, horizon=0.1, seed=42,
        )
        assert result.residency.get("C6", 0.0) < 0.01
        assert result.residency.get("C1", 0.0) + result.residency.get("C0", 0.0) > 0.8

    def test_savings_decline_with_load(self):
        """Fig 8b: AW savings shrink as load grows."""
        savings = []
        for qps in (20_000, 200_000, 450_000):
            base = simulate(memcached_workload(), named_configuration("baseline"),
                            qps=qps, horizon=0.1, seed=42)
            aw = simulate(memcached_workload(), named_configuration("AW"),
                          qps=qps, horizon=0.1, seed=42)
            savings.append((base.avg_core_power - aw.avg_core_power) / base.avg_core_power)
        assert savings[0] > savings[1] > savings[2]
        assert savings[2] > 0.05  # still ~10% at high load

    def test_snoop_worst_case_loses_11pp(self):
        """Sec 7.5: 79% -> 68% under saturating snoops."""
        bounds = snoop_bounds()
        assert bounds.savings_no_snoops == pytest.approx(0.79, abs=0.01)
        assert bounds.savings_full_snoops == pytest.approx(0.68, abs=0.01)
        assert bounds.savings_loss == pytest.approx(0.11, abs=0.01)

    def test_c1e_tradeoff_exists(self):
        """Sec 7.2: disabling C1E lowers latency but raises power —
        the tension C6A resolves."""
        with_c1e = simulate(memcached_workload(), named_configuration("NT_No_C6"),
                            qps=100_000, horizon=0.1, seed=42)
        without = simulate(memcached_workload(), named_configuration("NT_No_C6_No_C1E"),
                           qps=100_000, horizon=0.1, seed=42)
        assert without.avg_latency < with_c1e.avg_latency
        assert without.avg_core_power > with_c1e.avg_core_power

    def test_c6a_resolves_the_tradeoff(self):
        """Sec 7.2: C6A gets No_C1E's latency at better-than-C1E power."""
        no_c1e = simulate(memcached_workload(), named_configuration("NT_No_C6_No_C1E"),
                          qps=100_000, horizon=0.1, seed=42)
        aw = simulate(memcached_workload(), named_configuration("NT_C6A_No_C6_No_C1E"),
                      qps=100_000, horizon=0.1, seed=42)
        # Latency within 1% of the latency-optimal config...
        assert aw.avg_latency_e2e < no_c1e.avg_latency_e2e * 1.01
        # ...at far lower power.
        assert aw.avg_core_power < no_c1e.avg_core_power * 0.6


class TestDesignVerification:
    def test_all_architecture_invariants(self, design):
        """The assembled design satisfies every Sec 4/5 invariant."""
        checks = design.verify()
        assert all(checks.values()), {k: v for k, v in checks.items() if not v}

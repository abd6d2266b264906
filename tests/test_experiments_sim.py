"""Tests for the simulation-driven experiments (Figs 8-13, Table 5).

These use reduced rate grids and short horizons so the whole file runs in
tens of seconds while still asserting the paper's qualitative claims. The
grids live in ``figure_grids``, shared with the claim checks under
``benchmarks/``, so each is simulated once per run.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import figure_grids  # noqa: E402
from figure_grids import FIG11_RATES, RATES  # noqa: E402

from repro.experiments import fig8, fig9, fig10, fig11  # noqa: E402
from repro.sweep.runner import clear_shared_cache  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def _fresh_cache():
    clear_shared_cache()
    yield


class TestFig8:
    @pytest.fixture(scope="class")
    def points(self):
        return figure_grids.fig8_points()

    def test_one_point_per_rate(self, points):
        assert [p.qps for p in points] == [r * 1000 for r in RATES]

    def test_residency_sums_to_one(self, points):
        for p in points:
            assert sum(p.residency.values()) == pytest.approx(1.0, abs=1e-6)

    def test_utilization_grows_with_load(self, points):
        c0 = [p.residency.get("C0", 0.0) for p in points]
        assert c0 == sorted(c0)

    def test_power_savings_decline_with_load(self, points):
        # Fig 8b shape: biggest savings at low load.
        assert points[0].power_reduction > points[-1].power_reduction

    def test_savings_band(self, points):
        # Paper: up to ~38-50% at low load, ~10-15% at 400-500K.
        assert 0.30 <= points[0].power_reduction <= 0.60
        assert 0.08 <= points[-1].power_reduction <= 0.30

    def test_latency_degradation_small(self, points):
        # Paper: < 1.3% tail impact.
        for p in points:
            assert abs(p.avg_latency_degradation) < 0.06
            assert abs(p.tail_latency_degradation) < 0.08

    def test_worst_case_server_degradation_about_1pct(self, points):
        for p in points:
            assert p.worst_case_server_degradation < 0.02

    def test_e2e_degradation_negligible(self, points):
        # Network latency dominates: end-to-end impact ~0.1%.
        for p in points:
            assert p.worst_case_e2e_degradation < 0.005
            assert p.expected_e2e_degradation <= p.worst_case_e2e_degradation + 1e-9

    def test_expected_below_worst_case(self, points):
        for p in points:
            assert p.expected_server_degradation <= p.worst_case_server_degradation + 1e-9

    def test_scalability_reasonable(self, points):
        for p in points:
            assert 0.0 <= p.scalability <= 1.0

    def test_average_power_reduction_band(self, points):
        avg = fig8.average_power_reduction(points)
        assert 0.15 <= avg <= 0.50


class TestFig9:
    @pytest.fixture(scope="class")
    def sweep(self):
        return figure_grids.fig9_sweep()

    def test_all_configs_present(self, sweep):
        assert set(sweep.results) == set(fig9.TUNED_CONFIGS)

    def test_no_c1e_lowest_latency_at_low_load(self, sweep):
        # Sec 7.2: NT_No_C6_No_C1E has the lowest average latency.
        i = 0  # low load
        latencies = {
            c: sweep.results[c][i].avg_latency for c in fig9.TUNED_CONFIGS
        }
        assert latencies["NT_No_C6_No_C1E"] == min(latencies.values())

    def test_no_c1e_highest_power_at_low_load(self, sweep):
        i = 0
        powers = {c: sweep.results[c][i].avg_core_power for c in fig9.TUNED_CONFIGS}
        assert powers["NT_No_C6_No_C1E"] == max(powers.values())

    def test_disabling_c6_cuts_tail_at_low_load(self, sweep):
        base = sweep.results["NT_Baseline"][0]
        no_c6 = sweep.results["NT_No_C6"][0]
        assert no_c6.tail_latency < base.tail_latency

    def test_package_power_grows_with_load(self, sweep):
        for config in fig9.TUNED_CONFIGS:
            powers = [r.package_power for r in sweep.results[config]]
            assert powers == sorted(powers)

    def test_no_c6_has_no_c6_residency(self, sweep):
        for r in sweep.results["NT_No_C6"]:
            assert r.residency.get("C6", 0.0) == 0.0


class TestFig10:
    @pytest.fixture(scope="class")
    def points(self):
        return figure_grids.fig10_points()

    def test_aw_saves_power_against_all_configs(self, points):
        for p in points:
            for config in fig9.TUNED_CONFIGS:
                assert p.power_reduction[config] > 0.0

    def test_peak_savings_band(self, points):
        # Paper: up to ~71%.
        peak = fig10.peak_power_reduction(points)
        assert 0.55 <= peak <= 0.85

    def test_largest_savings_vs_no_c1e_config_at_low_load(self, points):
        p = points[0]
        assert (
            p.power_reduction["NT_No_C6_No_C1E"]
            >= p.power_reduction["NT_Baseline"]
        )

    def test_aw_latency_close_to_best_tuned_config(self, points):
        # Paper: < 1% degradation vs NT_No_C6_No_C1E (e2e basis).
        for p in points:
            assert p.avg_latency_reduction["NT_No_C6_No_C1E"] > -0.01

    def test_aw_beats_baseline_latency_at_low_load(self, points):
        # Paper: up to 5%/26% avg/tail reduction vs NT_Baseline.
        p = points[0]
        assert p.avg_latency_reduction["NT_Baseline"] > 0.0
        assert p.tail_latency_reduction["NT_Baseline"] > 0.0

    def test_average_reduction_ordering(self, points):
        avgs = fig10.average_power_reduction(points)
        assert avgs["NT_No_C6_No_C1E"] >= avgs["NT_Baseline"]


class TestFig11:
    @pytest.fixture(scope="class")
    def sweep(self):
        return figure_grids.fig11_sweep()

    def test_all_six_configs(self, sweep):
        assert set(sweep.results) == set(
            fig11.NO_TURBO_CONFIGS + fig11.TURBO_CONFIGS
        )

    def test_disabling_c1e_helps_no_turbo_latency(self, sweep):
        # Observation 1: NT_No_C6_No_C1E <= NT_No_C6 on avg latency.
        a = sweep.avg_latency_us("NT_No_C6_No_C1E")
        b = sweep.avg_latency_us("NT_No_C6")
        assert all(x <= y + 0.5 for x, y in zip(a, b))

    def test_c6a_sustains_turbo_longer(self, sweep):
        # The Sec 7.3 mechanism: C6A idles cheap, so turbo headroom lasts.
        c6a = sweep.turbo_grant_rates("T_C6A_No_C6_No_C1E")
        c1 = sweep.turbo_grant_rates("T_No_C6_No_C1E")
        assert all(a >= b - 1e-9 for a, b in zip(c6a, c1))
        assert c6a[-1] > c1[-1]  # strictly better at high load

    def test_c6a_turbo_best_avg_latency_at_high_load(self, sweep):
        i = len(FIG11_RATES) - 1
        c6a = sweep.avg_latency_us("T_C6A_No_C6_No_C1E")[i]
        others = [
            sweep.avg_latency_us(c)[i]
            for c in ("T_No_C6", "T_No_C6_No_C1E")
        ]
        assert c6a <= min(others) + 0.1

    def test_nt_grant_rates_zero(self, sweep):
        for config in fig11.NO_TURBO_CONFIGS:
            assert all(g == 0.0 for g in sweep.turbo_grant_rates(config))


class TestFig12MySQL:
    @pytest.fixture(scope="class")
    def points(self):
        return figure_grids.fig12_points()

    def test_baseline_c6_heavy(self, points):
        # Sec 7.4: >= 40% C6 residency at all rates.
        for p in points:
            assert p.baseline_residency.get("C6", 0.0) >= 0.4

    def test_no_c6_moves_residency_to_c1(self, points):
        for p in points:
            assert p.no_c6_residency.get("C6", 0.0) == 0.0
            assert p.no_c6_residency.get("C1", 0.0) > 0.5

    def test_disabling_c6_helps_latency_at_low_mid(self, points):
        by_label = {p.label: p for p in points}
        assert by_label["low"].avg_latency_reduction > 0.0
        assert by_label["mid"].avg_latency_reduction > 0.0

    def test_aw_power_reduction_band(self, points):
        # Paper: 22-56% across rates; ours runs somewhat higher.
        for p in points:
            assert 0.2 <= p.aw_power_reduction <= 0.85


class TestFig13Kafka:
    @pytest.fixture(scope="class")
    def points(self):
        return figure_grids.fig13_points()

    def test_low_rate_c6_heavy(self, points):
        by_label = {p.label: p for p in points}
        assert by_label["low"].baseline_residency.get("C6", 0.0) > 0.6

    def test_high_rate_no_c6(self, points):
        by_label = {p.label: p for p in points}
        assert by_label["high"].baseline_residency.get("C6", 0.0) < 0.1

    def test_high_rate_no_latency_gain_from_disabling_c6(self, points):
        by_label = {p.label: p for p in points}
        assert abs(by_label["high"].avg_latency_reduction) < 0.02

    def test_aw_saves_at_both_rates(self, points):
        for p in points:
            assert p.aw_power_reduction > 0.3


class TestTable5:
    @pytest.fixture(scope="class")
    def savings(self):
        return figure_grids.table5_savings()

    def test_savings_positive_everywhere(self, savings):
        assert all(v > 0 for v in savings.values())

    def test_band_order_of_magnitude(self, savings):
        # Paper: $0.33-0.59M; our simulator's deltas run ~2x higher but
        # must stay in the same order of magnitude.
        for value in savings.values():
            assert 0.1 <= value <= 3.0

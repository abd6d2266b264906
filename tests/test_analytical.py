"""Tests for the analytical models: Eqs. 1-4, validation, snoops, cost."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical import (
    AgileWattsPowerModel,
    CostModel,
    average_power,
    ideal_savings,
    motivation_table,
    snoop_bounds,
    validate_power_model,
    yearly_savings_musd,
)
from repro.analytical.motivation import baseline_average_power
from repro.errors import ConfigurationError


class TestEq2AveragePower:
    def test_pure_c0(self):
        assert average_power({"C0": 1.0}) == pytest.approx(4.0)

    def test_kv_store_at_20pct(self):
        # The Sec 2 key-value example: 20% C0 + 80% C1.
        assert average_power({"C0": 0.2, "C1": 0.8}) == pytest.approx(1.952)

    def test_power_override(self):
        power = average_power({"C0": 1.0}, power_overrides={"C0": 5.5})
        assert power == pytest.approx(5.5)

    def test_non_normalised_rejected(self):
        with pytest.raises(ConfigurationError):
            average_power({"C0": 0.5})

    def test_unknown_state_rejected(self):
        from repro.errors import CStateError

        with pytest.raises(CStateError):
            average_power({"C0": 0.5, "C9": 0.5})

    @given(
        c0=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_bounded_by_extreme_states(self, c0):
        residency = {"C0": c0, "C6": 1.0 - c0}
        power = average_power(residency)
        assert 0.1 - 1e-9 <= power <= 4.0 + 1e-9


class TestEq1Motivation:
    def test_search_50pct_is_23pct(self):
        savings = ideal_savings({"C0": 0.50, "C1": 0.45, "C6": 0.05})
        assert savings == pytest.approx(0.227, abs=0.005)

    def test_search_25pct_is_41pct(self):
        savings = ideal_savings({"C0": 0.25, "C1": 0.55, "C6": 0.20})
        assert savings == pytest.approx(0.407, abs=0.005)

    def test_kv_20pct_is_55pct(self):
        savings = ideal_savings({"C0": 0.20, "C1": 0.80, "C6": 0.00})
        assert savings == pytest.approx(0.549, abs=0.005)

    def test_motivation_table_rows(self):
        rows = motivation_table()
        assert len(rows) == 3
        fractions = [savings for _, _, savings in rows]
        assert fractions == sorted(fractions)  # 23% < 41% < 55%

    def test_lighter_load_saves_more(self):
        # Sec 2: "Lighter loads can have even higher power savings."
        heavy = ideal_savings({"C0": 0.6, "C1": 0.4})
        light = ideal_savings({"C0": 0.1, "C1": 0.9})
        assert light > heavy

    def test_extra_states_rejected(self):
        with pytest.raises(ConfigurationError):
            baseline_average_power({"C0": 0.5, "C1E": 0.5})


class TestEq3AWModel:
    def test_substitution_maps_c1_to_c6a(self):
        out = AgileWattsPowerModel.substitute_states({"C0": 0.2, "C1": 0.5, "C1E": 0.3})
        assert out == {"C0": 0.2, "C6A": 0.5, "C6AE": 0.3}

    def test_substitution_preserves_total(self):
        residency = {"C0": 0.3, "C1": 0.3, "C1E": 0.2, "C6": 0.2}
        out = AgileWattsPowerModel.substitute_states(residency)
        assert sum(out.values()) == pytest.approx(1.0)

    def test_aw_power_below_baseline(self):
        model = AgileWattsPowerModel()
        residency = {"C0": 0.2, "C1": 0.4, "C1E": 0.4}
        assert model.average_power(residency) < average_power(residency)

    def test_savings_fraction_for_idle_heavy_profile(self):
        model = AgileWattsPowerModel()
        residency = {"C0": 0.1, "C1": 0.45, "C1E": 0.45}
        savings = model.savings_fraction(residency)
        assert 0.3 <= savings <= 0.6

    def test_rescaling_charges_frequency_penalty(self):
        model = AgileWattsPowerModel(frequency_scalability=1.0)
        rescaled = model.rescale_residency({"C0": 0.5, "C1": 0.5})
        assert rescaled["C0"] > 0.5
        assert rescaled["C1"] < 0.5
        assert sum(rescaled.values()) == pytest.approx(1.0)

    def test_rescaling_charges_transition_overhead(self):
        model = AgileWattsPowerModel(frequency_scalability=0.0)
        rescaled = model.rescale_residency(
            {"C0": 0.5, "C1": 0.5},
            transitions_per_second={"C1": 100_000.0},  # 100k x 100 ns = 1%
        )
        assert rescaled["C0"] == pytest.approx(0.51)

    def test_rescaling_noop_for_pure_c0(self):
        model = AgileWattsPowerModel()
        assert model.rescale_residency({"C0": 1.0}) == {"C0": 1.0}

    def test_bad_scalability_rejected(self):
        with pytest.raises(ConfigurationError):
            AgileWattsPowerModel(frequency_scalability=1.5)

    @given(c1=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=50)
    def test_savings_grow_with_c1_residency(self, c1):
        model = AgileWattsPowerModel(frequency_scalability=0.0)
        base = {"C0": 1.0 - c1, "C1": c1}
        more = {"C0": 1.0 - c1 - 0.05, "C1": c1 + 0.05}
        if sum(more.values()) <= 1.0 and more["C0"] >= 0:
            assert model.savings_fraction(more) >= model.savings_fraction(base) - 1e-9


class TestValidation:
    def test_accuracies_match_paper_band(self):
        results = {r.workload: r.accuracy_percent for r in validate_power_model()}
        assert results["SPECpower"] == pytest.approx(96.1, abs=0.3)
        assert results["Nginx"] == pytest.approx(95.2, abs=0.3)
        assert results["Spark"] == pytest.approx(94.4, abs=0.3)
        assert results["Hive"] == pytest.approx(94.9, abs=0.3)

    def test_all_above_94(self):
        for result in validate_power_model():
            assert result.accuracy_percent >= 94.0

    def test_points_have_positive_powers(self):
        for result in validate_power_model():
            for _, est, meas in result.points:
                assert est > 0 and meas > 0


class TestSnoopBounds:
    def test_no_snoop_savings_79pct(self):
        assert snoop_bounds().savings_no_snoops == pytest.approx(0.79, abs=0.01)

    def test_full_snoop_savings_68pct(self):
        assert snoop_bounds().savings_full_snoops == pytest.approx(0.685, abs=0.01)

    def test_loss_about_11pp(self):
        assert snoop_bounds().savings_loss == pytest.approx(0.11, abs=0.01)

    def test_zero_duty_equals_no_snoops(self):
        b = snoop_bounds(snoop_duty_cycle=0.0)
        assert b.savings_full_snoops == pytest.approx(b.savings_no_snoops)

    def test_loss_monotone_in_duty(self):
        losses = [
            snoop_bounds(snoop_duty_cycle=d).savings_loss
            for d in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert losses == sorted(losses)

    def test_bad_duty_rejected(self):
        with pytest.raises(ConfigurationError):
            snoop_bounds(snoop_duty_cycle=1.5)


class TestCostModel:
    def test_one_watt_year(self):
        # 1 W for a year at $0.125/kWh = 8.76 kWh x 0.125 = $1.095.
        model = CostModel()
        assert model.yearly_savings_per_server(1.0) == pytest.approx(1.095)

    def test_fleet_scaling(self):
        model = CostModel(servers=100_000, cores_per_server=20)
        # 0.5 W per core x 20 cores x 100K servers x $1.095/W-year.
        expected = 0.5 * 20 * 100_000 * 1.095
        assert model.yearly_savings_fleet(0.5) == pytest.approx(expected)

    def test_pue_multiplies(self):
        base = CostModel(pue=1.0).yearly_savings_per_server(1.0)
        assert CostModel(pue=1.5).yearly_savings_per_server(1.0) == pytest.approx(
            base * 1.5
        )

    def test_yearly_savings_musd_keys(self):
        out = yearly_savings_musd({"10K": 0.3, "500K": 0.2})
        assert set(out) == {"10K", "500K"}
        assert out["10K"] > out["500K"]

    def test_paper_band_implies_sub_watt_deltas(self):
        # Paper's $0.33-0.59M/yr per 100K servers corresponds to
        # ~0.14-0.25 W per core — confirm the inverse mapping.
        model = CostModel()
        low = model.yearly_savings_fleet(0.15) / 1e6
        high = model.yearly_savings_fleet(0.27) / 1e6
        assert low == pytest.approx(0.33, abs=0.05)
        assert high == pytest.approx(0.59, abs=0.06)

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel().yearly_savings_per_server(-1.0)

    def test_bad_pue_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(pue=0.9)

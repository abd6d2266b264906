"""Tests for the PPA model (Table 3) and the assembled AW design."""

import pytest

from repro.core import AgileWattsDesign
from repro.core.cstates import C6A_EXTRA_TRANSITION, skylake_baseline_catalog
from repro.core.ppa import PPABreakdown, PPAEntry, PPAModel
from repro.errors import PowerModelError
from repro.units import MILLIWATT


class TestPPAEntries:
    def test_entry_rejects_inverted_range(self):
        with pytest.raises(PowerModelError):
            PPAEntry("X", "y", "z", c6a_power=(0.05, 0.01), c6ae_power=(0.0, 0.0))

    def test_entry_rejects_negative(self):
        with pytest.raises(PowerModelError):
            PPAEntry("X", "y", "z", c6a_power=(-0.01, 0.01), c6ae_power=(0.0, 0.0))


class TestTable3Reproduction:
    @pytest.fixture(scope="class")
    def breakdown(self) -> PPABreakdown:
        return PPAModel().build()

    def test_c6a_total_band(self, breakdown):
        # Paper: 290-315 mW.
        low, high = breakdown.total_power_range("C6A")
        assert low == pytest.approx(290 * MILLIWATT, rel=0.03)
        assert high == pytest.approx(315 * MILLIWATT, rel=0.03)

    def test_c6ae_total_band(self, breakdown):
        # Paper: 227-243 mW.
        low, high = breakdown.total_power_range("C6AE")
        assert low == pytest.approx(227 * MILLIWATT, rel=0.03)
        assert high == pytest.approx(243 * MILLIWATT, rel=0.03)

    def test_c6a_power_about_0_3w(self, breakdown):
        assert breakdown.c6a_power == pytest.approx(0.3, rel=0.05)

    def test_c6ae_power_about_0_23w(self, breakdown):
        assert breakdown.c6ae_power == pytest.approx(0.235, rel=0.05)

    def test_has_eight_component_rows(self, breakdown):
        assert len(breakdown.entries) == 8

    def test_fivr_static_loss_is_100mw(self, breakdown):
        static = [e for e in breakdown.entries if "static" in e.subcomponent][0]
        assert static.c6a_power == (0.1, 0.1)

    def test_adpll_is_7mw_in_both_states(self, breakdown):
        pll = [e for e in breakdown.entries if "ADPLL (kept locked)" in e.subcomponent][0]
        assert pll.c6a_power[0] == pytest.approx(7 * MILLIWATT)
        assert pll.c6ae_power[0] == pytest.approx(7 * MILLIWATT)

    def test_fivr_inefficiency_bands(self, breakdown):
        # Paper: 36-41 mW (C6A), 23-27 mW (C6AE).
        ineff = [e for e in breakdown.entries if "inefficiency" in e.subcomponent][0]
        assert 30 * MILLIWATT <= ineff.c6a_power[0] <= 40 * MILLIWATT
        assert ineff.c6a_power[1] <= 45 * MILLIWATT
        assert 20 * MILLIWATT <= ineff.c6ae_power[0] <= 27 * MILLIWATT

    def test_c6ae_cheaper_than_c6a_everywhere_or_equal(self, breakdown):
        for entry in breakdown.entries:
            assert entry.c6ae_power[0] <= entry.c6a_power[0] + 1e-12
            assert entry.c6ae_power[1] <= entry.c6a_power[1] + 1e-12

    def test_area_band(self, breakdown):
        low, high = breakdown.area_overhead_range
        assert 0.01 <= low <= 0.03
        assert 0.05 <= high <= 0.08

    def test_rows_rendering_includes_overall(self, breakdown):
        rows = breakdown.rows()
        assert rows[-1][0] == "Overall"
        assert len(rows) == 9

    def test_unknown_state_rejected(self, breakdown):
        with pytest.raises(PowerModelError):
            breakdown.total_power_range("C7")

    def test_idle_power_fraction_of_c0(self):
        # Paper: C6A/C6AE consume only ~7% and ~5% of C0 power.
        frac_a, frac_ae = PPAModel().idle_power_fraction_of_c0()
        assert 0.06 <= frac_a <= 0.08
        assert 0.05 <= frac_ae <= 0.065


class TestAgileWattsDesign:
    @pytest.fixture(scope="class")
    def design(self) -> AgileWattsDesign:
        return AgileWattsDesign()

    def test_all_verification_checks_pass(self, design):
        checks = design.verify()
        failed = [name for name, ok in checks.items() if not ok]
        assert failed == []

    def test_catalog_uses_derived_powers(self, design):
        catalog = design.catalog()
        assert catalog.get("C6A").power_watts == pytest.approx(design.c6a_power)
        assert catalog.get("C6AE").power_watts == pytest.approx(design.c6ae_power)

    def test_baseline_catalog_unmodified(self, design):
        # Building the AW catalog (C1 -> C6A) leaves the baseline intact.
        assert "C1" not in design.catalog()
        assert "C1" in skylake_baseline_catalog()

    def test_hardware_round_trip_under_100ns(self, design):
        assert design.hardware_round_trip < 100e-9

    def test_frequency_penalty_1pct(self, design):
        assert design.frequency_penalty == pytest.approx(0.01)

    def test_transition_overhead_100ns(self):
        assert C6A_EXTRA_TRANSITION == pytest.approx(100e-9)

    def test_summary_lines_mention_key_numbers(self, design):
        text = "\n".join(design.summary_lines())
        assert "C6A idle power" in text
        assert "round trip" in text

    def test_broken_design_fails_verification(self):
        from repro.core.ufpg import UFPGConfig

        # Leaky gates (30-50% residual): the power-band checks must fail.
        bad = AgileWattsDesign(
            ufpg_config=UFPGConfig(residual_low=0.3, residual_high=0.5)
        )
        checks = bad.verify()
        assert not all(checks.values())

    def test_breakdown_cached(self, design):
        assert design.breakdown is design.breakdown

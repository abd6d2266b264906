"""Tests for C-state definitions and catalogs (Tables 1 and 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cstates import (
    C0_P1_POWER,
    C1E_POWER,
    C1_POWER,
    C6_POWER,
    C6A_POWER,
    C6AE_POWER,
    CState,
    CStateCatalog,
    FrequencyPoint,
    agilewatts_catalog,
    make_c1,
    make_c1e,
    make_c6,
    make_c6a,
    make_c6ae,
    skylake_baseline_catalog,
)
from repro.errors import CStateError
from repro.units import US


class TestTable1Values:
    """The canonical Table 1 numbers."""

    def test_c0_p1_power(self):
        assert C0_P1_POWER == pytest.approx(4.0)

    def test_c1_power(self):
        assert C1_POWER == pytest.approx(1.44)

    def test_c1e_power(self):
        assert C1E_POWER == pytest.approx(0.88)

    def test_c6_power(self):
        assert C6_POWER == pytest.approx(0.1)

    def test_c1_transition_2us(self):
        assert make_c1().transition_time == pytest.approx(2 * US)

    def test_c1e_transition_10us(self):
        assert make_c1e().transition_time == pytest.approx(10 * US)

    def test_c6_transition_133us(self):
        assert make_c6().transition_time == pytest.approx(133 * US)

    def test_c6_target_residency_600us(self):
        assert make_c6().target_residency == pytest.approx(600 * US)

    def test_c6a_matches_c1_software_latency(self):
        # C6A transition ~= C1 transition + ~100 ns of hardware.
        extra = make_c6a().transition_time - make_c1().transition_time
        assert extra == pytest.approx(100e-9, rel=0.01)

    def test_c6ae_matches_c1e_software_latency(self):
        extra = make_c6ae().transition_time - make_c1e().transition_time
        assert extra == pytest.approx(100e-9, rel=0.01)

    def test_power_ordering(self):
        # Deeper (or AW-replaced) states consume strictly less.
        assert C0_P1_POWER > C1_POWER > C1E_POWER > C6A_POWER > C6AE_POWER > C6_POWER


class TestComponentStates:
    def test_c6a_keeps_pll_on(self):
        assert make_c6a().components.adpll == "on"

    def test_c6_turns_pll_off(self):
        assert make_c6().components.adpll == "off"

    def test_c6a_keeps_caches_coherent(self):
        assert make_c6a().components.l1l2 == "coherent"

    def test_c6_flushes_caches(self):
        assert make_c6().components.l1l2 == "flushed"

    def test_c6a_in_place_context(self):
        assert make_c6a().components.context == "in-place-sr"

    def test_c6_external_context(self):
        assert make_c6().components.context == "sr-sram"

    def test_only_c0_runs_clocks(self):
        assert make_c1().components.clocks == "stopped"
        assert make_c6ae().components.clocks == "stopped"


class TestCStateValidation:
    def test_negative_power_rejected(self):
        with pytest.raises(CStateError):
            CState("X", -1.0, 0.0, 0.0, 0.0, None, 1)

    def test_negative_latency_rejected(self):
        with pytest.raises(CStateError):
            CState("X", 1.0, -1e-6, 0.0, 0.0, None, 1)


class TestBaselineCatalog:
    def test_has_expected_states(self):
        cat = skylake_baseline_catalog()
        for name in ("C0", "C1", "C1E", "C6"):
            assert name in cat

    def test_idle_states_sorted_by_depth(self):
        cat = skylake_baseline_catalog()
        names = [s.name for s in cat.idle_states]
        assert names == ["C1", "C1E", "C6"]

    def test_get_unknown_rejected(self):
        with pytest.raises(CStateError):
            skylake_baseline_catalog().get("C8")

    def test_shallowest_deepest(self):
        cat = skylake_baseline_catalog()
        assert cat.shallowest().name == "C1"
        assert cat.enabled_idle_states[-1].name == "C6"

    def test_table1_rows_shape(self):
        rows = skylake_baseline_catalog().table1_rows()
        assert len(rows) == 4
        assert rows[0][0].startswith("C0")


class TestAgileWattsCatalog:
    def test_replaces_c1_c1e(self):
        cat = agilewatts_catalog()
        assert "C6A" in cat
        assert "C6AE" in cat
        assert "C1" not in cat
        assert "C1E" not in cat

    def test_keeps_c6_by_default(self):
        assert "C6" in agilewatts_catalog()

    def test_can_drop_c6(self):
        assert "C6" not in agilewatts_catalog(keep_c6=False)

    def test_custom_powers(self):
        cat = agilewatts_catalog(c6a_power=0.31, c6ae_power=0.24)
        assert cat.get("C6A").power_watts == 0.31
        assert cat.get("C6AE").power_watts == 0.24

    def test_c6a_has_snoop_wake_overhead(self):
        assert agilewatts_catalog().get("C6A").snoop_wake_overhead > 0


class TestDisabling:
    def test_disable_removes_from_enabled(self):
        cat = skylake_baseline_catalog().disable("C6")
        assert "C6" not in [s.name for s in cat.enabled_idle_states]
        assert "C6" in cat  # still defined

    def test_enable_restores(self):
        cat = skylake_baseline_catalog().disable("C6")
        cat.enable("C6")
        assert cat.is_enabled("C6")

    def test_cannot_disable_everything(self):
        cat = skylake_baseline_catalog()
        with pytest.raises(CStateError):
            cat.disable("C1", "C1E", "C6")

    def test_disable_unknown_rejected(self):
        with pytest.raises(CStateError):
            skylake_baseline_catalog().disable("C9")

    def test_deepest_respects_disable(self):
        cat = skylake_baseline_catalog().disable("C6")
        assert cat.enabled_idle_states[-1].name == "C1E"


class TestGovernorSelect:
    def test_short_idle_picks_c1(self):
        cat = skylake_baseline_catalog()
        assert cat.select(predicted_idle=3 * US).name == "C1"

    def test_medium_idle_picks_c1e(self):
        cat = skylake_baseline_catalog()
        assert cat.select(predicted_idle=50 * US).name == "C1E"

    def test_long_idle_picks_c6(self):
        cat = skylake_baseline_catalog()
        assert cat.select(predicted_idle=1e-3).name == "C6"

    def test_tiny_idle_falls_back_to_shallowest(self):
        cat = skylake_baseline_catalog()
        assert cat.select(predicted_idle=0.0).name == "C1"

    def test_latency_limit_filters_deep_states(self):
        cat = skylake_baseline_catalog()
        chosen = cat.select(predicted_idle=1e-3, latency_limit=10 * US)
        assert chosen.name == "C1E"  # C6's 46 us exit exceeds the limit

    def test_select_respects_disable(self):
        cat = skylake_baseline_catalog().disable("C6")
        assert cat.select(predicted_idle=1.0).name == "C1E"

    def test_negative_prediction_rejected(self):
        with pytest.raises(CStateError):
            skylake_baseline_catalog().select(-1.0)

    @given(idle=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_selected_target_residency_fits_prediction(self, idle):
        cat = skylake_baseline_catalog()
        chosen = cat.select(idle)
        if chosen.name != cat.shallowest().name:
            assert chosen.target_residency <= idle

    @given(idle=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_deeper_prediction_never_picks_shallower(self, idle):
        cat = skylake_baseline_catalog()
        a = cat.select(idle)
        b = cat.select(idle * 2)
        assert b.depth >= a.depth


class TestCatalogConstruction:
    def test_active_must_be_c0(self):
        with pytest.raises(CStateError):
            CStateCatalog(active=make_c1(), idle_states=[make_c6()])

    def test_needs_idle_states(self):
        from repro.core.cstates import _c0

        with pytest.raises(CStateError):
            CStateCatalog(active=_c0(FrequencyPoint.P1, 4.0), idle_states=[])

    def test_duplicate_idle_states_rejected(self):
        from repro.core.cstates import _c0

        with pytest.raises(CStateError):
            CStateCatalog(
                active=_c0(FrequencyPoint.P1, 4.0),
                idle_states=[make_c1(), make_c1()],
            )


class TestFrequencyPoints:
    def test_p1_is_2_2ghz(self):
        assert FrequencyPoint.P1.frequency_hz == pytest.approx(2.2e9)

    def test_pn_is_800mhz(self):
        assert FrequencyPoint.PN.frequency_hz == pytest.approx(0.8e9)

    def test_turbo_is_3ghz(self):
        assert FrequencyPoint.TURBO.frequency_hz == pytest.approx(3.0e9)

    def test_active_power_ordering(self):
        assert (
            FrequencyPoint.PN.active_power_watts
            < FrequencyPoint.P1.active_power_watts
            < FrequencyPoint.TURBO.active_power_watts
        )

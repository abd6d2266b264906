"""Tests for the power substrate: leakage, PDN, clock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PowerModelError
from repro.power import ADPLL, FIVR, LDO, MBVR, ClockDistribution
from repro.power.leakage import (
    LeakageModel,
    node_scaling_factor,
    scale_leakage_power,
    sleep_transistor_efficiency,
)
from repro.units import MILLIWATT


class TestLeakageScaling:
    def test_22_to_14_is_about_0_7(self):
        # The paper's Table 3 gamma footnote: alpha ~ 0.7x.
        assert node_scaling_factor(22, 14) == pytest.approx(0.7, abs=0.02)

    def test_same_node_is_identity(self):
        assert node_scaling_factor(14, 14) == 1.0

    def test_unknown_node_rejected(self):
        with pytest.raises(PowerModelError):
            node_scaling_factor(22, 3)

    def test_scale_leakage_power(self):
        scaled = scale_leakage_power(0.1, 22, 14)
        assert scaled == pytest.approx(0.07, abs=0.005)

    def test_beta_discount(self):
        full = scale_leakage_power(0.1, 22, 14, voltage_scaling=1.0)
        reduced = scale_leakage_power(0.1, 22, 14, voltage_scaling=0.7)
        assert reduced == pytest.approx(full * 0.7)

    def test_negative_power_rejected(self):
        with pytest.raises(PowerModelError):
            scale_leakage_power(-1.0, 22, 14)

    def test_bad_beta_rejected(self):
        with pytest.raises(PowerModelError):
            scale_leakage_power(1.0, 22, 14, voltage_scaling=1.5)


class TestSleepTransistor:
    def test_efficiency_is_vout_over_vin(self):
        assert sleep_transistor_efficiency(1.0, 0.55) == pytest.approx(0.55)

    def test_equal_voltages_perfect(self):
        assert sleep_transistor_efficiency(0.8, 0.8) == 1.0

    def test_vout_above_vin_rejected(self):
        with pytest.raises(PowerModelError):
            sleep_transistor_efficiency(0.5, 0.8)

    def test_non_positive_rejected(self):
        with pytest.raises(PowerModelError):
            sleep_transistor_efficiency(0.0, 0.0)


class TestLeakageModel:
    def test_gated_residual_band(self):
        # 70% of core leakage gated at 96% effectiveness leaves ~2.8% of
        # the gated part plus the full ungated 30%.
        m = LeakageModel(full_leakage_watts=1.44, gate_effectiveness=0.96)
        residual = m.gated_residual(gated_fraction=0.7)
        expected = 1.44 * 0.7 * 0.04 + 1.44 * 0.3
        assert residual == pytest.approx(expected)

    def test_residual_of_gated_region_only(self):
        m = LeakageModel(1.0, gate_effectiveness=0.95)
        assert m.residual_of_gated_region(0.7) == pytest.approx(0.7 * 0.05)

    def test_full_gating_zero_effectiveness(self):
        m = LeakageModel(1.0, gate_effectiveness=0.0)
        assert m.gated_residual(1.0) == pytest.approx(1.0)

    def test_voltage_scaling_quadratic(self):
        m = LeakageModel(1.0)
        assert m.at_voltage(1.0, 0.5).full_leakage_watts == pytest.approx(0.25)

    def test_bad_fraction_rejected(self):
        with pytest.raises(PowerModelError):
            LeakageModel(1.0).gated_residual(1.5)

    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_residual_never_exceeds_full(self, frac):
        m = LeakageModel(2.0, gate_effectiveness=0.96)
        assert 0.0 <= m.gated_residual(frac) <= 2.0


class TestVoltageRegulators:
    def test_fivr_conversion_loss_at_80pct(self):
        # Delivering P at 80% efficiency burns 0.25 P.
        fivr = FIVR()
        assert fivr.conversion_loss(0.16) == pytest.approx(0.04)

    def test_fivr_static_loss_default_100mw(self):
        assert FIVR().static_loss_watts == pytest.approx(100 * MILLIWATT)

    def test_fivr_input_power(self):
        fivr = FIVR()
        assert fivr.input_power(0.8) == pytest.approx(0.8 + 0.2 + 0.1)

    def test_fivr_static_loss_applies_at_zero_load(self):
        assert FIVR().input_power(0.0) == pytest.approx(0.1)

    def test_mbvr_more_efficient_no_static(self):
        mbvr = MBVR()
        assert mbvr.efficiency > FIVR().efficiency
        assert mbvr.static_loss_watts == 0.0

    def test_ldo_efficiency_is_voltage_ratio(self):
        ldo = LDO(v_in=1.0, v_out=0.78)
        assert ldo.efficiency == pytest.approx(0.78)

    def test_ldo_vout_above_vin_rejected(self):
        with pytest.raises(PowerModelError):
            LDO(v_in=0.5, v_out=1.0)

    def test_negative_delivery_rejected(self):
        with pytest.raises(PowerModelError):
            FIVR().conversion_loss(-1.0)

    def test_bad_efficiency_rejected(self):
        from repro.power.pdn import VoltageRegulator

        with pytest.raises(PowerModelError):
            VoltageRegulator("x", efficiency=0.0)
        with pytest.raises(PowerModelError):
            VoltageRegulator("x", efficiency=1.1)


class TestADPLL:
    def test_locked_power_is_7mw(self):
        assert ADPLL().idle_power == pytest.approx(7 * MILLIWATT)

    def test_power_on_when_locked_is_free(self):
        # AW's third idea: keeping the PLL locked makes wake cost zero.
        assert ADPLL().power_on() == 0.0

    def test_power_off_then_on_pays_relock(self):
        pll = ADPLL()
        pll.power_off()
        assert pll.idle_power == 0.0
        assert pll.power_on() == pytest.approx(pll.relock_time)
        assert pll.locked

    def test_negative_power_rejected(self):
        with pytest.raises(PowerModelError):
            ADPLL(power_watts=-1.0)


class TestClockDistribution:
    def test_gate_ungate_cycle_costs(self):
        cdn = ClockDistribution()
        assert cdn.gate("ufpg") == 2
        assert cdn.is_gated("ufpg")
        assert cdn.ungate("ufpg") == 2
        assert not cdn.is_gated("ufpg")

    def test_idempotent_gating_free(self):
        cdn = ClockDistribution()
        cdn.gate("ufpg")
        assert cdn.gate("ufpg") == 0

    def test_all_gated(self):
        cdn = ClockDistribution()
        cdn.gate("ufpg")
        cdn.gate("caches")
        assert cdn.all_gated
        cdn.ungate("caches")
        assert not cdn.all_gated
        assert not cdn.all_running

    def test_unknown_domain_rejected(self):
        with pytest.raises(PowerModelError):
            ClockDistribution().gate("gpu")

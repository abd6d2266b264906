"""Tests for the power substrate: leakage scaling, PDN, clock."""

import pytest

from repro.errors import PowerModelError
from repro.power import ADPLL, FIVR
from repro.power.leakage import (
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


class TestVoltageRegulators:
    def test_fivr_conversion_loss_at_80pct(self):
        # Delivering P at 80% efficiency burns 0.25 P.
        fivr = FIVR()
        assert fivr.conversion_loss(0.16) == pytest.approx(0.04)

    def test_fivr_static_loss_default_100mw(self):
        assert FIVR().static_loss_watts == pytest.approx(100 * MILLIWATT)

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

    def test_negative_power_rejected(self):
        with pytest.raises(PowerModelError):
            ADPLL(power_watts=-1.0)

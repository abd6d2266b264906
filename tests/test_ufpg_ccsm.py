"""Tests for the UFPG and CCSM subsystems (Sec 4.1, 4.2, 5.1)."""

import pytest

from repro.core.ccsm import CCSM, CCSMConfig, V_RETENTION
from repro.core.ufpg import UFPG, UFPGConfig, V_P1, V_PN
from repro.errors import PowerModelError
from repro.units import MILLIWATT, NS


class TestUFPGPower:
    def test_residual_band_at_p1_matches_table3(self):
        # Table 3 alpha: ~30-50 mW at P1.
        low, high = UFPG().residual_power_range("P1")
        assert low == pytest.approx(30 * MILLIWATT, rel=0.05)
        assert high == pytest.approx(50 * MILLIWATT, rel=0.05)

    def test_residual_band_at_pn_matches_table3(self):
        # Table 3 alpha: ~18-30 mW at Pn.
        low, high = UFPG().residual_power_range("Pn")
        assert 15 * MILLIWATT <= low <= 20 * MILLIWATT
        assert 28 * MILLIWATT <= high <= 32 * MILLIWATT

    def test_retention_power_2mw_1mw(self):
        ufpg = UFPG()
        assert ufpg.retention_power("P1") == pytest.approx(2 * MILLIWATT)
        assert ufpg.retention_power("Pn") == pytest.approx(1 * MILLIWATT)

    def test_idle_power_is_residual_plus_retention(self):
        ufpg = UFPG()
        assert ufpg.idle_power("P1") == pytest.approx(
            ufpg.residual_power("P1") + ufpg.retention_power("P1")
        )

    def test_pn_cheaper_than_p1(self):
        ufpg = UFPG()
        assert ufpg.idle_power("Pn") < ufpg.idle_power("P1")

    def test_unknown_rail_rejected(self):
        with pytest.raises(PowerModelError):
            UFPG().residual_power_range("P0")


class TestUFPGLatencyArea:
    def test_wake_under_70ns(self):
        assert UFPG().wake_latency < 70 * NS

    def test_save_cycles_3_to_4(self):
        assert 3 <= UFPG().save_cycles <= 4

    def test_restore_one_cycle(self):
        assert UFPG().restore_cycles == 1

    def test_area_overhead_band(self):
        low, high = UFPG().area_overhead_range()
        # 2-6% of the ~70% gated region: 1.4% - 4.2% (+<1% retention).
        assert 0.01 <= low <= 0.02
        assert 0.04 <= high <= 0.06

    def test_frequency_penalty_1pct(self):
        assert UFPG().frequency_penalty == pytest.approx(0.01)

    def test_in_rush_safe(self):
        assert UFPG().in_rush_safe


class TestUFPGConfigValidation:
    def test_residual_order_enforced(self):
        with pytest.raises(PowerModelError):
            UFPGConfig(residual_low=0.05, residual_high=0.03)

    def test_gated_fraction_bounds(self):
        with pytest.raises(PowerModelError):
            UFPGConfig(gated_area_fraction=1.5)

    def test_large_frequency_penalty_rejected(self):
        with pytest.raises(PowerModelError):
            UFPGConfig(frequency_penalty=0.2)

    def test_custom_leakage_scales_residual(self):
        small = UFPG(UFPGConfig(core_leakage_watts=0.72))
        big = UFPG(UFPGConfig(core_leakage_watts=1.44))
        assert small.residual_power("P1") == pytest.approx(
            big.residual_power("P1") / 2
        )


class TestCCSMPower:
    def test_data_array_sleep_power_p1_near_55mw(self):
        # Table 3 gamma: ~55 mW for the L1/L2 arrays at P1.
        power = CCSM().data_array_sleep_power("P1")
        assert power == pytest.approx(55 * MILLIWATT, rel=0.05)

    def test_data_array_sleep_power_pn_near_40mw(self):
        # Sleep transistor efficiency rises at Vmin: ~40 mW at Pn.
        power = CCSM().data_array_sleep_power("Pn")
        assert power == pytest.approx(40 * MILLIWATT, rel=0.10)

    def test_rest_power_p1_55mw(self):
        assert CCSM().ungated_rest_power("P1") == pytest.approx(55 * MILLIWATT)

    def test_rest_power_pn_near_33mw(self):
        assert CCSM().ungated_rest_power("Pn") == pytest.approx(33 * MILLIWATT, rel=0.05)

    def test_idle_power_sums_components(self):
        c = CCSM()
        assert c.idle_power("P1") == pytest.approx(
            c.data_array_sleep_power("P1") + c.ungated_rest_power("P1")
        )

    def test_snoop_service_delta_170mw(self):
        # Sec 7.5: clock ungate (~50 mW) + sleep exit (~120 mW).
        config = CCSM().config
        delta = config.clock_ungate_power + config.sleep_exit_extra_power
        assert delta == pytest.approx(170 * MILLIWATT)

    def test_unknown_rail_rejected(self):
        with pytest.raises(PowerModelError):
            CCSM().data_array_sleep_power("Vmax")


class TestCCSMLatencyAreaPerf:
    def test_sleep_enter_1_to_3_cycles(self):
        assert 1 <= CCSM().sleep_enter_cycles <= 3

    def test_sleep_exit_2_cycles(self):
        assert CCSM().sleep_exit_cycles == 2

    def test_area_overhead_band(self):
        low, high = CCSM().area_overhead_range()
        # 2-6% of the arrays (~27% of core): 0.5% - 1.6%.
        assert 0.004 <= low <= 0.01
        assert 0.015 <= high <= 0.025


class TestCCSMConfigValidation:
    def test_rejects_zero_capacity(self):
        with pytest.raises(PowerModelError):
            CCSMConfig(l1_capacity_bytes=0)

    def test_rejects_bad_data_fraction(self):
        with pytest.raises(PowerModelError):
            CCSMConfig(data_array_fraction=0.2)

    def test_rejects_negative_snoop_power(self):
        with pytest.raises(PowerModelError):
            CCSMConfig(clock_ungate_power=-1.0)

    def test_capacity_scales_sleep_power(self):
        small = CCSM(CCSMConfig(l2_capacity_bytes=512 * 1024))
        assert small.data_array_sleep_power("P1") < CCSM().data_array_sleep_power("P1")

    def test_retention_voltage_constant_sane(self):
        assert 0.3 < V_RETENTION < V_PN < V_P1 <= 1.0

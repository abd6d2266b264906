"""Tests for coherence, turbo and package models."""

import pytest

from repro.core.cstates import FrequencyPoint, skylake_baseline_catalog
from repro.errors import ConfigurationError, SimulationError
from repro.uarch import (
    Core,
    Package,
    PackageConfig,
    SnoopModel,
    SnoopTrafficGenerator,
    TurboBudget,
    TurboConfig,
)


class TestSnoopModel:
    def test_c1_delta_50mw(self):
        assert SnoopModel().power_delta_for("C1") == pytest.approx(0.05)

    def test_c6a_delta_170mw(self):
        assert SnoopModel().power_delta_for("C6A") == pytest.approx(0.17)

    def test_c6_sees_no_snoops(self):
        m = SnoopModel()
        assert not m.sees_snoops("C6")
        assert m.power_delta_for("C6") == 0.0

    def test_coherent_states_see_snoops(self):
        m = SnoopModel()
        for name in ("C1", "C1E", "C6A", "C6AE"):
            assert m.sees_snoops(name)

    def test_from_ccsm_derives_deltas(self):
        from repro.core.ccsm import CCSM

        # The simulator's default premia are what the CCSM components add.
        config = CCSM().config
        m = SnoopModel()
        assert m.c1_power_delta == pytest.approx(config.clock_ungate_power)
        assert m.c6a_power_delta == pytest.approx(
            config.clock_ungate_power + config.sleep_exit_extra_power
        )

    def test_negative_service_time_rejected(self):
        with pytest.raises(ConfigurationError):
            SnoopModel(service_time=-1.0)


class TestSnoopTrafficGenerator:
    def test_zero_rate_generates_nothing(self):
        gen = SnoopTrafficGenerator(0.0)
        assert gen.next_arrival_delay() is None

    def test_positive_rate_generates_delays(self):
        gen = SnoopTrafficGenerator(1000.0, seed=1)
        delays = [gen.next_arrival_delay() for _ in range(100)]
        assert all(d > 0 for d in delays)
        mean = sum(delays) / len(delays)
        assert mean == pytest.approx(1e-3, rel=0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            SnoopTrafficGenerator(-1.0)


def level_fraction(budget):
    """Turbo headroom as a fraction of the tank."""
    return budget._level / budget.config.tank_joules


class TestTurboBudget:
    def test_starts_full(self):
        assert level_fraction(TurboBudget()) == 1.0

    def test_grants_when_full(self):
        budget = TurboBudget()
        freq = budget.frequency_for_burst(0.0, package_power=40.0)
        assert freq is FrequencyPoint.TURBO
        assert budget._grants == 1

    def test_disabled_never_grants(self):
        budget = TurboBudget(enabled=False)
        assert budget.frequency_for_burst(0.0, 10.0) is FrequencyPoint.P1

    def test_drains_above_sustained_power(self):
        config = TurboConfig(sustained_watts=50.0, tank_joules=1.0)
        budget = TurboBudget(config)
        budget.update(0.0, package_power=60.0)  # record high power
        budget.update(0.2, package_power=60.0)  # drain 10 W x 0.2 s = 2 J
        assert level_fraction(budget) == 0.0

    def test_denies_when_empty(self):
        config = TurboConfig(sustained_watts=50.0, tank_joules=1.0)
        budget = TurboBudget(config)
        budget.update(0.0, 70.0)
        budget.update(1.0, 70.0)
        assert budget.frequency_for_burst(1.0, 70.0) is FrequencyPoint.P1
        assert budget._denials == 1

    def test_refills_below_sustained_power(self):
        config = TurboConfig(sustained_watts=50.0, tank_joules=1.0)
        budget = TurboBudget(config)
        budget.update(0.0, 70.0)
        budget.update(1.0, 30.0)  # drained empty, now filling
        budget.update(2.0, 30.0)  # +20 J, clamped to tank
        assert level_fraction(budget) == 1.0

    def test_lower_idle_power_refills_faster(self):
        # The Sec 7.3 mechanism: C6A idle power refills headroom faster
        # than C1 idle power.
        config = TurboConfig(sustained_watts=50.0, tank_joules=100.0)
        c1_idle = TurboBudget(config)
        c6a_idle = TurboBudget(config)
        for b, idle_power in ((c1_idle, 48.0), (c6a_idle, 40.0)):
            b.update(0.0, 70.0)
            b.update(2.0, idle_power)  # drain empty
            b.update(4.0, idle_power)  # refill at (50 - idle_power)
        assert level_fraction(c6a_idle) > level_fraction(c1_idle)

    def test_time_backwards_rejected(self):
        budget = TurboBudget()
        budget.update(1.0, 10.0)
        with pytest.raises(SimulationError):
            budget.update(0.5, 10.0)

    def test_grant_rate(self):
        budget = TurboBudget()
        budget.frequency_for_burst(0.0, 10.0)
        assert budget.grant_rate == 1.0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            TurboConfig(sustained_watts=0.0)
        with pytest.raises(ConfigurationError):
            TurboConfig(grant_threshold=2.0)


class TestPackage:
    def _cores(self, n=10):
        catalog = skylake_baseline_catalog()
        return [Core(i, catalog) for i in range(n)]

    def test_package_power_includes_uncore(self):
        pkg = Package(self._cores(), PackageConfig(cores=10, uncore_watts=38.0))
        assert pkg.package_power == pytest.approx(10 * 4.0 + 38.0)

    def test_core_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            Package(self._cores(5), PackageConfig(cores=10))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Package([], PackageConfig(cores=1))

    def test_average_package_power(self):
        # Integrated core energy over the span plus the uncore.
        pkg = Package(self._cores(2), PackageConfig(cores=2, uncore_watts=10.0))
        _, _, energy_joules = pkg.telemetry_power(2.0)
        avg = energy_joules / 2.0 + pkg.config.uncore_watts
        assert avg == pytest.approx(2 * 4.0 + 10.0)

    def test_core_power_sums_cores(self):
        pkg = Package(self._cores(3), PackageConfig(cores=3))
        assert pkg.core_power == pytest.approx(12.0)

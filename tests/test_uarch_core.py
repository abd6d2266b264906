"""Tests for the CPU core model: residency, transitions, energy."""

import pytest

from repro.core.cstates import FrequencyPoint, skylake_baseline_catalog
from repro.errors import SimulationError
from repro.uarch import Core


@pytest.fixture
def catalog():
    return skylake_baseline_catalog()


@pytest.fixture
def core(catalog):
    return Core(0, catalog)


class TestLifecycle:
    def test_starts_active_at_p1(self, core):
        assert core.is_active
        assert core.frequency is FrequencyPoint.P1
        assert core.current_power == pytest.approx(4.0)

    def test_enter_idle_changes_power(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1"))
        assert not core.is_active
        assert core.current_power == pytest.approx(1.44)

    def test_enter_c1e_moves_to_pn(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1E"))
        assert core.frequency is FrequencyPoint.PN

    def test_wake_returns_exit_latency(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C6"))
        exit_latency = core.wake(2.0)
        assert exit_latency == pytest.approx(catalog.get("C6").exit_latency)
        assert core.is_active

    def test_wake_from_c1e_restores_p1(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1E"))
        core.wake(2.0)
        assert core.frequency is FrequencyPoint.P1

    def test_wake_with_turbo_grant(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1"))
        core.wake(2.0, frequency=FrequencyPoint.TURBO)
        assert core.frequency is FrequencyPoint.TURBO
        assert core.current_power > 4.0

    def test_double_idle_rejected(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1"))
        with pytest.raises(SimulationError):
            core.enter_idle(2.0, catalog.get("C6"))

    def test_wake_while_active_rejected(self, core):
        with pytest.raises(SimulationError):
            core.wake(1.0)

    def test_entering_active_state_rejected(self, core, catalog):
        with pytest.raises(SimulationError):
            core.enter_idle(1.0, catalog.active)

    def test_time_backwards_rejected(self, core, catalog):
        core.enter_idle(5.0, catalog.get("C1"))
        with pytest.raises(SimulationError):
            core.wake(4.0)


class TestResidencyAccounting:
    def test_residency_sums_to_wall_time(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1"))
        core.wake(3.0)
        core.enter_idle(4.0, catalog.get("C6"))
        stats = core.snapshot(10.0)
        assert sum(stats.residency_seconds.values()) == pytest.approx(10.0)
        assert stats.wall_seconds == pytest.approx(10.0)

    def test_residency_fractions(self, core, catalog):
        core.enter_idle(2.0, catalog.get("C1"))  # 2 s in C0
        core.wake(10.0)  # 8 s in C1
        stats = core.snapshot(10.0)
        wall = stats.wall_seconds
        assert stats.residency_seconds["C0"] / wall == pytest.approx(0.2)
        assert stats.residency_seconds["C1"] / wall == pytest.approx(0.8)

    def test_residency_table_sums_to_one(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1E"))
        stats = core.snapshot(4.0)
        fractions = [
            seconds / stats.wall_seconds
            for seconds in stats.residency_seconds.values()
        ]
        assert sum(fractions) == pytest.approx(1.0)

    def test_transition_counts(self, core, catalog):
        for i in range(3):
            core.enter_idle(2.0 * i + 1.0, catalog.get("C1"))
            core.wake(2.0 * i + 2.0)
        stats = core.snapshot(10.0)
        assert stats.transitions["C1"] == 3
        assert stats.transitions["C0"] == 3

    def test_unknown_state_fraction_zero(self, core):
        stats = core.snapshot(1.0)
        assert stats.residency_seconds.get("C6", 0.0) == 0.0


class TestEnergyAccounting:
    def test_pure_active_energy(self, core):
        stats = core.snapshot(2.0)
        assert stats.energy_joules == pytest.approx(8.0)  # 2 s x 4 W
        assert stats.average_power == pytest.approx(4.0)

    def test_mixed_residency_energy_matches_eq2(self, core, catalog):
        # 20% C0 at 4 W + 80% C1 at 1.44 W = 1.952 W average (Eq. 2).
        core.enter_idle(2.0, catalog.get("C1"))
        stats = core.snapshot(10.0)
        assert stats.average_power == pytest.approx(0.2 * 4.0 + 0.8 * 1.44)

    def test_snoop_service_power(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1"))
        core.begin_snoop_service(2.0, power_delta=0.05)
        assert core.current_power == pytest.approx(1.49)
        core.end_snoop_service(3.0)
        assert core.current_power == pytest.approx(1.44)
        stats = core.snapshot(4.0)
        expected = 4.0 * 1.0 + 1.44 * 1.0 + 1.49 * 1.0 + 1.44 * 1.0
        assert stats.energy_joules == pytest.approx(expected)

    def test_snoop_while_active_rejected(self, core):
        with pytest.raises(SimulationError):
            core.begin_snoop_service(1.0, 0.05)

    def test_wake_clears_snoop_delta(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1"))
        core.begin_snoop_service(2.0, power_delta=0.05)
        core.wake(3.0)
        assert core.current_power == pytest.approx(4.0)

    def test_dvfs_while_active(self, core):
        core.set_frequency(1.0, FrequencyPoint.TURBO)
        stats = core.snapshot(2.0)
        assert stats.energy_joules == pytest.approx(4.0 + 5.5)

    def test_dvfs_while_idle_rejected(self, core, catalog):
        core.enter_idle(1.0, catalog.get("C1"))
        with pytest.raises(SimulationError):
            core.set_frequency(2.0, FrequencyPoint.TURBO)

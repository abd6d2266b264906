"""Tests for power gates and staggered wake-up (Fig 2, Sec 5.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PowerModelError
from repro.power import PowerGate, StaggeredWakeupController, ZonedPowerGating
from repro.power.powergate import (
    AVX_STAGGER_TIME,
    UFPG_TO_AVX_AREA_RATIO,
    make_ufpg_zones,
)
from repro.units import NS


class TestPowerGate:
    def test_in_rush_safe_when_small(self):
        assert PowerGate("z", relative_area=0.9).in_rush_safe()

    def test_in_rush_unsafe_when_large(self):
        assert not PowerGate("z", relative_area=4.5).in_rush_safe()

    def test_invalid_area_rejected(self):
        with pytest.raises(PowerModelError):
            PowerGate("z", relative_area=0.0)


class TestStaggeredWakeup:
    def _controller(self, n=3, stagger=10 * NS):
        gates = [
            PowerGate(f"g{i}", relative_area=0.5, stagger_time=stagger)
            for i in range(n)
        ]
        return StaggeredWakeupController(gates, gated=True)

    def test_wake_latency_is_sum_of_windows(self):
        c = self._controller(n=4, stagger=10 * NS)
        assert c.wake_latency == pytest.approx(40 * NS)

    def test_wake_transitions_state(self):
        c = self._controller()
        latency = c.wake()
        assert latency > 0
        assert not c.gated

    def test_wake_idempotent(self):
        c = self._controller()
        c.wake()
        assert c.wake() == 0.0

    def test_sleep_is_single_window(self):
        c = self._controller(n=5, stagger=10 * NS)
        c.wake()
        assert c.sleep() == pytest.approx(10 * NS)
        assert c.gated

    def test_sleep_idempotent(self):
        c = self._controller()
        assert c.sleep() == 0.0  # already gated

    def test_empty_rejected(self):
        with pytest.raises(PowerModelError):
            StaggeredWakeupController([])

    def test_max_in_rush_area(self):
        c = self._controller()
        assert c.max_in_rush_area() == pytest.approx(0.5)


class TestUFPGZones:
    def test_five_zones_cover_total_area(self):
        zones = make_ufpg_zones()
        assert len(zones) == 5
        total = sum(z.relative_area for z in zones)
        assert total == pytest.approx(UFPG_TO_AVX_AREA_RATIO)

    def test_each_zone_within_in_rush_budget(self):
        # Sec 5.3: each of the 5 zones (0.9 AVX-equivalents) is smaller
        # than the proven AVX gate region.
        for zone in make_ufpg_zones():
            assert zone.in_rush_safe()

    def test_total_wake_under_70ns(self):
        # 4.5 x 15 ns = 67.5 ns (Sec 5.3).
        zones = make_ufpg_zones()
        total = sum(z.stagger_time for z in zones)
        assert total == pytest.approx(4.5 * AVX_STAGGER_TIME)
        assert total < 70 * NS

    def test_too_few_zones_rejected(self):
        # 4 zones of 1.125 AVX-equivalents each exceed the budget.
        with pytest.raises(PowerModelError):
            make_ufpg_zones(zones=4)

    def test_zero_zones_rejected(self):
        with pytest.raises(PowerModelError):
            make_ufpg_zones(zones=0)

    @given(zones=st.integers(min_value=5, max_value=50))
    @settings(max_examples=30)
    def test_more_zones_same_total_wake(self, zones):
        # Splitting finer keeps the total wake time constant (area-
        # proportional windows) while shrinking per-zone in-rush.
        made = make_ufpg_zones(zones=zones)
        total = sum(z.stagger_time for z in made)
        assert total == pytest.approx(4.5 * AVX_STAGGER_TIME)


class TestZonedPowerGating:
    def test_default_is_in_rush_safe(self):
        assert ZonedPowerGating().in_rush_safe

    def test_wake_latency_under_70ns(self):
        assert ZonedPowerGating().wake_latency < 70 * NS

    def test_wake_latency_scales_with_area(self):
        small = ZonedPowerGating(total_relative_area=2.0, zones=5)
        big = ZonedPowerGating(total_relative_area=4.5, zones=5)
        assert small.wake_latency < big.wake_latency

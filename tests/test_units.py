"""Tests for repro.units: conversions and pretty-printing."""

import pytest

from repro import units
from repro.analytical.cost import CostModel


class TestTimeConstants:
    def test_us_is_microseconds(self):
        assert units.US == 1e-6

    def test_ns_is_nanoseconds(self):
        assert units.NS == 1e-9

    def test_year_is_365_days(self):
        assert units.YEAR == 365 * 24 * 3600

    def test_ordering(self):
        assert units.PS < units.NS < units.US < units.MS < units.SECOND


class TestConversions:
    def test_seconds_to_us(self):
        assert units.seconds_to_us(2e-6) == pytest.approx(2.0)

    def test_seconds_to_ns(self):
        assert units.seconds_to_ns(70e-9) == pytest.approx(70.0)

    def test_watts_to_mw(self):
        assert units.watts_to_mw(0.3) == pytest.approx(300.0)

    def test_joules_to_kwh(self):
        assert units.KWH == pytest.approx(3.6e6)

    def test_kwh_roundtrip(self):
        # The cost model prices energy through the same constant.
        model = CostModel(dollars_per_kwh=2.5)
        assert model.dollars_per_joule * units.KWH == pytest.approx(2.5)


class TestCyclesToSeconds:
    def test_simple(self):
        # 10 cycles at 500 MHz = 20 ns (the C6A entry bound).
        assert units.cycles_to_seconds(10, 500e6) == pytest.approx(20e-9)

    def test_one_cycle_at_1hz(self):
        assert units.cycles_to_seconds(1, 1.0) == 1.0

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            units.cycles_to_seconds(10, 0.0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            units.cycles_to_seconds(10, -1e9)


class TestPrettyTime:
    def test_zero(self):
        assert units.pretty_time(0) == "0s"

    def test_nanoseconds(self):
        assert units.pretty_time(70e-9) == "70.0ns"

    def test_microseconds(self):
        assert units.pretty_time(133e-6) == "133.0us"

    def test_milliseconds(self):
        assert units.pretty_time(2.5e-3) == "2.5ms"

    def test_seconds(self):
        assert units.pretty_time(1.5) == "1.500s"

    def test_picoseconds(self):
        assert "ps" in units.pretty_time(5e-13)

    def test_negative_gets_sign(self):
        assert units.pretty_time(-1e-6).startswith("-")


class TestPrettyPower:
    def test_milliwatts(self):
        assert units.pretty_power(0.3) == "300.0mW"

    def test_watts(self):
        assert units.pretty_power(4.0) == "4.00W"

    def test_microwatts(self):
        assert "uW" in units.pretty_power(200e-6)

    def test_negative_gets_sign(self):
        assert units.pretty_power(-0.5).startswith("-")


class TestFrequencyConstants:
    def test_ghz(self):
        assert units.GHZ == 1e9

    def test_capacity(self):
        assert units.MB == 1024 * units.KB
        assert units.KB == 1024

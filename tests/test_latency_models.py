"""Tests for the transition-latency models (Sec 3, Sec 5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import (
    C6_FLOW_FREQUENCY_HZ,
    C6ALatencyModel,
    C6LatencyModel,
    CacheFlushModel,
    transition_speedup,
)
from repro.errors import PowerModelError
from repro.power.clock import ADPLL
from repro.units import MHZ, US


class TestCacheFlushModel:
    def test_paper_operating_point(self):
        # Sec 3: flushing a 50% dirty cache at 800 MHz takes ~75 us.
        flush = CacheFlushModel()
        t = flush.flush_time(0.5, 800 * MHZ)
        assert t == pytest.approx(75 * US, rel=0.05)

    def test_clean_cache_flushes_faster(self):
        flush = CacheFlushModel()
        assert flush.flush_time(0.0, 800 * MHZ) < flush.flush_time(0.5, 800 * MHZ)

    def test_higher_frequency_flushes_faster(self):
        flush = CacheFlushModel()
        assert flush.flush_time(0.5, 2.2e9) < flush.flush_time(0.5, 800 * MHZ)

    def test_monotone_in_dirtiness(self):
        flush = CacheFlushModel()
        times = [flush.flush_time(d / 10, 800 * MHZ) for d in range(11)]
        assert times == sorted(times)

    def test_bad_dirty_fraction_rejected(self):
        with pytest.raises(PowerModelError):
            CacheFlushModel().flush_time(1.5, 1e9)

    def test_bad_frequency_rejected(self):
        with pytest.raises(PowerModelError):
            CacheFlushModel().flush_time(0.5, 0.0)

    def test_line_count(self):
        flush = CacheFlushModel(capacity_bytes=64 * 1024, line_bytes=64)
        assert flush.lines == 1024

    @given(dirty=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_flush_time_linear_in_dirty(self, dirty):
        flush = CacheFlushModel()
        base = flush.flush_time(0.0, 1e9)
        full = flush.flush_time(1.0, 1e9)
        t = flush.flush_time(dirty, 1e9)
        assert t == pytest.approx(base + (full - base) * dirty, rel=1e-6)


class TestC6LatencyModel:
    def test_entry_near_87us(self):
        # Sec 3: ~87 us overall C6 entry.
        assert C6LatencyModel().entry_latency == pytest.approx(87 * US, rel=0.02)

    def test_context_save_near_9us(self):
        assert C6LatencyModel().context_save_time() == pytest.approx(9 * US, rel=0.02)

    def test_exit_is_30us(self):
        # ~10 us hardware wake + ~20 us state/ucode restore.
        assert C6LatencyModel().exit_latency == pytest.approx(30 * US)

    def test_round_trip_matches_table1(self):
        assert C6LatencyModel().transition_time == pytest.approx(133 * US, rel=0.01)

    def test_flow_frequency_is_800mhz(self):
        assert C6_FLOW_FREQUENCY_HZ == pytest.approx(800e6)

    def test_breakdown_sums_to_total(self):
        model = C6LatencyModel()
        assert sum(model.breakdown().values()) == pytest.approx(model.transition_time)

    def test_breakdown_flush_dominates_entry(self):
        b = C6LatencyModel().breakdown()
        assert b["flush_l1_l2"] > b["context_save"] + b["entry_control"]

    def test_dirty_fraction_drives_entry(self):
        clean = C6LatencyModel(dirty_fraction=0.0)
        dirty = C6LatencyModel(dirty_fraction=1.0)
        assert dirty.entry_latency > clean.entry_latency


class TestC6ALatencyModel:
    def test_round_trip_under_100ns(self):
        assert C6ALatencyModel().transition_time < 100e-9

    def test_breakdown_has_six_steps(self):
        assert len(C6ALatencyModel().breakdown()) == 6

    def test_breakdown_sums_to_round_trip(self):
        model = C6ALatencyModel()
        assert sum(model.breakdown().values()) == pytest.approx(model.transition_time)


class TestSpeedup:
    def test_three_orders_of_magnitude(self):
        # Paper headline: up to ~900x; ours lands in the same band.
        speedup = transition_speedup()
        assert speedup >= 500
        assert speedup <= 3000

    def test_pll_relock_saving_is_microseconds(self):
        # Keeping the ADPLL locked saves its whole relock time.
        assert 1 * US <= ADPLL().relock_time <= 10 * US

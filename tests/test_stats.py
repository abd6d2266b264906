"""Tests for online statistics: PercentileTracker, Histogram."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simkit import Histogram, PercentileTracker
from repro.simkit.stats import weighted_mean


class TestPercentileTracker:
    def test_single_sample(self):
        t = PercentileTracker()
        t.add(5.0)
        assert t.percentile(50) == 5.0
        assert t.percentile(99) == 5.0

    def test_median_of_two(self):
        t = PercentileTracker()
        t.add_many([1.0, 3.0])
        assert t.percentile(50) == pytest.approx(2.0)

    def test_p0_and_p100(self):
        t = PercentileTracker()
        t.add_many([4.0, 1.0, 9.0])
        assert t.percentile(0) == 1.0
        assert t.percentile(100) == 9.0

    def test_p99_of_uniform_sequence(self):
        t = PercentileTracker()
        t.add_many(float(i) for i in range(101))
        assert t.p99 == pytest.approx(99.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PercentileTracker().percentile(50)

    def test_out_of_range_rejected(self):
        t = PercentileTracker()
        t.add(1.0)
        with pytest.raises(ConfigurationError):
            t.percentile(101)
        with pytest.raises(ConfigurationError):
            t.percentile(-1)

    def test_mean(self):
        t = PercentileTracker()
        t.add_many([1.0, 2.0, 6.0])
        assert t.mean == pytest.approx(3.0)

    def test_mean_empty_is_zero(self):
        assert PercentileTracker().mean == 0.0

    def test_interleaved_add_and_query(self):
        t = PercentileTracker()
        t.add_many([3.0, 1.0])
        assert t.percentile(50) == pytest.approx(2.0)
        t.add(2.0)
        assert t.percentile(50) == pytest.approx(2.0)
        t.add_many([10.0, 20.0])
        assert t.percentile(100) == 20.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_percentiles_monotone(self, values):
        t = PercentileTracker()
        t.add_many(values)
        ps = [t.percentile(p) for p in (0, 25, 50, 75, 99, 100)]
        assert ps == sorted(ps)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_percentile_within_range(self, values):
        t = PercentileTracker()
        t.add_many(values)
        assert min(values) <= t.percentile(50) <= max(values)


class TestHistogram:
    def test_counts_land_in_bins(self):
        h = Histogram(0.0, 10.0, bins=10)
        h.add(0.5)
        h.add(5.5)
        h.add(9.5)
        assert h.counts[0] == 1
        assert h.counts[5] == 1
        assert h.counts[9] == 1

    def test_underflow_overflow(self):
        h = Histogram(0.0, 1.0, bins=2)
        h.add(-1.0)
        h.add(2.0)
        assert h.overflow == 1
        assert h.total == 2

    def test_upper_edge_is_overflow(self):
        h = Histogram(0.0, 1.0, bins=2)
        h.add(1.0)
        assert h.overflow == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(0.0, 1.0, bins=0)
        with pytest.raises(ConfigurationError):
            Histogram(1.0, 0.0, bins=3)


class TestWeightedMean:
    def test_residency_weighted_power(self):
        # Eq. 2 example: 20% C0 at 4 W + 80% C1 at 1.44 W.
        assert weighted_mean([4.0, 1.44], [0.2, 0.8]) == pytest.approx(1.952)

    def test_uniform_weights(self):
        assert weighted_mean([1.0, 2.0, 3.0], [1, 1, 1]) == pytest.approx(2.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_mean([1.0], [1.0, 2.0])

    def test_zero_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_mean([1.0], [0.0])


class TestPercentileCaching:
    """The sorted-sample cache: one sort serves every percentile query."""

    def test_p999(self):
        tracker = PercentileTracker()
        tracker.add_many(float(i) for i in range(1, 1001))
        assert tracker.p999 == pytest.approx(999.001)

    def test_percentiles_batch(self):
        tracker = PercentileTracker()
        tracker.add_many([5.0, 1.0, 3.0, 2.0, 4.0])
        assert tracker.percentiles([0, 50, 100]) == [1.0, 3.0, 5.0]

    def test_single_sort_for_many_percentiles(self):
        class CountingList(list):
            sorts = 0

            def sort(self, *args, **kwargs):
                CountingList.sorts += 1
                super().sort(*args, **kwargs)

        tracker = PercentileTracker()
        tracker._samples = CountingList([3.0, 1.0, 2.0, 9.0, 5.0])
        tracker._sorted_count = 0  # unsorted: not the length at a sort
        tracker._bind_hot_path()
        _ = tracker.percentile(50), tracker.percentile(95), tracker.p99, tracker.p999
        _ = tracker.percentiles([10, 20, 30, 40])
        assert CountingList.sorts == 1

    def test_add_invalidates_cache(self):
        class CountingList(list):
            sorts = 0

            def sort(self, *args, **kwargs):
                CountingList.sorts += 1
                super().sort(*args, **kwargs)

        tracker = PercentileTracker()
        tracker._samples = CountingList([2.0, 1.0])
        tracker._sorted_count = 0  # unsorted: not the length at a sort
        tracker._bind_hot_path()  # add() now appends to the CountingList
        assert tracker.percentile(50) == pytest.approx(1.5)
        tracker.add(0.5)
        assert tracker.percentile(50) == pytest.approx(1.0)
        assert CountingList.sorts == 2

"""Tests for the mergeable percentile sketch (repro.simkit.sketch).

The sharded-execution contract rests on three properties exercised here:

1. **Accuracy** — every quantile estimate is within the documented
   relative error ``alpha`` of the true order statistics, including on
   adversarial shapes (bimodal gaps, heavy-tail Pareto).
2. **Exact mergeability** — bucket counts are integers, so merging is
   commutative/associative and equivalent to sketching the concatenated
   stream; this is what makes shard merge order irrelevant.
3. **Drop-in tracker parity** — a sketch-backed ``PercentileTracker``
   reports p50/p99/p99.9 within bound of the exact tracker on real
   ``ServerNode`` runs, while count/mean/min/max stay exact.
"""

import json
import math
import pickle
import random

import pytest

from repro.errors import ConfigurationError
from repro.server import ServerNode, named_configuration
from repro.simkit.sketch import DDSketch
from repro.simkit.stats import PercentileTracker
from repro.workloads import memcached_workload, mysql_workload

QUANTILES = (0.5, 0.9, 0.99, 0.999)


def _assert_within_bound(values, alpha, quantiles=QUANTILES, max_bins=2048):
    """Each sketch quantile must land within ``alpha`` (relative) of the
    bracketing order statistics at the shared rank convention
    ``rank = q * (n - 1)``."""
    sketch = DDSketch(relative_error=alpha, max_bins=max_bins)
    sketch.add_many(values)
    data = sorted(values)
    n = len(data)
    slack = 1e-12  # float noise in the bound arithmetic itself
    for q in quantiles:
        rank = q * (n - 1)
        lo = data[math.floor(rank)]
        hi = data[math.ceil(rank)]
        est = sketch.quantile(q)
        assert lo * (1 - alpha - slack) <= est <= hi * (1 + alpha + slack), (
            f"q={q}: estimate {est} outside [{lo}, {hi}] +/- {alpha:.0%}"
        )


def _bimodal(n=12_000, seed=1234):
    """Two latency modes three decades apart with a hard gap between."""
    rng = random.Random(seed)
    values = []
    for _ in range(n):
        if rng.random() < 0.6:
            values.append(rng.gauss(1e-4, 1e-5))
        else:
            values.append(rng.gauss(5e-3, 5e-4))
    return [max(v, 1e-6) for v in values]


def _pareto(n=12_000, seed=99, xm=1e-5, shape=1.2):
    """Heavy-tail Pareto: the deep tail spans many decades."""
    rng = random.Random(seed)
    return [xm / (1.0 - rng.random()) ** (1.0 / shape) for _ in range(n)]


class TestDDSketchAccuracy:
    def test_bound_holds_on_bimodal(self):
        _assert_within_bound(_bimodal(), alpha=0.01)

    def test_bound_holds_on_pareto_tail(self):
        _assert_within_bound(_pareto(), alpha=0.01)

    def test_bound_holds_at_coarse_alpha(self):
        # A coarse sketch (5%) must still honour its own (wider) bound.
        _assert_within_bound(_pareto(seed=7), alpha=0.05)

    def test_collapse_keeps_tail_guarantee(self):
        # Past the bucket cap the *low* buckets collapse upward: the
        # bin count stays bounded, high quantiles (whose ranks land in
        # kept buckets) keep the bound, and collapsed low quantiles can
        # only be biased upward — never under-reported.
        values = _pareto(n=8_000, seed=3)
        sketch = DDSketch(relative_error=0.02, max_bins=128)
        sketch.add_many(values)
        assert len(sketch._bins) <= 128
        data = sorted(values)
        n = len(data)
        for q in (0.99, 0.999):
            rank = q * (n - 1)
            lo, hi = data[math.floor(rank)], data[math.ceil(rank)]
            est = sketch.quantile(q)
            assert lo * 0.98 - 1e-12 <= est <= hi * 1.02 + 1e-12
        true_p50 = data[math.floor(0.5 * (n - 1))]
        assert sketch.quantile(0.5) >= true_p50 * 0.98 - 1e-12

    def test_count_sum_min_max_mean_exact(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        sketch = DDSketch()
        sketch.add_many(values)
        assert sketch.count == 5
        assert sketch.sum == sum(values)
        assert sketch._min == 1.0
        assert sketch._max == 5.0
        assert sketch.mean == sum(values) / 5

    def test_zero_values_reported_as_zero(self):
        sketch = DDSketch()
        sketch.add_many([0.0, 0.0, 1.0])
        assert sketch.count == 3
        assert sketch.quantile(0.0) == 0.0
        assert sketch.quantile(1.0) == 1.0
        assert sketch._min == 0.0

    def test_single_value(self):
        sketch = DDSketch()
        sketch.add(2.5e-4)
        for q in (0.0, 0.5, 1.0):
            # min == max, so clamping pins every quantile exactly.
            assert sketch.quantile(q) == 2.5e-4

    def test_invalid_parameters_rejected(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigurationError):
                DDSketch(relative_error=alpha)
        with pytest.raises(ConfigurationError):
            DDSketch(max_bins=1)

    def test_negative_value_rejected(self):
        with pytest.raises(ConfigurationError):
            DDSketch().add(-1e-6)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            DDSketch().quantile(0.5)

    def test_out_of_range_quantile_rejected(self):
        sketch = DDSketch()
        sketch.add(1.0)
        with pytest.raises(ConfigurationError):
            sketch.quantile(1.5)
        with pytest.raises(ConfigurationError):
            sketch.quantile(-0.1)


class TestDDSketchMerge:
    def _pair(self):
        a, b = DDSketch(), DDSketch()
        a.add_many(_bimodal(n=4_000, seed=11))
        b.add_many(_pareto(n=3_000, seed=12))
        return a, b

    def test_merge_equals_combined_stream(self):
        xs = _bimodal(n=4_000, seed=21)
        ys = _pareto(n=3_000, seed=22)
        a, b, combined = DDSketch(), DDSketch(), DDSketch()
        a.add_many(xs)
        b.add_many(ys)
        combined.add_many(xs + ys)
        merged = a.merge(b)
        # Buckets, counts and extremes are exact, so every quantile of
        # the merged sketch equals the combined-stream sketch exactly.
        state_m, state_c = merged.to_state(), combined.to_state()
        assert state_m["bin_indices"] == state_c["bin_indices"]
        assert state_m["bin_counts"] == state_c["bin_counts"]
        assert merged.count == combined.count
        assert merged._min == combined._min
        assert merged._max == combined._max
        for q in QUANTILES:
            assert merged.quantile(q) == combined.quantile(q)
        assert merged.sum == pytest.approx(combined.sum, rel=1e-12)

    def test_merge_commutative_bit_for_bit(self):
        a, b = self._pair()
        # Integer bucket addition and IEEE float addition are both
        # commutative, so the full state matches exactly.
        assert a.merge(b).to_state() == b.merge(a).to_state()

    def test_merge_associative(self):
        # Integer-valued observations make the float sums exact, so
        # associativity holds on the full state, not just the buckets.
        rng = random.Random(5)
        sketches = []
        for _ in range(3):
            s = DDSketch()
            s.add_many(float(rng.randint(1, 10_000)) for _ in range(2_000))
            sketches.append(s)
        a, b, c = sketches
        assert a.merge(b).merge(c).to_state() == a.merge(b.merge(c)).to_state()

    def test_merge_does_not_mutate_inputs(self):
        a, b = self._pair()
        before_a, before_b = a.to_state(), b.to_state()
        a.merge(b)
        assert a.to_state() == before_a
        assert b.to_state() == before_b

    def test_merge_with_empty_is_identity(self):
        a, _ = self._pair()
        merged = a.merge(DDSketch())
        assert merged.to_state() == a.to_state()

    def test_mismatched_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            DDSketch(relative_error=0.01).merge(DDSketch(relative_error=0.02))
        with pytest.raises(ConfigurationError):
            DDSketch(max_bins=128).merge(DDSketch(max_bins=256))


class TestDDSketchState:
    def test_round_trip_identical(self):
        sketch = DDSketch(relative_error=0.02, max_bins=512)
        sketch.add_many(_pareto(n=2_000, seed=31))
        rebuilt = DDSketch.from_state(sketch.to_state())
        assert rebuilt.to_state() == sketch.to_state()
        for q in QUANTILES:
            assert rebuilt.quantile(q) == sketch.quantile(q)

    def test_round_trip_survives_json(self):
        sketch = DDSketch()
        sketch.add_many(_bimodal(n=2_000, seed=32))
        rebuilt = DDSketch.from_state(json.loads(json.dumps(sketch.to_state())))
        assert rebuilt.to_state() == sketch.to_state()

    def test_empty_round_trip(self):
        rebuilt = DDSketch.from_state(DDSketch().to_state())
        assert rebuilt.count == 0
        with pytest.raises(ValueError):
            rebuilt.quantile(0.5)

    def test_corrupt_state_rejected(self):
        state = DDSketch().to_state()
        broken = dict(state)
        del broken["bin_counts"]
        with pytest.raises(ConfigurationError):
            DDSketch.from_state(broken)
        lopsided = dict(state)
        lopsided["bin_indices"] = [1, 2]
        lopsided["bin_counts"] = [3]
        with pytest.raises(ConfigurationError):
            DDSketch.from_state(lopsided)


class TestSketchBackedTracker:
    def test_invalid_sketch_error_rejected(self):
        with pytest.raises(ConfigurationError):
            PercentileTracker(sketch_error=0.0)
        with pytest.raises(ConfigurationError):
            PercentileTracker(sketch_error=1.5)

    def test_backend_introspection(self):
        assert PercentileTracker().sketch_error is None
        assert PercentileTracker().sketch is None
        tracker = PercentileTracker(sketch_error=0.02)
        assert tracker.sketch_error == 0.02
        assert tracker.sketch is not None

    def test_tracker_percentiles_within_bound_of_exact(self):
        values = _bimodal(n=8_000, seed=41)
        exact = PercentileTracker()
        sketched = PercentileTracker(sketch_error=0.01)
        exact.add_many(values)
        sketched.add_many(values)
        assert sketched.count == exact.count
        # 2*alpha: alpha of sketch error plus up to one interpolation gap.
        for p in (50, 95, 99, 99.9):
            assert sketched.percentile(p) == pytest.approx(
                exact.percentile(p), rel=0.02
            )
        assert sketched.mean == pytest.approx(exact.mean, rel=1e-9)

    def test_samples_unavailable_in_sketch_mode(self):
        tracker = PercentileTracker(sketch_error=0.01)
        tracker.add(1.0)
        with pytest.raises(ConfigurationError):
            tracker.samples

    def test_merge_mixed_backends_rejected(self):
        exact, sketched = PercentileTracker(), PercentileTracker(sketch_error=0.01)
        exact.add(1.0)
        sketched.add(1.0)
        with pytest.raises(ConfigurationError):
            exact.merge(sketched)
        with pytest.raises(ConfigurationError):
            PercentileTracker.merge_all([sketched, exact])

    def test_merge_all_never_aliases_inputs(self):
        a = PercentileTracker(sketch_error=0.01)
        b = PercentileTracker(sketch_error=0.01)
        a.add_many([1.0, 2.0])
        b.add(3.0)
        merged = PercentileTracker.merge_all([a, b])
        a.add(1_000.0)
        assert merged.count == 3
        assert merged.sketch._max == 3.0

    def test_sketch_merge_order_independent(self):
        trackers = []
        for seed in (51, 52, 53):
            t = PercentileTracker(sketch_error=0.01)
            t.add_many(_pareto(n=1_000, seed=seed))
            trackers.append(t)
        forward = PercentileTracker.merge_all(trackers)
        backward = PercentileTracker.merge_all(trackers[::-1])
        assert forward.sketch.to_state()["bin_counts"] == (
            backward.sketch.to_state()["bin_counts"]
        )
        for p in (50, 99, 99.9):
            assert forward.percentile(p) == backward.percentile(p)

    def test_pickle_round_trip_keeps_hot_path_bound(self):
        tracker = PercentileTracker(sketch_error=0.01)
        tracker.add_many([1.0, 2.0, 3.0])
        clone = pickle.loads(pickle.dumps(tracker))
        assert clone.count == 3
        clone.add(4.0)  # the re-bound add must hit the sketch
        assert clone.sketch.count == 4
        assert clone.sketch._max == 4.0


class TestSketchOnServerNode:
    """Sketch vs exact on real simulated latency distributions."""

    def _run(self, workload_factory, sketch_error, qps):
        node = ServerNode(
            workload_factory(),
            named_configuration("baseline"),
            qps=qps,
            horizon=0.05,
            seed=42,
            sketch_error=sketch_error,
        )
        return node.run()

    @pytest.mark.parametrize(
        "workload_factory,qps",
        [(memcached_workload, 80_000), (mysql_workload, 30_000)],
        ids=["memcached", "mysql"],
    )
    def test_p50_p99_p999_within_bound(self, workload_factory, qps):
        exact = self._run(workload_factory, None, qps)
        sketched = self._run(workload_factory, 0.01, qps)
        # Same seed, same spec: identical simulated latency stream.
        assert sketched.completed == exact.completed
        assert sketched.server_latency.count == exact.server_latency.count
        # The documented bound, against the bracketing order statistics
        # (the exact tracker interpolates between them, so a plain
        # relative comparison would conflate sketch error with the
        # interpolation gap at deep-tail ranks).
        data = sorted(exact.server_latency.samples)
        n = len(data)
        for p in (50, 99, 99.9):
            rank = (p / 100.0) * (n - 1)
            lo, hi = data[math.floor(rank)], data[math.ceil(rank)]
            est = sketched.server_latency.percentile(p)
            assert lo * 0.99 - 1e-12 <= est <= hi * 1.01 + 1e-12
        assert sketched.avg_latency == pytest.approx(exact.avg_latency, rel=1e-9)
        assert sketched.server_latency.sketch._min == (
            exact.server_latency.percentile(0)
        )
        assert sketched.server_latency.sketch._max == (
            exact.server_latency.percentile(100)
        )

    def test_record_labels_sketch_error(self):
        sketched = self._run(memcached_workload, 0.01, 60_000)
        record = sketched.to_record()
        assert record["latency_sketch_error"] == 0.01
        exact = self._run(memcached_workload, None, 60_000)
        assert "latency_sketch_error" not in exact.to_record()

"""Online statistics used for latency and power reporting.

The evaluation reports average and tail (p99) request latency and average
power. :class:`PercentileTracker` tracks percentiles — exactly by
default (all samples kept; simulations up to a few million samples are
affordable and avoid quantile-sketch error in the reproduction), or via
a bounded-memory mergeable :class:`~repro.simkit.sketch.DDSketch` when
constructed with ``sketch_error`` (fleet-scale runs; see
:mod:`repro.cluster.sharding`) — and :class:`Histogram` provides
fixed-bin summaries for traces.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.simkit.sketch import DDSketch


class PercentileTracker:
    """Percentiles over recorded samples: exact, or sketch-backed.

    Exact mode (the default): samples are appended in O(1) and sorted
    lazily on the first query after a mutation; the sorted array is then
    cached until the next ``add``/``add_many`` grows it. ``add`` is the
    sample list's own bound ``append`` (no Python frame per sample), so
    the cache is keyed on the sample count at the last sort rather than
    a dirty flag: samples are only ever appended, so a changed count is
    exactly "mutated since the last sort". An
    ``analyze()`` pass reading p50/p95/p99/p99.9 therefore sorts once,
    not once per percentile — recording millions of latencies costs
    O(n log n) total instead of the O(n^2) of sorted insertion or the
    O(k·n log n) of re-sorting per query.

    Sketch mode (``sketch_error=alpha``): samples stream into a
    bounded-memory :class:`~repro.simkit.sketch.DDSketch` whose
    percentiles carry at most ``alpha`` relative error (documented in
    :mod:`repro.simkit.sketch`). Memory is O(max_bins) regardless of
    sample count, and two sketch-backed trackers :meth:`merge` exactly —
    the backend fleet-scale sharded execution uses. ``samples`` is
    unavailable in sketch mode (there are none); ``count``, ``mean`` and
    min/max stay exact.
    """

    def __init__(self, sketch_error: Optional[float] = None) -> None:
        self._samples: List[float] = []
        #: ``len(_samples)`` when it was last sorted.
        self._sorted_count = 0
        self._sketch: Optional[DDSketch] = None
        if sketch_error is not None:
            self._sketch = DDSketch(relative_error=sketch_error)
        self._bind_hot_path()

    def _bind_hot_path(self) -> None:
        # Instance-attribute override of the class methods, re-run
        # whenever ``_samples`` or ``_sketch`` is replaced: exact-mode
        # ``add`` is the sample list's C-level append, and sketch-mode
        # add/add_many go straight to the sketch — no per-sample Python
        # frame or backend dispatch branch either way.
        if self._sketch is None:
            self.add = self._samples.append
        else:
            self.add = self._sketch.add
            self.add_many = self._sketch.add_many

    def __getstate__(self):
        state = self.__dict__.copy()
        # Drop the bound-method overrides; __setstate__ re-binds them.
        state.pop("add", None)
        state.pop("add_many", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind_hot_path()

    @classmethod
    def _from_sketch(cls, sketch: DDSketch) -> "PercentileTracker":
        """Wrap an existing sketch (merge and store-decode paths)."""
        tracker = cls.__new__(cls)
        tracker._samples = []
        tracker._sorted_count = 0
        tracker._sketch = sketch
        tracker._bind_hot_path()
        return tracker

    @property
    def sketch_error(self) -> Optional[float]:
        """The sketch's relative-error bound, or ``None`` in exact mode."""
        return None if self._sketch is None else self._sketch.relative_error

    @property
    def sketch(self) -> Optional[DDSketch]:
        """The backing sketch (``None`` in exact mode)."""
        return self._sketch

    def add(self, value: float) -> None:
        # Shadowed per instance by _bind_hot_path; kept for the type.
        self._samples.append(value)

    def add_many(self, values: Sequence[float]) -> None:
        self._samples.extend(values)

    @property
    def _sorted(self) -> List[float]:
        samples = self._samples
        if len(samples) != self._sorted_count:
            samples.sort()
            self._sorted_count = len(samples)
        return samples

    @property
    def count(self) -> int:
        if self._sketch is not None:
            return self._sketch.count
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """A copy of the recorded samples (order unspecified).

        Exposed so trackers can be serialized exactly (repro.store); the
        returned list is safe to mutate.

        Raises:
            ConfigurationError: in sketch mode — a sketch-backed tracker
                keeps bucket counts, not samples (serialize its
                :attr:`sketch` state instead).
        """
        if self._sketch is not None:
            raise ConfigurationError(
                "sketch-backed PercentileTracker keeps no samples; "
                "serialize tracker.sketch.to_state() instead"
            )
        return list(self._samples)

    def percentile(self, p: float) -> float:
        """Percentile: exact with linear interpolation (numpy 'linear'),
        or within ``sketch_error`` relative error in sketch mode.

        Raises:
            ConfigurationError: if p outside [0, 100].
            ValueError: if no samples recorded.
        """
        if not 0 <= p <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100], got {p}")
        if self._sketch is not None:
            return self._sketch.quantile(p / 100.0)
        if not self._sorted:
            raise ValueError("no samples recorded")
        if len(self._sorted) == 1:
            return self._sorted[0]
        data = self._sorted
        rank = (p / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high or data[low] == data[high]:
            return data[low]
        frac = rank - low
        return data[low] * (1 - frac) + data[high] * frac

    @property
    def mean(self) -> float:
        if self._sketch is not None:
            return self._sketch.mean
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def merge(self, other: "PercentileTracker") -> "PercentileTracker":
        """A new tracker equivalent to seeing both streams.

        Exact mode concatenates the sample lists in argument order
        (percentiles depend only on the sample *multiset*, so any merge
        order yields bit-identical percentiles; the mean's float
        summation order is the concatenation order). Sketch mode merges
        bucket counts — exact integer addition, order-independent.

        Raises:
            ConfigurationError: on mixed backends or mismatched sketch
                parameters.
        """
        if (self._sketch is None) != (other._sketch is None):
            raise ConfigurationError(
                "cannot merge an exact PercentileTracker with a "
                "sketch-backed one; build both with the same sketch_error"
            )
        if self._sketch is not None:
            return PercentileTracker._from_sketch(self._sketch.merge(other._sketch))
        merged = PercentileTracker()
        merged._samples = self._samples + other._samples
        merged._bind_hot_path()
        return merged

    @classmethod
    def merge_all(cls, trackers: Iterable["PercentileTracker"]) -> "PercentileTracker":
        """Merge many trackers in one pass (single list build / sketch fold).

        Equivalent to folding :meth:`merge` left-to-right, but exact mode
        extends one output list instead of building K intermediate
        copies — O(total samples), not O(K * total).
        """
        trackers = list(trackers)
        if not trackers:
            return cls()
        first_sketch = trackers[0]._sketch
        for tracker in trackers[1:]:
            if (tracker._sketch is None) != (first_sketch is None):
                raise ConfigurationError(
                    "cannot merge exact and sketch-backed "
                    "PercentileTrackers; build all with the same sketch_error"
                )
        if first_sketch is not None:
            # Start from an empty merge so the result never aliases an
            # input tracker's live sketch.
            merged_sketch = DDSketch(
                first_sketch.relative_error, first_sketch.max_bins
            ).merge(first_sketch)
            for tracker in trackers[1:]:
                merged_sketch = merged_sketch.merge(tracker._sketch)
            return cls._from_sketch(merged_sketch)
        merged = cls()
        out: List[float] = []
        for tracker in trackers:
            out.extend(tracker._samples)
        merged._samples = out
        merged._bind_hot_path()
        return merged

    def percentiles(self, ps: Sequence[float]) -> List[float]:
        """Several percentiles off one cached sort (order preserved)."""
        return [self.percentile(p) for p in ps]

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        """p99.9 — the deep-tail view fan-out amplification dominates."""
        return self.percentile(99.9)


class Histogram:
    """Fixed-width binning over [low, high) with under/overflow bins."""

    def __init__(self, low: float, high: float, bins: int):
        if bins <= 0:
            raise ConfigurationError(f"bins must be positive, got {bins}")
        if not low < high:
            raise ConfigurationError(f"need low < high, got [{low}, {high})")
        self._low = low
        self._high = high
        self._bins = bins
        self._width = (high - low) / bins
        self._counts = [0] * bins
        self._underflow = 0
        self._overflow = 0
        self._total = 0

    def add(self, value: float) -> None:
        self._total += 1
        if value < self._low:
            self._underflow += 1
        elif value >= self._high:
            self._overflow += 1
        else:
            idx = int((value - self._low) / self._width)
            # guard against float edge landing exactly on high
            idx = min(idx, self._bins - 1)
            self._counts[idx] += 1

    @property
    def total(self) -> int:
        return self._total

    @property
    def counts(self) -> List[int]:
        return list(self._counts)

    @property
    def overflow(self) -> int:
        return self._overflow


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted mean; the workhorse of residency-weighted power (Eq. 2).

    Raises:
        ConfigurationError: on length mismatch or non-positive total weight.
    """
    if len(values) != len(weights):
        raise ConfigurationError("values and weights must have equal length")
    total = sum(weights)
    if total <= 0:
        raise ConfigurationError(f"total weight must be positive, got {total}")
    return sum(v * w for v, w in zip(values, weights)) / total

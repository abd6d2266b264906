"""Mergeable quantile sketch with a bounded relative error (DDSketch).

Exact percentiles keep every sample, so a 1000-node fleet serving 10^8
requests would pin ~1 GB of latency floats per run. :class:`DDSketch`
(Masson, Lee & Rim, "DDSketch: a fast and fully-mergeable quantile
sketch with relative-error guarantees", VLDB 2019) replaces the sample
list with logarithmically-spaced buckets: values land in bucket
``ceil(log_gamma(v))`` for ``gamma = (1 + alpha) / (1 - alpha)``, and
every bucket midpoint is within relative error ``alpha`` of any value in
the bucket. The structure is:

- **bounded**: at most ``max_bins`` buckets are kept (the lowest buckets
  collapse together past the cap, preserving the *high*-quantile
  guarantee, which is the tail this project reports);
- **exactly mergeable**: bucket counts are integers, so merging two
  sketches is per-bucket integer addition — associative, commutative,
  and bit-reproducible regardless of merge order. That is what lets
  sharded cluster execution (:mod:`repro.cluster.sharding`) combine
  per-node percentile state without replaying samples.

Count, sum, min and max are tracked exactly alongside the buckets, so
``mean`` and the extreme quantiles (p0/p100) carry no sketch error.

The guarantee: for any quantile ``q`` whose rank does not fall in a
collapsed bucket, ``|estimate - true| <= alpha * true``. With the
default ``alpha = 0.01`` a true p99 of 1.00 ms is reported in
[0.99 ms, 1.01 ms] — far below run-to-run simulation noise — from a few
hundred buckets regardless of sample count.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default relative-error bound (1%).
DEFAULT_RELATIVE_ERROR = 0.01

#: Default bucket cap. Latencies here span ~1 us to ~1 s (six decades);
#: at alpha=0.01 a decade costs ~115 buckets, so 2048 leaves 3x headroom
#: before any collapsing happens.
DEFAULT_MAX_BINS = 2048

#: Values below this land in the zero bucket (reported as 0.0). Request
#: latencies are seconds; 1e-12 s is far below any representable service
#: time, so in practice only exact zeros hit it.
MIN_TRACKABLE = 1e-12


class DDSketch:
    """Relative-error quantile sketch over non-negative values.

    Args:
        relative_error: the accuracy bound ``alpha`` (0 < alpha < 1).
        max_bins: bucket cap; lowest buckets collapse past it.
    """

    __slots__ = (
        "relative_error", "max_bins", "_gamma", "_multiplier",
        "_bins", "_zero_count", "_count", "_sum", "_min", "_max",
    )

    def __init__(
        self,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_bins: int = DEFAULT_MAX_BINS,
    ) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ConfigurationError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        if max_bins < 2:
            raise ConfigurationError(f"max_bins must be >= 2, got {max_bins}")
        self.relative_error = float(relative_error)
        self.max_bins = int(max_bins)
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._multiplier = 1.0 / math.log(self._gamma)
        self._bins: Dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ---------------------------------------------------------
    def add(self, value: float) -> None:
        """Record one observation (must be >= 0)."""
        if value < 0.0:
            raise ConfigurationError(
                f"DDSketch records non-negative values, got {value}"
            )
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value < MIN_TRACKABLE:
            self._zero_count += 1
            return
        index = math.ceil(math.log(value) * self._multiplier)
        bins = self._bins
        bins[index] = bins.get(index, 0) + 1
        if len(bins) > self.max_bins:
            self._collapse()

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def _collapse(self) -> None:
        """Merge the lowest buckets until the cap holds.

        Collapsing low buckets trades low-quantile accuracy for tail
        accuracy (the DDSketch choice): counts migrate upward into the
        lowest *kept* bucket, so high quantiles keep their bound.
        """
        order = sorted(self._bins)
        keep_from = len(order) - self.max_bins + 1
        floor_index = order[keep_from]
        moved = sum(self._bins.pop(index) for index in order[:keep_from])
        self._bins[floor_index] += moved

    # -- queries -----------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Exact mean (sum and count carry no sketch error)."""
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within the relative error.

        Uses the same rank convention as the exact tracker's linear
        interpolation anchor (``rank = q * (count - 1)``) so sketch and
        exact percentiles are directly comparable; the answer is clamped
        to the exact observed [min, max].

        Raises:
            ConfigurationError: if ``q`` is outside [0, 1].
            ValueError: if no observations were recorded.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            raise ValueError("no samples recorded")
        # Min and max are tracked exactly, so the extreme quantiles carry
        # no sketch error (the docstring's p0/p100 guarantee).
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = q * (self._count - 1)
        cumulative = self._zero_count
        if cumulative > rank:
            return 0.0
        gamma = self._gamma
        for index in sorted(self._bins):
            cumulative += self._bins[index]
            if cumulative > rank:
                estimate = 2.0 * gamma ** index / (gamma + 1.0)
                return min(max(estimate, self._min), self._max)
        return self._max  # pragma: no cover - rank <= count-1 always lands

    # -- merging -----------------------------------------------------------
    def merge(self, other: "DDSketch") -> "DDSketch":
        """A new sketch equivalent to seeing both streams.

        Bucket counts are integers, so the merge is exact: associative,
        commutative, and independent of the order shards complete in.

        Raises:
            ConfigurationError: if the sketches were built with different
                ``relative_error`` or ``max_bins`` (their buckets would
                not align).
        """
        if (
            self.relative_error != other.relative_error
            or self.max_bins != other.max_bins
        ):
            raise ConfigurationError(
                "cannot merge DDSketches with different parameters: "
                f"(alpha={self.relative_error}, max_bins={self.max_bins}) vs "
                f"(alpha={other.relative_error}, max_bins={other.max_bins})"
            )
        merged = DDSketch(self.relative_error, self.max_bins)
        merged._bins = dict(self._bins)
        # repro: allow[DET005] integer bucket counts merge exactly in any order
        for index, count in other._bins.items():
            merged._bins[index] = merged._bins.get(index, 0) + count
        if len(merged._bins) > merged.max_bins:
            merged._collapse()
        merged._zero_count = self._zero_count + other._zero_count
        merged._count = self._count + other._count
        merged._sum = self._sum + other._sum
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    # -- serialization -----------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """JSON-safe exact state; inverse of :meth:`from_state`.

        Floats survive a JSON round trip bit-for-bit (shortest-repr), so
        decode-then-merge equals merge-then-encode exactly.
        """
        bins: List[Tuple[int, int]] = sorted(self._bins.items())
        return {
            "relative_error": self.relative_error,
            "max_bins": self.max_bins,
            "count": self._count,
            "sum": self._sum,
            "zero_count": self._zero_count,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "bin_indices": [index for index, _ in bins],
            "bin_counts": [count for _, count in bins],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "DDSketch":
        """Rebuild a sketch from :meth:`to_state` output.

        Raises:
            ConfigurationError: on missing or inconsistent fields.
        """
        try:
            sketch = cls(
                relative_error=state["relative_error"],
                max_bins=state["max_bins"],
            )
            indices: Sequence[int] = state["bin_indices"]
            counts: Sequence[int] = state["bin_counts"]
            if len(indices) != len(counts):
                raise ConfigurationError(
                    "bin_indices and bin_counts lengths differ"
                )
            sketch._bins = {
                int(index): int(count) for index, count in zip(indices, counts)
            }
            sketch._zero_count = int(state["zero_count"])
            sketch._count = int(state["count"])
            sketch._sum = float(state["sum"])
            if sketch._count:
                sketch._min = float(state["min"])
                sketch._max = float(state["max"])
            return sketch
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"corrupt DDSketch state: {exc}") from exc

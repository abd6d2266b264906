"""Energy-proportionality analysis (the Sec 7.1 Google framing).

"Modern servers are not energy proportional: they operate at peak energy
efficiency when they are fully utilized, but have much lower efficiencies
at lower utilizations" [28]. AW's contribution in this framing: it bends
the power-vs-load curve toward the origin precisely in the 5-25%
utilisation band where latency-critical fleets actually run.

Two standard metrics over a (utilisation, power) curve normalised to
peak power:

- **dynamic range**: peak / idle power (bigger is better);
- **proportionality gap**: mean over utilisations of
  (measured - ideal) / peak, where ideal = utilisation * peak
  (smaller is better; 0 = perfectly proportional).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ProportionalityReport:
    """Metrics of one power-vs-load curve.

    Attributes:
        curve: (utilisation in [0,1], power watts) points, increasing
            utilisation, first point treated as idle, last as peak.
        dynamic_range: peak power / idle power.
        proportionality_gap: mean normalised excess over the ideal line.
    """

    curve: Tuple[Tuple[float, float], ...]
    dynamic_range: float
    proportionality_gap: float


def analyze_curve(curve: Sequence[Tuple[float, float]]) -> ProportionalityReport:
    """Compute proportionality metrics for a power-vs-load curve.

    Raises:
        ConfigurationError: on fewer than 2 points, non-monotone
            utilisation, or non-positive powers.
    """
    if len(curve) < 2:
        raise ConfigurationError("need at least idle and peak points")
    utils = [u for u, _ in curve]
    powers = [p for _, p in curve]
    if any(not 0.0 <= u <= 1.0 for u in utils):
        raise ConfigurationError("utilisations must be in [0, 1]")
    if utils != sorted(utils):
        raise ConfigurationError("curve must have increasing utilisation")
    if any(p <= 0 for p in powers):
        raise ConfigurationError("powers must be positive")

    idle = powers[0]
    peak = powers[-1]
    if peak < idle:
        raise ConfigurationError("peak power below idle power")

    gap = 0.0
    for u, p in curve:
        ideal = u * peak
        gap += max(0.0, p - ideal) / peak
    gap /= len(curve)

    return ProportionalityReport(
        curve=tuple((u, p) for u, p in curve),
        dynamic_range=peak / idle,
        proportionality_gap=gap,
    )


def curve_from_results(results: Sequence) -> List[Tuple[float, float]]:
    """Build a (utilisation, per-core power) curve from RunResults,
    sorted by utilisation."""
    points = sorted(
        ((r.utilization, r.avg_core_power) for r in results), key=lambda t: t[0]
    )
    return list(points)

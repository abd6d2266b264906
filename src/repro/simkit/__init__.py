"""Discrete-event simulation substrate.

``simkit`` is a small, dependency-free discrete-event simulation kernel:

- :class:`~repro.simkit.engine.Simulator` — the event loop and clock.
- :mod:`~repro.simkit.distributions` — seeded random variates for load
  generators and service-time models.
- :mod:`~repro.simkit.stats` — online statistics (means,
  percentiles, histograms) used for latency and power reporting.
- :mod:`~repro.simkit.trace` — optional event tracing.
"""

from repro.simkit.engine import Event, Simulator
from repro.simkit.distributions import (
    Exponential,
    LogNormal,
    MixtureDistribution,
    Pareto,
)
from repro.simkit.sketch import DDSketch
from repro.simkit.stats import Histogram, PercentileTracker
from repro.simkit.trace import TraceRecorder

__all__ = [
    "Event",
    "Simulator",
    "Exponential",
    "LogNormal",
    "MixtureDistribution",
    "Pareto",
    "DDSketch",
    "Histogram",
    "PercentileTracker",
    "TraceRecorder",
]

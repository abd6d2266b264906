"""Run results: the observables the paper's figures plot.

A :class:`RunResult` is what one simulated (workload, configuration,
request-rate) point yields: C-state residencies and transition counts
(Figs 8a, 9d, 12a/b, 13a/b), average core and package power (Figs 8b, 9c),
and average/tail latency, server-side and end-to-end (Figs 8c, 9a/b, 10,
11, 12c, 13c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.simkit.stats import PercentileTracker


@dataclass
class RunResult:
    """Aggregated observables of one simulation run.

    Attributes:
        config_name: the named configuration simulated.
        workload_name: the service simulated.
        qps: offered aggregate request rate.
        horizon: simulated wall-clock seconds.
        cores: core count.
        residency: fraction of core-time per C-state name (averaged over
            cores; sums to ~1).
        transitions_per_second: per-core C-state entries per second.
        avg_core_power: average per-core power (RAPL-style integration).
        package_power: average socket power (cores + uncore).
        server_latency: per-request server-side latency tracker.
        completed: requests completed.
        turbo_grant_rate: fraction of busy-period starts granted Turbo.
        network_latency: constant network component for end-to-end views.
        node_detail: cluster runs only — one JSON-safe breakdown dict per
            node (residency, transitions, power, leaf latency); ``None``
            for single-node runs, so their records are unchanged.
        hedges_issued: cluster runs only — duplicate leaves issued by the
            hedged-request timer.
        events_processed: perf counter — simulation events executed by
            the engine during the run (cluster runs share one simulator,
            so the cluster result carries the fleet-wide count).
        peak_pending_events: perf counter — high-water mark of the event
            heap; the memory bound streaming event sources maintain.
        timeline: telemetry runs only — the JSON-safe simulated-time
            series dict sampled by :class:`~repro.obs.timeline.
            TimelineSampler` (``None`` unless ``telemetry_hz`` was set,
            so untracked results and their records are unchanged).
    """

    config_name: str
    workload_name: str
    qps: float
    horizon: float
    cores: int
    residency: Dict[str, float]
    transitions_per_second: Dict[str, float]
    avg_core_power: float
    package_power: float
    server_latency: PercentileTracker
    completed: int
    turbo_grant_rate: float
    network_latency: float
    snoops_served: int = 0
    node_detail: Optional[List[Dict[str, object]]] = None
    hedges_issued: int = 0
    events_processed: int = 0
    peak_pending_events: int = 0
    timeline: Optional[Dict[str, object]] = None

    # -- latency views ------------------------------------------------------
    @property
    def avg_latency(self) -> float:
        """Average server-side latency (seconds)."""
        return self.server_latency.mean

    @property
    def tail_latency(self) -> float:
        """p99 server-side latency (seconds)."""
        return self.server_latency.p99

    @property
    def avg_latency_e2e(self) -> float:
        """Average end-to-end latency (network + server side)."""
        return self.network_latency + self.avg_latency

    @property
    def tail_latency_e2e(self) -> float:
        return self.network_latency + self.tail_latency

    # -- throughput ------------------------------------------------------------
    @property
    def achieved_qps(self) -> float:
        if self.horizon <= 0:
            return 0.0
        return self.completed / self.horizon

    @property
    def utilization(self) -> float:
        """C0 residency — the fraction of core-time doing work."""
        return self.residency.get("C0", 0.0)

    # -- structured output --------------------------------------------------
    # -- perf counters ------------------------------------------------------
    @property
    def events_per_request(self) -> float:
        """Simulation events per completed request — the work-per-outcome
        ratio ``sweep --emit perf`` consumers normalise wall time by."""
        if self.completed <= 0:
            return 0.0
        return self.events_processed / self.completed

    def to_record(self, detail: bool = True) -> Dict[str, object]:
        """Flat JSON-safe record of this run's observables.

        The headline metrics are always present; ``detail`` adds the
        C-state ``residency`` fractions and per-core
        ``transitions_per_second`` dicts (key-sorted for stable output).
        This is the canonical record shape of the Experiment API and of
        ``repro sweep --emit residency``. The four latency fields are
        ``None`` when no request completed.
        """
        # A point that completed no request has no latency: null, not a
        # fabricated 0.0 mean or a percentile of nothing.
        sampled = self.server_latency.count > 0
        record: Dict[str, object] = {
            "workload": self.workload_name,
            "config": self.config_name,
            "qps": self.qps,
            "horizon": self.horizon,
            "cores": self.cores,
            "completed": self.completed,
            "achieved_qps": self.achieved_qps,
            "avg_core_power": self.avg_core_power,
            "package_power": self.package_power,
            "avg_latency": self.avg_latency if sampled else None,
            "p99_latency": self.tail_latency if sampled else None,
            "avg_latency_e2e": self.avg_latency_e2e if sampled else None,
            "p99_latency_e2e": self.tail_latency_e2e if sampled else None,
            "turbo_grant_rate": self.turbo_grant_rate,
            "snoops_served": self.snoops_served,
        }
        if self.server_latency.sketch_error is not None:
            # Sketch-backed runs label their latency figures with the
            # relative-error guarantee; exact records keep their shape.
            record["latency_sketch_error"] = self.server_latency.sketch_error
        if self.node_detail is not None:
            # Cluster runs only, so single-node records keep their shape.
            record["nodes"] = len(self.node_detail)
            record["hedges_issued"] = self.hedges_issued
        if detail:
            record["residency"] = {
                k: v for k, v in sorted(self.residency.items())
            }
            record["transitions_per_second"] = {
                k: v for k, v in sorted(self.transitions_per_second.items())
            }
            if self.node_detail is not None:
                record["node_detail"] = self.node_detail
        return record

    def summary(self) -> str:
        from repro.units import pretty_power, pretty_time

        parts = [
            f"{self.workload_name}/{self.config_name} @ {self.qps:.0f} QPS:",
            f"power/core {pretty_power(self.avg_core_power)}",
            f"pkg {pretty_power(self.package_power)}",
            f"avg {pretty_time(self.avg_latency)}",
            f"p99 {pretty_time(self.tail_latency)}",
            "residency "
            + " ".join(f"{k}={v * 100:.0f}%" for k, v in sorted(self.residency.items())),
        ]
        return "  ".join(parts)


def compare_power(baseline: RunResult, other: RunResult) -> float:
    """Fractional average-core-power reduction of ``other`` vs baseline."""
    if baseline.avg_core_power <= 0:
        return 0.0
    return (baseline.avg_core_power - other.avg_core_power) / baseline.avg_core_power


def compare_latency(
    baseline: RunResult, other: RunResult, tail: bool = False
) -> Optional[float]:
    """Fractional end-to-end latency reduction of ``other`` vs baseline
    (positive: ``other`` is faster), on the mean or, with ``tail``, on
    p99; ``None`` when either run completed no request."""
    if not (baseline.server_latency.count and other.server_latency.count):
        return None
    base = baseline.tail_latency_e2e if tail else baseline.avg_latency_e2e
    new = other.tail_latency_e2e if tail else other.avg_latency_e2e
    if base <= 0:
        return 0.0
    return (base - new) / base

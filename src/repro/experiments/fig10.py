"""Fig 10: AW's power and latency reduction over the tuned configurations.

Compares the AW hierarchy (Turbo disabled, matching the tuned configs)
against NT_Baseline, NT_No_C6 and NT_No_C6_No_C1E across the Memcached
sweep.

Expected shape (Sec 7.2): AW reduces power against *all three* —
the paper's averages are 23.5% / 28.6% / 35.3% with a peak around 70% at
low load vs the C1-parked NT_No_C6_No_C1E — while its latency is
comparable to or better than every tuned config (it beats the C6/C1E
configs by up to ~5%/~26% avg/tail and trails NT_No_C6_No_C1E by < 1%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ResultMap,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import format_table, pct
from repro.experiments.fig9 import TUNED_CONFIGS
from repro.server.metrics import RunResult, compare_power
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.workloads.memcached import MEMCACHED_RATES_KQPS

#: The AW configuration matched against the no-Turbo tuned configs. The
#: paper's Fig 10 AW point is the recommended hierarchy of Sec 7.3: C6A
#: enabled, C6 and C1E (and thus C6AE) disabled — that is what lets AW
#: *beat* NT_Baseline/NT_No_C6 on latency (no 10 us / 133 us transitions)
#: while staying within 1% of NT_No_C6_No_C1E.
AW_CONFIG = "NT_C6A_No_C6_No_C1E"


def _e2e_latency_reduction(base: RunResult, other: RunResult, tail: bool) -> float:
    """Fractional end-to-end latency reduction (positive: other faster).

    Fig 9/10/11 latencies are end-to-end (the 117 us network component
    included), so reductions are computed on the same basis.
    """
    base_lat = base.tail_latency_e2e if tail else base.avg_latency_e2e
    new_lat = other.tail_latency_e2e if tail else other.avg_latency_e2e
    if base_lat <= 0:
        return 0.0
    return (base_lat - new_lat) / base_lat


@dataclass
class Fig10Point:
    """AW-vs-tuned comparisons at one request rate."""

    qps: float
    aw: RunResult
    power_reduction: Dict[str, float]
    avg_latency_reduction: Dict[str, float]
    tail_latency_reduction: Dict[str, float]


@dataclass(frozen=True)
class Fig10Params(SweepParams):
    """Fig 10 sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""

    default_rates = tuple(MEMCACHED_RATES_KQPS)


@register_experiment
class Fig10Experiment(Experiment):
    id = "fig10"
    title = "Fig 10: AW's power and latency reduction over the tuned configurations."
    artifact = "Figure 10"
    Params = Fig10Params

    def _spec(self, config: str, kqps: float) -> ScenarioSpec:
        p = self.params
        return ScenarioSpec(
            workload="memcached", config=config, qps=kqps * 1000.0,
            horizon=p.horizon, cores=p.cores, seed=p.seed,
        )

    def grid(self) -> ScenarioGrid:
        # Superset of Fig 9's grid at equal params: the tuned baselines
        # are shared, so a batched cross-experiment run simulates them
        # once for both figures.
        return ScenarioGrid([
            self._spec(config, kqps)
            for config in [AW_CONFIG] + TUNED_CONFIGS
            for kqps in self.params.resolved_rates()
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        points: List[Fig10Point] = []
        for kqps in self.params.resolved_rates():
            qps = kqps * 1000.0
            aw = self.point(results, self._spec(AW_CONFIG, kqps))
            power: Dict[str, float] = {}
            avg_lat: Dict[str, float] = {}
            tail_lat: Dict[str, float] = {}
            for config in TUNED_CONFIGS:
                base = self.point(results, self._spec(config, kqps))
                power[config] = compare_power(base, aw)
                avg_lat[config] = _e2e_latency_reduction(base, aw, tail=False)
                tail_lat[config] = _e2e_latency_reduction(base, aw, tail=True)
            points.append(
                Fig10Point(
                    qps=qps,
                    aw=aw,
                    power_reduction=power,
                    avg_latency_reduction=avg_lat,
                    tail_latency_reduction=tail_lat,
                )
            )
        records = [
            {
                "qps": point.qps,
                "aw_config": AW_CONFIG,
                "power_reduction": point.power_reduction,
                "avg_latency_reduction": point.avg_latency_reduction,
                "tail_latency_reduction": point.tail_latency_reduction,
                "aw": point.aw.to_record(),
            }
            for point in points
        ]
        notes = [
            f"peak power reduction: {pct(peak_power_reduction(points))} "
            "(paper: up to ~71%)"
        ]
        return self.make_result(records=records, payload=points, notes=notes)

    def render_text(self, result: ExperimentResult) -> str:
        points: List[Fig10Point] = result.payload
        lines = ["Fig 10: AW (no Turbo) vs tuned configurations"]
        rows = []
        for p in points:
            rows.append(
                [f"{p.qps / 1000:.0f}K"]
                + [pct(p.power_reduction[c]) for c in TUNED_CONFIGS]
                + [pct(p.avg_latency_reduction[c]) for c in TUNED_CONFIGS]
                + [pct(p.tail_latency_reduction[c]) for c in TUNED_CONFIGS]
            )
        avgs = average_power_reduction(points)
        rows.append(["Avg"] + [pct(avgs[c]) for c in TUNED_CONFIGS] + [""] * 6)
        headers = (
            ["QPS"]
            + [f"dP {c}" for c in TUNED_CONFIGS]
            + [f"dAvgLat {c}" for c in TUNED_CONFIGS]
            + [f"dTailLat {c}" for c in TUNED_CONFIGS]
        )
        lines.append(format_table(headers, rows))
        lines.append("")
        lines.append(
            f"peak power reduction: {pct(peak_power_reduction(points))} "
            "(paper: up to ~71%)"
        )
        return "\n".join(lines)

    def quick_params(self) -> Fig10Params:
        return Fig10Params.quick()


def average_power_reduction(points: Sequence[Fig10Point]) -> Dict[str, float]:
    """The per-config 'Avg' bars (paper: 23.5% / 28.6% / 35.3%)."""
    out: Dict[str, float] = {}
    for config in TUNED_CONFIGS:
        out[config] = sum(p.power_reduction[config] for p in points) / len(points)
    return out


def peak_power_reduction(points: Sequence[Fig10Point]) -> float:
    """The headline 'up to' number (paper: up to ~71%)."""
    return max(p.power_reduction[c] for p in points for c in TUNED_CONFIGS)

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
    ExperimentResult,
    RateSweepExperiment,
    ResultMap,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import Block, Table, column, pct, percent, qps_column
from repro.experiments.fig9 import TUNED_CONFIGS
from repro.server.metrics import RunResult, compare_latency, compare_power

#: The AW configuration matched against the no-Turbo tuned configs. The
#: paper's Fig 10 AW point is the recommended hierarchy of Sec 7.3: C6A
#: enabled, C6 and C1E (and thus C6AE) disabled — that is what lets AW
#: *beat* NT_Baseline/NT_No_C6 on latency (no 10 us / 133 us transitions)
#: while staying within 1% of NT_No_C6_No_C1E.
AW_CONFIG = "NT_C6A_No_C6_No_C1E"


@dataclass
class Fig10Point:
    """AW-vs-tuned comparisons at one request rate.

    Fig 9/10/11 latencies are end-to-end (the 117 us network component
    included), so the latency reductions are too; ``None`` where a run
    completed no request.
    """

    qps: float
    aw: RunResult
    power_reduction: Dict[str, float]
    avg_latency_reduction: Dict[str, Optional[float]]
    tail_latency_reduction: Dict[str, Optional[float]]


@dataclass(frozen=True)
class Fig10Params(SweepParams):
    """Fig 10 sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""


@register_experiment
class Fig10Experiment(RateSweepExperiment):
    id = "fig10"
    title = "Fig 10: AW's power and latency reduction over the tuned configurations."
    artifact = "Figure 10"
    Params = Fig10Params
    # Superset of Fig 9's grid at equal params: the tuned baselines are
    # shared, so a batched cross-experiment run simulates them once for
    # both figures.
    CONFIGS = (AW_CONFIG, *TUNED_CONFIGS)

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        points: List[Fig10Point] = []
        records = []
        for kqps in self.params.resolved_rates():
            qps = kqps * 1000.0
            aw = self.point(results, self._spec(AW_CONFIG, kqps))
            power: Dict[str, float] = {}
            avg_lat: Dict[str, Optional[float]] = {}
            tail_lat: Dict[str, Optional[float]] = {}
            for config in TUNED_CONFIGS:
                base = self.point(results, self._spec(config, kqps))
                power[config] = compare_power(base, aw)
                avg_lat[config] = compare_latency(base, aw)
                tail_lat[config] = compare_latency(base, aw, tail=True)
            reductions = {
                "power_reduction": power,
                "avg_latency_reduction": avg_lat,
                "tail_latency_reduction": tail_lat,
            }
            points.append(Fig10Point(qps=qps, aw=aw, **reductions))
            records.append({
                "qps": qps, "aw_config": AW_CONFIG, **reductions,
                "aw": aw.to_record(),
            })
        notes = [
            f"peak power reduction: {pct(peak_power_reduction(points))} "
            "(paper: up to ~71%)"
        ]
        return self.make_result(records=records, payload=points, notes=notes)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        average = {
            "qps": "Avg",
            "power_reduction": average_power_reduction(result.payload),
        }
        columns = [qps_column]
        for key, label in (
            ("power_reduction", "dP"),
            ("avg_latency_reduction", "dAvgLat"),
            ("tail_latency_reduction", "dTailLat"),
        ):
            columns += [
                column(f"{label} {c}", (key, c), percent()) for c in TUNED_CONFIGS
            ]
        return [
            Table("Fig 10: AW (no Turbo) vs tuned configurations", columns,
                  result.records + [average]),
            *result.notes,
        ]


def average_power_reduction(points: Sequence[Fig10Point]) -> Dict[str, float]:
    """The per-config 'Avg' bars (paper: 23.5% / 28.6% / 35.3%)."""
    out: Dict[str, float] = {}
    for config in TUNED_CONFIGS:
        out[config] = sum(p.power_reduction[config] for p in points) / len(points)
    return out


def peak_power_reduction(points: Sequence[Fig10Point]) -> float:
    """The headline 'up to' number (paper: up to ~71%)."""
    return max(p.power_reduction[c] for p in points for c in TUNED_CONFIGS)

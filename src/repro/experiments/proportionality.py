"""Energy-proportionality experiment (Sec 7.1's framing, extended).

Builds the power-vs-load curves of the baseline and AW hierarchies from
the Memcached sweep and reports the two proportionality metrics. The
expected outcome: AW widens the dynamic range and shrinks the
proportionality gap — the server gets *closer to energy proportional*
exactly in the low-utilisation band datacenters occupy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analytical.proportionality import (
    ProportionalityReport,
    analyze_curve,
    curve_from_results,
)
from repro.experiments.api import (
    ExperimentResult,
    RateSweepExperiment,
    ResultMap,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import Block, Table, column, number, percent


@dataclass
class ProportionalityComparison:
    baseline: ProportionalityReport
    agilewatts: ProportionalityReport


@dataclass(frozen=True)
class ProportionalityParams(SweepParams):
    """Curve sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""


@register_experiment
class ProportionalityExperiment(RateSweepExperiment):
    id = "proportionality"
    title = "Energy-proportionality experiment (Sec 7.1's framing, extended)."
    artifact = "extension"
    Params = ProportionalityParams
    CONFIGS = ("baseline", "AW")

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        sweep = self.sweep(results)
        comparison = ProportionalityComparison(
            baseline=analyze_curve(curve_from_results(sweep.series("baseline"))),
            agilewatts=analyze_curve(curve_from_results(sweep.series("AW"))),
        )
        records = []
        for name, report in (
            ("baseline", comparison.baseline),
            ("AW", comparison.agilewatts),
        ):
            records.append(
                {
                    "config": name,
                    "lightest_load_power_w": report.curve[0][1],
                    "peak_power_w": report.curve[-1][1],
                    "dynamic_range": report.dynamic_range,
                    "proportionality_gap": report.proportionality_gap,
                    "curve": [
                        {"utilization": u, "power_w": p} for u, p in report.curve
                    ],
                }
            )
        return self.make_result(records=records, payload=comparison)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        watts = number(".2f", suffix=" W")
        curves = [
            f"  {record['config']}: " + ", ".join(
                f"{point['utilization'] * 100:.0f}%:{point['power_w']:.2f}W"
                for point in record["curve"]
            )
            for record in result.records
        ]
        return [
            Table("Energy proportionality: baseline vs AW (Memcached sweep)", [
                column("Config", "config"),
                column("Lightest-load power", "lightest_load_power_w", watts),
                column("Peak power", "peak_power_w", watts),
                column("Dynamic range", "dynamic_range", number(".2f", suffix="x")),
                column("Proportionality gap", "proportionality_gap", percent()),
            ], result.records),
            "\n".join(["curves (utilisation -> power/core):", *curves]),
        ]

    def quick_params(self) -> ProportionalityParams:
        # Two rates: the proportionality metrics need a curve, not a point.
        return ProportionalityParams.quick(rates_kqps=(20.0, 100.0))

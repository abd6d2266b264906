"""Energy-proportionality experiment (Sec 7.1's framing, extended).

Builds the power-vs-load curves of the baseline and AW hierarchies from
the Memcached sweep and reports the two proportionality metrics. The
expected outcome: AW widens the dynamic range and shrinks the
proportionality gap — the server gets *closer to energy proportional*
exactly in the low-utilisation band datacenters occupy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analytical.proportionality import (
    ProportionalityReport,
    analyze_curve,
    curve_from_results,
)
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ResultMap,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import format_table
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.workloads.memcached import MEMCACHED_RATES_KQPS


@dataclass
class ProportionalityComparison:
    baseline: ProportionalityReport
    agilewatts: ProportionalityReport


@dataclass(frozen=True)
class ProportionalityParams(SweepParams):
    """Curve sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""

    default_rates = tuple(MEMCACHED_RATES_KQPS)


@register_experiment
class ProportionalityExperiment(Experiment):
    id = "proportionality"
    title = "Energy-proportionality experiment (Sec 7.1's framing, extended)."
    artifact = "extension"
    Params = ProportionalityParams

    def _spec(self, config: str, kqps: float) -> ScenarioSpec:
        p = self.params
        return ScenarioSpec(
            workload="memcached", config=config, qps=kqps * 1000.0,
            horizon=p.horizon, cores=p.cores, seed=p.seed,
        )

    def grid(self) -> ScenarioGrid:
        return ScenarioGrid([
            self._spec(config, kqps)
            for config in ("baseline", "AW")
            for kqps in self.params.resolved_rates()
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        rates = self.params.resolved_rates()
        base = [self.point(results, self._spec("baseline", k)) for k in rates]
        aw = [self.point(results, self._spec("AW", k)) for k in rates]
        comparison = ProportionalityComparison(
            baseline=analyze_curve(curve_from_results(base)),
            agilewatts=analyze_curve(curve_from_results(aw)),
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

    def render_text(self, result: ExperimentResult) -> str:
        comparison: ProportionalityComparison = result.payload
        lines = ["Energy proportionality: baseline vs AW (Memcached sweep)"]
        rows = []
        for name, report in (
            ("baseline", comparison.baseline),
            ("AW", comparison.agilewatts),
        ):
            rows.append(
                [
                    name,
                    f"{report.curve[0][1]:.2f} W",
                    f"{report.curve[-1][1]:.2f} W",
                    f"{report.dynamic_range:.2f}x",
                    f"{report.proportionality_gap * 100:.1f}%",
                ]
            )
        lines.append(
            format_table(
                ["Config", "Lightest-load power", "Peak power", "Dynamic range",
                 "Proportionality gap"],
                rows,
            )
        )
        lines.append("")
        lines.append("curves (utilisation -> power/core):")
        for name, report in (
            ("baseline", comparison.baseline),
            ("AW", comparison.agilewatts),
        ):
            series = ", ".join(
                f"{u * 100:.0f}%:{p:.2f}W" for u, p in report.curve
            )
            lines.append(f"  {name}: {series}")
        return "\n".join(lines)

    def quick_params(self) -> ProportionalityParams:
        # Two rates: the proportionality metrics need a curve, not a point.
        return ProportionalityParams.quick(rates_kqps=(20.0, 100.0))

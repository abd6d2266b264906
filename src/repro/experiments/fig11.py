"""Fig 11: the effect of idle states on Turbo performance.

Six configurations over the Memcached sweep — with and without Turbo, for
C6-disabled, C6+C1E-disabled, and AW's C6A-only hierarchy:

    NT_No_C6,           NT_No_C6_No_C1E,     NT_C6A_No_C6_No_C1E
    T_No_C6,            T_No_C6_No_C1E,      T_C6A_No_C6_No_C1E

Expected observations (Sec 7.3):

1. with Turbo off, disabling C1E helps latency (no 10 us transitions);
2. enabling Turbo while C1E is disabled does NOT improve performance —
   idle cores burn C1 power, so no thermal headroom accumulates;
3. with Turbo on, T_No_C6 ~= T_No_C6_No_C1E — C1E's transition overhead
   offsets its thermal-capacitance gains;
4. C6A + Turbo (the dashed green line) gets both: C1E-free latency *and*
   headroom, the best average/tail latency of the set.
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
from repro.experiments.common import format_table
from repro.server import RunResult
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.units import seconds_to_us
from repro.workloads.memcached import MEMCACHED_RATES_KQPS

NO_TURBO_CONFIGS = ["NT_No_C6", "NT_No_C6_No_C1E", "NT_C6A_No_C6_No_C1E"]
TURBO_CONFIGS = ["T_No_C6", "T_No_C6_No_C1E", "T_C6A_No_C6_No_C1E"]


@dataclass
class Fig11Sweep:
    """Latency series for all six configurations."""

    results: Dict[str, List[RunResult]]
    rates_kqps: Sequence[float]

    def avg_latency_us(self, config: str) -> List[float]:
        return [seconds_to_us(r.avg_latency_e2e) for r in self.results[config]]

    def tail_latency_us(self, config: str) -> List[float]:
        return [seconds_to_us(r.tail_latency_e2e) for r in self.results[config]]

    def turbo_grant_rates(self, config: str) -> List[float]:
        return [r.turbo_grant_rate for r in self.results[config]]


@dataclass(frozen=True)
class Fig11Params(SweepParams):
    """Fig 11 sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""

    default_rates = tuple(MEMCACHED_RATES_KQPS)


@register_experiment
class Fig11Experiment(Experiment):
    id = "fig11"
    title = "Fig 11: the effect of idle states on Turbo performance."
    artifact = "Figure 11"
    Params = Fig11Params

    def _spec(self, config: str, kqps: float) -> ScenarioSpec:
        p = self.params
        return ScenarioSpec(
            workload="memcached", config=config, qps=kqps * 1000.0,
            horizon=p.horizon, cores=p.cores, seed=p.seed,
        )

    def grid(self) -> ScenarioGrid:
        return ScenarioGrid([
            self._spec(config, kqps)
            for config in NO_TURBO_CONFIGS + TURBO_CONFIGS
            for kqps in self.params.resolved_rates()
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        rates = self.params.resolved_rates()
        configs = NO_TURBO_CONFIGS + TURBO_CONFIGS
        by_config = {
            name: [self.point(results, self._spec(name, kqps)) for kqps in rates]
            for name in configs
        }
        sweep = Fig11Sweep(results=by_config, rates_kqps=list(rates))
        records = [
            run.to_record()
            for name in configs
            for run in by_config[name]
        ]
        return self.make_result(records=records, payload=sweep)

    def render_text(self, result: ExperimentResult) -> str:
        sweep: Fig11Sweep = result.payload
        lines: List[str] = []
        for title, configs, tail in [
            ("Fig 11(a): No Turbo - avg latency (us)", NO_TURBO_CONFIGS, False),
            ("Fig 11(b): Turbo - avg latency (us)", TURBO_CONFIGS, False),
            ("Fig 11(c): No Turbo - tail latency (us)", NO_TURBO_CONFIGS, True),
            ("Fig 11(d): Turbo - tail latency (us)", TURBO_CONFIGS, True),
        ]:
            lines.append(title)
            rows = []
            for i, kqps in enumerate(sweep.rates_kqps):
                vals = [
                    sweep.tail_latency_us(c)[i] if tail
                    else sweep.avg_latency_us(c)[i]
                    for c in configs
                ]
                rows.append([f"{kqps:.0f}K"] + [f"{v:.1f}" for v in vals])
            lines.append(format_table(["QPS"] + configs, rows))
            lines.append("")

        lines.append("Turbo grant rates (fraction of busy-period starts boosted)")
        rows = []
        for i, kqps in enumerate(sweep.rates_kqps):
            rows.append(
                [f"{kqps:.0f}K"]
                + [f"{sweep.turbo_grant_rates(c)[i] * 100:.0f}%"
                   for c in TURBO_CONFIGS]
            )
        lines.append(format_table(["QPS"] + TURBO_CONFIGS, rows))
        return "\n".join(lines)

    def quick_params(self) -> Fig11Params:
        return Fig11Params.quick()

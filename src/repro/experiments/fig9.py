"""Fig 9: the three vendor-tuned configurations on Memcached.

Sweeps NT_Baseline (Turbo off), NT_No_C6 (Turbo and C6 off) and
NT_No_C6_No_C1E (Turbo, C6 and C1E off) and reports (a) average latency,
(b) tail latency, (c) package power, (d) C-state residency.

Expected shape (Sec 7.2): NT_No_C6_No_C1E has the lowest latency but the
highest power across the sweep — disabling C1E removes its 10 us
transition penalty but parks idle cores in power-hungry C1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ResultMap,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import format_table, pct
from repro.server import RunResult
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.units import seconds_to_us
from repro.workloads.memcached import MEMCACHED_RATES_KQPS

#: The three Sec 7.2 configurations, in the paper's order.
TUNED_CONFIGS = ["NT_Baseline", "NT_No_C6", "NT_No_C6_No_C1E"]


@dataclass
class Fig9Sweep:
    """Results of the tuned-configuration sweep, keyed by config name."""

    results: Dict[str, List[RunResult]]
    rates_kqps: Sequence[float]

    def series(self, config: str) -> List[RunResult]:
        return self.results[config]


@dataclass(frozen=True)
class Fig9Params(SweepParams):
    """Fig 9 sweep knobs; ``None`` fields use the paper's defaults."""

    configs: Optional[Tuple[str, ...]] = None

    default_rates = tuple(MEMCACHED_RATES_KQPS)

    def resolved_configs(self) -> Tuple[str, ...]:
        if self.configs is None:
            return tuple(TUNED_CONFIGS)
        return tuple(self.configs)


@register_experiment
class Fig9Experiment(Experiment):
    id = "fig9"
    title = "Fig 9: the three vendor-tuned configurations on Memcached."
    artifact = "Figure 9"
    Params = Fig9Params

    def _spec(self, config: str, kqps: float) -> ScenarioSpec:
        p = self.params
        return ScenarioSpec(
            workload="memcached", config=config, qps=kqps * 1000.0,
            horizon=p.horizon, cores=p.cores, seed=p.seed,
        )

    def grid(self) -> ScenarioGrid:
        return ScenarioGrid([
            self._spec(config, kqps)
            for config in self.params.resolved_configs()
            for kqps in self.params.resolved_rates()
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        rates = self.params.resolved_rates()
        configs = self.params.resolved_configs()
        by_config = {
            name: [self.point(results, self._spec(name, kqps)) for kqps in rates]
            for name in configs
        }
        sweep = Fig9Sweep(results=by_config, rates_kqps=list(rates))
        records = [
            run.to_record()
            for name in configs
            for run in by_config[name]
        ]
        return self.make_result(records=records, payload=sweep)

    def render_text(self, result: ExperimentResult) -> str:
        sweep: Fig9Sweep = result.payload
        configs = list(sweep.results)
        lines = ["Fig 9(a): average end-to-end latency (us)"]
        rows = []
        for i, kqps in enumerate(sweep.rates_kqps):
            rows.append(
                [f"{kqps:.0f}K"]
                + [f"{seconds_to_us(sweep.results[c][i].avg_latency_e2e):.1f}"
                   for c in configs]
            )
        lines.append(format_table(["QPS"] + configs, rows))

        lines.append("")
        lines.append("Fig 9(b): tail (p99) end-to-end latency (us)")
        rows = []
        for i, kqps in enumerate(sweep.rates_kqps):
            rows.append(
                [f"{kqps:.0f}K"]
                + [f"{seconds_to_us(sweep.results[c][i].tail_latency_e2e):.1f}"
                   for c in configs]
            )
        lines.append(format_table(["QPS"] + configs, rows))

        lines.append("")
        lines.append("Fig 9(c): package power (W)")
        rows = []
        for i, kqps in enumerate(sweep.rates_kqps):
            rows.append(
                [f"{kqps:.0f}K"]
                + [f"{sweep.results[c][i].package_power:.1f}" for c in configs]
            )
        lines.append(format_table(["QPS"] + configs, rows))

        lines.append("")
        lines.append("Fig 9(d): C-state residency per configuration")
        states = sorted(
            {s for series in sweep.results.values() for r in series
             for s in r.residency}
        )
        rows = []
        for i, kqps in enumerate(sweep.rates_kqps):
            for c in configs:
                r = sweep.results[c][i]
                rows.append(
                    [f"{kqps:.0f}K", c]
                    + [pct(r.residency.get(s, 0.0), 0) for s in states]
                )
        lines.append(format_table(["QPS", "Config"] + states, rows))
        return "\n".join(lines)

    def quick_params(self) -> Fig9Params:
        return Fig9Params.quick()

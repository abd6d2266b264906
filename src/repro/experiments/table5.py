"""Table 5: yearly datacenter cost savings per 100K servers.

Feeds the per-core power deltas of the Fig 8 Memcached sweep (baseline
minus AW) into the Sec 7.6 cost model: $0.125/kWh, 20 cores per server,
100 000 servers. The paper reports $0.33M-$0.59M per year with the peak
at mid-low load where AW's absolute watt savings are largest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analytical.cost import CostModel, yearly_savings_musd
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


@dataclass(frozen=True)
class Table5Params(SweepParams):
    """Cost-model sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""

    cost_model: CostModel = field(default_factory=CostModel)

    default_rates = tuple(MEMCACHED_RATES_KQPS)


@register_experiment
class Table5Experiment(Experiment):
    id = "table5"
    title = "Table 5: yearly datacenter cost savings per 100K servers."
    artifact = "Table 5"
    Params = Table5Params

    def _spec(self, config: str, kqps: float) -> ScenarioSpec:
        p = self.params
        return ScenarioSpec(
            workload="memcached", config=config, qps=kqps * 1000.0,
            horizon=p.horizon, cores=p.cores, seed=p.seed,
        )

    def grid(self) -> ScenarioGrid:
        # Identical to Fig 8's grid at equal params: a batched run
        # simulates the sweep once for both artifacts.
        return ScenarioGrid([
            self._spec(config, kqps)
            for config in ("baseline", "AW")
            for kqps in self.params.resolved_rates()
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        deltas: Dict[str, float] = {}
        for kqps in self.params.resolved_rates():
            base = self.point(results, self._spec("baseline", kqps))
            aw = self.point(results, self._spec("AW", kqps))
            deltas[f"{kqps:.0f}K"] = max(
                0.0, base.avg_core_power - aw.avg_core_power
            )
        savings = yearly_savings_musd(deltas, self.params.cost_model)
        records = [
            {
                "qps_label": label,
                "power_delta_w": deltas[label],
                "savings_musd_per_year": musd,
            }
            for label, musd in savings.items()
        ]
        return self.make_result(
            records=records, payload=savings,
            notes=["paper band: $0.33M - $0.59M per year"],
        )

    def render_text(self, result: ExperimentResult) -> str:
        savings: Dict[str, float] = result.payload
        lines = ["Table 5: AW yearly cost savings ($M per 100K servers)"]
        rows = [[label, f"{musd:.2f}"] for label, musd in savings.items()]
        lines.append(format_table(["QPS", "Savings ($M/yr)"], rows))
        lines.append("")
        lines.append("paper band: $0.33M - $0.59M per year")
        return "\n".join(lines)

    def quick_params(self) -> Table5Params:
        return Table5Params.quick()

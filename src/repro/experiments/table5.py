"""Table 5: yearly datacenter cost savings per 100K servers.

Feeds the per-core power deltas of the Fig 8 Memcached sweep (baseline
minus AW) into the Sec 7.6 cost model: $0.125/kWh, 20 cores per server,
100 000 servers. The paper reports $0.33M-$0.59M per year with the peak
at mid-low load where AW's absolute watt savings are largest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analytical.cost import CostModel, yearly_savings_musd
from repro.experiments.api import (
    ExperimentResult,
    RateSweepExperiment,
    ResultMap,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import Block, Table, column, number


@dataclass(frozen=True)
class Table5Params(SweepParams):
    """Cost-model sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""

    cost_model: CostModel = field(default_factory=CostModel)


@register_experiment
class Table5Experiment(RateSweepExperiment):
    id = "table5"
    title = "Table 5: yearly datacenter cost savings per 100K servers."
    artifact = "Table 5"
    Params = Table5Params
    # Fig 8's grid at equal params: a batched run simulates the sweep
    # once for both artifacts.
    CONFIGS = ("baseline", "AW")

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        sweep = self.sweep(results)
        deltas: Dict[str, float] = {
            f"{kqps:.0f}K": max(0.0, base.avg_core_power - aw.avg_core_power)
            for kqps, base, aw in zip(
                sweep.rates_kqps, sweep.series("baseline"), sweep.series("AW")
            )
        }
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

    def blocks(self, result: ExperimentResult) -> List[Block]:
        return [
            Table("Table 5: AW yearly cost savings ($M per 100K servers)", [
                column("QPS", "qps_label"),
                column("Savings ($M/yr)", "savings_musd_per_year", number(".2f")),
            ], result.records),
            *result.notes,
        ]

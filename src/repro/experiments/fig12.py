"""Fig 12: MySQL (sysbench OLTP) evaluation at low/mid/high rates.

Panels:

(a) C-state residency of the baseline (C1 + C6 enabled, Turbo on);
(b) residency with C6 disabled — all that C6 time becomes C1;
(c) tail and average latency reduction from disabling C6;
(d) AW average power reduction (C6A replacing that C1 time) vs the
    C6-disabled configuration.

Expected shape (Sec 7.4): the baseline holds >= 40% C6 residency at every
rate, disabling C6 improves latency by ~4-10%, and C6A then recovers
~22-56% average power that the C6-disable threw away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Tuple

from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ResultMap,
    register_experiment,
)
from repro.experiments.common import Block, Table, column, percent, residency_table
from repro.server import RunResult
from repro.server.metrics import compare_latency, compare_power
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.sweep.spec import DEFAULT_CORES, DEFAULT_SEED
from repro.workloads.mysql import MYSQL_RATES

#: MySQL transactions are long; a longer horizon keeps request counts up.
MYSQL_HORIZON = 4.0

BASELINE = "T_Baseline_No_C1E"
NO_C6 = "T_No_C6_No_C1E"
AW = "T_C6A_No_C6_No_C1E"


@dataclass
class Fig12Point:
    """All Fig 12 observables at one operating point."""

    label: str
    qps: float
    baseline: RunResult
    no_c6: RunResult
    aw: RunResult

    @property
    def baseline_residency(self) -> Dict[str, float]:
        return self.baseline.residency

    @property
    def no_c6_residency(self) -> Dict[str, float]:
        return self.no_c6.residency

    @property
    def avg_latency_reduction(self) -> Optional[float]:
        """Panel (c): average end-to-end latency gain from disabling C6
        (``None`` where a run completed no request)."""
        return compare_latency(self.baseline, self.no_c6)

    @property
    def tail_latency_reduction(self) -> Optional[float]:
        return compare_latency(self.baseline, self.no_c6, tail=True)

    @property
    def aw_power_reduction(self) -> float:
        """Panel (d): AW's C6A vs the C6-disabled configuration."""
        return compare_power(self.no_c6, self.aw)


@dataclass(frozen=True)
class Fig12Params:
    """Operating-point knobs; ``rates=None`` uses the paper's rates."""

    rates: Optional[Tuple[Tuple[str, float], ...]] = None
    horizon: float = MYSQL_HORIZON
    cores: int = DEFAULT_CORES
    seed: int = DEFAULT_SEED
    workload_name: str = "mysql"

    #: The paper's operating points, used when ``rates`` is None.
    default_rates: ClassVar[Mapping[str, float]] = MYSQL_RATES

    def resolved_rates(self) -> "Dict[str, float]":
        return dict(self.default_rates if self.rates is None else self.rates)


@register_experiment
class Fig12Experiment(Experiment):
    id = "fig12"
    title = "Fig 12: MySQL (sysbench OLTP) evaluation at low/mid/high rates."
    artifact = "Figure 12"
    Params = Fig12Params

    def _spec(self, config: str, qps: float) -> ScenarioSpec:
        p = self.params
        return ScenarioSpec(
            workload=p.workload_name, config=config, qps=qps,
            horizon=p.horizon, cores=p.cores, seed=p.seed,
        )

    def grid(self) -> ScenarioGrid:
        return ScenarioGrid([
            self._spec(config, qps)
            for config in (BASELINE, NO_C6, AW)
            for qps in self.params.resolved_rates().values()
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        points = []
        for label, qps in self.params.resolved_rates().items():
            points.append(
                Fig12Point(
                    label=label,
                    qps=qps,
                    baseline=self.point(results, self._spec(BASELINE, qps)),
                    no_c6=self.point(results, self._spec(NO_C6, qps)),
                    aw=self.point(results, self._spec(AW, qps)),
                )
            )
        records = [
            {
                "label": point.label,
                "qps": point.qps,
                "avg_latency_reduction": point.avg_latency_reduction,
                "tail_latency_reduction": point.tail_latency_reduction,
                "aw_power_reduction": point.aw_power_reduction,
                "baseline": point.baseline.to_record(),
                "no_c6": point.no_c6.to_record(),
                "aw": point.aw.to_record(),
            }
            for point in points
        ]
        return self.make_result(records=records, payload=points)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        number = self.artifact.split()[-1]
        rate = column("Rate", "label")
        records = result.records
        return [
            residency_table(
                f"Fig {number}(a): baseline C-state residency", [rate], records,
                lambda record: record["baseline"]["residency"],
            ),
            residency_table(
                f"Fig {number}(b): residency with C6 disabled", [rate], records,
                lambda record: record["no_c6"]["residency"],
            ),
            Table(f"Fig {number}(c): latency reduction from disabling C6", [
                rate,
                column("Tail lat", "tail_latency_reduction", percent()),
                column("Avg lat", "avg_latency_reduction", percent()),
            ], records),
            Table(f"Fig {number}(d): AW C6A average power reduction vs C6-disabled", [
                rate, column("AvgP reduction", "aw_power_reduction", percent()),
            ], records),
        ]

    def quick_params(self) -> Fig12Params:
        rates = self.params.resolved_rates()
        label, qps = next(iter(rates.items()))
        return type(self.params)(
            rates=((label, qps),), horizon=0.5,
            workload_name=self.params.workload_name,
        )

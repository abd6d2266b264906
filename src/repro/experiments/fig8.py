"""Fig 8: AW vs. the baseline configuration on Memcached.

Four panels, regenerated over the 10-500 KQPS sweep with the baseline
configuration (P-states disabled, Turbo and C-states enabled):

(a) C-state residency of the baseline;
(b) AW average-power reduction and average/tail latency degradation when
    C1/C1E are replaced by C6A/C6AE;
(c) average response-time degradation, worst case (one transition per
    query) vs expected case (observed transitions), server-side and
    end-to-end;
(d) performance scalability from 2.0 to 2.2 GHz.

Expected shape: power savings decline from ~40-50% at low load to ~10-15%
at 500 KQPS with latency degradation < ~1.3%, and end-to-end degradation
negligible because the 117 us network latency dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.cstates import C6A_EXTRA_TRANSITION
from repro.experiments.api import (
    ExperimentResult,
    RateSweepExperiment,
    ResultMap,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import (
    Block,
    Table,
    column,
    pct,
    percent,
    qps_column,
    residency_table,
)
from repro.server import RunResult, named_configuration, simulate
from repro.server.config import ServerConfiguration
from repro.server.metrics import compare_power
from repro.sweep.spec import WORKLOAD_FACTORIES

#: Replaced idle states whose transitions pay the ~100 ns AW overhead.
_REPLACED = ("C1", "C1E", "C6A", "C6AE")


@dataclass
class Fig8Point:
    """All Fig 8 observables at one request rate.

    Latency-derived values are ``None`` where a run completed no request.
    """

    qps: float
    baseline: RunResult
    aw: RunResult
    power_reduction: float
    avg_latency_degradation: Optional[float]
    tail_latency_degradation: Optional[float]
    worst_case_server_degradation: Optional[float]
    worst_case_e2e_degradation: Optional[float]
    expected_server_degradation: Optional[float]
    expected_e2e_degradation: Optional[float]
    scalability: Optional[float] = None

    @property
    def residency(self) -> Dict[str, float]:
        """Panel (a): baseline C-state residency."""
        return self.baseline.residency


def _per_query_overhead(workload, derate: float, transitions_per_query: float) -> float:
    """Extra time a query pays under AW: slower scalable work + its share
    of C6A/C6AE transition overheads."""
    scalable_mean = workload.service.scalable.mean
    slowdown = scalable_mean * (1.0 / (1.0 - derate) - 1.0)
    return slowdown + transitions_per_query * C6A_EXTRA_TRANSITION


#: Panel (b)/(c) latency degradations, in record order.
_DEGRADATIONS = (
    "avg_latency_degradation",
    "tail_latency_degradation",
    "worst_case_server_degradation",
    "worst_case_e2e_degradation",
    "expected_server_degradation",
    "expected_e2e_degradation",
)


def _degradations(
    base: RunResult, aw: RunResult, worst_extra: float, expected_extra: float
) -> Dict[str, Optional[float]]:
    """Panel (b)/(c) latency degradations of AW against the baseline;
    ``None`` each when either run completed no request."""
    if not (base.server_latency.count and aw.server_latency.count):
        return dict.fromkeys(_DEGRADATIONS)
    avg = (aw.avg_latency - base.avg_latency) / base.avg_latency
    tail = (aw.tail_latency - base.tail_latency) / base.tail_latency
    # p99 sorts the samples in place, and a mean's last bits follow the
    # sample order: panel (c) divides by the mean read after it, which
    # the pinned json digests depend on.
    server, e2e = base.avg_latency, base.avg_latency_e2e
    return dict(zip(_DEGRADATIONS, (
        avg, tail, worst_extra / server, worst_extra / e2e,
        expected_extra / server, expected_extra / e2e,
    )))


@dataclass(frozen=True)
class Fig8Params(SweepParams):
    """Fig 8 sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""

    with_scalability: bool = True


@register_experiment
class Fig8Experiment(RateSweepExperiment):
    id = "fig8"
    title = "Fig 8: AW vs. the baseline configuration on Memcached."
    artifact = "Figure 8"
    Params = Fig8Params
    CONFIGS = ("baseline", "AW")

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        p = self.params
        workload = WORKLOAD_FACTORIES["memcached"]()
        derate = named_configuration("AW").frequency_derate
        # Panel (c): worst case charges one transition per query.
        worst_extra = _per_query_overhead(workload, derate, 1.0)

        points: List[Fig8Point] = []
        records = []
        for kqps in p.resolved_rates():
            qps = kqps * 1000.0
            base = self.point(results, self._spec("baseline", kqps))
            aw = self.point(results, self._spec("AW", kqps))
            # Expected case uses the transitions actually observed.
            replaced_rate = sum(
                base.transitions_per_second.get(n, 0.0) for n in _REPLACED
            ) * p.cores  # aggregate transitions/second over the node
            transitions_per_query = replaced_rate / qps if qps > 0 else 0.0
            expected_extra = _per_query_overhead(
                workload, derate, transitions_per_query
            )
            observed: Dict[str, Any] = {
                "power_reduction": compare_power(base, aw),
                **_degradations(base, aw, worst_extra, expected_extra),
                "scalability": (
                    _measured_scalability(qps, p.horizon, p.cores, p.seed, fast=base)
                    if p.with_scalability else None
                ),
            }
            points.append(Fig8Point(qps=qps, baseline=base, aw=aw, **observed))
            records.append({
                "qps": qps, **observed,
                "baseline": base.to_record(), "aw": aw.to_record(),
            })
        notes = [
            f"average power reduction: {pct(average_power_reduction(points))} "
            "(paper: ~23.5% vs its baseline)"
        ]
        return self.make_result(records=records, payload=points, notes=notes)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        records = result.records
        average = {"qps": "Avg", "power_reduction": average_power_reduction(result.payload)}
        blocks: List[Block] = [
            residency_table(
                "Fig 8(a): baseline C-state residency", [qps_column], records,
                lambda record: record["baseline"]["residency"],
            ),
            Table("Fig 8(b): AW power reduction and latency degradation", [
                qps_column,
                column("AvgP reduction", "power_reduction", percent()),
                column("Avg lat deg", "avg_latency_degradation", percent(2)),
                column("Tail lat deg", "tail_latency_degradation", percent(2)),
            ], records + [average]),
            Table("Fig 8(c): response-time degradation (worst vs expected case)", [
                qps_column,
                column("Worst e2e", "worst_case_e2e_degradation", percent(2)),
                column("Worst server", "worst_case_server_degradation", percent(2)),
                column("Expected e2e", "expected_e2e_degradation", percent(2)),
                column("Expected server", "expected_server_degradation", percent(2)),
            ], records),
        ]
        if self.params.with_scalability:
            blocks.append(Table("Fig 8(d): performance scalability (2.0 -> 2.2 GHz)", [
                qps_column, column("Scalability", "scalability", percent(0)),
            ], records))
        return blocks

    def quick_params(self) -> Fig8Params:
        return Fig8Params.quick(with_scalability=False)


def _measured_scalability(
    qps: float, horizon: float, cores: int, seed: int, fast: RunResult,
) -> Optional[float]:
    """Panel (d): performance scalability from 2.0 to 2.2 GHz, measured as
    the latency-based performance gain per unit frequency gain.

    ``fast`` is the 2.2 GHz baseline point from the grid. Emulates
    2.0 GHz by derating the baseline configuration by 1 - 2.0/2.2. The
    2.0 GHz point uses an ad-hoc configuration, so it runs outside the
    declarative grid (direct, uncached simulation). ``None`` when either
    run completed no request.
    """
    derate_to_2ghz = 1.0 - 2.0 / 2.2
    slow_config = ServerConfiguration(
        name="baseline_2.0GHz",
        catalog=named_configuration("baseline").catalog,
        turbo_enabled=True,
        frequency_derate=derate_to_2ghz,
    )
    slow = simulate(
        WORKLOAD_FACTORIES["memcached"](), slow_config, qps=qps, cores=cores,
        horizon=horizon, seed=seed,
    )
    if not (slow.server_latency.count and fast.server_latency.count):
        return None
    perf_gain = slow.avg_latency / fast.avg_latency - 1.0
    freq_gain = 2.2 / 2.0 - 1.0
    return max(0.0, perf_gain / freq_gain)


def average_power_reduction(points: Sequence[Fig8Point]) -> float:
    """The 'Avg' bar of Fig 8b (paper: ~23.5% vs its baseline)."""
    return sum(p.power_reduction for p in points) / len(points)

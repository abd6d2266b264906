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
from typing import Dict, List, Optional, Sequence

from repro.core.cstates import C6A_EXTRA_TRANSITION
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ResultMap,
    SweepParams,
    register_experiment,
)
from repro.experiments.common import format_table, pct
from repro.server import RunResult, named_configuration, simulate
from repro.server.config import ServerConfiguration
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.sweep.spec import WORKLOAD_FACTORIES
from repro.workloads.memcached import MEMCACHED_RATES_KQPS

#: Replaced idle states whose transitions pay the ~100 ns AW overhead.
_REPLACED = ("C1", "C1E", "C6A", "C6AE")


@dataclass
class Fig8Point:
    """All Fig 8 observables at one request rate."""

    qps: float
    baseline: RunResult
    aw: RunResult
    power_reduction: float
    avg_latency_degradation: float
    tail_latency_degradation: float
    worst_case_server_degradation: float
    worst_case_e2e_degradation: float
    expected_server_degradation: float
    expected_e2e_degradation: float
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


@dataclass(frozen=True)
class Fig8Params(SweepParams):
    """Fig 8 sweep knobs; ``rates_kqps=None`` uses the paper's sweep."""

    with_scalability: bool = True

    default_rates = tuple(MEMCACHED_RATES_KQPS)


@register_experiment
class Fig8Experiment(Experiment):
    id = "fig8"
    title = "Fig 8: AW vs. the baseline configuration on Memcached."
    artifact = "Figure 8"
    Params = Fig8Params

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
        p = self.params
        workload = WORKLOAD_FACTORIES["memcached"]()
        aw_config = named_configuration("AW")
        derate = aw_config.frequency_derate

        points: List[Fig8Point] = []
        for kqps in p.resolved_rates():
            qps = kqps * 1000.0
            base = self.point(results, self._spec("baseline", kqps))
            aw = self.point(results, self._spec("AW", kqps))

            power_reduction = (
                (base.avg_core_power - aw.avg_core_power) / base.avg_core_power
            )
            avg_deg = (aw.avg_latency - base.avg_latency) / base.avg_latency
            tail_deg = (aw.tail_latency - base.tail_latency) / base.tail_latency

            # Panel (c): worst case charges one transition per query.
            worst_extra = _per_query_overhead(
                workload, derate, transitions_per_query=1.0
            )
            base_server = base.avg_latency
            base_e2e = base.avg_latency_e2e
            worst_server = worst_extra / base_server
            worst_e2e = worst_extra / base_e2e
            # Expected case uses the transitions actually observed.
            replaced_rate = sum(
                base.transitions_per_second.get(n, 0.0) for n in _REPLACED
            ) * p.cores  # aggregate transitions/second over the node
            transitions_per_query = replaced_rate / qps if qps > 0 else 0.0
            expected_extra = _per_query_overhead(
                workload, derate, transitions_per_query
            )
            expected_server = expected_extra / base_server
            expected_e2e = expected_extra / base_e2e

            scalability = None
            if p.with_scalability:
                scalability = _measured_scalability(
                    qps, p.horizon, p.cores, p.seed, fast=base
                )

            points.append(
                Fig8Point(
                    qps=qps,
                    baseline=base,
                    aw=aw,
                    power_reduction=power_reduction,
                    avg_latency_degradation=avg_deg,
                    tail_latency_degradation=tail_deg,
                    worst_case_server_degradation=worst_server,
                    worst_case_e2e_degradation=worst_e2e,
                    expected_server_degradation=expected_server,
                    expected_e2e_degradation=expected_e2e,
                    scalability=scalability,
                )
            )
        records = [
            {
                "qps": point.qps,
                "power_reduction": point.power_reduction,
                "avg_latency_degradation": point.avg_latency_degradation,
                "tail_latency_degradation": point.tail_latency_degradation,
                "worst_case_server_degradation": point.worst_case_server_degradation,
                "worst_case_e2e_degradation": point.worst_case_e2e_degradation,
                "expected_server_degradation": point.expected_server_degradation,
                "expected_e2e_degradation": point.expected_e2e_degradation,
                "scalability": point.scalability,
                "baseline": point.baseline.to_record(),
                "aw": point.aw.to_record(),
            }
            for point in points
        ]
        notes = [
            f"average power reduction: {pct(average_power_reduction(points))} "
            "(paper: ~23.5% vs its baseline)"
        ]
        return self.make_result(records=records, payload=points, notes=notes)

    def render_text(self, result: ExperimentResult) -> str:
        points: List[Fig8Point] = result.payload
        states = sorted({s for p in points for s in p.residency})
        lines = ["Fig 8(a): baseline C-state residency"]
        rows = [
            [f"{p.qps / 1000:.0f}K"]
            + [pct(p.residency.get(s, 0.0), 0) for s in states]
            for p in points
        ]
        lines.append(format_table(["QPS"] + states, rows))

        lines.append("")
        lines.append("Fig 8(b): AW power reduction and latency degradation")
        rows = [
            [
                f"{p.qps / 1000:.0f}K",
                pct(p.power_reduction),
                pct(p.avg_latency_degradation, 2),
                pct(p.tail_latency_degradation, 2),
            ]
            for p in points
        ]
        rows.append(["Avg", pct(average_power_reduction(points)), "", ""])
        lines.append(
            format_table(
                ["QPS", "AvgP reduction", "Avg lat deg", "Tail lat deg"], rows
            )
        )

        lines.append("")
        lines.append("Fig 8(c): response-time degradation (worst vs expected case)")
        rows = [
            [
                f"{p.qps / 1000:.0f}K",
                pct(p.worst_case_e2e_degradation, 2),
                pct(p.worst_case_server_degradation, 2),
                pct(p.expected_e2e_degradation, 2),
                pct(p.expected_server_degradation, 2),
            ]
            for p in points
        ]
        lines.append(
            format_table(
                ["QPS", "Worst e2e", "Worst server", "Expected e2e",
                 "Expected server"],
                rows,
            )
        )

        if points and points[0].scalability is not None:
            lines.append("")
            lines.append("Fig 8(d): performance scalability (2.0 -> 2.2 GHz)")
            rows = [[f"{p.qps / 1000:.0f}K", pct(p.scalability, 0)] for p in points]
            lines.append(format_table(["QPS", "Scalability"], rows))
        return "\n".join(lines)

    def quick_params(self) -> Fig8Params:
        return Fig8Params.quick(with_scalability=False)


def _measured_scalability(
    qps: float, horizon: float, cores: int, seed: int, fast: RunResult,
) -> float:
    """Panel (d): performance scalability from 2.0 to 2.2 GHz, measured as
    the latency-based performance gain per unit frequency gain.

    ``fast`` is the 2.2 GHz baseline point from the grid. Emulates
    2.0 GHz by derating the baseline configuration by 1 - 2.0/2.2. The
    2.0 GHz point uses an ad-hoc configuration, so it runs outside the
    declarative grid (direct, uncached simulation).
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
    perf_gain = slow.avg_latency / fast.avg_latency - 1.0
    freq_gain = 2.2 / 2.0 - 1.0
    return max(0.0, perf_gain / freq_gain)


def average_power_reduction(points: Sequence[Fig8Point]) -> float:
    """The 'Avg' bar of Fig 8b (paper: ~23.5% vs its baseline)."""
    return sum(p.power_reduction for p in points) / len(points)

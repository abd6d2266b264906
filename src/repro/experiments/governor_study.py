"""Governor ablation: how much idle-state *prediction* is worth.

The paper's motivation (Sec 2) is that governors cannot predict the
irregular idle intervals of latency-critical services, so deep states go
unused. This experiment quantifies that on the simulator by sweeping the
governor axis of :class:`~repro.sweep.ScenarioSpec`:

- ``menu``: the default EWMA predictor (what Linux approximates);
- ``oracle``: told each idle interval's true length — the best any
  predictor could do with the *existing* C-state hierarchy (the
  :class:`~repro.governor.idle.ReplayOracleGovernor` adapter, registered
  in :data:`repro.sweep.spec.GOVERNOR_FACTORIES`);
- ``c1_only``: never predicts, always picks the shallowest state.

All points route through the process-wide sweep runner, so the study is
memoised, store-backed and parallelisable like every other experiment.

The punchline matches the paper: even a perfect oracle on the legacy
hierarchy cannot reach AW with the plain menu governor, because the
hierarchy itself (C6's 600 us target residency) is the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ResultMap,
    register_experiment,
)
from repro.experiments.common import Block, Table, column, number
from repro.server import RunResult
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.units import seconds_to_us

#: Governor names swept, in presentation order (all are import-time
#: entries of GOVERNOR_FACTORIES, so they work under any executor).
GOVERNORS: Sequence[str] = ("menu", "oracle", "c1_only")


@dataclass
class GovernorPoint:
    """One (governor, configuration) observation."""

    governor: str
    config: str
    result: RunResult


@dataclass(frozen=True)
class GovernorStudyParams:
    qps: float = 100_000
    horizon: float = 0.15
    seed: int = 42
    configs: Tuple[str, ...] = ("NT_Baseline", "NT_AW")
    governors: Tuple[str, ...] = tuple(GOVERNORS)


@register_experiment
class GovernorStudyExperiment(Experiment):
    id = "governor_study"
    title = "Governor ablation: how much idle-state prediction is worth."
    artifact = "extension"
    Params = GovernorStudyParams

    def _specs(self) -> List[ScenarioSpec]:
        p = self.params
        return [
            ScenarioSpec(
                workload="memcached", config=config_name, qps=p.qps,
                horizon=p.horizon, seed=p.seed, governor=governor_name,
            )
            for config_name in p.configs
            for governor_name in p.governors
        ]

    def grid(self) -> ScenarioGrid:
        return ScenarioGrid(self._specs())

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        specs = self._specs()
        points = [
            GovernorPoint(spec.governor, spec.config,
                          self.point(results, spec))
            for spec in specs
        ]
        records = [
            {"governor": point.governor, **point.result.to_record()}
            for point in points
        ]
        return self.make_result(records=records, payload=points)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        latency = number(".1f", seconds_to_us, " us")
        blocks: List[Block] = [
            Table(f"Governor study @ {self.params.qps / 1000:.0f}K QPS Memcached", [
                column("Config", "config"),
                column("Governor", "governor"),
                column("Power/core", "avg_core_power", number(".2f", suffix=" W")),
                column("Avg lat", "avg_latency", latency),
                column("p99 lat", "p99_latency", latency),
            ], result.records),
        ]
        power = {
            (record["config"], record["governor"]): record["avg_core_power"]
            for record in result.records
        }
        headline = [("NT_AW", "menu"), ("NT_Baseline", "oracle"), ("NT_Baseline", "menu")]
        # The headline comparison only exists when the default points were
        # swept; custom configs/governors still get the table above.
        if all(point in power for point in headline):
            aw, oracle, legacy = (power[point] for point in headline)
            blocks.append(
                f"menu+AW power: {aw:.2f} W vs oracle+legacy: {oracle:.2f} W vs "
                f"menu+legacy: {legacy:.2f} W\n"
                "A perfect predictor on the legacy hierarchy cannot match AW."
            )
        return blocks

    def quick_params(self) -> GovernorStudyParams:
        return GovernorStudyParams(qps=20_000, horizon=0.02)

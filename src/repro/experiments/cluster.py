"""Cluster experiments: tail-at-scale, balancing policy, fleet energy.

The paper's motivation is fleet-level: a latency-critical request fans
out to many leaf servers and completes at the slowest one, so a p99
wakeup penalty on one server is an expected-case event at scale. These
extension studies run the :mod:`repro.cluster` subsystem over the
existing scenario grid machinery:

- ``fanout_tail`` — p99 versus fan-out per idle governor at a *constant
  per-node leaf rate* (the logical rate shrinks as fan-out grows, so the
  curve isolates max-of-R amplification from load). The tail-at-scale
  figure: deep-idle governors amplify hard, shallow ones stay flat but
  burn the idle power back.
- ``balancer_study`` — balancer x governor x load: what queue-aware
  balancing (JSQ, power-of-two-choices) buys over random/round-robin as
  load and wakeup penalty interact.
- ``cluster_energy`` — cluster-wide power versus delivered load:
  energy-proportionality metrics (dynamic range, proportionality gap)
  for the whole fleet rather than one socket.
- ``fleet_scale`` — tail latency and fleet power versus fleet *size* at
  constant per-node load, on the partitioned sharded-execution path
  (random balancing, sketch-backed percentiles): the fleet-level view
  the sharding tentpole exists for, with bounded memory per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analytical.proportionality import analyze_curve
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ResultMap,
    register_experiment,
)
from repro.experiments.common import (
    Block,
    Column,
    Table,
    column,
    config_series,
    microseconds,
    number,
    percent,
)
from repro.server import RunResult
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.sweep.spec import DEFAULT_CORES, DEFAULT_SEED

#: Cluster sweeps cost nodes x the single-node horizon; keep the default
#: window shorter than the paper sweeps' 0.4 s but long enough for a
#: stable p99 at the lowest per-node rate.
DEFAULT_CLUSTER_HORIZON = 0.1


#: Cluster powers: whole watts to one decimal.
_WATTS = number(".1f")
#: A per-node rate in KQPS.
_KQPS = number(".0f", suffix="K")


def _p99(run: RunResult) -> Optional[float]:
    """Server-side p99; ``None`` when the run completed no request."""
    return run.tail_latency if run.server_latency.count else None


@dataclass(frozen=True)
class ClusterParams:
    """Knobs shared by the cluster experiments."""

    nodes: int = 8
    cores: int = DEFAULT_CORES
    horizon: float = DEFAULT_CLUSTER_HORIZON
    seed: int = DEFAULT_SEED
    workload: str = "memcached"
    config: str = "baseline"
    balancer: str = "random"

    def spec(self, per_node_kqps: float, **axes: Any) -> ScenarioSpec:
        """One point of these knobs (``axes`` override them) where each
        node serves ``per_node_kqps`` of leaf requests."""
        fields: Dict[str, Any] = {
            "workload": self.workload, "config": self.config, "cores": self.cores,
            "horizon": self.horizon, "seed": self.seed, "nodes": self.nodes,
            "balancer": self.balancer, **axes,
        }
        qps = per_node_kqps * 1000.0 * fields["nodes"] / fields.get("fanout", 1)
        return ScenarioSpec(qps=qps, **fields)


# -- fanout_tail ---------------------------------------------------------------

@dataclass(frozen=True)
class FanoutTailParams(ClusterParams):
    """``fanout_tail`` sweep: fan-out degrees x idle governors.

    ``per_node_kqps`` is the *leaf* rate each node sees regardless of
    fan-out: the logical rate is ``per_node_kqps * nodes / fanout``, so
    rising fan-out changes only how many wakeup penalties a request
    maxes over, never the per-server load.
    """

    fanouts: Tuple[int, ...] = (1, 2, 4, 8)
    governors: Tuple[str, ...] = ("menu", "c1_only")
    per_node_kqps: float = 40.0
    hedge_ms: Optional[float] = None


@register_experiment
class FanoutTailExperiment(Experiment):
    id = "fanout_tail"
    title = "Cluster fan-out: p99 amplification per idle governor (tail at scale)."
    artifact = "extension"
    Params = FanoutTailParams

    def _spec(self, governor: str, fanout: int) -> ScenarioSpec:
        p = self.params
        return p.spec(p.per_node_kqps, governor=governor, fanout=fanout,
                      hedge_ms=p.hedge_ms)

    def grid(self) -> ScenarioGrid:
        return ScenarioGrid([
            self._spec(governor, fanout)
            for governor in self.params.governors
            for fanout in self.params.fanouts
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        p = self.params
        records: List[Dict[str, object]] = []
        by_governor: Dict[str, List[Dict[str, object]]] = {}
        for governor in p.governors:
            # The amplification baseline is the *smallest* fan-out, not
            # the first listed: `--params fanouts=8,4,1` must not invert
            # the ratios.
            base_p99 = _p99(
                self.point(results, self._spec(governor, min(p.fanouts)))
            )
            series: List[Dict[str, object]] = []
            for fanout in p.fanouts:
                run = self.point(results, self._spec(governor, fanout))
                p99 = _p99(run)
                amplification: Optional[float] = None
                if p99 is not None and base_p99 is not None:
                    amplification = p99 / base_p99 if base_p99 else 0.0
                record = {
                    "governor": governor,
                    "fanout": fanout,
                    "per_node_kqps": p.per_node_kqps,
                    "p99_amplification": amplification,
                    **run.to_record(),
                }
                series.append(record)
                records.append(record)
            by_governor[governor] = series
        notes = [
            "p99 amplification is relative to the smallest fan-out of the "
            "same governor; per-node leaf rate is held constant across "
            "fan-outs."
        ]
        return self.make_result(records=records, payload=by_governor, notes=notes)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        p = self.params
        series = config_series(result.records, p.governors)
        columns = [Column("fanout", lambda rows: str(rows[0]["fanout"]))]
        for i, governor in enumerate(series):
            columns += [
                Column(f"{governor} p99",
                       lambda rows, i=i: microseconds(rows[i]["p99_latency"])),
                Column(f"{governor} x",
                       lambda rows, i=i: number(".2f")(rows[i]["p99_amplification"])),
            ]
        return [Table(
            f"Cluster tail at scale: p99 (us) vs fan-out, {p.nodes} nodes @ "
            f"{p.per_node_kqps:.0f} KQPS/node ({p.config})",
            columns, list(zip(*series.values())), footer=result.notes,
        )]

    def quick_params(self) -> FanoutTailParams:
        return FanoutTailParams(
            nodes=4, cores=4, horizon=0.02, per_node_kqps=20.0,
            fanouts=(1, 4), governors=("menu", "c1_only"),
        )


# -- balancer_study ------------------------------------------------------------

@dataclass(frozen=True)
class BalancerStudyParams(ClusterParams):
    """``balancer_study`` sweep: balancing policy x governor x load."""

    balancers: Tuple[str, ...] = ("random", "round_robin", "jsq", "power_of_two")
    governors: Tuple[str, ...] = ("menu", "c1_only")
    per_node_kqps: Tuple[float, ...] = (20.0, 60.0)
    fanout: int = 1


@register_experiment
class BalancerStudyExperiment(Experiment):
    id = "balancer_study"
    title = "Cluster balancing: policy x governor x load on tail latency."
    artifact = "extension"
    Params = BalancerStudyParams

    def _spec(self, balancer: str, governor: str, kqps: float) -> ScenarioSpec:
        return self.params.spec(kqps, balancer=balancer, governor=governor,
                                fanout=self.params.fanout)

    def grid(self) -> ScenarioGrid:
        p = self.params
        return ScenarioGrid([
            self._spec(balancer, governor, kqps)
            for balancer in p.balancers
            for governor in p.governors
            for kqps in p.per_node_kqps
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        p = self.params
        records = []
        for balancer in p.balancers:
            for governor in p.governors:
                for kqps in p.per_node_kqps:
                    run = self.point(results, self._spec(balancer, governor, kqps))
                    records.append({
                        "balancer": balancer,
                        "governor": governor,
                        "per_node_kqps": kqps,
                        **run.to_record(),
                    })
        return self.make_result(records=records, payload=records)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        p = self.params
        return [Table(
            f"Cluster balancer study: p99 / avg latency (us), "
            f"{p.nodes} nodes, fan-out {p.fanout} ({p.config})",
            [
                column("balancer", "balancer"),
                column("governor", "governor"),
                column("KQPS/node", "per_node_kqps", _KQPS),
                column("avg", "avg_latency", microseconds),
                column("p99", "p99_latency", microseconds),
                column("cluster W", "package_power", _WATTS),
            ],
            result.records,
        )]

    def quick_params(self) -> BalancerStudyParams:
        return BalancerStudyParams(
            nodes=4, cores=4, horizon=0.02,
            balancers=("random", "jsq"), governors=("menu",),
            per_node_kqps=(20.0,),
        )


# -- cluster_energy ------------------------------------------------------------

@dataclass(frozen=True)
class ClusterEnergyParams(ClusterParams):
    """``cluster_energy`` sweep: per-node load levels x configurations."""

    configs: Tuple[str, ...] = ("baseline", "AW")
    per_node_kqps: Tuple[float, ...] = (5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
    governor: str = "menu"


@register_experiment
class ClusterEnergyExperiment(Experiment):
    id = "cluster_energy"
    title = "Cluster energy proportionality: fleet power vs delivered load."
    artifact = "extension"
    Params = ClusterEnergyParams

    def _spec(self, config: str, kqps: float) -> ScenarioSpec:
        return self.params.spec(kqps, config=config, governor=self.params.governor)

    def grid(self) -> ScenarioGrid:
        p = self.params
        return ScenarioGrid([
            self._spec(config, kqps)
            for config in p.configs
            for kqps in p.per_node_kqps
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        p = self.params
        records = []
        notes = []
        curves: Dict[str, List[Tuple[float, float]]] = {}
        for config in p.configs:
            curve = []
            for kqps in p.per_node_kqps:
                run = self.point(results, self._spec(config, kqps))
                records.append({
                    "per_node_kqps": kqps,
                    "utilization": run.utilization,
                    **run.to_record(),
                })
                curve.append((run.utilization, run.package_power))
            curve.sort(key=lambda point: point[0])
            curves[config] = curve
            report = analyze_curve(curve)
            notes.append(
                f"{config}: cluster dynamic range "
                f"{report.dynamic_range:.2f}x, proportionality gap "
                f"{report.proportionality_gap * 100:.1f}%"
            )
        return self.make_result(records=records, payload=curves, notes=notes)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        p = self.params
        return [Table(
            f"Cluster energy proportionality: {p.nodes} nodes "
            f"({', '.join(p.configs)})",
            [
                column("config", "config"),
                column("KQPS/node", "per_node_kqps", _KQPS),
                column("util", "utilization", percent()),
                column("cluster W", "package_power", _WATTS),
                column("W/node", "package_power",
                       number(".1f", lambda watts: watts / p.nodes)),
            ],
            result.records, footer=result.notes,
        )]

    def quick_params(self) -> ClusterEnergyParams:
        return ClusterEnergyParams(
            nodes=2, cores=4, horizon=0.02,
            per_node_kqps=(10.0, 50.0), configs=("baseline", "AW"),
        )


# -- fleet_scale ---------------------------------------------------------------

@dataclass(frozen=True)
class FleetScaleParams(ClusterParams):
    """``fleet_scale`` sweep: fleet sizes at constant per-node load.

    Every point is shardable (random balancing, single-leaf requests)
    and sketch-backed, so it runs on the partitioned execution path with
    memory bounded by the sketch's bucket cap rather than the request
    count — the regime that makes 1000-node fleets tractable.
    """

    fleet_sizes: Tuple[int, ...] = (16, 64, 256)
    per_node_kqps: float = 25.0
    sketch_error: float = 0.01


@register_experiment
class FleetScaleExperiment(Experiment):
    id = "fleet_scale"
    title = "Fleet scaling: tail latency and power vs fleet size (sharded path)."
    artifact = "extension"
    Params = FleetScaleParams

    def _spec(self, nodes: int) -> ScenarioSpec:
        p = self.params
        return p.spec(p.per_node_kqps, nodes=nodes, balancer="random",
                      sketch_error=p.sketch_error)

    def grid(self) -> ScenarioGrid:
        return ScenarioGrid([
            self._spec(nodes) for nodes in self.params.fleet_sizes
        ])

    def analyze(self, results: Optional[ResultMap] = None) -> ExperimentResult:
        p = self.params
        records: List[Dict[str, object]] = []
        for nodes in p.fleet_sizes:
            run = self.point(results, self._spec(nodes))
            records.append({
                "per_node_kqps": p.per_node_kqps,
                "p999_latency": (
                    run.server_latency.p999 if run.server_latency.count else None
                ),
                "power_per_node": run.package_power / nodes,
                **run.to_record(detail=False),
            })
        notes = [
            "Per-node load is constant across fleet sizes; with random "
            "balancing each node sees an independent Poisson stream, so "
            "per-request percentiles should be scale-invariant up to "
            f"sampling noise (sketch error {p.sketch_error:.0%}).",
        ]
        return self.make_result(records=records, payload=records, notes=notes)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        p = self.params
        return [Table(
            f"Fleet scaling @ {p.per_node_kqps:.0f} KQPS/node "
            f"({p.workload}/{p.config}, random balancing, "
            f"sketch alpha={p.sketch_error:.0%})",
            [
                column("nodes", "nodes"),
                column("QPS", "achieved_qps",
                       number(".2f", lambda qps: qps / 1e6, "M")),
                column("avg", "avg_latency", microseconds),
                column("p99", "p99_latency", microseconds),
                column("p99.9", "p999_latency", microseconds),
                column("W/node", "power_per_node", _WATTS),
            ],
            result.records, footer=result.notes,
        )]

    def quick_params(self) -> FleetScaleParams:
        return FleetScaleParams(
            fleet_sizes=(2, 4), per_node_kqps=20.0, horizon=0.02, cores=4,
        )

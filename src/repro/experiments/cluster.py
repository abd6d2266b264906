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
from typing import Dict, List, Optional, Tuple

from repro.analytical.proportionality import analyze_curve
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ResultMap,
    register_experiment,
)
from repro.experiments.common import format_table
from repro.sweep import ScenarioGrid, ScenarioSpec
from repro.sweep.spec import DEFAULT_CORES, DEFAULT_SEED
from repro.units import seconds_to_us

#: Cluster sweeps cost nodes x the single-node horizon; keep the default
#: window shorter than the paper sweeps' 0.4 s but long enough for a
#: stable p99 at the lowest per-node rate.
DEFAULT_CLUSTER_HORIZON = 0.1


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
        return ScenarioSpec(
            workload=p.workload, config=p.config,
            qps=p.per_node_kqps * 1000.0 * p.nodes / fanout,
            cores=p.cores, horizon=p.horizon, seed=p.seed,
            governor=governor, nodes=p.nodes, balancer=p.balancer,
            fanout=fanout, hedge_ms=p.hedge_ms,
        )

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
            base_p99 = self.point(
                results, self._spec(governor, min(p.fanouts))
            ).tail_latency
            series: List[Dict[str, object]] = []
            for fanout in p.fanouts:
                run = self.point(results, self._spec(governor, fanout))
                p99 = run.tail_latency
                record = {
                    "governor": governor,
                    "fanout": fanout,
                    "per_node_kqps": p.per_node_kqps,
                    "p99_amplification": p99 / base_p99 if base_p99 else 0.0,
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

    def render_text(self, result: ExperimentResult) -> str:
        by_governor: Dict[str, List[Dict[str, object]]] = result.payload
        governors = list(by_governor)
        lines = [
            f"Cluster tail at scale: p99 (us) vs fan-out, "
            f"{self.params.nodes} nodes @ {self.params.per_node_kqps:.0f} "
            f"KQPS/node ({self.params.config})"
        ]
        headers = ["fanout"]
        for governor in governors:
            headers += [f"{governor} p99", f"{governor} x"]
        rows = []
        for i, fanout in enumerate(self.params.fanouts):
            row = [str(fanout)]
            for governor in governors:
                record = by_governor[governor][i]
                row += [
                    f"{seconds_to_us(record['p99_latency']):.1f}",
                    f"{record['p99_amplification']:.2f}",
                ]
            rows.append(row)
        lines.append(format_table(headers, rows))
        lines.extend(result.notes)
        return "\n".join(lines)

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
        p = self.params
        return ScenarioSpec(
            workload=p.workload, config=p.config,
            qps=kqps * 1000.0 * p.nodes / p.fanout,
            cores=p.cores, horizon=p.horizon, seed=p.seed,
            governor=governor, nodes=p.nodes, balancer=balancer,
            fanout=p.fanout,
        )

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

    def render_text(self, result: ExperimentResult) -> str:
        p = self.params
        lines = [
            f"Cluster balancer study: p99 / avg latency (us), "
            f"{p.nodes} nodes, fan-out {p.fanout} ({p.config})"
        ]
        rows = [
            [
                record["balancer"],
                record["governor"],
                f"{record['per_node_kqps']:.0f}K",
                f"{seconds_to_us(record['avg_latency']):.1f}",
                f"{seconds_to_us(record['p99_latency']):.1f}",
                f"{record['package_power']:.1f}",
            ]
            for record in result.records
        ]
        lines.append(format_table(
            ["balancer", "governor", "KQPS/node", "avg", "p99", "cluster W"],
            rows,
        ))
        return "\n".join(lines)

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
        p = self.params
        return ScenarioSpec(
            workload=p.workload, config=config,
            qps=kqps * 1000.0 * p.nodes,
            cores=p.cores, horizon=p.horizon, seed=p.seed,
            governor=p.governor, nodes=p.nodes, balancer=p.balancer,
        )

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

    def render_text(self, result: ExperimentResult) -> str:
        p = self.params
        lines = [
            f"Cluster energy proportionality: {p.nodes} nodes "
            f"({', '.join(p.configs)})"
        ]
        rows = [
            [
                record["config"],
                f"{record['per_node_kqps']:.0f}K",
                f"{record['utilization'] * 100:.1f}%",
                f"{record['package_power']:.1f}",
                f"{record['package_power'] / p.nodes:.1f}",
            ]
            for record in result.records
        ]
        lines.append(format_table(
            ["config", "KQPS/node", "util", "cluster W", "W/node"], rows
        ))
        lines.extend(result.notes)
        return "\n".join(lines)

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
        return ScenarioSpec(
            workload=p.workload, config=p.config,
            qps=p.per_node_kqps * 1000.0 * nodes,
            cores=p.cores, horizon=p.horizon, seed=p.seed,
            nodes=nodes, balancer="random",
            sketch_error=p.sketch_error,
        )

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
                "p999_latency": run.server_latency.p999,
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

    def render_text(self, result: ExperimentResult) -> str:
        p = self.params
        lines = [
            f"Fleet scaling @ {p.per_node_kqps:.0f} KQPS/node "
            f"({p.workload}/{p.config}, random balancing, "
            f"sketch alpha={p.sketch_error:.0%})"
        ]
        rows = [
            [
                str(record["nodes"]),
                f"{record['achieved_qps'] / 1e6:.2f}M",
                f"{seconds_to_us(record['avg_latency']):.1f}",
                f"{seconds_to_us(record['p99_latency']):.1f}",
                f"{seconds_to_us(record['p999_latency']):.1f}",
                f"{record['power_per_node']:.1f}",
            ]
            for record in result.records
        ]
        lines.append(format_table(
            ["nodes", "QPS", "avg", "p99", "p99.9", "W/node"], rows
        ))
        lines.extend(result.notes)
        return "\n".join(lines)

    def quick_params(self) -> FleetScaleParams:
        return FleetScaleParams(
            fleet_sizes=(2, 4), per_node_kqps=20.0, horizon=0.02, cores=4,
        )

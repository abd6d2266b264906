"""Multi-node cluster simulation: K servers behind a balancer + fan-out.

A :class:`Cluster` composes ``K`` independently-seeded
:class:`~repro.server.node.ServerNode` instances on **one shared
discrete-event simulator** (the SimBricks idea of composing independent
node simulators into a single virtual testbed), puts a pluggable
:class:`~repro.cluster.balancer.LoadBalancer` in front of them, and runs
logical requests through a :class:`~repro.cluster.fanout.FanoutDispatcher`
— so a request touching ``R`` leaves inherits the *max* of ``R`` wakeup
penalties, the fleet-level amplification that makes deep idle states a
datacenter problem rather than a per-server curiosity.

Determinism: every RNG stream is derived from the cluster seed (logical
arrivals from ``seed + 1`` exactly like a standalone node; node ``i``'s
dispatch/snoop streams from ``seed + NODE_SEED_STRIDE * i``; the balancer
from its own offset), so equal seeds give bit-identical cluster results
regardless of executor. A one-node, fanout-1 cluster replays the exact
event sequence of a standalone :class:`ServerNode` and reproduces its
results bit-for-bit.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.cluster.balancer import make_balancer
from repro.cluster.fanout import FanoutDispatcher
from repro.errors import ConfigurationError
from repro.server.config import ServerConfiguration
from repro.server.metrics import RunResult
from repro.server.node import ServerNode
from repro.simkit.engine import Simulator
from repro.simkit.trace import PrefixedTrace, TraceRecorder
from repro.workloads.base import Workload
from repro.workloads.loadgen import (
    ArrivalStream,
    LoadGenerator,
    OpenLoopPoisson,
)

#: Seed stride between nodes: node ``i`` runs at ``seed + i * stride``, so
#: node 0 matches a standalone ServerNode and nodes never share the
#: dispatch/snoop streams a standalone node derives at ``seed + 1`` and
#: ``seed + 100 + core``.
NODE_SEED_STRIDE = 9973

#: Offset of the balancer's private RNG stream.
BALANCER_SEED_OFFSET = 777_001


def node_detail_row(index: int, seed: int, result: RunResult) -> Dict[str, object]:
    """One node's JSON-safe ``node_detail`` entry of a cluster result.

    Shared by :meth:`Cluster.collect` and the sharded merge, so both
    paths write the same row. A node that completed nothing has no
    latency, so both latency fields are ``None`` there.
    """
    served = result.completed > 0
    return {
        "node": index,
        "seed": seed,
        "completed": result.completed,
        "avg_leaf_latency": result.avg_latency if served else None,
        "p99_leaf_latency": result.tail_latency if served else None,
        "avg_core_power": result.avg_core_power,
        "package_power": result.package_power,
        "turbo_grant_rate": result.turbo_grant_rate,
        "snoops_served": result.snoops_served,
        "residency": {s: v for s, v in sorted(result.residency.items())},
        "transitions_per_second": {
            s: v for s, v in sorted(result.transitions_per_second.items())
        },
    }


class Cluster:
    """K server nodes behind a load balancer with request fan-out.

    Args:
        workload_factory: ``factory(node_index) -> Workload`` — a *fresh*
            workload per node so service-time RNG streams are independent
            (``ScenarioSpec.build_workload`` has exactly this shape).
        configuration: named server configuration, shared by all nodes.
        qps: offered **logical** request rate for the whole cluster; each
            logical request spawns ``fanout`` leaf sub-requests, so the
            per-node leaf rate is ``qps * fanout / nodes``.
        nodes: server count.
        cores: cores per node.
        balancer: registered balancer name (see
            :data:`~repro.cluster.balancer.BALANCER_FACTORIES`).
        fanout: leaves per logical request (``1 <= fanout <= nodes``).
        hedge_s: optional hedged-request delay in seconds.
        governor_factory: idle-governor factory shared by all cores.
        trace: optional shared :class:`~repro.simkit.trace.TraceRecorder`.
            Node ``i``'s events are recorded with an ``n{i}.`` source
            prefix (so ``n0.core3``); the dispatcher records request
            spans under source ``lb``. Stripping the ``n0.`` prefix from a
            one-node cluster's node events reproduces the standalone
            node's trace exactly.
        telemetry_hz: optional probe rate; when set, :meth:`run` samples
            every node on shared-clock ticks and the collected result
            carries the aggregate + per-node timeline.
    """

    def __init__(
        self,
        workload_factory: Callable[[int], Workload],
        configuration: ServerConfiguration,
        qps: float,
        nodes: int = 2,
        cores: int = 10,
        horizon: float = 0.5,
        seed: int = 42,
        balancer: str = "random",
        fanout: int = 1,
        hedge_s: Optional[float] = None,
        snoops_enabled: bool = True,
        governor_factory=None,
        uncore_watts: float = 38.0,
        loadgen: Optional[LoadGenerator] = None,
        sketch_error: Optional[float] = None,
        trace: Optional[TraceRecorder] = None,
        telemetry_hz: Optional[float] = None,
    ):
        if nodes <= 0:
            raise ConfigurationError(f"need at least one node, got {nodes}")
        if qps <= 0:
            raise ConfigurationError(f"qps must be positive, got {qps}")
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        self.configuration = configuration
        self.qps = qps
        self.n_nodes = nodes
        self.cores_per_node = cores
        self.horizon = horizon
        self.seed = seed
        self.sim = Simulator()
        self._workloads = [workload_factory(i) for i in range(nodes)]
        # Per-node leaf rate, only used for the node's (unused) internal
        # loadgen and its per-node result record; arrivals are injected.
        leaf_qps = qps * fanout / nodes
        self.server_nodes: List[ServerNode] = [
            ServerNode(
                workload=self._workloads[i],
                configuration=configuration,
                qps=leaf_qps,
                cores=cores,
                horizon=horizon,
                seed=seed + NODE_SEED_STRIDE * i,
                uncore_watts=uncore_watts,
                snoops_enabled=snoops_enabled,
                governor_factory=governor_factory,
                sim=self.sim,
                external_arrivals=True,
                sketch_error=sketch_error,
                trace=None if trace is None else PrefixedTrace(trace, f"n{i}."),
            )
            for i in range(nodes)
        ]
        self.trace = trace
        self.telemetry_hz = telemetry_hz
        balancer_obj = make_balancer(balancer)
        balancer_obj.setup(nodes, random.Random(seed + BALANCER_SEED_OFFSET))
        self.balancer = balancer_obj
        self.dispatcher = FanoutDispatcher(
            self.sim, self.server_nodes, balancer_obj,
            fanout=fanout, hedge_s=hedge_s, sketch_error=sketch_error,
            trace=trace,
        )
        # The logical arrival stream uses the same derivation as a
        # standalone node's internal loadgen (seed + 1) and the same
        # shared chaining machinery (ArrivalStream), which is what makes
        # the one-node cluster replay a ServerNode run exactly.
        self._loadgen: LoadGenerator = loadgen or OpenLoopPoisson(qps, seed=seed + 1)

    # -- run ---------------------------------------------------------------
    def run(self) -> RunResult:
        """Simulate the full horizon and aggregate cluster observables."""
        ArrivalStream(
            self.sim, self._loadgen, self.horizon, self.dispatcher.dispatch
        ).start()
        for node in self.server_nodes:
            node.start()
        sampler = None
        if self.telemetry_hz is not None:
            from repro.obs.timeline import TimelineSampler

            # One sampler over all nodes on the shared clock: each tick
            # reads every node in node order, so the aggregate series
            # fold exactly like the sharded merge path.
            sampler = TimelineSampler(self.telemetry_hz, self.server_nodes)
            sampler.attach(self.sim)
        self.sim.run(until=self.horizon)
        result = self.collect()
        if sampler is not None:
            self.sim.clear_tick_hook()
            result.timeline = sampler.finish()
        return result

    def collect(self) -> RunResult:
        """Cluster-level ``RunResult`` plus per-node residency breakdowns.

        Aggregation: residencies, transition rates, per-core power and
        turbo grant rate average over nodes (every node has the same core
        count); package power and snoops sum (the cluster's total);
        latency/completed are the *logical* request view from the
        dispatcher. A one-node cluster therefore reproduces the standalone
        node's numbers exactly.
        """
        per_node = [node.collect() for node in self.server_nodes]
        k = len(per_node)
        residency: Dict[str, float] = {}
        transitions: Dict[str, float] = {}
        for result in per_node:
            # sorted(): per-key accumulation order must be a function of
            # the state names, not of per-node dict insertion history
            # (DET005 — bit-identity across executors).
            for name, value in sorted(result.residency.items()):
                residency[name] = residency.get(name, 0.0) + value
            for name, value in sorted(result.transitions_per_second.items()):
                transitions[name] = transitions.get(name, 0.0) + value
        residency = {name: value / k for name, value in residency.items()}
        transitions = {name: value / k for name, value in transitions.items()}

        return RunResult(
            config_name=self.configuration.name,
            workload_name=self._workloads[0].name,
            qps=self.qps,
            horizon=self.horizon,
            cores=self.n_nodes * self.cores_per_node,
            residency=residency,
            transitions_per_second=transitions,
            avg_core_power=sum(r.avg_core_power for r in per_node) / k,
            package_power=sum(r.package_power for r in per_node),
            server_latency=self.dispatcher.latency,
            completed=self.dispatcher.completed,
            turbo_grant_rate=sum(r.turbo_grant_rate for r in per_node) / k,
            network_latency=self._workloads[0].network_latency,
            snoops_served=sum(r.snoops_served for r in per_node),
            node_detail=[
                node_detail_row(i, node.seed, result)
                for i, (node, result) in enumerate(zip(self.server_nodes, per_node))
            ],
            hedges_issued=self.dispatcher.hedges_issued,
            # All K nodes advance one shared simulator, so these are the
            # fleet-wide engine counters, not a per-node average.
            events_processed=self.sim.events_processed,
            peak_pending_events=self.sim.peak_pending_events,
        )

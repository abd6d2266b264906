"""Sharded cluster execution: partition nodes, simulate, merge exactly.

The classic :class:`~repro.cluster.cluster.Cluster` advances all K nodes
on one shared simulator and consults the balancer per logical arrival —
necessary when the balancer reads live cross-node queue depths (jsq,
power_of_two) or when a request couples nodes (fanout, hedging), but
pure overhead for *stateless* balancing of single-leaf requests: there
the per-arrival ``pick`` over a K-element load vector costs O(K) for a
decision the node never feeds back into, and the shared heap serialises
K nodes' events through one clock for no observable benefit.

For those points this module replaces per-arrival routing with the exact
arrival process each node observes:

- ``random`` — uniform routing of a Poisson(λ) stream is Poisson
  thinning: node ``i`` of K sees an independent Poisson(λ/K) stream,
  *exactly*. Each node just runs its own
  :class:`~repro.workloads.loadgen.OpenLoopPoisson` at the leaf rate,
  seeded by the standard ``node_seed + 1`` derivation.
- ``round_robin`` — node ``i`` serves every K-th arrival of the global
  Poisson stream, so its interarrivals are Erlang(K, λ) — sampled
  directly by :class:`~repro.workloads.loadgen.RoundRobinThinned`. The
  per-node marginal process is exact; only the (unobservable, since
  nothing reads cross-node state) arrival-time coupling between nodes is
  approximated by giving each node an independent Erlang stream.

Nodes are then fully independent simulations, so a cluster point splits
into S contiguous *shards* of nodes that run as jobs on the sweep's owned
worker processes (:class:`~repro.sweep.runner.ProcessExecutor` with
``shards``) and merge with :func:`merge_node_results`, which replicates the aggregation
formulas of ``Cluster.collect`` term by term **in node order**: scalar
aggregates (energy, counters, residencies, per-node detail) are
bit-identical whatever the shard count or completion order, and latency
trackers merge losslessly (exact mode concatenates samples in node
order; sketch mode adds integer bucket counts).

:func:`execute_partitioned` is the S=1 in-process entry point used by
``ScenarioSpec.execute`` — single-process and sharded runs share
:func:`run_shard` and the merge, so a point that ``ShardedExecutor(S)``
runs equals ``execute_partitioned(spec)`` bit-for-bit for every S.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cluster.balancer import STATELESS_BALANCERS
from repro.cluster.cluster import NODE_SEED_STRIDE, node_detail_row
from repro.errors import ConfigurationError, ShardingError
from repro.obs.timeline import merge_timelines
from repro.server.metrics import RunResult
from repro.server.node import ServerNode
from repro.simkit import sanitizer as _sanitizer
from repro.simkit.stats import PercentileTracker
from repro.workloads.loadgen import LoadGenerator, RoundRobinThinned

if TYPE_CHECKING:
    from repro.sweep.spec import ScenarioSpec


def is_shardable(spec: "ScenarioSpec") -> bool:
    """Whether ``spec`` admits partitioned (and therefore sharded) runs.

    True exactly when the node subsets are independent given a
    partitioned arrival stream: a multi-node point with single-leaf
    requests, no hedging, and a stateless balancer.
    """
    return (
        spec.nodes > 1
        and spec.fanout == 1
        and spec.hedge_ms is None
        and spec.balancer in STATELESS_BALANCERS
    )


def check_shardable(spec: "ScenarioSpec") -> None:
    """Raise :class:`ShardingError` with the reason if not shardable."""
    if is_shardable(spec):
        return
    if spec.nodes <= 1:
        reason = "a single-node point has nothing to partition"
    elif spec.balancer not in STATELESS_BALANCERS:
        reason = (
            f"balancer {spec.balancer!r} reads live cross-node queue "
            "depths, which needs every node on one simulator"
        )
    elif spec.fanout > 1:
        reason = (
            f"fanout {spec.fanout} joins leaves across nodes, which "
            "needs every node on one simulator"
        )
    else:
        reason = (
            "hedged requests duplicate leaves across nodes, which "
            "needs every node on one simulator"
        )
    raise ShardingError(
        f"cannot shard spec {spec.cache_key}: {reason}. Run it "
        "single-process (drop --shards / use the serial or process "
        "executor), or switch to a stateless balancer "
        f"({sorted(STATELESS_BALANCERS)})."
    )


def shard_ranges(nodes: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` node ranges, sizes differing by at most 1.

    ``shards`` is clamped to ``nodes`` (a shard needs at least one node).
    """
    if nodes <= 0:
        raise ConfigurationError(f"nodes must be positive, got {nodes}")
    if shards <= 0:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    shards = min(shards, nodes)
    base, extra = divmod(nodes, shards)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _node_loadgen(
    spec: "ScenarioSpec", node: int, node_seed: int
) -> Optional[LoadGenerator]:
    """The arrival process node ``node`` observes under partitioning.

    ``None`` keeps the node's default ``OpenLoopPoisson(leaf_qps,
    seed=node_seed + 1)`` — the exact Poisson thinning of uniform-random
    routing. Round-robin gets the Erlang-thinned stream at the same seed
    derivation.
    """
    if spec.balancer == "round_robin":
        return RoundRobinThinned(
            spec.qps, spec.nodes, node, seed=node_seed + 1
        )
    return None


def run_shard(spec: "ScenarioSpec", lo: int, hi: int) -> List[RunResult]:
    """Simulate nodes ``[lo, hi)`` of a partitioned cluster point.

    Each node is a standalone :class:`ServerNode` on its own simulator,
    seeded exactly as the same node inside a shared-simulator
    :class:`Cluster` (``spec.seed + NODE_SEED_STRIDE * i``), with its
    partitioned arrival stream. Returns per-node results in node order.
    """
    if not 0 <= lo < hi <= spec.nodes:
        raise ConfigurationError(
            f"shard range [{lo}, {hi}) invalid for {spec.nodes} nodes"
        )
    configuration = spec.build_configuration()
    governor_factory = spec.governor_factory()
    leaf_qps = spec.qps / spec.nodes
    results: List[RunResult] = []
    for i in range(lo, hi):
        node_seed = spec.seed + NODE_SEED_STRIDE * i
        node = ServerNode(
            workload=spec.build_workload(i),
            configuration=configuration,
            qps=leaf_qps,
            cores=spec.cores,
            horizon=spec.horizon,
            seed=node_seed,
            snoops_enabled=spec.snoops,
            governor_factory=governor_factory,
            sketch_error=spec.sketch_error,
            loadgen=_node_loadgen(spec, i, node_seed),
            telemetry_hz=spec.telemetry_hz,
        )
        results.append(node.run())
    return results


def merge_node_results(
    spec: "ScenarioSpec", per_node: Sequence[RunResult]
) -> RunResult:
    """Fold per-node results into one cluster :class:`RunResult`.

    Replicates the aggregation of ``Cluster.collect`` term by term, in
    node order: residencies / transition rates / per-core power / turbo
    grant rate average over nodes, package power and snoop counts sum,
    latency trackers merge losslessly, engine counters sum (every node
    ran its own simulator) and the heap high-water mark is the per-node
    max. Summation order is fixed by node order, so the merged result is
    invariant to shard count and completion order.
    """
    if len(per_node) != spec.nodes:
        raise ConfigurationError(
            f"expected {spec.nodes} node results, got {len(per_node)}"
        )
    k = len(per_node)
    residency: Dict[str, float] = {}
    transitions: Dict[str, float] = {}
    for result in per_node:
        # sorted(): decoded store rows and freshly-simulated results may
        # carry key orders from different code paths; accumulation order
        # must depend on the state names alone (DET005).
        for name, value in sorted(result.residency.items()):
            residency[name] = residency.get(name, 0.0) + value
        for name, value in sorted(result.transitions_per_second.items()):
            transitions[name] = transitions.get(name, 0.0) + value
    residency = {name: value / k for name, value in residency.items()}
    transitions = {name: value / k for name, value in transitions.items()}

    # Built before the latency merge on purpose: each row's p99 sorts its
    # node's samples in place, and the exact-mode merge concatenates them
    # as they stand, so this order fixes the merged mean's bits.
    node_detail = [
        node_detail_row(i, spec.seed + NODE_SEED_STRIDE * i, result)
        for i, result in enumerate(per_node)
    ]
    merged = RunResult(
        config_name=per_node[0].config_name,
        workload_name=per_node[0].workload_name,
        qps=spec.qps,
        horizon=spec.horizon,
        cores=spec.nodes * spec.cores,
        residency=residency,
        transitions_per_second=transitions,
        avg_core_power=sum(r.avg_core_power for r in per_node) / k,
        package_power=sum(r.package_power for r in per_node),
        server_latency=PercentileTracker.merge_all(
            [r.server_latency for r in per_node]
        ),
        completed=sum(r.completed for r in per_node),
        turbo_grant_rate=sum(r.turbo_grant_rate for r in per_node) / k,
        network_latency=per_node[0].network_latency,
        snoops_served=sum(r.snoops_served for r in per_node),
        node_detail=node_detail,
        hedges_issued=0,
        # Every node ran its own simulator: total engine work sums; the
        # heap high-water mark is per-simulator, so the fleet peak is the
        # max (the shared-sim Cluster reports one global heap instead).
        events_processed=sum(r.events_processed for r in per_node),
        peak_pending_events=max(r.peak_pending_events for r in per_node),
        # Timelines merge in node order too (additive series accumulate
        # node 0 first), so telemetry aggregates are bit-identical to the
        # shared-simulator cluster sampling the same nodes.
        timeline=merge_timelines([r.timeline for r in per_node]),
    )
    if _sanitizer.is_enabled():
        _audit_merge(per_node, merged)
    return merged


def _audit_merge(per_node: Sequence[RunResult], merged: RunResult) -> None:
    """SAN005 spot-checks: the merge must be order-invariant.

    Integer observables are conserved exactly (completions and latency
    sample counts sum — losing either means a node's requests silently
    vanished from the merged percentiles), and the float package-power
    sum re-accumulated in *reversed* node order must agree with the
    forward merge within the float re-association bound. The reversed
    re-sum is the cheap canary for order-dependent accumulation creeping
    into the merge path (the DET005 bug class, observed at runtime).
    """
    completed = sum(r.completed for r in per_node)
    if merged.completed != completed:
        raise _sanitizer.violation(
            "SAN005", "cluster.sharding",
            f"merged completion count {merged.completed} != exact "
            f"per-node sum {completed}: the merge dropped or duplicated "
            "a node's requests",
        )
    samples = sum(r.server_latency.count for r in per_node)
    if merged.server_latency.count != samples:
        raise _sanitizer.violation(
            "SAN005", "cluster.sharding",
            f"merged latency tracker holds {merged.server_latency.count} "
            f"samples but the nodes recorded {samples}: the latency "
            "merge is lossy",
        )
    backward = 0.0
    for result in reversed(per_node):
        backward += result.package_power
    bound = 1e-9 * max(1.0, abs(merged.package_power))
    if abs(merged.package_power - backward) > bound:
        raise _sanitizer.violation(
            "SAN005", "cluster.sharding",
            f"package power merged forward ({merged.package_power!r} W) "
            f"and re-summed in reversed node order ({backward!r} W) "
            f"disagree beyond the re-association bound ({bound:.3e} W): "
            "the merge is node-order-sensitive",
        )


def execute_partitioned(spec: "ScenarioSpec") -> RunResult:
    """Run a shardable cluster point in-process, node by node.

    The single-process counterpart of
    :class:`~repro.sweep.runner.ShardedExecutor`: both share
    :func:`run_shard` and :func:`merge_node_results`, so their results
    are bit-identical (including exact-mode latency sample order).
    """
    check_shardable(spec)
    return merge_node_results(spec, run_shard(spec, 0, spec.nodes))

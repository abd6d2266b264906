"""Cluster simulation: K server nodes, load balancing, fan-out, hedging.

The paper frames deep-idle wakeup cost as a *datacenter* problem: a
latency-critical request fans out to many leaf servers and completes at
the slowest one, so per-server tail events compound at scale. This
package composes the per-node simulator into that setting:

- :mod:`repro.cluster.balancer` — pluggable :class:`LoadBalancer`
  policies (random, round-robin, join-shortest-queue,
  power-of-d-choices) behind a registry.
- :mod:`repro.cluster.fanout` — :class:`FanoutDispatcher`: R leaf
  sub-requests per logical request, join on the slowest, optional hedged
  duplicates.
- :mod:`repro.cluster.cluster` — :class:`Cluster`: K independently-seeded
  :class:`~repro.server.node.ServerNode` instances on one shared
  simulator, producing a cluster-level
  :class:`~repro.server.metrics.RunResult` with per-node breakdowns.
- :mod:`repro.cluster.sharding` — partitioned/sharded execution for
  stateless-balancer points: per-node exact arrival thinning, node-range
  shards (run in parallel by
  :class:`~repro.sweep.runner.ShardedExecutor`), and an order-invariant
  exact merge.

Cluster points are ordinary :class:`~repro.sweep.spec.ScenarioSpec`
instances (``nodes``/``balancer``/``fanout``/``hedge_ms`` axes), so they
flow through the memo cache, the sqlite store, failure policies and
progress rendering unchanged.
"""

from repro.cluster.balancer import (
    BALANCER_FACTORIES,
    STATELESS_BALANCERS,
    JoinShortestQueueBalancer,
    LoadBalancer,
    PowerOfDChoicesBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.cluster.cluster import Cluster
from repro.cluster.fanout import FanoutDispatcher
from repro.cluster.sharding import (
    check_shardable,
    execute_partitioned,
    is_shardable,
    merge_node_results,
    run_shard,
    shard_ranges,
)

__all__ = [
    "BALANCER_FACTORIES",
    "STATELESS_BALANCERS",
    "Cluster",
    "FanoutDispatcher",
    "JoinShortestQueueBalancer",
    "LoadBalancer",
    "PowerOfDChoicesBalancer",
    "RandomBalancer",
    "RoundRobinBalancer",
    "check_shardable",
    "execute_partitioned",
    "is_shardable",
    "make_balancer",
    "merge_node_results",
    "run_shard",
    "shard_ranges",
]

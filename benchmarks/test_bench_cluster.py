"""Cluster subsystem checks: the shared-simulator composition (K nodes,
balancer picks per arrival, fan-out join bookkeeping) completes work,
and the single-node point takes the classic path straight to ServerNode.
"""

from repro.sweep import ScenarioSpec, SweepRunner


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=80_000,
        cores=4, horizon=0.05, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_bench_single_node_path():
    result = SweepRunner(cache={}).run(_spec())
    assert result.completed > 0


def test_bench_cluster_four_nodes_fanout():
    result = SweepRunner(cache={}).run(_spec(nodes=4, fanout=4, balancer="jsq"))
    assert result.completed > 0
    assert len(result.node_detail) == 4


def test_bench_cluster_hedged():
    spec = _spec(nodes=4, fanout=2, balancer="power_of_two", hedge_ms=0.05)
    result = SweepRunner(cache={}).run(spec)
    assert result.completed > 0

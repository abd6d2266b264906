"""Tests for the cluster subsystem (repro.cluster) and its spec axes."""

import pytest

from repro.cluster import (
    BALANCER_FACTORIES,
    Cluster,
    FanoutDispatcher,
    JoinShortestQueueBalancer,
    PowerOfDChoicesBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    make_balancer,
)
from repro.errors import ConfigurationError
from repro.simkit.engine import Simulator
from repro.store.serialize import result_to_dict
from repro.sweep import (
    ProcessExecutor,
    ScenarioGrid,
    ScenarioSpec,
    SweepRunner,
    result_record,
)

import random
from functools import partial


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=20_000,
        horizon=0.02, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _cluster_spec(**overrides):
    base = dict(nodes=2, cores=2, fanout=2, balancer="jsq", qps=40_000)
    base.update(overrides)
    return _spec(**base)


# -- balancers ----------------------------------------------------------------

class TestBalancers:
    def _setup(self, balancer, n=4, seed=1):
        balancer.setup(n, random.Random(seed))
        return balancer

    def test_registry_has_the_quartet(self):
        assert {"random", "round_robin", "jsq", "power_of_two"} <= set(
            BALANCER_FACTORIES
        )

    def test_make_balancer_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown balancer"):
            make_balancer("psychic")

    def test_random_picks_distinct_nodes(self):
        balancer = self._setup(RandomBalancer())
        for _ in range(50):
            picks = balancer.pick(3, [0, 0, 0, 0])
            assert len(set(picks)) == 3

    def test_round_robin_cycles(self):
        balancer = self._setup(RoundRobinBalancer(), n=3)
        assert balancer.pick(1, [0, 0, 0]) == [0]
        assert balancer.pick(1, [0, 0, 0]) == [1]
        assert balancer.pick(2, [0, 0, 0]) == [2, 0]
        assert balancer.pick(1, [9, 9, 9]) == [1]  # load-blind

    def test_jsq_picks_least_loaded(self):
        balancer = self._setup(JoinShortestQueueBalancer())
        assert balancer.pick(1, [5, 2, 7, 2]) == [1]  # tie -> lowest index
        assert balancer.pick(2, [5, 2, 7, 2]) == [1, 3]

    def test_power_of_two_prefers_lighter_candidate(self):
        balancer = self._setup(PowerOfDChoicesBalancer(d=4))  # d = n: sees all
        assert balancer.pick(1, [5, 0, 7, 3]) == [1]

    def test_power_of_two_distinct_under_fanout(self):
        balancer = self._setup(PowerOfDChoicesBalancer())
        for _ in range(50):
            picks = balancer.pick(4, [1, 2, 3, 4])
            assert sorted(picks) == [0, 1, 2, 3]

    def test_pick_bounds_checked(self):
        balancer = self._setup(RandomBalancer(), n=2)
        with pytest.raises(ConfigurationError):
            balancer.pick(3, [0, 0])
        with pytest.raises(ConfigurationError):
            balancer.pick(1, [0, 0, 0])

    def test_same_seed_same_choices(self):
        a = self._setup(RandomBalancer(), seed=9)
        b = self._setup(RandomBalancer(), seed=9)
        loads = [0, 1, 2, 3]
        assert [a.pick(2, loads) for _ in range(20)] == [
            b.pick(2, loads) for _ in range(20)
        ]


# -- fan-out dispatcher (fake nodes: deterministic delays) --------------------

class _FixedDelayNode:
    """Node stub: every request completes after a fixed delay."""

    def __init__(self, sim, delay):
        self.sim = sim
        self.delay = delay
        self.in_flight = 0
        self.served = 0

    def arrive(self, time, on_complete=None):
        self.in_flight += 1

        def done():
            self.in_flight -= 1
            self.served += 1
            if on_complete is not None:
                on_complete(self.sim.now)

        self.sim.schedule(self.delay, done)


class TestFanoutDispatcher:
    def test_logical_latency_is_the_slowest_leaf(self):
        sim = Simulator()
        nodes = [_FixedDelayNode(sim, d) for d in (0.001, 0.002, 0.003)]
        balancer = JoinShortestQueueBalancer()
        balancer.setup(3, random.Random(1))
        dispatcher = FanoutDispatcher(sim, nodes, balancer, fanout=3)
        sim.schedule_at(0.0, partial(dispatcher.dispatch, 0.0))
        sim.run()
        assert dispatcher.completed == 1
        assert dispatcher.latency.samples == [0.003]

    def test_fanout_bounds_checked(self):
        sim = Simulator()
        nodes = [_FixedDelayNode(sim, 0.001)]
        balancer = RandomBalancer()
        balancer.setup(1, random.Random(1))
        with pytest.raises(ConfigurationError, match="fanout"):
            FanoutDispatcher(sim, nodes, balancer, fanout=2)
        with pytest.raises(ConfigurationError, match="hedge"):
            FanoutDispatcher(sim, nodes, balancer, hedge_s=0.0)

    def test_hedged_duplicate_wins_the_race(self):
        sim = Simulator()
        slow, fast = _FixedDelayNode(sim, 0.010), _FixedDelayNode(sim, 0.001)
        balancer = RoundRobinBalancer()
        balancer.setup(2, random.Random(1))
        dispatcher = FanoutDispatcher(
            sim, [slow, fast], balancer, fanout=1, hedge_s=0.002
        )
        sim.schedule_at(0.0, partial(dispatcher.dispatch, 0.0))
        sim.run()
        # leaf went to the slow node (round robin starts at 0); the hedge
        # fired at 2 ms onto the fast node and answered at 3 ms, beating
        # the 10 ms original whose late completion is then ignored.
        assert dispatcher.hedges_issued == 1
        assert dispatcher.completed == 1
        assert dispatcher.latency.samples == [pytest.approx(0.003)]
        assert slow.served == 1 and fast.served == 1

    def test_hedged_duplicates_spread_over_nodes(self):
        # Loads must be re-read per duplicate: a stale snapshot would let
        # JSQ dog-pile every duplicate of a multi-leaf request onto the
        # same least-loaded node.
        sim = Simulator()
        nodes = [
            _FixedDelayNode(sim, d) for d in (0.010, 0.010, 0.001, 0.001)
        ]
        balancer = JoinShortestQueueBalancer()
        balancer.setup(4, random.Random(1))
        dispatcher = FanoutDispatcher(
            sim, nodes, balancer, fanout=2, hedge_s=0.002
        )
        sim.schedule_at(0.0, partial(dispatcher.dispatch, 0.0))
        sim.run()
        # Leaves went to idle nodes 0 and 1; at hedge time the two
        # duplicates must land on the two distinct idle nodes 2 and 3.
        assert dispatcher.hedges_issued == 2
        assert nodes[2].served == 1
        assert nodes[3].served == 1

    def test_hedge_not_issued_for_completed_leaves(self):
        sim = Simulator()
        nodes = [_FixedDelayNode(sim, 0.001), _FixedDelayNode(sim, 0.001)]
        balancer = RoundRobinBalancer()
        balancer.setup(2, random.Random(1))
        dispatcher = FanoutDispatcher(
            sim, nodes, balancer, fanout=2, hedge_s=0.005
        )
        sim.schedule_at(0.0, partial(dispatcher.dispatch, 0.0))
        sim.run()
        assert dispatcher.hedges_issued == 0
        assert dispatcher.completed == 1


# -- spec axes ----------------------------------------------------------------

class TestClusterSpec:
    def test_defaults_are_single_node(self):
        spec = _spec()
        assert spec.nodes == 1
        assert spec.fanout == 1
        assert spec.hedge_ms is None
        assert not spec.is_cluster

    def test_cluster_flag(self):
        assert _spec(nodes=2).is_cluster
        assert _spec(nodes=2, fanout=2).is_cluster
        assert _spec(hedge_ms=0.5).is_cluster
        assert not _spec(balancer="jsq").is_cluster  # balancer alone: no-op

    def test_single_node_balancer_canonicalised(self):
        # With one node the policy cannot affect results: the name is
        # validated, then folded to the default so all single-node
        # points of a balancer sweep share one cache key.
        assert _spec(balancer="jsq").balancer == "random"
        assert _spec(balancer="jsq").cache_key == _spec().cache_key
        assert _spec(nodes=2, balancer="jsq").balancer == "jsq"
        with pytest.raises(ConfigurationError):
            _spec(balancer="psychic")  # still validated first

    def test_fanout_cannot_exceed_nodes(self):
        with pytest.raises(ConfigurationError, match="fanout"):
            _spec(nodes=2, fanout=3)

    def test_unknown_balancer_rejected(self):
        with pytest.raises(ConfigurationError, match="balancer"):
            _spec(balancer="psychic")

    @pytest.mark.parametrize("field,value", [
        ("nodes", 0), ("fanout", 0), ("hedge_ms", 0.0), ("hedge_ms", -1),
    ])
    def test_invalid_cluster_numbers_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            _spec(**{field: value})

    def test_cache_key_distinguishes_cluster_axes(self):
        base = _cluster_spec()
        variants = [
            _cluster_spec(nodes=3),
            _cluster_spec(balancer="random"),
            _cluster_spec(fanout=1),
            _cluster_spec(hedge_ms=0.5),
        ]
        keys = {v.cache_key for v in variants}
        assert len(keys) == len(variants)
        assert base.cache_key not in keys

    def test_round_trip_with_cluster_fields(self):
        spec = _cluster_spec(hedge_ms=0.25)
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.cache_key == spec.cache_key

    def test_legacy_dicts_parse_as_single_node(self):
        # Grid files from before the cluster axes existed must still load.
        data = {
            "workload": "memcached", "config": "baseline", "qps": 20_000.0,
            "cores": 10, "horizon": 0.02, "seed": 7, "governor": "menu",
            "turbo": None, "snoops": True,
        }
        spec = ScenarioSpec.from_dict(data)
        assert spec.nodes == 1 and spec.fanout == 1
        assert not spec.is_cluster

    def test_grid_product_cluster_axes(self):
        grid = ScenarioGrid.product(
            qps=[80_000], nodes=[2, 4], balancer=["random", "jsq"],
            fanout=[2], hedge_ms=0.5,
        )
        assert len(grid) == 4
        assert {s.nodes for s in grid} == {2, 4}
        assert all(s.fanout == 2 and s.hedge_ms == 0.5 for s in grid)

    def test_per_node_workloads_are_decorrelated(self):
        spec = _cluster_spec()
        w0, w1 = spec.build_workload(0), spec.build_workload(1)
        assert w0.name == w1.name
        assert w0.service.sample() != w1.service.sample()

    def test_result_record_carries_cluster_fields(self):
        spec = _cluster_spec()
        record = result_record(spec, SweepRunner(cache={}).run(spec))
        assert record["nodes"] == 2
        assert record["balancer"] == "jsq"
        assert record["fanout"] == 2
        assert record["hedge_ms"] is None


# -- cluster simulation -------------------------------------------------------

class TestCluster:
    def test_single_node_cluster_matches_server_node(self):
        # A 1-node fanout-1 cluster replays the standalone event sequence
        # exactly: every observable is bit-identical.
        from repro.server import named_configuration, simulate

        spec = _spec()
        cluster = Cluster(
            workload_factory=spec.build_workload,
            configuration=spec.build_configuration(),
            qps=spec.qps, nodes=1, cores=spec.cores, horizon=spec.horizon,
            seed=spec.seed, governor_factory=spec.governor_factory(),
        )
        via_cluster = result_to_dict(cluster.run())
        standalone = result_to_dict(
            simulate(
                spec.build_workload(), named_configuration("baseline"),
                qps=spec.qps, cores=spec.cores, horizon=spec.horizon,
                seed=spec.seed,
            )
        )
        assert via_cluster.pop("node_detail") is not None
        assert standalone.pop("node_detail") is None
        assert via_cluster == standalone

    def test_single_node_spec_executes_original_path(self):
        # nodes=1, fanout=1 through the spec is the acceptance criterion:
        # bit-identical to the pre-cluster single-node result.
        from repro.server import named_configuration, simulate

        result = _spec(nodes=1, fanout=1).execute()
        legacy = simulate(
            _spec().build_workload(), named_configuration("baseline"),
            qps=20_000.0, cores=10, horizon=0.02, seed=7,
        )
        assert result_to_dict(result) == result_to_dict(legacy)

    def test_cluster_run_is_deterministic(self):
        spec = _cluster_spec(hedge_ms=0.1)
        assert result_to_dict(spec.execute()) == result_to_dict(spec.execute())

    def test_serial_and_process_executors_bit_identical(self):
        specs = [_cluster_spec(seed=1), _cluster_spec(seed=2, balancer="random")]
        serial = SweepRunner(cache={}).run_many(specs)
        parallel = SweepRunner(
            executor=ProcessExecutor(jobs=2), cache={}
        ).run_many(specs)
        for s, p in zip(serial, parallel):
            assert result_to_dict(s) == result_to_dict(p)

    def test_node_detail_shape(self):
        result = _cluster_spec().execute()
        assert len(result.node_detail) == 2
        for i, detail in enumerate(result.node_detail):
            assert detail["node"] == i
            assert detail["completed"] > 0
            assert 0.99 < sum(detail["residency"].values()) < 1.01
        # every leaf is served by exactly one node (no hedging here)
        leaves = sum(d["completed"] for d in result.node_detail)
        assert leaves == result.completed * 2  # fanout 2

    def test_cluster_package_power_sums_nodes(self):
        result = _cluster_spec().execute()
        per_node = sum(d["package_power"] for d in result.node_detail)
        assert result.package_power == pytest.approx(per_node)

    def test_fanout_amplifies_tail_at_constant_leaf_load(self):
        # The tail-at-scale effect: at a fixed per-node leaf rate, the
        # logical p99 grows with fan-out under a deep-idle governor.
        per_node_qps, nodes = 20_000, 4
        runs = {}
        for fanout in (1, 4):
            spec = _spec(
                qps=per_node_qps * nodes / fanout, nodes=nodes,
                fanout=fanout, cores=4, horizon=0.05,
            )
            runs[fanout] = SweepRunner(cache={}).run(spec)
        assert runs[4].tail_latency > runs[1].tail_latency
        assert runs[4].avg_latency > runs[1].avg_latency

    def test_store_round_trips_cluster_results(self, tmp_path):
        from repro.store import ResultStore

        spec = _cluster_spec(hedge_ms=0.05)
        result = spec.execute()
        store = ResultStore(tmp_path)
        store.put(spec.cache_key, result, spec=spec)
        loaded = store.get(spec.cache_key)
        assert result_to_dict(loaded) == result_to_dict(result)
        assert loaded.node_detail == result.node_detail
        assert loaded.hedges_issued == result.hedges_issued

    def test_invalid_cluster_arguments(self):
        spec = _spec()
        with pytest.raises(ConfigurationError):
            Cluster(
                workload_factory=spec.build_workload,
                configuration=spec.build_configuration(),
                qps=spec.qps, nodes=0,
            )

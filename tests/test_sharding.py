"""Tests for sharded cluster execution (repro.cluster.sharding).

The contract under test: for stateless balancers the partitioned
per-node simulation is *the same computation* as the sharded one — S=1
equals the unsharded run bit-identically, any S equals S=1, and the
merge is invariant to shard completion order. Stateful balancers must
refuse to shard with the documented, actionable error.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from golden_specs import digest_result  # noqa: E402

from repro.cluster import Cluster
from repro.cluster.sharding import (
    check_shardable,
    execute_partitioned,
    is_shardable,
    merge_node_results,
    run_shard,
    run_sharded,
    shard_ranges,
)
from repro.errors import ConfigurationError, ShardingError
from repro.sweep import (
    FailurePolicy,
    PointFailure,
    ScenarioSpec,
    ShardedExecutor,
    SweepRunner,
)


def _cluster_spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=40_000,
        nodes=4, cores=2, horizon=0.02, seed=42, balancer="random",
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestShardRanges:
    def test_even_split(self):
        assert shard_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_spread_over_leading_shards(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_shards_clamped_to_nodes(self):
        assert shard_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_ranges_cover_exactly(self):
        for nodes in (1, 5, 17, 100):
            for shards in (1, 2, 3, 7, 100):
                ranges = shard_ranges(nodes, shards)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == nodes
                for (_, a_hi), (b_lo, _) in zip(ranges, ranges[1:]):
                    assert a_hi == b_lo
                assert all(hi > lo for lo, hi in ranges)

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            shard_ranges(0, 1)
        with pytest.raises(ConfigurationError):
            shard_ranges(4, 0)


class TestShardability:
    def test_stateless_balancers_shardable(self):
        assert is_shardable(_cluster_spec(balancer="random"))
        assert is_shardable(_cluster_spec(balancer="round_robin"))

    @pytest.mark.parametrize("balancer", ["jsq", "power_of_two"])
    def test_stateful_balancers_refused(self, balancer):
        spec = _cluster_spec(balancer=balancer)
        assert not is_shardable(spec)
        with pytest.raises(ShardingError, match=balancer):
            check_shardable(spec)

    def test_fanout_refused(self):
        spec = _cluster_spec(fanout=2)
        assert not is_shardable(spec)
        with pytest.raises(ShardingError, match="fanout"):
            check_shardable(spec)

    def test_hedging_refused(self):
        spec = _cluster_spec(hedge_ms=1.0)
        assert not is_shardable(spec)
        with pytest.raises(ShardingError, match="[Hh]edge"):
            check_shardable(spec)

    def test_single_node_refused(self):
        spec = _cluster_spec(nodes=1)
        assert not is_shardable(spec)
        with pytest.raises(ShardingError, match="single-node"):
            check_shardable(spec)

    def test_error_is_actionable(self):
        # The message must name the spec and the ways out.
        with pytest.raises(ShardingError) as excinfo:
            check_shardable(_cluster_spec(balancer="jsq"))
        message = str(excinfo.value)
        assert "jsq" in message
        assert "stateless" in message
        assert "random" in message and "round_robin" in message

    def test_run_sharded_refuses_unshardable(self):
        with pytest.raises(ShardingError):
            run_sharded(_cluster_spec(balancer="power_of_two"), shards=2)

    def test_uses_partitioned_arrivals_property(self):
        assert _cluster_spec().uses_partitioned_arrivals
        assert not _cluster_spec(balancer="jsq").uses_partitioned_arrivals
        single = ScenarioSpec(
            workload="memcached", config="baseline", qps=20_000,
            horizon=0.02, seed=7,
        )
        assert not single.uses_partitioned_arrivals


class TestShardDeterminism:
    def test_execute_routes_through_partitioned_path(self):
        spec = _cluster_spec()
        assert digest_result(spec.execute()) == digest_result(
            execute_partitioned(spec)
        )

    def test_s1_equals_unsharded_bit_identically(self):
        spec = _cluster_spec()
        assert digest_result(run_sharded(spec, shards=1)) == digest_result(
            spec.execute()
        )

    def test_s4_pool_equals_unsharded_bit_identically(self):
        spec = _cluster_spec()
        assert digest_result(run_sharded(spec, shards=4)) == digest_result(
            spec.execute()
        )

    def test_odd_shard_count_identical(self):
        spec = _cluster_spec(nodes=5, qps=50_000)
        assert digest_result(run_sharded(spec, shards=3)) == digest_result(
            execute_partitioned(spec)
        )

    def test_round_robin_thinned_identical_across_shard_counts(self):
        spec = _cluster_spec(balancer="round_robin")
        reference = digest_result(execute_partitioned(spec))
        assert digest_result(run_sharded(spec, shards=2)) == reference
        assert digest_result(spec.execute()) == reference

    def test_merge_invariant_to_completion_order(self):
        # Compute the two shards' node results in *reverse* order — as if
        # the second shard finished first — and reassemble: the merged
        # result must still be bit-identical (node order, not completion
        # order, fixes the summation order).
        spec = _cluster_spec()
        high = run_shard(spec, 2, 4)
        low = run_shard(spec, 0, 2)
        merged = merge_node_results(spec, low + high)
        assert digest_result(merged) == digest_result(execute_partitioned(spec))

    def test_sketch_mode_sharded_identical(self):
        spec = _cluster_spec(sketch_error=0.01)
        reference = execute_partitioned(spec)
        sharded = run_sharded(spec, shards=4)
        assert digest_result(sharded) == digest_result(reference)
        assert sharded.server_latency.sketch_error == 0.01

    def test_sketch_stays_bounded_on_every_execution_path(self):
        # The classic shared simulator, the partitioned run and the
        # sharded one all keep the latency tracker at O(bins), not
        # O(requests), and count each completed request exactly once.
        spec = _cluster_spec(sketch_error=0.01)
        classic = Cluster(
            workload_factory=spec.build_workload,
            configuration=spec.build_configuration(),
            qps=spec.qps, nodes=spec.nodes, cores=spec.cores,
            horizon=spec.horizon, seed=spec.seed, balancer=spec.balancer,
            fanout=spec.fanout, snoops_enabled=spec.snoops,
            governor_factory=spec.governor_factory(),
            sketch_error=spec.sketch_error,
        ).run()
        for result in (
            classic, execute_partitioned(spec), run_sharded(spec, shards=2)
        ):
            assert result.completed > 0
            assert len(result.node_detail) == spec.nodes
            assert len(result.server_latency.sketch._bins) <= 2048
            assert result.server_latency.count == result.completed

    def test_sketch_percentiles_within_bound_of_exact(self):
        exact = execute_partitioned(_cluster_spec())
        sketched = execute_partitioned(_cluster_spec(sketch_error=0.01))
        assert sketched.completed == exact.completed
        for p in (50, 99):
            assert sketched.server_latency.percentile(p) == pytest.approx(
                exact.server_latency.percentile(p), rel=0.02
            )


class TestMergeSemantics:
    def test_scalar_aggregation_formulas(self):
        spec = _cluster_spec()
        per_node = run_shard(spec, 0, spec.nodes)
        merged = merge_node_results(spec, per_node)
        k = spec.nodes
        assert merged.completed == sum(r.completed for r in per_node)
        assert merged.cores == spec.nodes * spec.cores
        assert merged.package_power == sum(r.package_power for r in per_node)
        assert merged.avg_core_power == (
            sum(r.avg_core_power for r in per_node) / k
        )
        assert merged.events_processed == sum(
            r.events_processed for r in per_node
        )
        assert merged.peak_pending_events == max(
            r.peak_pending_events for r in per_node
        )
        assert merged.server_latency.count == merged.completed
        assert merged.hedges_issued == 0

    def test_node_detail_shape(self):
        from repro.cluster.cluster import NODE_SEED_STRIDE

        spec = _cluster_spec()
        merged = execute_partitioned(spec)
        assert merged.node_detail is not None
        assert len(merged.node_detail) == spec.nodes
        for i, detail in enumerate(merged.node_detail):
            assert detail["node"] == i
            assert detail["seed"] == spec.seed + NODE_SEED_STRIDE * i
            assert detail["completed"] > 0
            assert detail["p99_leaf_latency"] > 0

    def test_zero_completion_node_has_no_latency(self):
        # A node that completes nothing has no latency to average: both
        # leaf-latency fields are None, on either execution path.
        shared = ScenarioSpec(
            "memcached", "AW", 1e3, horizon=0.0005, seed=1,
            nodes=8, balancer="jsq", fanout=4,
        ).execute()
        partitioned = execute_partitioned(_cluster_spec(
            config="AW", qps=4e3, horizon=0.0005, seed=1, nodes=4,
            balancer="round_robin",
        ))
        for detail in shared.node_detail + partitioned.node_detail:
            if detail["completed"]:
                assert detail["avg_leaf_latency"] > 0
                assert detail["p99_leaf_latency"] > 0
            else:
                assert detail["avg_leaf_latency"] is None
                assert detail["p99_leaf_latency"] is None
        assert shared.completed == 0
        assert [d["completed"] for d in partitioned.node_detail] == [0, 1, 1, 0]

    def test_node_detail_rows_equal_across_paths(self):
        # With no completions the shared simulator and the partitioned
        # path see the same per-node state, so their rows must match.
        from repro.simkit.trace import TraceRecorder

        spec = _cluster_spec(
            config="AW", qps=200, horizon=0.001, seed=1, nodes=4,
            balancer="round_robin",
        )
        partitioned = execute_partitioned(spec)
        shared = spec.execute(trace=TraceRecorder())
        assert partitioned.completed == shared.completed == 0
        assert shared.node_detail == partitioned.node_detail
        assert all(d["avg_leaf_latency"] is None for d in shared.node_detail)

    @pytest.mark.parametrize("balancer,mean_hex", [
        ("random", "0x1.c218a33e28223p-17"),
        ("round_robin", "0x1.bb9398a60e0e3p-17"),
    ])
    def test_merged_mean_bits_pinned(self, balancer, mean_hex):
        # The exact merge concatenates each node's samples in the order
        # they stand after that node's node_detail row (its p99) sorted
        # them, and the mean's float sum runs in that order: merging
        # before the rows are built moves the last bits.
        merged = execute_partitioned(_cluster_spec(balancer=balancer))
        assert merged.avg_latency.hex() == mean_hex

    def test_wrong_node_count_rejected(self):
        spec = _cluster_spec()
        per_node = run_shard(spec, 0, 2)
        with pytest.raises(ConfigurationError):
            merge_node_results(spec, per_node)

    def test_invalid_shard_range_rejected(self):
        spec = _cluster_spec()
        for lo, hi in ((2, 2), (-1, 2), (0, 5), (3, 1)):
            with pytest.raises(ConfigurationError):
                run_shard(spec, lo, hi)


class TestShardedExecutor:
    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedExecutor(0)
        with pytest.raises(ConfigurationError):
            ShardedExecutor(2, jobs=0)

    def test_shardable_point_matches_serial(self):
        spec = _cluster_spec()
        sharded = SweepRunner(executor=ShardedExecutor(2), cache={}).run(spec)
        serial = SweepRunner(cache={}).run(spec)
        assert digest_result(sharded) == digest_result(serial)

    def test_single_node_point_runs_inline(self):
        spec = ScenarioSpec(
            workload="memcached", config="baseline", qps=20_000,
            horizon=0.02, seed=7,
        )
        result = SweepRunner(executor=ShardedExecutor(4), cache={}).run(spec)
        assert result.completed > 0
        assert result.node_detail is None

    def test_stateful_balancer_raises_by_default(self):
        runner = SweepRunner(executor=ShardedExecutor(2), cache={})
        with pytest.raises(ShardingError):
            runner.run(_cluster_spec(balancer="jsq"))

    def test_stateful_balancer_recorded_under_record_policy(self):
        runner = SweepRunner(
            executor=ShardedExecutor(2, policy=FailurePolicy(mode="record")),
            cache={},
        )
        good, bad = _cluster_spec(), _cluster_spec(balancer="jsq")
        results = runner.run_many([good, bad])
        assert results[0].completed > 0
        assert isinstance(results[1], PointFailure)
        assert "cannot shard" in results[1].error

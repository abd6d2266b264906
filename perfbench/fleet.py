"""``fleet``: cluster points, shared-simulator and partitioned.

The only workload that exercises the balancer's O(nodes) picks, the
fan-out join and hedge bookkeeping, the DDSketch latency backend and the
sharded executor's exact merge; none of these run in ``node_hot`` or
``sweep_cli``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import layers
from checks import Checks, check_digest, check_record, digest
from common import JOBS, Pass, best_phases, timed
from node_hot import run_and_read, engine_counters, engine_metrics

NAME = "fleet"
SHARDS = 2


class Fleet:
    def __init__(self, seed: int, scratch) -> None:
        from repro.sweep.spec import ScenarioSpec

        self.seed = seed
        # 1000 logical requests per shared point and 5000 over the sharded
        # one: short operations, timed many times per run (see node_hot).
        # Shared-simulator points: stateful balancing, coupled leaves.
        self.shared = {
            "jsq": ScenarioSpec("memcached", "AW", 800e3, horizon=0.00125, seed=seed,
                                nodes=8, balancer="jsq", fanout=4),
            "hedged": ScenarioSpec("memcached", "AW", 400e3, horizon=0.0025, seed=seed,
                                   nodes=8, balancer="power_of_two", fanout=2,
                                   hedge_ms=0.02),
        }
        # Partitioned point: independent per-node simulations, merged.
        self.sharded = ScenarioSpec("memcached", "AW", 2e6, horizon=0.0025, seed=seed,
                                    nodes=100, balancer="round_robin", sketch_error=0.01)
        for spec in list(self.shared.values()) + [self.sharded]:
            spec.with_(horizon=spec.horizon / 10).execute()

    def run_pass(self) -> Pass:
        from repro.sweep import ShardedExecutor, SweepRunner
        from repro.sweep.runner import result_record

        phases: Dict[str, float] = {}
        requests: Dict[str, int] = {}
        results, records = [], []
        for name, spec in self.shared.items():
            (result, record), phases[name] = timed(lambda: run_and_read(spec))
            records.append(record)
            requests[name] = result.completed
            results.append(result)

        def run_sharded():
            runner = SweepRunner(executor=ShardedExecutor(SHARDS, jobs=JOBS), cache={})
            result = runner.run_many([self.sharded])[0]
            return result, result_record(self.sharded, result, emit="residency")

        (sharded, record), phases["sharded"] = timed(run_sharded)
        records.append(record)
        return Pass(phases=phases, requests=requests, ops=len(self.shared) + 1,
                    outputs={"records": records, "engine": engine_counters(results),
                             "sharded_requests": sharded.completed})

    def verify(self, passes: List[Pass], checks: Checks) -> Dict[str, float]:
        from repro.sweep.runner import result_record

        records = passes[0].outputs["records"]
        check_digest(checks, NAME, "records", self.seed, digest(records))
        for record in records:
            check_record(checks, f"fleet/{record['nodes']}x{record['balancer']}", record)
        for later in passes[1:]:
            checks.check(later.outputs["records"] == records, "fleet: a repeated pass differs")
        unsharded = result_record(self.sharded, self.sharded.execute(), emit="residency")
        checks.check(unsharded == records[-1], f"fleet: {SHARDS}-shard result differs from unsharded")
        return {}

    def profile(self) -> Dict[str, Dict[str, float]]:
        # In-process, so the shard runs and the merge show in the profile.
        specs = list(self.shared.values()) + [self.sharded]
        return layers.profiled(lambda: [spec.execute() for spec in specs])[1]

    def traced_pass(self, untraced: Pass, span_root) -> Tuple[Pass, Dict[str, float]]:
        traced, spans = layers.traced_in_process(self.run_pass, span_root)
        shared_s = sum(untraced.phases[name] for name in self.shared)
        out = engine_metrics(untraced.outputs["engine"], shared_s)
        out["server.node.build_ms"] = layers.span_ms_per_call(spans, "server.node.build")
        out["server.node.collect_ms"] = layers.span_ms_per_call(spans, "server.node.collect")
        out["simkit.stats.percentiles_ms"] = layers.span_ms_per_call(spans, "simkit.stats.percentiles")
        out["cluster.fanout.hedges"] = untraced.outputs["engine"]["hedges"]
        out["cluster.sharding.run_shard_ms"] = layers.span_ms_per_call(spans, "cluster.sharding.run_shard")
        out["cluster.sharding.merge_ms"] = layers.span_ms_per_call(spans, "cluster.sharding.merge")
        return traced, out

    def phase_metrics(self, passes: List[Pass]) -> Dict[str, float]:
        """Throughput of the partitioned point through the sharded executor."""
        return {"phase.sharded_req_per_s":
                passes[0].outputs["sharded_requests"] / best_phases(passes)["sharded"]}

"""``node_hot``: single-node points, in-process, serial, uncached.

Nearly all host time goes to the per-event layers (engine, node,
core/package/turbo, governor, workloads, stats); none to sweep, store,
cluster or CLI. The rates span the input property the per-event cost
depends on: 10 KQPS is idle-path heavy (about 4.3 events per request),
500 KQPS is queueing heavy (about 3.1).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import layers
from checks import Checks, check_digest, check_record, digest, power_and_latency_claims
from common import Pass, timed

NAME = "node_hot"
RATES_KQPS = (10.0, 100.0, 500.0)
#: Requests each point simulates: horizon = REQUESTS / qps, far shorter
#: than the experiments' 0.4 s. Host cost per event is the same, and a
#: point of tens of milliseconds is timed hundreds of times per run, so
#: its fastest repeat reliably falls in a quiet moment of a shared host.
REQUESTS = 2000


def engine_counters(results: List) -> Dict[str, float]:
    """Engine work of a pass, from the results' perf counters."""
    return {
        "events": sum(r.events_processed for r in results),
        "completed": sum(r.completed for r in results),
        "peak_pending": max(r.peak_pending_events for r in results),
        "hedges": sum(r.hedges_issued for r in results),
    }


def engine_metrics(counters: Dict[str, float], host_s: float) -> Dict[str, float]:
    """Engine layer metrics, with host nanoseconds per event."""
    return {
        "simkit.engine.events": counters["events"],
        "simkit.engine.events_per_req": counters["events"] / counters["completed"],
        "simkit.engine.peak_pending": counters["peak_pending"],
        "simkit.engine.ns_per_event": host_s / counters["events"] * 1e9,
    }


def run_and_read(spec):
    from repro.sweep.runner import result_record

    result = spec.execute()
    return result, result_record(spec, result, emit="residency")


def label(spec) -> str:
    return f"{spec.workload}/{spec.config}/{spec.governor}@{spec.qps / 1e3:g}k"


class NodeHot:
    def __init__(self, seed: int, scratch) -> None:
        from repro.sweep.spec import ScenarioSpec

        self.seed = seed
        def point(workload: str, config: str, kqps: float, governor: str = "menu"):
            return ScenarioSpec(workload, config, kqps * 1e3, horizon=REQUESTS / (kqps * 1e3),
                                seed=seed, governor=governor)

        self.specs = [
            point("memcached", config, kqps)
            for kqps in RATES_KQPS
            for config in ("baseline", "AW")
        ] + [
            point("kafka", "AW", 20),
            point("mysql", "AW", 20),
            point("memcached", "AW", 100, governor="oracle"),
        ]
        # Warm-up: lazy imports and tables behind every workload, config
        # and governor, on a horizon too short to matter.
        for spec in self.specs:
            spec.with_(horizon=spec.horizon / 10).execute()

    def run_pass(self) -> Pass:
        """Each point simulated and read out (its record includes the
        latency percentiles, so the stats layer is part of the work)."""
        phases: Dict[str, float] = {}
        requests: Dict[str, int] = {}
        results, records = [], []
        for spec in self.specs:
            (result, record), phases[label(spec)] = timed(
                lambda: run_and_read(spec)
            )
            records.append(record)
            requests[label(spec)] = result.completed
            results.append(result)
        return Pass(phases=phases, requests=requests, ops=len(self.specs),
                    outputs={"records": records, "engine": engine_counters(results)})

    def verify(self, passes: List[Pass], checks: Checks) -> Dict[str, float]:
        records = passes[0].outputs["records"]
        check_digest(checks, NAME, "records", self.seed, digest(records))
        for spec, record in zip(self.specs, records):
            check_record(checks, label(spec), record)
        for later in passes[1:]:
            checks.check(later.outputs["records"] == records, "node_hot: a repeated pass differs")
        pairs: Dict[float, Dict[str, dict]] = {}
        for record in records:
            if record["workload"] == "memcached" and record["governor"] == "menu":
                pairs.setdefault(record["qps"], {})[record["config"]] = record
        return {"aw_peak_saving_pct": power_and_latency_claims(checks, pairs)}

    def profile(self) -> Dict[str, Dict[str, float]]:
        return layers.profiled(lambda: [spec.execute() for spec in self.specs])[1]

    def traced_pass(self, untraced: Pass, span_root) -> Tuple[Pass, Dict[str, float]]:
        traced, spans = layers.traced_in_process(self.run_pass, span_root)
        out = engine_metrics(untraced.outputs["engine"], untraced.wall_s)
        out["server.node.build_ms"] = layers.span_ms_per_call(spans, "server.node.build")
        out["server.node.collect_ms"] = layers.span_ms_per_call(spans, "server.node.collect")
        out["simkit.stats.percentiles_ms"] = layers.span_ms_per_call(spans, "simkit.stats.percentiles")
        return traced, out

    def phase_metrics(self, passes: List[Pass]) -> Dict[str, float]:
        return {}

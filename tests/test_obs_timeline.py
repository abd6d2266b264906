"""Telemetry probes: sampler correctness and the zero-cost guarantee.

The load-bearing invariant is bit-identity: arming ``telemetry_hz``
must not change a single bit of any observable, because the sampler
rides the engine's tick hook (fired between heap events, consuming no
sequence numbers) and only ever *reads* simulation state.
"""

import dataclasses
import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from golden_specs import digest_result  # noqa: E402

from repro.obs.timeline import (
    TIMELINE_VERSION,
    merge_timelines,
)
from repro.server import ServerNode, named_configuration
from repro.simkit import Simulator
from repro.sweep import ShardedExecutor
from repro.sweep.spec import ScenarioSpec
from repro.workloads import memcached_workload


def _spec(**overrides):
    base = dict(
        workload="memcached", config="baseline", qps=60_000,
        horizon=0.05, seed=42,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestTickHook:
    def test_ticks_fire_at_k_over_hz(self):
        sim = Simulator()
        seen = []
        sim.set_tick_hook(10.0, lambda t: seen.append(t))
        sim.schedule(1.0, lambda: None)
        sim.run(until=1.0)
        assert seen == pytest.approx([k / 10.0 for k in range(11)])

    def test_ticks_consume_no_event_sequence(self):
        def run(hz):
            sim = Simulator()
            if hz:
                sim.set_tick_hook(hz, lambda t: None)
            out = []
            for k in range(5):
                sim.schedule(0.1 * k, lambda k=k: out.append(k))
            sim.run(until=1.0)
            return out, sim.events_processed

        assert run(None) == run(50.0)

    def test_double_hook_rejected(self):
        from repro.errors import SimulationError

        sim = Simulator()
        sim.set_tick_hook(10.0, lambda t: None)
        with pytest.raises(SimulationError):
            sim.set_tick_hook(10.0, lambda t: None)
        sim.clear_tick_hook()
        sim.set_tick_hook(5.0, lambda t: None)


class TestSampler:
    def test_timeline_shape(self):
        result = _spec(telemetry_hz=100).execute()
        timeline = result.timeline
        assert timeline["version"] == TIMELINE_VERSION
        assert timeline["hz"] == 100.0
        times = timeline["times"]
        assert times == [pytest.approx(k / 100.0) for k in range(len(times))]
        assert times[-1] <= 0.05
        for key, values in timeline["series"].items():
            assert len(values) == len(times), key

    def test_expected_series_present(self):
        timeline = _spec(telemetry_hz=50).execute().timeline
        series = timeline["series"]
        for key in ("package_power", "core_power", "energy_j",
                    "in_flight", "queued", "frequency_ghz", "completed"):
            assert key in series
        assert any(key.startswith("cstate.") for key in series)

    def test_completed_series_monotone_and_consistent(self):
        result = _spec(telemetry_hz=200).execute()
        completed = result.timeline["series"]["completed"]
        assert completed == sorted(completed)
        assert completed[-1] <= result.completed

    def test_disabled_by_default(self):
        assert _spec().execute().timeline is None

    def test_standalone_node_arms_sampler(self):
        node = ServerNode(
            memcached_workload(), named_configuration("baseline"),
            qps=40_000, horizon=0.03, seed=1, telemetry_hz=100,
        )
        result = node.run()
        assert result.timeline is not None
        assert len(result.timeline["times"]) > 1

    def test_sampler_rejects_bad_rate(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            _spec(telemetry_hz=0)
        with pytest.raises(ConfigurationError):
            _spec(telemetry_hz=-5)


class TestBitIdentity:
    @pytest.mark.parametrize("overrides", [
        {},
        {"config": "AW", "qps": 100_000, "seed": 7},
        {"nodes": 3, "fanout": 2, "balancer": "jsq", "qps": 90_000},
        {"nodes": 2, "hedge_ms": 0.3, "fanout": 2, "qps": 50_000},
    ])
    def test_probes_do_not_change_results(self, overrides):
        spec = _spec(**overrides)
        plain = spec.execute()
        probed = dataclasses.replace(spec, telemetry_hz=25).execute()
        assert digest_result(probed) == digest_result(plain)
        assert probed.events_processed == plain.events_processed

    def test_telemetry_is_part_of_the_cache_key(self):
        assert _spec().cache_key != _spec(telemetry_hz=25).cache_key
        assert _spec(telemetry_hz=25).cache_key == _spec(telemetry_hz=25).cache_key


class TestClusterMerge:
    def test_sharded_timeline_bit_identical_to_shared_sim(self):
        spec = _spec(nodes=3, qps=120_000, telemetry_hz=50)
        shared = spec.execute()
        sharded = ShardedExecutor(3).map_specs([spec])[0]
        assert json.dumps(shared.timeline, sort_keys=True) == json.dumps(
            sharded.timeline, sort_keys=True
        )

    def test_merge_timelines_aggregates_sum_and_mean(self):
        a = {
            "version": TIMELINE_VERSION, "hz": 10.0, "times": [0.0, 0.1],
            "series": {"package_power": [1.0, 2.0], "frequency_ghz": [2.0, 2.0]},
        }
        b = {
            "version": TIMELINE_VERSION, "hz": 10.0, "times": [0.0, 0.1],
            "series": {"package_power": [3.0, 4.0], "frequency_ghz": [4.0, 4.0]},
        }
        merged = merge_timelines([a, b])
        assert merged["series"]["package_power"] == [4.0, 6.0]
        assert merged["series"]["frequency_ghz"] == [3.0, 3.0]

    def test_merge_none_passthrough(self):
        assert merge_timelines([None, None]) is None
        single = {
            "version": TIMELINE_VERSION, "hz": 10.0, "times": [0.0],
            "series": {"package_power": [1.0]},
        }
        assert merge_timelines([single]) == single


class TestOverheadBound:
    def test_probes_on_at_10hz_stays_under_1_5x(self):
        """In-process wall-clock bound on a 100 KQPS node: a loose net
        for a sampler that started doing per-event work."""
        def timed(hz):
            spec = _spec(qps=100_000, telemetry_hz=hz)
            start = time.perf_counter()
            spec.execute()
            return time.perf_counter() - start

        timed(None)  # warm caches out of the measurement
        best_off = min(timed(None) for _ in range(3))
        best_on = min(timed(10.0) for _ in range(3))
        assert best_on < best_off * 1.5, (
            f"10 Hz telemetry cost {best_on / best_off:.2f}x (limit 1.5x)"
        )

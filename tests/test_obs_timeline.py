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

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from call_counts import profiled_calls, traced_bytecodes  # noqa: E402
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
    #: Calls the sampler adds once per run (build, attach, finish) and
    #: per tick (one row per node), as measured on CPython 3.11.
    SAMPLER_SETUP_CALLS = 20
    SAMPLER_CALLS_PER_TICK = 46

    def test_probes_on_at_10hz_stays_under_1_5x(self):
        """Probes cost O(ticks), not O(events), on a 100 KQPS node.

        Counted, not timed: the extra profiled calls a 10 Hz sampler
        adds must fit its per-run and per-tick budgets, which lie two
        orders of magnitude below one call per event, so a sampler that
        starts doing per-event work fails at once. (The id is kept from
        the wall-clock ratio this replaced.)
        """
        spec = _spec(qps=100_000)
        probed_spec = dataclasses.replace(spec, telemetry_hz=10.0)
        spec.execute()  # warm caches out of the count
        probed_spec.execute()
        plain_calls, plain = profiled_calls(spec.execute)
        probed_calls, probed = profiled_calls(probed_spec.execute)
        assert probed.events_processed == plain.events_processed
        ticks = len(probed.timeline["times"])
        budget = self.SAMPLER_SETUP_CALLS + self.SAMPLER_CALLS_PER_TICK * ticks
        assert budget * 100 < plain.events_processed
        extra = probed_calls - plain_calls
        assert extra <= budget, (
            f"10 Hz telemetry added {extra} calls over {ticks} tick(s) and "
            f"{plain.events_processed} events; the budget is {budget}"
        )

    #: Bytecode instructions a telemetry run adds over a bare one, as
    #: measured on CPython 3.11: the instrumented loop's own per-event
    #: checks (31 exactly), each sampler tick (one row, 993) and the
    #: sampler's build, attach and finish (362).
    LOOP_BYTECODES_PER_EVENT = 31
    SAMPLER_BYTECODES_PER_TICK = 993
    SAMPLER_SETUP_BYTECODES = 362
    #: Under two instructions per event: one more per-event branch (an
    #: ``is None`` test is two instructions) exceeds it.
    PER_EVENT_SLACK = 1.0

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="bytecode counts are CPython 3.11's; other versions compile "
        "the same source to different instruction sequences",
    )
    def test_probes_add_no_per_event_bytecodes(self):
        """The call bound above misses inline per-event work (a branch,
        bookkeeping) in the instrumented loop the sampler runs in;
        counting instructions catches it."""
        spec = _spec(qps=100_000, horizon=0.01)
        probed_spec = dataclasses.replace(spec, telemetry_hz=1000.0)
        spec.execute()  # warm caches out of the count
        probed_spec.execute()
        plain_count, plain = traced_bytecodes(spec.execute)
        probed_count, probed = traced_bytecodes(probed_spec.execute)
        events = plain.events_processed
        assert probed.events_processed == events
        ticks = len(probed.timeline["times"])
        assert ticks == 11
        budget = (
            self.SAMPLER_SETUP_BYTECODES
            + self.SAMPLER_BYTECODES_PER_TICK * ticks
            + (self.LOOP_BYTECODES_PER_EVENT + self.PER_EVENT_SLACK) * events
        )
        extra = probed_count - plain_count
        assert extra <= budget, (
            f"1 kHz telemetry added {extra} bytecode instructions over "
            f"{ticks} ticks and {events} events "
            f"({extra / events:.2f} per event); the budget is {budget:.0f}"
        )

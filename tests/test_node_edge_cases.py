"""Edge-case tests for the server node's state machine.

Deterministic single-core scenarios that pin down the tricky paths:
arrivals landing during C-state entry, wake racing service completion,
and C6 transitions straddling the horizon.
"""

import pytest

from degenerate import Degenerate

from repro.server import ServerNode, named_configuration
from repro.units import MS, US
from repro.workloads.base import ServiceTimeModel, Workload
from repro.workloads.loadgen import LoadGenerator


class ScriptedArrivals(LoadGenerator):
    """Load generator with an explicit arrival-time list."""

    def __init__(self, times):
        self._times = sorted(times)

    def arrivals(self, horizon):
        for t in self._times:
            if t < horizon:
                yield t


def _node(arrival_times, config="NT_Baseline", service_us=10.0, horizon=0.02,
          governor_factory=None):
    workload = Workload(
        "scripted",
        ServiceTimeModel(Degenerate(0.0), Degenerate(service_us * US)),
        snoop_rate_hz=0.0,
    )
    node = ServerNode(
        workload=workload,
        configuration=named_configuration(config),
        qps=1.0,  # placeholder; arrivals are scripted below
        cores=1,
        horizon=horizon,
        seed=5,
        governor_factory=governor_factory,
    )
    node._loadgen = ScriptedArrivals(arrival_times)
    return node


class TestArrivalDuringEntry:
    def test_request_waits_for_entry_then_pays_exit(self):
        # First request finishes at 10 us + C1 entry (1 us) in progress;
        # second arrives 10.5 us (mid-entry). It must wait for entry to
        # complete (11 us), then pay C1 exit (1 us), then serve 10 us.
        from repro.governor.idle import FixedGovernor

        node = _node([0.0, 10.5 * US], config="NT_No_C6_No_C1E",
                     governor_factory=lambda: FixedGovernor("C1"))
        result = node.run()
        assert result.completed == 2
        latencies = sorted(node.latency._samples)
        assert latencies[0] == pytest.approx(10 * US, rel=0.01)
        # second: waits 0.5 us (entry) + 1 us exit + 10 us service
        assert latencies[1] == pytest.approx(11.5 * US, rel=0.02)

    def test_back_to_back_requests_no_idle_churn(self):
        # Arrivals every 10 us with 10 us service: the core never idles
        # during the 200 us the requests span.
        times = [i * 10 * US for i in range(20)]
        node = _node(times, horizon=200 * US)
        result = node.run()
        assert result.completed == 20
        assert result.residency.get("C0", 0.0) > 0.95


class TestDeepWakePenalty:
    def test_c6_wake_costs_its_exit_latency(self):
        from repro.governor.idle import FixedGovernor

        # One request at t=0, second after a 5 ms gap: core sits in C6
        # (fixed governor), wake pays C6's 46 us exit.
        node = _node([0.0, 5 * MS], config="NT_Baseline", horizon=0.01,
                     governor_factory=lambda: FixedGovernor("C6"))
        result = node.run()
        assert result.completed == 2
        latencies = sorted(node.latency._samples)
        assert latencies[1] == pytest.approx((46 + 10) * US, rel=0.02)

    def test_c1_wake_is_cheap(self):
        from repro.governor.idle import FixedGovernor

        node = _node([0.0, 5 * MS], config="NT_Baseline", horizon=0.01,
                     governor_factory=lambda: FixedGovernor("C1"))
        result = node.run()
        latencies = sorted(node.latency._samples)
        assert latencies[1] == pytest.approx(11 * US, rel=0.02)

    def test_c6a_wake_nearly_free_vs_c1(self):
        from repro.governor.idle import FixedGovernor

        legacy = _node([0.0, 5 * MS], config="NT_Baseline", horizon=0.01,
                       governor_factory=lambda: FixedGovernor("C1"))
        aw = _node([0.0, 5 * MS], config="NT_AW", horizon=0.01,
                   governor_factory=lambda: FixedGovernor("C6A"))
        l1 = sorted(legacy.run() and legacy.latency._samples)[1]
        l2 = sorted(aw.run() and aw.latency._samples)[1]
        # C6A adds only ~80 ns of hardware exit over C1.
        assert l2 - l1 == pytest.approx(80e-9, abs=30e-9)


class TestHorizonStraddling:
    def test_entry_in_flight_at_horizon_end(self):
        # Single request early; the core goes idle and the horizon ends
        # while resident. Residency must still sum to 1.
        node = _node([0.0], horizon=0.001)
        result = node.run()
        assert sum(result.residency.values()) == pytest.approx(1.0, abs=1e-9)

    def test_arrival_after_horizon_ignored(self):
        node = _node([0.0, 0.05])  # second arrival beyond 0.02 horizon
        result = node.run()
        assert result.completed == 1


class TestIdlePowerAccounting:
    def test_long_idle_power_approaches_state_power(self):
        from repro.governor.idle import FixedGovernor

        # One request then 20 ms of C1E idling: average power ~ C1E's.
        node = _node([0.0], config="NT_No_C6", horizon=0.02,
                     governor_factory=lambda: FixedGovernor("C1E"))
        result = node.run()
        assert result.avg_core_power == pytest.approx(0.88, rel=0.05)

    def test_aw_long_idle_approaches_c6ae_power(self):
        from repro.governor.idle import FixedGovernor

        node = _node([0.0], config="NT_AW", horizon=0.02,
                     governor_factory=lambda: FixedGovernor("C6AE"))
        result = node.run()
        assert result.avg_core_power == pytest.approx(0.238, rel=0.10)

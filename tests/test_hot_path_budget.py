"""Machine-independent budgets on the work done per simulated request.

Wall-clock throughput is noisy on shared hosts; the number of Python
frames the event loop enters per request is not. These tests profile a
Memcached AW point and count every call into the ``repro`` package or
the stdlib :mod:`random` module, per completed request: one single-node
point, and the two shared-simulator cluster points of perfbench's
``fleet`` workload, where a request is a logical (fanned-out) request.
A change that adds one frame per event fails them: a no-op wrapper
around ``ServerNode._finish_service`` adds one call per request on the
node point, and one around ``ServerNode.arrive`` adds one per leaf on
the cluster points. A budget counts the event engine alone, per event
of a 10,000-event chain of ``Simulator.schedule`` callbacks; a no-op
wrapper around ``schedule`` adds one call per event.

Frames proved a poor proxy for host time: removing a third of them
saved a few percent, because most of a request's cost is straight-line
bytecode. The last budget therefore counts bytecode instructions per
request on a short node point, under CPython 3.11 only: instruction
counts are a property of one interpreter version's compiler.

The measured values are CPython 3.11's. CPython 3.12 inlines
comprehensions, so it reads at most the call counts. If a change lowers
a count, lower its measured value with it; raising one needs a reason
the hot path must grow.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from call_counts import profiled_calls, traced_bytecodes  # noqa: E402

from repro.simkit import Simulator  # noqa: E402
from repro.sweep.spec import ScenarioSpec  # noqa: E402

#: Calls per completed request for the node point below, as measured.
MEASURED_CALLS_PER_REQUEST = 10.79
#: Calls per completed logical request for the fleet points, as measured.
MEASURED_FLEET_CALLS_PER_REQUEST = {"jsq": 39.34, "hedged": 31.02}
#: Calls per event for a chain of ``Simulator.schedule`` callbacks.
MEASURED_CALLS_PER_EVENT = 3.00
#: Slack over the measured value before the budget fails.
SLACK = 1.0
#: Bytecode instructions per completed request on the short node
#: point, as measured under CPython 3.11.
MEASURED_BYTECODES_PER_REQUEST = 1043.2
#: Slack over the measured bytecode count: a few instructions per
#: request, well under one added frame's worth.
BYTECODE_SLACK = 15.0

#: perfbench ``fleet``'s shared-simulator points at seed 1.
FLEET_SPECS = {
    "jsq": ScenarioSpec("memcached", "AW", 800e3, horizon=0.00125, seed=1,
                        nodes=8, balancer="jsq", fanout=4),
    "hedged": ScenarioSpec("memcached", "AW", 400e3, horizon=0.0025, seed=1,
                           nodes=8, balancer="power_of_two", fanout=2,
                           hedge_ms=0.02),
}


def _calls_per_request(spec):
    spec.execute()  # warm-up: imports and one-time caches are not counted
    calls, result = profiled_calls(spec.execute)
    return calls / result.completed, result.completed


def _event_chain(events):
    """Fire ``events`` callbacks, each scheduling the next."""
    sim = Simulator()
    fired = 0

    def tick():
        nonlocal fired
        fired += 1
        if fired < events:
            sim.schedule(1e-6, tick)

    sim.schedule(1e-6, tick)
    sim.run()
    return fired


def test_calls_per_request_within_budget():
    spec = ScenarioSpec("memcached", "AW", 100e3, horizon=0.02, seed=1)
    per_request, completed = _calls_per_request(spec)
    assert completed > 1000
    assert per_request <= MEASURED_CALLS_PER_REQUEST + SLACK, (
        f"{per_request:.2f} profiled calls per simulated request; the "
        f"budget is {MEASURED_CALLS_PER_REQUEST} + {SLACK}"
    )


@pytest.mark.parametrize("point", sorted(FLEET_SPECS))
def test_fleet_calls_per_request_within_budget(point):
    per_request, completed = _calls_per_request(FLEET_SPECS[point])
    assert completed > 900
    measured = MEASURED_FLEET_CALLS_PER_REQUEST[point]
    assert per_request <= measured + SLACK, (
        f"{per_request:.2f} profiled calls per logical request on the "
        f"fleet {point} point; the budget is {measured} + {SLACK}"
    )


def test_event_engine_calls_per_event_within_budget():
    calls, fired = profiled_calls(lambda: _event_chain(10_000))
    assert fired == 10_000
    per_event = calls / fired
    assert per_event <= MEASURED_CALLS_PER_EVENT + SLACK, (
        f"{per_event:.4f} profiled calls per Simulator.schedule event; "
        f"the budget is {MEASURED_CALLS_PER_EVENT} + {SLACK}"
    )


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="bytecode counts are CPython 3.11's; other versions compile "
    "the same source to different instruction sequences",
)
def test_bytecodes_per_request_within_budget():
    spec = ScenarioSpec("memcached", "AW", 100e3, horizon=0.005, seed=1)
    spec.execute()  # warm-up, as for the call budgets
    executed, result = traced_bytecodes(spec.execute)
    assert result.completed > 400
    per_request = executed / result.completed
    assert per_request <= MEASURED_BYTECODES_PER_REQUEST + BYTECODE_SLACK, (
        f"{per_request:.1f} bytecode instructions per simulated request; "
        f"the budget is {MEASURED_BYTECODES_PER_REQUEST} + {BYTECODE_SLACK}"
    )

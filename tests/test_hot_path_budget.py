"""A machine-independent budget on Python calls per simulated request.

Wall-clock throughput is noisy on shared hosts; the number of Python
frames the event loop enters per request is not. These tests profile a
Memcached AW point and count every call into the ``repro`` package or
the stdlib :mod:`random` module, per completed request: one single-node
point, and the two shared-simulator cluster points of perfbench's
``fleet`` workload, where a request is a logical (fanned-out) request.
A change that adds one frame per event fails them: a no-op wrapper
around ``Simulator.schedule_fast`` adds about three calls per request
on the node point, and one around ``ServerNode.arrive`` adds one per
leaf on the cluster points. A last budget counts the event engine
alone, per event of a 10,000-event chain of ``Simulator.schedule``
callbacks; a no-op wrapper around ``schedule`` adds one call per event.

The measured values are CPython 3.11's. CPython 3.12 inlines
comprehensions, so it reads at most these. If a change lowers a count,
lower its measured value with it; raising one needs a reason the hot
path must grow.
"""

import os
import random
import sys

import pytest

import repro
from repro.simkit import Simulator
from repro.sweep.spec import ScenarioSpec

#: Calls per completed request for the node point below, as measured.
MEASURED_CALLS_PER_REQUEST = 15.44
#: Calls per completed logical request for the fleet points, as measured.
MEASURED_FLEET_CALLS_PER_REQUEST = {"jsq": 56.11, "hedged": 42.87}
#: Calls per event for a chain of ``Simulator.schedule`` callbacks.
MEASURED_CALLS_PER_EVENT = 3.00
#: Slack over the measured value before the budget fails.
SLACK = 1.0

#: perfbench ``fleet``'s shared-simulator points at seed 1.
FLEET_SPECS = {
    "jsq": ScenarioSpec("memcached", "AW", 800e3, horizon=0.00125, seed=1,
                        nodes=8, balancer="jsq", fanout=4),
    "hedged": ScenarioSpec("memcached", "AW", 400e3, horizon=0.0025, seed=1,
                           nodes=8, balancer="power_of_two", fanout=2,
                           hedge_ms=0.02),
}

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_RANDOM_FILE = os.path.abspath(random.__file__)


def _profiled_calls(fn):
    """The calls ``fn()`` made into repro or random, and its result."""
    filenames = {}
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event != "call":
            return
        filename = frame.f_code.co_filename
        counted = filenames.get(filename)
        if counted is None:
            path = os.path.abspath(filename)
            counted = path.startswith(_PACKAGE_DIR) or path == _RANDOM_FILE
            filenames[filename] = counted
        if counted:
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def _calls_per_request(spec):
    spec.execute()  # warm-up: imports and one-time caches are not counted
    calls, result = _profiled_calls(spec.execute)
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
    calls, fired = _profiled_calls(lambda: _event_chain(10_000))
    assert fired == 10_000
    per_event = calls / fired
    assert per_event <= MEASURED_CALLS_PER_EVENT + SLACK, (
        f"{per_event:.4f} profiled calls per Simulator.schedule event; "
        f"the budget is {MEASURED_CALLS_PER_EVENT} + {SLACK}"
    )

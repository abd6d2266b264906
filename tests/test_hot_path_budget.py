"""A machine-independent budget on Python calls per simulated request.

Wall-clock throughput is noisy on shared hosts; the number of Python
frames the event loop enters per request is not. This test profiles one
Memcached AW point and counts every call into the ``repro`` package or
the stdlib :mod:`random` module, per completed request. A change that
adds one frame per event (a no-op wrapper around
``Simulator.schedule_fast`` adds about three per request) fails it.

If a change lowers the count, lower ``MEASURED_CALLS_PER_REQUEST`` with
it; raising it needs a reason the hot path must grow.
"""

import os
import random
import sys

import repro
from repro.sweep.spec import ScenarioSpec

#: Calls per completed request for the point below, as measured.
MEASURED_CALLS_PER_REQUEST = 17.27
#: Slack over the measured value before the budget fails.
SLACK = 1.0

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_RANDOM_FILE = os.path.abspath(random.__file__)


def _calls_per_request():
    spec = ScenarioSpec("memcached", "AW", 100e3, horizon=0.02, seed=1)
    spec.execute()  # warm-up: imports and one-time caches are not counted
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
        result = spec.execute()
    finally:
        sys.setprofile(None)
    assert result.completed > 1000
    return calls / result.completed


def test_calls_per_request_within_budget():
    per_request = _calls_per_request()
    assert per_request <= MEASURED_CALLS_PER_REQUEST + SLACK, (
        f"{per_request:.2f} profiled calls per simulated request; the "
        f"budget is {MEASURED_CALLS_PER_REQUEST} + {SLACK}"
    )

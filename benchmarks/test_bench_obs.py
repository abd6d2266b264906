"""Telemetry probe checks on the 100 KQPS server-node scenario.

With ``telemetry_hz`` unset the engine runs its plain event loop and
records no timeline; armed at 10 samples per simulated second (the
report-typical rate) it records one at that rate. The wall-clock bound
on the armed sampler lives in ``tests/test_obs_timeline.py``.
"""

from repro.server import named_configuration, simulate
from repro.workloads import memcached_workload


def _run_node(telemetry_hz=None):
    return simulate(
        memcached_workload(), named_configuration("baseline"),
        qps=100_000, horizon=0.05, seed=1, telemetry_hz=telemetry_hz,
    )


def test_bench_obs_probes_off():
    """Telemetry disarmed: a plain node run with no timeline."""
    result = _run_node()
    assert result.completed > 3_000
    assert result.timeline is None


def test_bench_obs_probes_on_10hz():
    """Sampler armed at 10 Hz simulated."""
    result = _run_node(10.0)
    assert result.completed > 3_000
    assert result.timeline is not None
    assert result.timeline["hz"] == 10.0

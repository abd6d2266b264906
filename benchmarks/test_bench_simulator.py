"""Checks of the simulation substrate itself: the server node completes
its offered load, streaming arrivals keep the event heap small, many-core
nodes scale, and the AgileWatts design model builds.

The event engine's per-event cost is pinned as an exact call budget in
``tests/test_hot_path_budget.py``.
"""

import pytest

from repro.server import ServerNode, named_configuration, simulate
from repro.workloads import memcached_workload


def test_bench_server_node_100k_qps():
    result = simulate(
        memcached_workload(), named_configuration("baseline"),
        qps=100_000, horizon=0.05, seed=1,
    )
    assert result.completed > 3_000


def test_bench_streaming_arrival_heap():
    """Streaming arrivals keep the heap O(cores + in-flight), not O(qps*horizon)."""
    node = ServerNode(
        memcached_workload(), named_configuration("baseline"),
        qps=200_000, horizon=0.05, seed=1,
    )
    node.run()
    # 200 KQPS x 0.05 s = 10 000 arrivals; eager scheduling pinned them all.
    assert node.sim.peak_pending_events < 1_000


def test_bench_server_node_40_cores():
    """Many-core scaling: 40 cores at 400 KQPS complete the offered load
    of a 20 ms window (O(1) incremental power accounting keeps the cost
    per event flat in the core count)."""
    result = simulate(
        memcached_workload(), named_configuration("baseline"),
        qps=400_000, cores=40, horizon=0.02, seed=1,
    )
    assert result.completed > 5_000


def test_bench_aw_design_build():
    from repro.core import AgileWattsDesign

    breakdown = AgileWattsDesign().breakdown
    assert breakdown.c6a_power == pytest.approx(0.3, rel=0.05)

"""Shared benchmark fixtures.

Simulation-driven benchmarks (Figs 8-13, Table 5) run on a reduced grid
(three rates, 0.1 s horizon) so `pytest benchmarks/ --benchmark-only`
completes in minutes while still regenerating every artifact and
asserting its qualitative claims. Run `python -m repro run <id>` for the
full-resolution sweeps.
"""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "full_fleet: minutes-long full-size fleet benchmark; runs only "
        "under --benchmark-only (i.e. via `repro bench cluster_sharded`)",
    )


def pytest_collection_modifyitems(config, items):
    # Plain `pytest` collects benchmarks/ alongside tests/ — the reduced
    # grids are cheap enough to ride along, but the full-size fleet
    # points take minutes each and must stay an explicit opt-in.
    if config.getoption("--benchmark-only", False):
        return
    skip = pytest.mark.skip(
        reason="full-size fleet benchmark: run via `repro bench cluster_sharded`"
    )
    for item in items:
        if item.get_closest_marker("full_fleet"):
            item.add_marker(skip)


#: Reduced Memcached grid shared by the figure benchmarks.
BENCH_RATES_KQPS = (10, 100, 400)
BENCH_HORIZON = 0.1
BENCH_SEED = 42


@pytest.fixture(scope="session", autouse=True)
def _warm_shared_runs():
    """Pre-warm the memoised simulation points shared across benchmarks
    so each benchmark measures its own work, not its neighbours'."""
    yield


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a simulation-scale function with a single round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

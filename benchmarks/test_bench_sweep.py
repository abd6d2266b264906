"""Sweep runner checks: one small grid served every way a sweep is
served (simulated serially, simulated on four worker processes, from
the memo and from the persistent store with a cold memo), with the
process pool matching the serial run exactly.
"""

import pytest

from repro.store import ResultStore
from repro.sweep import ProcessExecutor, ScenarioGrid, SweepRunner

#: A small but non-trivial grid: 2 configs x 3 rates, ~7 ms of simulated
#: time per point, sized so pool spin-up does not dwarf the work.
GRID = ScenarioGrid.product(
    config=["baseline", "AW"],
    qps=[20_000, 60_000, 100_000],
    horizon=[0.02],
    seed=[7],
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("sweep-store"), salt="bench")


@pytest.fixture(scope="module")
def serial_runner(store):
    return SweepRunner(cache={}, store=store)


@pytest.fixture(scope="module")
def serial(serial_runner):
    return serial_runner.run_many(GRID)


@pytest.fixture(scope="module")
def parallel():
    return SweepRunner(executor=ProcessExecutor(jobs=4), cache={}).run_many(GRID)


def test_bench_sweep_serial(serial):
    assert len(serial) == len(GRID)
    assert all(r.completed > 0 for r in serial)


def test_bench_sweep_process_pool(parallel):
    assert len(parallel) == len(GRID)
    assert all(r.completed > 0 for r in parallel)


def test_bench_sweep_cache_hits(serial_runner, serial):
    results = serial_runner.run_many(GRID)  # every point from the memo
    assert len(results) == len(GRID)


def test_bench_sweep_store_hits(store, serial):
    """A whole grid served from the persistent store (sqlite read + exact
    result deserialization) with a cold memo."""
    results = SweepRunner(cache={}, store=store).run_many(GRID)
    assert len(results) == len(GRID)
    assert all(r.completed > 0 for r in results)


def test_parallel_results_match_serial(serial, parallel):
    for s, p in zip(serial, parallel):
        assert s.avg_core_power == pytest.approx(p.avg_core_power, abs=0.0)
        assert s.completed == p.completed

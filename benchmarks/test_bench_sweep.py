"""Benchmarks for the sweep runner: serial vs process-pool execution.

Not a paper artifact — tracks the orchestration overhead of the scenario
layer (spec dispatch, memoisation, pool fan-out) so regressions in the
sweep subsystem are visible alongside the engine benchmarks.
"""

import pytest

from repro.sweep import ScenarioGrid, SweepRunner

#: A small but non-trivial grid: 2 configs x 3 rates, ~7 ms of simulated
#: time per point, sized so pool spin-up does not dwarf the work.
GRID = ScenarioGrid.product(
    config=["baseline", "AW"],
    qps=[20_000, 60_000, 100_000],
    horizon=[0.02],
    seed=[7],
)


def test_bench_sweep_serial(benchmark):
    def run_cold():
        return SweepRunner(cache={}).run_grid(GRID)

    results = benchmark.pedantic(run_cold, rounds=2, iterations=1)
    assert len(results) == len(GRID)
    assert all(r.completed > 0 for r in results)


def test_bench_sweep_process_pool(benchmark):
    def run_cold():
        return SweepRunner(executor="process", jobs=4, cache={}).run_grid(GRID)

    results = benchmark.pedantic(run_cold, rounds=2, iterations=1)
    assert len(results) == len(GRID)
    assert all(r.completed > 0 for r in results)


def test_bench_sweep_cache_hits(benchmark):
    cache = {}
    runner = SweepRunner(cache=cache)
    runner.run_grid(GRID)  # warm

    def run_warm():
        return runner.run_grid(GRID)

    results = benchmark(run_warm)
    assert len(results) == len(GRID)


def test_bench_sweep_store_hits(benchmark, tmp_path):
    """Cost of serving a whole grid from the persistent store (sqlite
    read + exact result deserialization), with a cold memo each round."""
    from repro.store import ResultStore

    store = ResultStore(tmp_path, salt="bench")
    SweepRunner(cache={}, store=store).run_grid(GRID)  # fill the store

    def run_from_store():
        return SweepRunner(cache={}, store=store).run_grid(GRID)

    results = benchmark(run_from_store)
    assert len(results) == len(GRID)
    assert all(r.completed > 0 for r in results)


def test_parallel_results_match_serial():
    serial = SweepRunner(cache={}).run_grid(GRID)
    parallel = SweepRunner(executor="process", jobs=4, cache={}).run_grid(GRID)
    for s, p in zip(serial, parallel):
        assert s.avg_core_power == pytest.approx(p.avg_core_power, abs=0.0)
        assert s.completed == p.completed

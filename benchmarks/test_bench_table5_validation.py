"""Benchmarks regenerating Table 5 (cost savings) and the Sec 6.3 / 7.5
analytical artifacts."""

import pytest

from benchmarks.conftest import BENCH_HORIZON, BENCH_RATES_KQPS, BENCH_SEED, run_once
from repro.experiments.snoop import SnoopExperiment
from repro.experiments.table5 import Table5Experiment, Table5Params
from repro.experiments.validation import ValidationExperiment
from repro.sweep.runner import clear_shared_cache


def test_bench_table5(benchmark):
    clear_shared_cache()
    experiment = Table5Experiment(
        Table5Params(
            rates_kqps=BENCH_RATES_KQPS, horizon=BENCH_HORIZON, seed=BENCH_SEED,
        )
    )
    savings = run_once(benchmark, experiment.execute).payload
    # Positive savings at every rate, same order of magnitude as the
    # paper's $0.33-0.59M band.
    assert all(0.1 <= v <= 3.0 for v in savings.values())


def test_bench_validation(benchmark):
    results = benchmark(ValidationExperiment().analyze).payload
    accuracies = {r.workload: r.accuracy_percent for r in results}
    assert accuracies["SPECpower"] == pytest.approx(96.1, abs=0.3)
    assert all(a >= 94.0 for a in accuracies.values())


def test_bench_snoop(benchmark):
    report = benchmark(SnoopExperiment().analyze).payload
    assert report.bounds.savings_no_snoops == pytest.approx(0.79, abs=0.01)
    assert report.bounds.savings_full_snoops == pytest.approx(0.68, abs=0.01)
    assert report.bounds.savings_loss == pytest.approx(0.11, abs=0.01)

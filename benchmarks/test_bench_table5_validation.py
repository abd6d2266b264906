"""Table 5 (cost savings) and the Sec 6.3 / 7.5 analytical artifacts."""

import figure_grids
import pytest

from repro.experiments.snoop import SnoopExperiment
from repro.experiments.validation import ValidationExperiment


def test_bench_table5():
    savings = figure_grids.table5_savings()
    # Positive savings at every rate, same order of magnitude as the
    # paper's $0.33-0.59M band.
    assert all(0.1 <= v <= 3.0 for v in savings.values())


def test_bench_validation():
    results = ValidationExperiment().analyze().payload
    accuracies = {r.workload: r.accuracy_percent for r in results}
    assert accuracies["SPECpower"] == pytest.approx(96.1, abs=0.3)
    assert all(a >= 94.0 for a in accuracies.values())


def test_bench_snoop():
    report = SnoopExperiment().analyze().payload
    assert report.bounds.savings_no_snoops == pytest.approx(0.79, abs=0.01)
    assert report.bounds.savings_full_snoops == pytest.approx(0.68, abs=0.01)
    assert report.bounds.savings_loss == pytest.approx(0.11, abs=0.01)

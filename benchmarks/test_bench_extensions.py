"""Claim checks for the extension artifacts: ablation, sensitivity,
governor study and energy proportionality."""

import figure_grids

from repro.experiments.ablation import AblationExperiment
from repro.experiments.sensitivity import SensitivityExperiment


def test_bench_ablation():
    variants = AblationExperiment().analyze().payload
    full = variants[0]
    # Each single-idea ablation lands in the microsecond class.
    for variant in variants[1:4]:
        assert variant.round_trip > 1e-6
    assert full.round_trip < 100e-9


def test_bench_sensitivity():
    entries = SensitivityExperiment().analyze().payload
    # Robustness: savings stay double-digit under every perturbation.
    for entry in entries[:-1]:  # model constants
        assert entry.savings_low > 0.10
        assert entry.savings_high > 0.10
    # The workload lever dwarfs every model constant.
    assert entries[-1].swing > max(e.swing for e in entries[:-1])


def test_bench_governor_study():
    points = figure_grids.governor_study_points()
    aw_menu = next(
        p for p in points if p.config == "NT_AW" and p.governor == "menu"
    ).result
    legacy_oracle = next(
        p for p in points if p.config == "NT_Baseline" and p.governor == "oracle"
    ).result
    # The hierarchy, not the predictor, is the bottleneck.
    assert aw_menu.avg_core_power < legacy_oracle.avg_core_power


def test_bench_proportionality():
    comparison = figure_grids.proportionality_comparison()
    assert comparison.agilewatts.dynamic_range > comparison.baseline.dynamic_range
    assert (
        comparison.agilewatts.proportionality_gap
        < comparison.baseline.proportionality_gap
    )

"""Tests for the energy-proportionality analysis."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import figure_grids  # noqa: E402

from repro.analytical.proportionality import analyze_curve  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402


class TestAnalyzeCurve:
    def test_perfectly_proportional_zero_gap(self):
        # power == utilisation * peak at every point (idle treated as the
        # first point: 0.4 at 10% of a 4 W peak is on the ideal line).
        curve = [(0.1, 0.4), (0.5, 2.0), (1.0, 4.0)]
        report = analyze_curve(curve)
        assert report.proportionality_gap == pytest.approx(0.0)
        assert report.dynamic_range == pytest.approx(10.0)

    def test_flat_curve_worst_gap(self):
        curve = [(0.0, 4.0), (0.5, 4.0), (1.0, 4.0)]
        report = analyze_curve(curve)
        assert report.dynamic_range == pytest.approx(1.0)
        # gaps: 1.0, 0.5, 0.0 -> mean 0.5
        assert report.proportionality_gap == pytest.approx(0.5)

    def test_lower_idle_power_wider_range(self):
        legacy = analyze_curve([(0.05, 1.4), (1.0, 4.0)])
        aw = analyze_curve([(0.05, 0.5), (1.0, 4.0)])
        assert aw.dynamic_range > legacy.dynamic_range
        assert aw.proportionality_gap < legacy.proportionality_gap

    def test_compare_curves_returns_both(self):
        base = analyze_curve([(0.1, 1.5), (1.0, 4.0)])
        aw = analyze_curve([(0.1, 0.6), (1.0, 4.0)])
        assert base.dynamic_range < aw.dynamic_range

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_curve([(0.5, 2.0)])

    def test_non_monotone_utilisation_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_curve([(0.5, 2.0), (0.1, 1.0)])

    def test_non_positive_power_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_curve([(0.1, 0.0), (1.0, 4.0)])

    def test_out_of_range_utilisation_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_curve([(0.1, 1.0), (1.5, 4.0)])


class TestProportionalityExperiment:
    @pytest.fixture(scope="class")
    def comparison(self):
        return figure_grids.proportionality_comparison()

    def test_aw_widens_dynamic_range(self, comparison):
        assert (
            comparison.agilewatts.dynamic_range
            > comparison.baseline.dynamic_range
        )

    def test_aw_shrinks_gap(self, comparison):
        assert (
            comparison.agilewatts.proportionality_gap
            < comparison.baseline.proportionality_gap
        )

    def test_main_prints(self):
        from repro.experiments.proportionality import (
            ProportionalityExperiment,
            ProportionalityParams,
        )

        experiment = ProportionalityExperiment(
            ProportionalityParams(rates_kqps=(10, 400), horizon=0.05)
        )
        result = experiment.execute()
        assert result.payload.baseline.dynamic_range > 1.0
        assert "Energy proportionality" in experiment.render_text(result)

"""Tests for the sensitivity (tornado) analysis."""

import pytest

from repro.analytical.sensitivity import (
    DEFAULT_RESIDENCY,
    residency_sensitivity,
    tornado,
)
from repro.errors import ConfigurationError


class TestTornado:
    @pytest.fixture(scope="class")
    def entries(self):
        return tornado()

    def test_five_parameters(self, entries):
        assert len(entries) == 5

    def test_sorted_by_swing(self, entries):
        swings = [e.swing for e in entries]
        assert swings == sorted(swings, reverse=True)

    def test_nominal_savings_band(self, entries):
        # ~50% at the 80%-C1E operating point.
        assert 0.4 <= entries[0].savings_nominal <= 0.6

    def test_conclusion_robust_to_every_perturbation(self, entries):
        # The paper-supporting claim: savings stay double-digit.
        for entry in entries:
            assert entry.savings_low > 0.10
            assert entry.savings_high > 0.10

    def test_swings_are_small(self, entries):
        # No model constant moves savings by more than ~6 points at 25%.
        for entry in entries:
            assert entry.swing < 0.08

    def test_fivr_terms_most_influential(self, entries):
        top_two = {entries[0].parameter, entries[1].parameter}
        assert top_two == {"fivr_efficiency", "fivr_static_loss"}

    def test_more_static_loss_less_savings(self, entries):
        static = next(e for e in entries if e.parameter == "fivr_static_loss")
        assert static.savings_high < static.savings_low

    def test_bad_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            tornado(relative_delta=0.0)
        with pytest.raises(ConfigurationError):
            tornado(relative_delta=1.5)


class TestResidencyLever:
    def test_workload_is_the_biggest_lever(self):
        # Shifting idle time to busy time swings savings far more than
        # any model constant — the Fig 8b load dependence.
        lever = residency_sensitivity()
        model_swings = [e.swing for e in tornado()]
        assert lever.swing > max(model_swings)

    def test_busier_means_less_savings(self):
        lever = residency_sensitivity()
        assert lever.savings_low < lever.savings_nominal

    def test_default_residency_sums_to_one(self):
        assert sum(DEFAULT_RESIDENCY.values()) == pytest.approx(1.0)


class TestExperimentModule:
    def test_run_appends_residency_lever(self):
        from repro.experiments.sensitivity import SensitivityExperiment

        entries = SensitivityExperiment().analyze().payload
        assert entries[-1].parameter == "c1e_residency_shift"

    def test_main_prints(self):
        from repro.experiments.sensitivity import SensitivityExperiment

        experiment = SensitivityExperiment()
        out = experiment.render_text(experiment.analyze())
        assert "Sensitivity" in out
        assert "swing" in out

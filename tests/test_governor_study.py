"""Tests for the governor-ablation experiment."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import figure_grids  # noqa: E402

from repro.experiments.governor_study import GovernorStudyExperiment  # noqa: E402


@pytest.fixture(scope="module")
def points():
    return figure_grids.governor_study_points()


def _get(points, config, governor):
    return next(
        p for p in points if p.config == config and p.governor == governor
    ).result


class TestGovernorStudy:
    def test_six_points(self, points):
        assert len(points) == 6

    def test_c1_only_burns_most_power_on_legacy(self, points):
        c1 = _get(points, "NT_Baseline", "c1_only")
        menu = _get(points, "NT_Baseline", "menu")
        assert c1.avg_core_power > menu.avg_core_power

    def test_c1_only_has_best_latency(self, points):
        # No deep-state wake penalties: the latency-optimal policy.
        c1 = _get(points, "NT_Baseline", "c1_only")
        menu = _get(points, "NT_Baseline", "menu")
        assert c1.avg_latency < menu.avg_latency

    def test_aw_with_menu_beats_oracle_on_legacy(self, points):
        # The paper's point: the hierarchy, not the predictor, is the
        # bottleneck — a perfect oracle on C1/C1E/C6 cannot match AW.
        aw_menu = _get(points, "NT_AW", "menu")
        legacy_oracle = _get(points, "NT_Baseline", "oracle")
        assert aw_menu.avg_core_power < legacy_oracle.avg_core_power

    def test_aw_power_below_legacy_for_every_governor(self, points):
        for governor in ("menu", "oracle", "c1_only"):
            aw = _get(points, "NT_AW", governor)
            legacy = _get(points, "NT_Baseline", governor)
            assert aw.avg_core_power < legacy.avg_core_power

    def test_c1_only_residency_is_shallowest_state(self, points):
        c1 = _get(points, "NT_Baseline", "c1_only")
        assert c1.residency.get("C1E", 0.0) == 0.0
        assert c1.residency.get("C6", 0.0) == 0.0
        aw_c1 = _get(points, "NT_AW", "c1_only")
        assert aw_c1.residency.get("C6A", 0.0) > 0.0
        assert aw_c1.residency.get("C6AE", 0.0) == 0.0

    def test_main_prints(self):
        experiment = GovernorStudyExperiment()
        out = experiment.render_text(experiment.execute())
        assert "Governor study" in out
        assert "oracle" in out

"""Tests for the AW idea ablations."""

import pytest

from repro.core.ablation import AblationStudy
from repro.errors import ConfigurationError
from repro.units import US


@pytest.fixture(scope="module")
def study():
    return AblationStudy()


class TestVariants:
    def test_five_variants(self, study):
        names = [v.name for v in study.variants()]
        assert names == [
            "full",
            "no_inplace_retention",
            "no_cache_sleep_mode",
            "no_kept_pll",
            "legacy_c6",
        ]

    def test_full_design_is_fastest(self, study):
        variants = study.variants()
        full = variants[0]
        for other in variants[1:]:
            assert other.round_trip > full.round_trip

    def test_full_design_under_100ns(self, study):
        assert study.full_design().round_trip < 100e-9

    def test_every_ablation_is_microseconds(self, study):
        # Removing ANY single idea pushes the transition to us scale:
        # each idea is individually necessary for nanosecond transitions.
        for variant in study.variants()[1:4]:
            assert variant.round_trip > 1 * US

    def test_legacy_c6_slowest(self, study):
        variants = study.variants()
        assert max(v.round_trip for v in variants) == variants[-1].round_trip


class TestPerIdeaCosts:
    def test_retention_ablation_adds_serialisation_both_ways(self, study):
        full = study.full_design()
        ablated = study.without_inplace_retention()
        extra_entry = ablated.entry_latency - full.entry_latency
        extra_exit = ablated.exit_latency - full.exit_latency
        assert extra_entry == pytest.approx(9 * US, rel=0.05)
        assert extra_exit == pytest.approx(9 * US, rel=0.05)

    def test_cache_ablation_adds_flush_on_entry_only(self, study):
        full = study.full_design()
        ablated = study.without_cache_sleep_mode()
        assert ablated.entry_latency - full.entry_latency == pytest.approx(
            75 * US, rel=0.05
        )
        assert ablated.exit_latency == full.exit_latency

    def test_pll_ablation_adds_relock_on_exit_only(self, study):
        full = study.full_design()
        ablated = study.without_kept_pll()
        assert ablated.exit_latency - full.exit_latency == pytest.approx(5 * US)
        assert ablated.entry_latency == full.entry_latency

    def test_cache_sleep_mode_is_biggest_saver(self, study):
        # The flush is the dominant C6 cost, so CCSM saves the most.
        contributions = study.latency_contributions()
        assert contributions["cache_sleep_mode"] == max(contributions.values())
        assert all(v > 0 for v in contributions.values())


class TestPowerSide:
    def test_ablations_trade_latency_for_power(self, study):
        # Every ablated variant idles cheaper than full C6A (that's the
        # trade AW consciously declines).
        full = study.full_design()
        for variant in study.variants()[1:]:
            assert variant.idle_power < full.idle_power

    def test_full_power_is_c6a(self, study):
        assert study.full_design().idle_power == pytest.approx(0.3, rel=0.05)

    def test_slowdown_vs(self, study):
        full = study.full_design()
        c6 = study.c6_reference()
        assert c6.slowdown_vs(full) > 500

    def test_slowdown_vs_zero_reference_rejected(self, study):
        from repro.core.ablation import AblatedVariant

        zero = AblatedVariant("z", 0.0, 0.0, 0.1)
        with pytest.raises(ConfigurationError):
            study.full_design().slowdown_vs(zero)


class TestExperimentModule:
    def test_run_returns_variants(self):
        from repro.experiments.ablation import AblationExperiment

        assert len(AblationExperiment().analyze().payload) == 5

    def test_main_prints(self):
        from repro.experiments.ablation import AblationExperiment

        experiment = AblationExperiment()
        out = experiment.render_text(experiment.analyze())
        assert "Ablation" in out
        assert "no_cache_sleep_mode" in out

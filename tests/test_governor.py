"""Tests for idle governors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cstates import agilewatts_catalog, skylake_baseline_catalog
from repro.errors import ConfigurationError
from repro.governor import FixedGovernor, MenuGovernor, OracleGovernor
from repro.units import US


class TestMenuGovernor:
    def test_initial_prediction_used(self):
        gov = MenuGovernor(initial_prediction=1e-3, caution=1.0)
        assert gov.predicted_idle == pytest.approx(1e-3)

    def test_ewma_tracks_observations(self):
        gov = MenuGovernor(alpha=0.5, caution=1.0, initial_prediction=0.0)
        gov.observe_idle(100 * US)
        assert gov.predicted_idle == pytest.approx(50 * US)
        gov.observe_idle(100 * US)
        assert gov.predicted_idle == pytest.approx(75 * US)

    def test_caution_discounts_prediction(self):
        gov = MenuGovernor(alpha=1.0, caution=0.5, initial_prediction=0.0)
        gov.observe_idle(100 * US)
        assert gov.predicted_idle == pytest.approx(50 * US)

    def test_chooses_deep_state_for_long_idles(self):
        gov = MenuGovernor(alpha=1.0, caution=1.0)
        gov.observe_idle(0.01)
        assert gov.choose(skylake_baseline_catalog()).name == "C6"

    def test_chooses_shallow_state_for_short_idles(self):
        gov = MenuGovernor(alpha=1.0, caution=1.0)
        gov.observe_idle(3 * US)
        assert gov.choose(skylake_baseline_catalog()).name == "C1"

    def test_latency_limit_respected(self):
        gov = MenuGovernor(alpha=1.0, caution=1.0, latency_limit=10 * US)
        gov.observe_idle(1.0)
        assert gov.choose(skylake_baseline_catalog()).name != "C6"

    def test_adapts_downward(self):
        gov = MenuGovernor(alpha=0.5, caution=1.0, initial_prediction=1.0)
        for _ in range(30):
            gov.observe_idle(3 * US)
        assert gov.choose(skylake_baseline_catalog()).name == "C1"

    def test_observation_counter(self):
        gov = MenuGovernor()
        gov.observe_idle(1e-3)
        gov.observe_idle(1e-3)
        assert gov._observations == 2

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            MenuGovernor().observe_idle(-1.0)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            MenuGovernor(alpha=0.0)
        with pytest.raises(ConfigurationError):
            MenuGovernor(alpha=1.5)

    def test_works_with_aw_catalog(self):
        gov = MenuGovernor(alpha=1.0, caution=1.0)
        gov.observe_idle(30 * US)
        assert gov.choose(agilewatts_catalog()).name == "C6AE"

    @given(durations=st.lists(st.floats(min_value=0, max_value=1.0), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_prediction_bounded_by_history(self, durations):
        gov = MenuGovernor(alpha=0.3, caution=1.0, initial_prediction=0.0)
        for d in durations:
            gov.observe_idle(d)
        assert 0.0 <= gov.predicted_idle <= max(durations) + 1e-12


class TestFixedGovernor:
    def test_always_picks_named_state(self):
        gov = FixedGovernor("C1E")
        assert gov.choose(skylake_baseline_catalog()).name == "C1E"

    def test_falls_back_when_disabled(self):
        gov = FixedGovernor("C6")
        catalog = skylake_baseline_catalog().disable("C6")
        assert gov.choose(catalog).name == "C1"

    def test_unknown_state_falls_back_to_shallowest(self):
        # "C1" against an AW catalog (which has no C1) -> C6A; a fully
        # unknown name behaves the same.
        assert FixedGovernor("C1").choose(agilewatts_catalog()).name == "C6A"
        assert FixedGovernor("C9").choose(skylake_baseline_catalog()).name == "C1"


class TestOracleGovernor:
    def test_uses_hint(self):
        gov = OracleGovernor()
        catalog = skylake_baseline_catalog()
        assert gov.choose(catalog, hint=1.0).name == "C6"
        assert gov.choose(catalog, hint=3 * US).name == "C1"

    def test_requires_hint(self):
        with pytest.raises(ConfigurationError):
            OracleGovernor().choose(skylake_baseline_catalog())

    def test_respects_latency_limit(self):
        gov = OracleGovernor(latency_limit=2 * US)
        assert gov.choose(skylake_baseline_catalog(), hint=1.0).name == "C1"

"""Tests for seeded random distributions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenerate import Degenerate

from repro.errors import ConfigurationError
from repro.simkit import (
    Exponential,
    LogNormal,
    MixtureDistribution,
    Pareto,
)


def draw(dist, n):
    """``n`` variates from ``dist``, as the load generators draw them."""
    return [dist.sample() for _ in range(n)]


class TestDegenerate:
    def test_always_returns_value(self):
        d = Degenerate(3.5)
        assert all(d.sample() == 3.5 for _ in range(10))

    def test_mean(self):
        assert Degenerate(2.0).mean == 2.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Degenerate(-1.0)


class TestExponential:
    def test_mean_property(self):
        assert Exponential(2.0).mean == 2.0

    def test_empirical_mean_close(self):
        d = Exponential(1.0, seed=3)
        samples = draw(d, 20000)
        assert sum(samples) / len(samples) == pytest.approx(1.0, rel=0.05)

    def test_non_negative(self):
        d = Exponential(0.5, seed=1)
        assert all(s >= 0 for s in draw(d, 1000))

    def test_seeded_reproducibility(self):
        a = draw(Exponential(1.0, seed=9), 100)
        b = draw(Exponential(1.0, seed=9), 100)
        assert a == b

    def test_different_seeds_differ(self):
        a = draw(Exponential(1.0, seed=1), 10)
        b = draw(Exponential(1.0, seed=2), 10)
        assert a != b

    def test_zero_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            Exponential(0.0)


class TestLogNormal:
    def test_mean_parameterisation(self):
        d = LogNormal(mean=10e-6, sigma=0.6, seed=2)
        samples = draw(d, 50000)
        assert sum(samples) / len(samples) == pytest.approx(10e-6, rel=0.05)

    def test_zero_sigma_degenerates(self):
        d = LogNormal(mean=5.0, sigma=0.0)
        assert d.sample() == 5.0

    def test_right_skew(self):
        d = LogNormal(mean=1.0, sigma=1.0, seed=4)
        samples = sorted(draw(d, 10000))
        median = samples[len(samples) // 2]
        assert median < 1.0  # mean > median for right-skewed

    def test_negative_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            LogNormal(mean=-1.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            LogNormal(mean=1.0, sigma=-0.1)


class TestPareto:
    def test_mean_parameterisation(self):
        d = Pareto(mean=2.0, alpha=3.0, seed=6)
        samples = draw(d, 100000)
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.1)

    def test_minimum_is_xm(self):
        d = Pareto(mean=2.0, alpha=2.0, seed=7)
        xm = 2.0 * (2.0 - 1.0) / 2.0
        assert min(draw(d, 1000)) >= xm

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ConfigurationError):
            Pareto(mean=1.0, alpha=1.0)

    def test_heavy_tail(self):
        d = Pareto(mean=1.0, alpha=2.1, seed=8)
        samples = draw(d, 100000)
        assert max(samples) > 10 * d.mean


class TestMixture:
    def test_mean_is_weighted(self):
        d = MixtureDistribution(
            [(1.0, Degenerate(0.0)), (1.0, Degenerate(2.0))], seed=1
        )
        assert d.mean == pytest.approx(1.0)

    def test_samples_come_from_components(self):
        d = MixtureDistribution(
            [(0.5, Degenerate(1.0)), (0.5, Degenerate(2.0))], seed=2
        )
        assert set(draw(d, 200)) == {1.0, 2.0}

    def test_weights_normalised(self):
        d = MixtureDistribution(
            [(10.0, Degenerate(1.0)), (30.0, Degenerate(5.0))], seed=3
        )
        assert d.mean == pytest.approx(0.25 * 1.0 + 0.75 * 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            MixtureDistribution([])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            MixtureDistribution([(0.0, Degenerate(1.0))])


class TestPropertyBased:
    @given(mean=st.floats(min_value=1e-9, max_value=1e3))
    @settings(max_examples=50)
    def test_exponential_samples_non_negative(self, mean):
        d = Exponential(mean, seed=0)
        assert all(s >= 0 for s in draw(d, 20))

    @given(
        mean=st.floats(min_value=1e-6, max_value=100.0),
        sigma=st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=50)
    def test_lognormal_positive(self, mean, sigma):
        d = LogNormal(mean=mean, sigma=sigma, seed=0)
        assert all(s > 0 for s in draw(d, 20))

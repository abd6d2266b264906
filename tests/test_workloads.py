"""Tests for workload models, load generators and profiles."""

import pytest

from degenerate import Degenerate

from repro.core.cstates import FrequencyPoint
from repro.errors import ConfigurationError, WorkloadError
from repro.units import US
from repro.workloads import (
    KAFKA_RATES,
    MEMCACHED_RATES_KQPS,
    MYSQL_RATES,
    OpenLoopPoisson,
    ServiceTimeModel,
    Workload,
    kafka_workload,
    memcached_workload,
    motivation_profiles,
    mysql_workload,
    validation_profiles,
)
from repro.workloads.loadgen import BurstyLoadGenerator
from repro.workloads.profiles import ProfileLevel, ResidencyProfile


def _fixed_model(scalable=4 * US, fixed=6 * US):
    return ServiceTimeModel(
        scalable=Degenerate(scalable), fixed=Degenerate(fixed)
    )


class TestServiceTimeModel:
    def test_mean_splits(self):
        model = _fixed_model()
        assert model.mean == pytest.approx(10 * US)

    def test_sample_at_base_frequency(self):
        assert _fixed_model().sample() == pytest.approx(10 * US)

    def test_turbo_shrinks_scalable_part(self):
        model = _fixed_model()
        turbo = model.sample(frequency=FrequencyPoint.TURBO)
        expected = 4 * US * (2.2 / 3.0) + 6 * US
        assert turbo == pytest.approx(expected)

    def test_pn_inflates_scalable_part(self):
        model = _fixed_model()
        slow = model.sample(frequency=FrequencyPoint.PN)
        assert slow > model.sample()

    def test_derate_slows_service(self):
        model = _fixed_model()
        derated = model.sample(frequency_derate=0.01)
        assert derated > model.sample()
        assert derated == pytest.approx(4 * US / 0.99 + 6 * US)

    def test_bad_derate_rejected(self):
        with pytest.raises(WorkloadError):
            _fixed_model().sample(frequency_derate=1.0)

    def test_frequency_scalability_bounds(self):
        fully_scalable = ServiceTimeModel(Degenerate(10 * US), Degenerate(0.0))
        fully_fixed = ServiceTimeModel(Degenerate(0.0), Degenerate(10 * US))
        assert fully_scalable.frequency_scalability() == pytest.approx(1.0)
        assert fully_fixed.frequency_scalability() == pytest.approx(0.0)

    def test_frequency_scalability_matches_split(self):
        # 40% scalable work: scalability ~ 0.4 at small frequency deltas.
        model = _fixed_model()
        assert model.frequency_scalability() == pytest.approx(0.4, abs=0.05)

    def test_bad_frequency_pair_rejected(self):
        with pytest.raises(WorkloadError):
            _fixed_model().frequency_scalability(f_low_hz=2e9, f_high_hz=1e9)


class TestWorkloadContainer:
    def test_utilization(self):
        w = Workload("t", _fixed_model())
        # 100 K QPS x 10 us / 10 cores = 10%.
        assert w.utilization(100_000, 10) == pytest.approx(0.1)

    def test_bad_write_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            Workload("t", _fixed_model(), write_fraction=2.0)

    def test_bad_utilization_args_rejected(self):
        w = Workload("t", _fixed_model())
        with pytest.raises(WorkloadError):
            w.utilization(-1, 10)
        with pytest.raises(WorkloadError):
            w.utilization(1, 0)


class TestServiceParameterisations:
    def test_memcached_service_time_band(self):
        w = memcached_workload()
        assert 5 * US <= w.service.mean <= 15 * US

    def test_memcached_read_heavy(self):
        assert memcached_workload().write_fraction < 0.1

    def test_memcached_network_latency_117us(self):
        assert memcached_workload().network_latency == pytest.approx(117 * US)

    def test_memcached_rates_match_paper(self):
        assert MEMCACHED_RATES_KQPS == [10, 50, 100, 200, 300, 400, 500]

    def test_kafka_heavier_than_memcached(self):
        assert kafka_workload().service.mean > memcached_workload().service.mean

    def test_kafka_rates_low_high(self):
        assert set(KAFKA_RATES) == {"low", "high"}
        assert KAFKA_RATES["low"] < KAFKA_RATES["high"]

    def test_mysql_heaviest(self):
        assert mysql_workload().service.mean > kafka_workload().service.mean

    def test_mysql_rates_low_mid_high(self):
        assert set(MYSQL_RATES) == {"low", "mid", "high"}

    def test_all_have_positive_scalability(self):
        for factory in (memcached_workload, kafka_workload, mysql_workload):
            scalability = factory().service.frequency_scalability()
            assert 0.1 <= scalability <= 0.9

    def test_reproducible_sampling(self):
        a = memcached_workload().service
        b = memcached_workload().service
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]


class TestOpenLoopPoisson:
    def test_arrival_count_near_expected(self):
        gen = OpenLoopPoisson(10_000.0, seed=3)
        arrivals = list(gen.arrivals(1.0))
        assert len(arrivals) == pytest.approx(10_000, rel=0.05)

    def test_arrivals_sorted_and_in_horizon(self):
        gen = OpenLoopPoisson(1000.0, seed=4)
        arrivals = list(gen.arrivals(0.5))
        assert arrivals == sorted(arrivals)
        assert all(0 <= t < 0.5 for t in arrivals)

    def test_seeded_reproducibility(self):
        a = list(OpenLoopPoisson(1000.0, seed=5).arrivals(0.1))
        b = list(OpenLoopPoisson(1000.0, seed=5).arrivals(0.1))
        assert a == b

    def test_zero_rate_rejected(self):
        with pytest.raises(WorkloadError):
            OpenLoopPoisson(0.0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(WorkloadError):
            list(OpenLoopPoisson(100.0).arrivals(0.0))


class TestBurstyLoadGenerator:
    def test_average_rate(self):
        # Peak rate times the ON duty cycle, over many ON/OFF periods.
        gen = BurstyLoadGenerator(peak_qps=1000.0, on_mean=0.1, off_mean=0.1)
        horizon = 200.0
        rate = len(list(gen.arrivals(horizon))) / horizon
        assert rate == pytest.approx(500.0, rel=0.1)

    def test_generates_bursts(self):
        gen = BurstyLoadGenerator(
            peak_qps=100_000.0, on_mean=0.01, off_mean=0.05, seed=2
        )
        arrivals = list(gen.arrivals(1.0))
        assert len(arrivals) > 100
        assert arrivals == sorted(arrivals)

    def test_bad_params_rejected(self):
        with pytest.raises(WorkloadError):
            BurstyLoadGenerator(0.0, 0.1, 0.1)
        with pytest.raises(WorkloadError):
            BurstyLoadGenerator(100.0, 0.0, 0.1)


class TestProfiles:
    def test_motivation_profiles_residencies_sum_to_one(self):
        for _, residency in motivation_profiles():
            assert sum(residency.values()) == pytest.approx(1.0)

    def test_motivation_has_three_examples(self):
        assert len(motivation_profiles()) == 3

    def test_validation_profiles_names(self):
        names = [p.name for p in validation_profiles()]
        assert names == ["SPECpower", "Nginx", "Spark", "Hive"]

    def test_validation_levels_sum_to_one(self):
        for profile in validation_profiles():
            for level in profile.levels:
                assert sum(level.residency.values()) == pytest.approx(1.0)

    def test_level_lookup(self):
        profile = validation_profiles()[0]
        assert profile.level("10%").label == "10%"
        with pytest.raises(ConfigurationError):
            profile.level("nope")

    def test_bad_residency_sum_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfileLevel("x", {"C0": 0.5, "C1": 0.2})

    def test_negative_residency_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfileLevel("x", {"C0": 1.2, "C1": -0.2})

    def test_duplicate_labels_rejected(self):
        level = ProfileLevel("a", {"C0": 1.0})
        with pytest.raises(ConfigurationError):
            ResidencyProfile("p", [level, level])

    def test_implausible_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfileLevel("x", {"C0": 1.0}, measurement_gap=0.9)

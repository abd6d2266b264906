"""Tests for the M/G/1-with-setup analytical latency model."""

import pytest

from repro.analytical.latency_model import (
    MG1SetupModel,
    SetupDistribution,
    aw_latency_advantage,
)
from repro.core.cstates import skylake_baseline_catalog
from repro.errors import ConfigurationError
from repro.units import US


class TestSetupDistribution:
    def test_single_state_mixture(self):
        setup = SetupDistribution.from_wake_shares({"C1": 1.0})
        c1_exit = skylake_baseline_catalog().get("C1").exit_latency
        assert setup.mean == pytest.approx(c1_exit)
        assert setup.second_moment == pytest.approx(c1_exit ** 2)

    def test_mixture_mean(self):
        catalog = skylake_baseline_catalog()
        setup = SetupDistribution.from_wake_shares({"C1": 0.5, "C6": 0.5})
        expected = 0.5 * catalog.get("C1").exit_latency + 0.5 * catalog.get("C6").exit_latency
        assert setup.mean == pytest.approx(expected)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            SetupDistribution.from_wake_shares({"C1": 0.5})

    def test_negative_share_rejected(self):
        with pytest.raises(ConfigurationError):
            SetupDistribution.from_wake_shares({"C1": 1.5, "C6": -0.5})


class TestMG1Model:
    def test_pk_formula_exponential_service(self):
        # M/M/1 check: E[W] = rho/(1-rho) * E[S]; E[S^2] = 2 E[S]^2.
        model = MG1SetupModel(
            arrival_rate=50_000.0,
            service_mean=10 * US,
            service_second_moment=2 * (10 * US) ** 2,
        )
        rho = model.utilization
        assert model.queueing_wait == pytest.approx(rho / (1 - rho) * 10 * US)

    def test_deterministic_service_halves_wait(self):
        # M/D/1 waits are half of M/M/1 waits.
        mm1 = MG1SetupModel(50_000.0, 10 * US, 2 * (10 * US) ** 2)
        md1 = MG1SetupModel(50_000.0, 10 * US, (10 * US) ** 2)
        assert md1.queueing_wait == pytest.approx(mm1.queueing_wait / 2)

    def test_setup_adds_wait(self):
        base = MG1SetupModel(10_000.0, 10 * US, (10 * US) ** 2)
        with_setup = MG1SetupModel(
            10_000.0, 10 * US, (10 * US) ** 2,
            setup=SetupDistribution.from_wake_shares({"C6": 1.0}),
        )
        assert with_setup.mean_response_time > base.mean_response_time

    def test_deeper_setup_costs_more(self):
        kwargs = dict(arrival_rate=10_000.0, service_mean=10 * US,
                      service_second_moment=(10 * US) ** 2)
        c1 = MG1SetupModel(**kwargs, setup=SetupDistribution.from_wake_shares({"C1": 1.0}))
        c6 = MG1SetupModel(**kwargs, setup=SetupDistribution.from_wake_shares({"C6": 1.0}))
        assert c6.mean_response_time > c1.mean_response_time

    def test_unstable_queue_rejected(self):
        with pytest.raises(ConfigurationError):
            MG1SetupModel(200_000.0, 10 * US, (10 * US) ** 2)

    def test_response_is_wait_plus_service(self):
        model = MG1SetupModel(10_000.0, 10 * US, (10 * US) ** 2)
        assert model.mean_response_time == pytest.approx(
            model.mean_wait + 10 * US
        )


class TestFromWorkload:
    def test_builds_from_memcached(self):
        from repro.workloads import memcached_workload

        workload = memcached_workload()
        model = MG1SetupModel.from_workload(
            workload.service, qps=100_000, cores=10,
            wake_shares={"C1E": 1.0},
        )
        assert 0.05 < model.utilization < 0.2
        assert model.mean_response_time > workload.service.mean

    def test_invalid_cores_rejected(self):
        from repro.workloads import memcached_workload

        with pytest.raises(ConfigurationError):
            MG1SetupModel.from_workload(
                memcached_workload().service, qps=1000, cores=0
            )


class TestCrossValidationAgainstSimulator:
    def test_predicts_simulated_latency_at_moderate_load(self):
        # Fixed C1E governor, no snoops: the closed form should land
        # within ~15% of the simulator's measured mean latency.
        from repro.governor.idle import FixedGovernor
        from repro.server import ServerNode, named_configuration
        from repro.workloads import memcached_workload

        workload = memcached_workload()
        qps, cores = 200_000, 10
        node = ServerNode(
            workload=workload,
            configuration=named_configuration("NT_No_C6"),
            qps=qps, cores=cores, horizon=0.15, seed=21,
            snoops_enabled=False,
            governor_factory=lambda: FixedGovernor("C1E"),
        )
        simulated = node.run().avg_latency

        # The service model's scv: lognormal parts with sigma 0.55 give
        # per-request scv ~ exp(sigma^2)-1 blended over two components.
        model = MG1SetupModel.from_workload(
            workload.service, qps=qps, cores=cores,
            wake_shares={"C1E": 1.0}, service_scv=0.25,
        )
        assert model.mean_response_time == pytest.approx(simulated, rel=0.15)


class TestAWAdvantage:
    def test_aw_faster_when_legacy_wakes_from_c6(self):
        from repro.workloads import memcached_workload

        advantage = aw_latency_advantage(
            qps=50_000, cores=10,
            service=memcached_workload().service,
            legacy_shares={"C1E": 0.6, "C6": 0.4},
        )
        assert advantage > 10 * US  # C6's 46 us exits dominate

    def test_aw_nearly_neutral_vs_c1_only(self):
        from repro.workloads import memcached_workload

        advantage = aw_latency_advantage(
            qps=50_000, cores=10,
            service=memcached_workload().service,
            legacy_shares={"C1": 1.0},
        )
        # C6A costs only ~80 ns more than C1 per wake.
        assert abs(advantage) < 0.2 * US

"""Cross-module integration tests.

These exercise combinations the unit tests cannot: the analytical model
cross-checked against simulation, and full catalog plumbing from design
to node.
"""

import pytest

from repro import AgileWattsDesign, named_configuration, simulate
from repro.analytical import AgileWattsPowerModel, average_power
from repro.workloads import memcached_workload


class TestAnalyticVsSimulation:
    """Eq. 2/3 cross-checked against the event-driven integration."""

    def test_eq2_matches_simulated_power_without_turbo(self):
        # With Turbo off, the simulator's RAPL-style power must agree
        # with Eq. 2 applied to its own residencies (up to transition
        # windows and snoop service, which are small at moderate load).
        result = simulate(
            memcached_workload(), named_configuration("NT_Baseline"),
            qps=100_000, horizon=0.15, seed=42, snoops_enabled=False,
        )
        analytic = average_power(result.residency)
        assert analytic == pytest.approx(result.avg_core_power, rel=0.02)

    def test_eq3_model_tracks_simulated_aw(self):
        # The paper's Eq. 3 rescaling (baseline residencies -> AW power)
        # should land near the *simulated* AW power.
        base = simulate(
            memcached_workload(), named_configuration("NT_Baseline"),
            qps=100_000, horizon=0.15, seed=42, snoops_enabled=False,
        )
        aw = simulate(
            memcached_workload(), named_configuration("NT_AW"),
            qps=100_000, horizon=0.15, seed=42, snoops_enabled=False,
        )
        model = AgileWattsPowerModel(
            frequency_scalability=memcached_workload().service.frequency_scalability()
        )
        predicted = model.average_power(
            base.residency, base.transitions_per_second
        )
        assert predicted == pytest.approx(aw.avg_core_power, rel=0.10)

    def test_design_verification_gates_simulation(self):
        # A verified design's catalog flows through config to simulation.
        design = AgileWattsDesign()
        assert all(design.verify().values())
        config = named_configuration("AW", design=design)
        result = simulate(memcached_workload(), config, qps=50_000,
                          horizon=0.05, seed=1)
        aw_residency = result.residency.get("C6A", 0.0) + result.residency.get("C6AE", 0.0)
        assert aw_residency > 0.3


class TestSeedSensitivity:
    def test_power_stable_across_seeds(self):
        # The headline savings should be a property of the system, not
        # the seed: spread across seeds stays within a few percent.
        powers = [
            simulate(memcached_workload(), named_configuration("NT_Baseline"),
                     qps=100_000, horizon=0.08, seed=seed).avg_core_power
            for seed in (1, 2, 3)
        ]
        spread = (max(powers) - min(powers)) / min(powers)
        assert spread < 0.05


class TestHorizonConvergence:
    def test_longer_horizon_converges(self):
        short = simulate(memcached_workload(), named_configuration("NT_Baseline"),
                         qps=100_000, horizon=0.05, seed=42)
        long = simulate(memcached_workload(), named_configuration("NT_Baseline"),
                        qps=100_000, horizon=0.2, seed=42)
        assert long.avg_core_power == pytest.approx(short.avg_core_power, rel=0.05)
        assert long.utilization == pytest.approx(short.utilization, rel=0.10)

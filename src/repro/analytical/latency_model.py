# repro: allow[DEAD001] MG1SetupModel is the analytic oracle the planned correctness checks use
"""Analytical request-latency model: M/G/1 with server setup times.

The simulator measures latency; this model *predicts* it, giving an
independent cross-check (and a fast design-space tool that needs no
simulation). Each core behaves as an M/G/1 queue whose server "turns
off" when idle and pays a **setup time** — the C-state exit latency —
when work arrives to an empty system. Welch's classic result for M/G/1
with setup gives the mean wait:

    E[W] = lambda * E[S^2] / (2 (1 - rho))                (Pollaczek-Khinchine)
         + (2 E[R] + lambda * E[R^2]) / (2 (1 + lambda E[R]))

with arrival rate ``lambda`` per core, service time S, setup time R.
Mean response time is then ``E[T] = E[W] + E[S]``.

The setup distribution follows the governor: a mixture over the idle
states' exit latencies weighted by how often each is the state being
woken from. This is exactly the structure of the paper's Fig 8c
worst/expected-case analysis, done in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.cstates import CStateCatalog, skylake_baseline_catalog
from repro.errors import ConfigurationError
from repro.workloads.base import ServiceTimeModel


@dataclass(frozen=True)
class SetupDistribution:
    """First two moments of the wake (setup) time.

    Built from per-state wake shares, e.g. ``{"C1": 0.2, "C1E": 0.8}``
    meaning 80% of wakes come out of C1E.
    """

    mean: float
    second_moment: float

    @classmethod
    def from_wake_shares(
        cls,
        shares: Mapping[str, float],
        catalog: Optional[CStateCatalog] = None,
    ) -> "SetupDistribution":
        """Mixture over exit latencies with the given wake shares.

        Raises:
            ConfigurationError: if shares don't sum to ~1 or are negative.
        """
        catalog = catalog if catalog is not None else skylake_baseline_catalog()
        total = sum(shares.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(f"wake shares must sum to 1, got {total}")
        if any(v < 0 for v in shares.values()):
            raise ConfigurationError("wake shares must be >= 0")
        mean = 0.0
        second = 0.0
        for name, share in shares.items():
            exit_latency = catalog.get(name).exit_latency
            mean += share * exit_latency
            second += share * exit_latency ** 2
        return cls(mean=mean, second_moment=second)


@dataclass(frozen=True)
class MG1SetupModel:
    """Per-core M/G/1 queue with setup times.

    Attributes:
        arrival_rate: per-core Poisson arrival rate (qps / cores).
        service_mean / service_second_moment: moments of S.
        setup: wake-time distribution (None = always-on server).
    """

    arrival_rate: float
    service_mean: float
    service_second_moment: float
    setup: Optional[SetupDistribution] = None

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        if self.service_mean <= 0 or self.service_second_moment <= 0:
            raise ConfigurationError("service moments must be positive")
        if self.utilization >= 1.0:
            raise ConfigurationError(
                f"unstable queue: rho = {self.utilization:.3f} >= 1"
            )

    @property
    def utilization(self) -> float:
        return self.arrival_rate * self.service_mean

    @property
    def queueing_wait(self) -> float:
        """Pollaczek-Khinchine mean wait (no setup)."""
        rho = self.utilization
        return self.arrival_rate * self.service_second_moment / (2.0 * (1.0 - rho))

    @property
    def setup_wait(self) -> float:
        """Welch's additional mean wait from setup times."""
        if self.setup is None or self.setup.mean == 0.0:
            return 0.0
        lam = self.arrival_rate
        r1, r2 = self.setup.mean, self.setup.second_moment
        return (2.0 * r1 + lam * r2) / (2.0 * (1.0 + lam * r1))

    @property
    def mean_wait(self) -> float:
        return self.queueing_wait + self.setup_wait

    @property
    def mean_response_time(self) -> float:
        """E[T] = E[W] + E[S]: the server-side average latency."""
        return self.mean_wait + self.service_mean

    @classmethod
    def from_workload(
        cls,
        service: ServiceTimeModel,
        qps: float,
        cores: int,
        wake_shares: Optional[Mapping[str, float]] = None,
        catalog: Optional[CStateCatalog] = None,
        service_scv: float = None,
    ) -> "MG1SetupModel":
        """Build the model from library objects.

        Args:
            service: the workload's service-time model (mean from it).
            qps / cores: offered load split per core.
            wake_shares: per-state wake mixture (None = no setups).
            service_scv: squared coefficient of variation of S; if None,
                a log-normal-ish default of 0.45 (matching the Memcached
                parameterisation) is used for the second moment.
        """
        if cores <= 0:
            raise ConfigurationError("core count must be positive")
        mean = service.mean
        scv = 0.45 if service_scv is None else service_scv
        if scv < 0:
            raise ConfigurationError("squared CV must be >= 0")
        second = (scv + 1.0) * mean ** 2
        setup = (
            SetupDistribution.from_wake_shares(wake_shares, catalog)
            if wake_shares
            else None
        )
        return cls(
            arrival_rate=qps / cores,
            service_mean=mean,
            service_second_moment=second,
            setup=setup,
        )


def aw_latency_advantage(
    qps: float,
    cores: int,
    service: ServiceTimeModel,
    legacy_shares: Mapping[str, float],
    catalog_legacy: Optional[CStateCatalog] = None,
    catalog_aw: Optional[CStateCatalog] = None,
) -> float:
    """Closed-form server-side latency gain of AW over a legacy mixture.

    Compares the legacy wake mixture against AW's *recommended*
    configuration (Sec 7.3): C6A only, with C6 and the Pn states
    disabled — every wake pays C6A's ~1 us exit instead of C1E's 5 us or
    C6's 46 us. Positive = AW faster. This is the closed-form version of
    the Fig 10 latency panels.
    """
    from repro.core.cstates import agilewatts_catalog

    catalog_legacy = catalog_legacy or skylake_baseline_catalog()
    catalog_aw = catalog_aw or agilewatts_catalog()
    aw_shares = {"C6A": 1.0}

    legacy = MG1SetupModel.from_workload(
        service, qps, cores, legacy_shares, catalog_legacy
    )
    aw = MG1SetupModel.from_workload(service, qps, cores, aw_shares, catalog_aw)
    return legacy.mean_response_time - aw.mean_response_time

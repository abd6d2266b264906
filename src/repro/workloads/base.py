"""Service-time models.

Each request's service time splits into:

- a *frequency-scalable* part (instructions retiring on the core), which
  shrinks proportionally when the core runs above base frequency, and
- a *fixed* part (memory, NIC, lock stalls) that frequency does not help.

The split determines the workload's *frequency scalability* (Sec 6.2,
Fig 8d): the performance change per unit frequency change. It is also how
the AW model charges the ~1% fmax penalty of the extra power gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log
from random import NV_MAGICCONST
from typing import Callable, Optional

from repro.core.cstates import FrequencyPoint
from repro.errors import WorkloadError
from repro.simkit.distributions import Distribution, LogNormal
from repro.units import US


@dataclass
class ServiceTimeModel:
    """Two-component service-time model.

    Attributes:
        scalable: distribution of the core-bound component *at base
            frequency* (P1).
        fixed: distribution of the frequency-insensitive component.
        base_frequency: the frequency the scalable component is quoted at.
    """

    scalable: Distribution
    fixed: Distribution
    base_frequency: FrequencyPoint = FrequencyPoint.P1

    def __post_init__(self) -> None:
        # A service time is drawn once per simulated request; memoise the
        # frequency ratio per (frequency, derate) operating point — there
        # are only a handful — so the hot path is two draws and an FMA.
        self._ratio_cache: dict = {}
        self._sample = self.sampler()

    def _frequency_ratio(
        self, frequency: FrequencyPoint, frequency_derate: float
    ) -> float:
        key = (frequency, frequency_derate)
        ratio = self._ratio_cache.get(key)
        if ratio is None:
            if not 0.0 <= frequency_derate < 1.0:
                raise WorkloadError(
                    f"derate must be in [0, 1), got {frequency_derate}"
                )
            frequency = frequency or self.base_frequency
            effective_hz = frequency.frequency_hz * (1.0 - frequency_derate)
            ratio = self.base_frequency.frequency_hz / effective_hz
            self._ratio_cache[key] = ratio
        return ratio

    def sampler(self) -> Callable[[Optional[FrequencyPoint], float], float]:
        """The per-request draw ``(frequency, derate) -> service time``.

        Equal to ``scalable.sample() * ratio + fixed.sample()``, scalable
        first. When both components are :class:`LogNormal` with sigma > 0
        (Memcached, Kafka) both lognormal draws are inlined here (see
        :meth:`LogNormal.sampler`), so a request costs one frame; other
        models call their components' samplers.
        """
        ratio_get = self._ratio_cache.get
        frequency_ratio = self._frequency_ratio
        scalable, fixed = self.scalable, self.fixed
        if not (
            type(scalable) is LogNormal and type(fixed) is LogNormal
            and scalable.sigma > 0 and fixed.sigma > 0
        ):
            sample_scalable = scalable.sampler()
            sample_fixed = fixed.sampler()

            def sample(
                frequency: Optional[FrequencyPoint], derate: float
            ) -> float:
                ratio = ratio_get((frequency, derate))
                if ratio is None:
                    ratio = frequency_ratio(frequency, derate)
                return sample_scalable() * ratio + sample_fixed()

            return sample

        random_s, mu_s, sigma_s = scalable.inline_params()
        random_f, mu_f, sigma_f = fixed.inline_params()

        def sample_lognormal_pair(
            frequency: Optional[FrequencyPoint], derate: float
        ) -> float:
            ratio = ratio_get((frequency, derate))
            if ratio is None:
                ratio = frequency_ratio(frequency, derate)
            while True:
                u1 = random_s()
                u2 = 1.0 - random_s()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            scaled = exp(mu_s + z * sigma_s) * ratio
            while True:
                u1 = random_f()
                u2 = 1.0 - random_f()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            return scaled + exp(mu_f + z * sigma_f)

        return sample_lognormal_pair

    def sample(
        self,
        frequency: Optional[FrequencyPoint] = None,
        frequency_derate: float = 0.0,
    ) -> float:
        """One service time at the given operating point.

        Args:
            frequency: actual core frequency (defaults to base).
            frequency_derate: fractional fmax loss (AW's ~1% power-gate
                penalty); slows the scalable component only.
        """
        return self._sample(frequency, frequency_derate)

    @property
    def mean(self) -> float:
        """Mean service time at base frequency."""
        return self.scalable.mean + self.fixed.mean

    def frequency_scalability(
        self,
        f_low_hz: float = 2.0e9,
        f_high_hz: float = 2.2e9,
    ) -> float:
        """Performance change per unit frequency change (Sec 6.2, [144]).

        Defined as (perf gain) / (frequency gain) between two frequencies,
        where perf is 1 / mean service time. A fully core-bound workload
        scores 1.0; a fully memory-bound one scores 0.0.
        """
        if f_low_hz <= 0 or f_high_hz <= f_low_hz:
            raise WorkloadError("need 0 < f_low < f_high")
        base_hz = self.base_frequency.frequency_hz
        t_low = self.scalable.mean * (base_hz / f_low_hz) + self.fixed.mean
        t_high = self.scalable.mean * (base_hz / f_high_hz) + self.fixed.mean
        perf_gain = t_low / t_high - 1.0
        freq_gain = f_high_hz / f_low_hz - 1.0
        return perf_gain / freq_gain


@dataclass
class Workload:
    """A named service: request service-time model plus traffic traits.

    Attributes:
        name: service name ("memcached", ...).
        service: the per-request service-time model.
        write_fraction: share of requests that dirty cache lines (drives
            the C6 flush cost).
        network_latency: fixed client<->server network time added to
            server-side latency for end-to-end numbers (the paper measures
            117 us for its Memcached testbed).
        snoop_rate_hz: background snoop-burst rate per idle core induced
            by the other cores' traffic at nominal load.
    """

    name: str
    service: ServiceTimeModel
    write_fraction: float = 0.1
    network_latency: float = 117 * US
    snoop_rate_hz: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError("write_fraction must be in [0, 1]")
        if self.network_latency < 0:
            raise WorkloadError("network latency must be >= 0")
        if self.snoop_rate_hz < 0:
            raise WorkloadError("snoop rate must be >= 0")

    def utilization(self, qps: float, cores: int) -> float:
        """Offered per-core utilisation at ``qps`` spread over ``cores``."""
        if qps < 0 or cores <= 0:
            raise WorkloadError("need qps >= 0 and cores > 0")
        return qps * self.service.mean / cores

"""Seeded random variates for workload and service-time modelling.

Each distribution wraps a private :class:`random.Random` instance so that
every stochastic component of a simulation (arrivals, service times, snoop
traffic) draws from an independent, reproducible stream. Two simulations
built with the same seeds produce bit-identical schedules.

All distributions expose:

- ``sample() -> float`` — one variate (always >= 0 for the provided types)
- ``mean`` — the analytic mean, used by load calculators and tests

Hot consumers inline the stdlib algorithms instead of calling them:
:meth:`LogNormal.sampler` (and the fused service-time sampler in
:mod:`repro.workloads.base`) repeat ``Random.normalvariate`` + ``exp``,
and :class:`~repro.workloads.loadgen.OpenLoopPoisson` repeats
``Random.expovariate``, operation for operation, so every draw is
bit-identical to the stdlib call it replaces.
"""

from __future__ import annotations

import math
import random
from functools import partial
from math import exp, log
from random import NV_MAGICCONST
from typing import Callable, List, Sequence, Tuple

from repro.errors import ConfigurationError


class Distribution:
    """Base class: a reproducible non-negative random variate."""

    def sample(self) -> float:
        raise NotImplementedError

    def sampler(self) -> Callable[[], float]:
        """A zero-argument callable drawing from the same stream as
        :meth:`sample`.

        The default is the bound :meth:`sample` itself. Subclasses
        override this with a cheaper equivalent — a C-dispatching
        :func:`~functools.partial` of a single :mod:`random` call, or the
        stdlib algorithm inlined — since service-time sampling runs once
        per simulated request, so each frame is measurable at scale. Both
        entry points consume the identical random stream.
        """
        return self.sample

    @property
    def mean(self) -> float:
        raise NotImplementedError


class Exponential(Distribution):
    """Exponential with given mean (inter-arrival times of Poisson processes)."""

    def __init__(self, mean: float, seed: int = 0):
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be > 0, got {mean}")
        self._mean = float(mean)
        self._lambd = 1.0 / self._mean
        self._rng = random.Random(seed)

    def sample(self) -> float:
        return self._rng.expovariate(self._lambd)

    def inline_params(self) -> Tuple[Callable[[], float], float]:
        """``(random, lambd)``: the uniform source and rate an inlined
        ``-log(1.0 - random()) / lambd`` draw needs to replay
        :meth:`sample` exactly (``lambd`` is ``1.0 / mean``, which is not
        always the caller's rate bit for bit)."""
        return self._rng.random, self._lambd

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean})"


class LogNormal(Distribution):
    """Log-normal parameterised by its *actual* mean and sigma (of log).

    Service times of real services are right-skewed; log-normal is the
    conventional fit (e.g. Mutilate's Facebook ETC service times).
    """

    def __init__(self, mean: float, sigma: float = 0.5, seed: int = 0):
        if mean <= 0:
            raise ConfigurationError(f"lognormal mean must be > 0, got {mean}")
        if sigma < 0:
            raise ConfigurationError(f"lognormal sigma must be >= 0, got {sigma}")
        self._mean = float(mean)
        self._sigma = float(sigma)
        # E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
        self._mu = math.log(mean) - sigma * sigma / 2.0
        self._rng = random.Random(seed)

    def sample(self) -> float:
        if self._sigma == 0:
            return self._mean
        return self._rng.lognormvariate(self._mu, self._sigma)

    def sampler(self) -> Callable[[], float]:
        """One-frame draws: ``Random.lognormvariate`` inlined.

        The loop is CPython's ``normalvariate`` (Kinderman-Monahan ratio
        of uniforms) followed by ``exp``, with the same operations in the
        same order, so it consumes the stream exactly as :meth:`sample`.
        """
        if self._sigma == 0:
            return self.sample
        random_, mu, sigma = self.inline_params()

        def draw() -> float:
            while True:
                u1 = random_()
                u2 = 1.0 - random_()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    return exp(mu + z * sigma)

        return draw

    def inline_params(self) -> Tuple[Callable[[], float], float, float]:
        """``(random, mu, sigma)``: the uniform source and log-space
        parameters an inlined draw needs (see :meth:`sampler`)."""
        return self._rng.random, self._mu, self._sigma

    @property
    def sigma(self) -> float:
        """Standard deviation of the log (0 means a constant)."""
        return self._sigma

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"LogNormal(mean={self._mean}, sigma={self._sigma})"


class Pareto(Distribution):
    """Bounded-mean Pareto (heavy-tailed), parameterised by mean and alpha > 1.

    Used for tail-heavy request mixes (e.g. MySQL OLTP transactions with
    occasional large scans).
    """

    def __init__(self, mean: float, alpha: float = 2.5, seed: int = 0):
        if mean <= 0:
            raise ConfigurationError(f"pareto mean must be > 0, got {mean}")
        if alpha <= 1:
            raise ConfigurationError(f"pareto alpha must be > 1, got {alpha}")
        self._mean = float(mean)
        self._alpha = float(alpha)
        # E[X] = alpha * xm / (alpha - 1)  =>  xm = mean * (alpha - 1) / alpha
        self._xm = mean * (alpha - 1.0) / alpha
        self._rng = random.Random(seed)

    def sample(self) -> float:
        u = self._rng.random()
        # Inverse CDF; clamp u away from 0 to avoid infinities.
        u = max(u, 1e-12)
        return self._xm / (u ** (1.0 / self._alpha))

    @property
    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"Pareto(mean={self._mean}, alpha={self._alpha})"


class MixtureDistribution(Distribution):
    """Weighted mixture of distributions (e.g. GET/SET request mix)."""

    def __init__(self, components: Sequence[Tuple[float, Distribution]], seed: int = 0):
        if not components:
            raise ConfigurationError("mixture needs at least one component")
        weights = [w for w, _ in components]
        if any(w <= 0 for w in weights):
            raise ConfigurationError("mixture weights must be positive")
        total = sum(weights)
        self._weights = [w / total for w in weights]
        self._dists = [d for _, d in components]
        self._rng = random.Random(seed)
        self._cum: List[float] = []
        acc = 0.0
        for w in self._weights:
            acc += w
            self._cum.append(acc)

    def sample(self) -> float:
        u = self._rng.random()
        for threshold, dist in zip(self._cum, self._dists):
            if u <= threshold:
                return dist.sample()
        return self._dists[-1].sample()

    @property
    def mean(self) -> float:
        return sum(w * d.mean for w, d in zip(self._weights, self._dists))

    def __repr__(self) -> str:
        return f"MixtureDistribution(k={len(self._dists)})"

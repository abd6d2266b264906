"""The hot path's inlined draws equal the stdlib calls they replace.

:meth:`LogNormal.sampler`, the fused :meth:`ServiceTimeModel.sampler`
and :meth:`OpenLoopPoisson.arrivals` repeat CPython's
``lognormvariate``/``normalvariate`` and ``expovariate`` inline. These
tests pin them draw for draw against the interpreter's own
:mod:`random`, so a CPython release that changed either algorithm would
fail here before it moved a golden digest.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cstates import FrequencyPoint
from repro.simkit import LogNormal
from repro.workloads.base import ServiceTimeModel
from repro.workloads.loadgen import OpenLoopPoisson
from repro.workloads.mysql import mysql_workload

DRAWS = 1000
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
MEANS = st.floats(min_value=1e-7, max_value=1e-2, allow_nan=False)
SIGMAS = st.floats(min_value=1e-3, max_value=2.0, allow_nan=False)
OPERATING_POINTS = [
    (frequency, derate)
    for frequency in FrequencyPoint
    for derate in (0.0, 0.01)
]


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, mean=MEANS, sigma=SIGMAS)
def test_lognormal_sampler_equals_stdlib(seed, mean, sigma):
    draw = LogNormal(mean, sigma=sigma, seed=seed).sampler()
    _random, mu, log_sigma = LogNormal(mean, sigma=sigma).inline_params()
    reference = random.Random(seed)
    for _ in range(DRAWS):
        assert draw() == reference.lognormvariate(mu, log_sigma)


@settings(max_examples=15, deadline=None)
@given(
    seed=SEEDS,
    scalable_mean=MEANS, scalable_sigma=SIGMAS,
    fixed_mean=MEANS, fixed_sigma=SIGMAS,
)
def test_fused_service_sampler_equals_component_draws(
    seed, scalable_mean, scalable_sigma, fixed_mean, fixed_sigma
):
    def model():
        return ServiceTimeModel(
            scalable=LogNormal(scalable_mean, sigma=scalable_sigma, seed=seed),
            fixed=LogNormal(fixed_mean, sigma=fixed_sigma, seed=seed + 1),
        )

    sample = model().sampler()
    twin = model()
    base_hz = FrequencyPoint.P1.frequency_hz
    for frequency, derate in OPERATING_POINTS:
        ratio = base_hz / (frequency.frequency_hz * (1.0 - derate))
        for _ in range(DRAWS):
            expected = twin.scalable.sample() * ratio + twin.fixed.sample()
            assert sample(frequency, derate) == expected


def test_mixture_service_sampler_equals_component_draws():
    # MySQL's fixed part is a mixture: its sampler keeps the component
    # samplers, and still draws exactly what sample() does.
    sample = mysql_workload(seed=5).service.sampler()
    twin = mysql_workload(seed=5).service
    for frequency, derate in OPERATING_POINTS:
        ratio = FrequencyPoint.P1.frequency_hz / (
            frequency.frequency_hz * (1.0 - derate)
        )
        for _ in range(DRAWS):
            expected = twin.scalable.sample() * ratio + twin.fixed.sample()
            assert sample(frequency, derate) == expected


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, qps=st.floats(min_value=1.0, max_value=1e7, allow_nan=False))
def test_poisson_arrivals_equal_running_expovariate_sum(seed, qps):
    # About 2 * DRAWS arrivals; fewer than DRAWS is a ~20-sigma event.
    horizon = 2 * DRAWS / qps
    # The stream's rate is the reciprocal of its mean interarrival time
    # 1 / qps, which is not always qps bit for bit.
    lambd = 1.0 / (1.0 / qps)
    reference = random.Random(seed)
    expected = []
    t = reference.expovariate(lambd)
    while t < horizon:
        expected.append(t)
        t += reference.expovariate(lambd)
    assert list(OpenLoopPoisson(qps, seed=seed).arrivals(horizon)) == expected
    assert len(expected) >= DRAWS

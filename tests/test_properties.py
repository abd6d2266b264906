"""Cross-module property-based tests (hypothesis).

These check conservation laws and monotonicities that must hold for *any*
parameterisation, not just the paper's design point.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from degenerate import Degenerate

from repro.analytical import AgileWattsPowerModel, average_power
from repro.core.cstates import skylake_baseline_catalog
from repro.core.latency import CacheFlushModel
from repro.power.powergate import make_ufpg_zones
from repro.server import named_configuration, simulate
from repro.uarch import Core, Package, PackageConfig, TurboBudget
from repro.units import US
from repro.workloads.base import ServiceTimeModel, Workload


# -- residency conservation --------------------------------------------------

def _reference_driver(catalog):
    """The unfused chain: the core's own transitions."""
    core = Core(0, catalog)
    return core, core.enter_idle, core.wake


def _fused_driver(catalog):
    """The fused ``Package`` transitions the node's fast path charges.

    Turbo is off: the bare core chain has no tank to grant a burst from.
    """
    core = Core(0, catalog)
    package = Package(
        [core], PackageConfig(cores=1), turbo=TurboBudget(enabled=False)
    )
    return (
        core,
        lambda time, state: package.enter_idle(core, time, state),
        lambda time: package.wake(core, time),
    )


DRIVERS = {"reference": _reference_driver, "fused": _fused_driver}

SPANS = st.lists(
    st.tuples(
        st.floats(min_value=1e-6, max_value=1.0),  # busy span
        st.floats(min_value=1e-6, max_value=1.0),  # idle span
        st.sampled_from(["C1", "C1E", "C6"]),
    ),
    min_size=1,
    max_size=20,
)


def _drive(driver, spans, tail):
    """Run ``spans`` through ``driver``; stats ``tail`` after the last wake."""
    catalog = skylake_baseline_catalog()
    core, enter_idle, wake = DRIVERS[driver](catalog)
    t = 0.0
    for busy, idle, state in spans:
        t += busy
        enter_idle(t, catalog.get(state))
        t += idle
        wake(t)
    return core.snapshot(t + tail), t + tail


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@given(spans=SPANS)
@settings(max_examples=50, deadline=None)
def test_core_residency_conserves_time(driver, spans):
    """Whatever the transition sequence, residencies sum to wall time."""
    stats, end = _drive(driver, spans, 0.1)
    assert sum(stats.residency_seconds.values()) == pytest.approx(end)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@given(spans=SPANS)
@settings(max_examples=50, deadline=None)
def test_core_energy_bounded_by_extremes(driver, spans):
    """Average power always lies between the cheapest and dearest state."""
    stats, _ = _drive(driver, spans, 0.01)
    assert 0.1 - 1e-9 <= stats.average_power <= 5.5 + 1e-9


@given(spans=SPANS)
@settings(max_examples=50, deadline=None)
def test_fused_transitions_leave_reference_core_stats(spans):
    """The fused path is the reference chain, bit for bit."""
    assert _drive("fused", spans, 0.1) == _drive("reference", spans, 0.1)


# -- Eq. 2 / Eq. 3 invariants ---------------------------------------------------

@st.composite
def residency_vectors(draw):
    parts = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(4)]
    total = sum(parts)
    if total == 0:
        parts = [1.0, 0.0, 0.0, 0.0]
        total = 1.0
    names = ["C0", "C1", "C1E", "C6"]
    return {n: p / total for n, p in zip(names, parts)}


@given(residency=residency_vectors())
@settings(max_examples=100)
def test_aw_model_never_increases_power(residency):
    """Eq. 3 with zero overheads can only reduce Eq. 2's power: C6A/C6AE
    are strictly cheaper than C1/C1E."""
    model = AgileWattsPowerModel(frequency_scalability=0.0)
    base = average_power(residency)
    aw = model.average_power(residency)
    assert aw <= base + 1e-12


@given(residency=residency_vectors())
@settings(max_examples=100)
def test_rescaling_preserves_probability_mass(residency):
    model = AgileWattsPowerModel(frequency_scalability=1.0)
    rescaled = model.rescale_residency(
        residency, transitions_per_second={"C1": 50_000.0}
    )
    assert sum(rescaled.values()) == pytest.approx(1.0)
    assert all(v >= -1e-12 for v in rescaled.values())


@given(residency=residency_vectors())
@settings(max_examples=100)
def test_substitution_is_mass_preserving_bijection_on_power_states(residency):
    out = AgileWattsPowerModel.substitute_states(residency)
    assert sum(out.values()) == pytest.approx(sum(residency.values()))
    assert "C1" not in out and "C1E" not in out


# -- flush model ----------------------------------------------------------------

@given(
    dirty_a=st.floats(min_value=0.0, max_value=1.0),
    dirty_b=st.floats(min_value=0.0, max_value=1.0),
    freq=st.floats(min_value=1e8, max_value=4e9),
)
@settings(max_examples=100)
def test_flush_monotone_in_dirtiness(dirty_a, dirty_b, freq):
    flush = CacheFlushModel()
    lo, hi = sorted((dirty_a, dirty_b))
    assert flush.flush_time(lo, freq) <= flush.flush_time(hi, freq) + 1e-15


# -- zone splitting -----------------------------------------------------------------

@given(
    zones=st.integers(min_value=5, max_value=64),
    area=st.floats(min_value=0.5, max_value=4.5),
)
@settings(max_examples=100)
def test_zone_split_conserves_area(zones, area):
    made = make_ufpg_zones(total_relative_area=area, zones=zones)
    assert sum(z.relative_area for z in made) == pytest.approx(area)
    assert all(z.relative_area <= 1.0 + 1e-9 for z in made)


# -- end-to-end simulation invariants ------------------------------------------------

def _tiny_workload():
    service = ServiceTimeModel(
        scalable=Degenerate(4 * US), fixed=Degenerate(6 * US)
    )
    return Workload("tiny", service, snoop_rate_hz=0.0)


@given(
    qps=st.sampled_from([5_000, 50_000, 200_000]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_simulation_invariants_hold_for_any_seed(qps, seed):
    """For any seed and load: residency sums to 1, power is bounded,
    latency is at least the service time."""
    result = simulate(
        _tiny_workload(), named_configuration("baseline"),
        qps=qps, horizon=0.03, seed=seed,
    )
    assert sum(result.residency.values()) == pytest.approx(1.0, abs=1e-6)
    assert 0.0 < result.avg_core_power <= 5.5
    if result.completed:
        assert result.avg_latency >= 10 * US * 0.7  # service-time floor


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_aw_saves_power_for_any_seed(seed):
    """AW beats the baseline hierarchy on power at moderate load for any
    seed — the core claim is not a seed artifact."""
    base = simulate(_tiny_workload(), named_configuration("NT_Baseline"),
                    qps=100_000, horizon=0.03, seed=seed)
    aw = simulate(_tiny_workload(), named_configuration("NT_AW"),
                  qps=100_000, horizon=0.03, seed=seed)
    assert aw.avg_core_power < base.avg_core_power

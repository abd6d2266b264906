"""``Package.enter_idle`` / ``Package.wake`` equal the reference chain.

The node's fast path charges each C-state transition through one fused
package call; ``fast_path=False`` keeps the per-object chain (core
transition, package power read, turbo update and grant, DVFS). These
tests drive both on twin packages through the same transition sequences
and require every counter to match bit for bit, and every check of the
chain to fire in the fused calls too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.server import named_configuration
from repro.uarch.core import Core
from repro.uarch.package import Package, PackageConfig
from repro.uarch.turbo import TurboBudget, TurboConfig

CORES = 3


def _package(config_name, turbo_enabled=True):
    catalog = named_configuration(config_name).catalog
    cores = [Core(i, catalog) for i in range(CORES)]
    turbo = TurboBudget(
        TurboConfig(sustained_watts=40.0, tank_joules=0.05), enabled=turbo_enabled
    )
    return Package(cores, PackageConfig(cores=CORES), turbo=turbo)


def _reference_enter_idle(package, core, time, state):
    core.enter_idle(time, state)
    package.turbo.update(time, package.package_power)


def _reference_wake(package, core, time):
    exit_latency = core.wake(time)
    frequency = package.turbo.frequency_for_burst(time, package.package_power)
    if frequency is not core.frequency:
        core.set_frequency(time, frequency)
    return exit_latency


def _observables(package):
    turbo = package.turbo
    return (
        package._core_power_int,
        turbo._level, turbo._time, turbo._package_power,
        turbo.grants, turbo.denials,
        [
            (
                core.state.name, core.frequency, core.current_power,
                core.power_fixed_point, core._energy_acc, core._energy_time,
                dict(core._residency), dict(core._transitions),
            )
            for core in package.cores
        ],
    )


STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=CORES - 1),
        st.floats(min_value=0.0, max_value=5e-3, allow_nan=False),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(
    config_name=st.sampled_from(["baseline", "AW"]),
    turbo_enabled=st.booleans(),
    steps=STEPS,
)
def test_fused_transitions_match_reference_chain(config_name, turbo_enabled, steps):
    fused = _package(config_name, turbo_enabled)
    reference = _package(config_name, turbo_enabled)
    idle_states = fused.cores[0].catalog.enabled_idle_states
    time = 0.0
    for index, dt, choice in steps:
        time += dt
        twins = (fused.cores[index], reference.cores[index])
        if fused.cores[index].is_active:
            state = idle_states[choice % len(idle_states)]
            fused.enter_idle(fused.cores[index], time, state)
            _reference_enter_idle(reference, reference.cores[index], time, state)
        elif choice % 4 == 0:
            for core in twins:
                core.begin_snoop_service(time, 0.25)
        elif choice % 4 == 1:
            for core in twins:
                core.end_snoop_service(time)
        else:
            assert fused.wake(fused.cores[index], time) == _reference_wake(
                reference, reference.cores[index], time
            )
        assert _observables(fused) == _observables(reference)


def test_fused_calls_keep_the_reference_checks():
    package = _package("baseline")
    core, other = package.cores[0], package.cores[1]
    catalog = core.catalog
    c1 = catalog.get("C1")
    with pytest.raises(SimulationError, match="already active"):
        package.wake(core, 1.0)
    with pytest.raises(SimulationError, match="is not idle"):
        package.enter_idle(core, 1.0, catalog.active)
    package.enter_idle(core, 2.0, c1)
    with pytest.raises(SimulationError, match="cannot enter"):
        package.enter_idle(core, 3.0, c1)
    with pytest.raises(SimulationError, match="core 0: time ran backwards"):
        package.wake(core, 1.0)
    # The core's clock is fine, but the shared turbo tank is already at
    # t=2: both calls must refuse to integrate it backwards.
    with pytest.raises(SimulationError, match="turbo budget time ran backwards"):
        package.enter_idle(other, 1.0, c1)
    package.enter_idle(package.cores[2], 2.5, c1)
    with pytest.raises(SimulationError, match="turbo budget time ran backwards"):
        package.wake(core, 2.25)

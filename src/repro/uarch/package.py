"""Multi-core package model.

Aggregates per-core power into package power (what Fig 9c plots) and owns
the shared turbo budget. The modelled part approximates one socket of the
paper's Xeon Silver 4114 testbed: 10 physical cores plus an uncore (mesh,
LLC, memory controllers, IO) whose power is load-insensitive to first
order at these utilisations.

Accounting is incremental: each :class:`~repro.uarch.core.Core` pushes a
fixed-point delta when (and only when) its own state or frequency changes,
so reading :attr:`Package.core_power` — which the turbo budget does on
every C-state transition — is O(1) regardless of core count, instead of
re-summing all cores per event. The fixed-point total (units of
``2**-80`` W) is exact, so it never drifts from the true sum no matter how
many transitions accumulate or in which order cores fire. The package also
integrates core energy piecewise between transitions, giving an O(1) live
socket-energy reading.

The hot transitions are fused: :meth:`Package.enter_idle` and
:meth:`Package.wake` each update the core, the fixed-point total and the
turbo tank in one call, doing what the
:meth:`Core.enter_idle <repro.uarch.core.Core.enter_idle>` /
:meth:`Core.wake <repro.uarch.core.Core.wake>` +
:meth:`TurboBudget.update <repro.uarch.turbo.TurboBudget.update>` chain
does, bit for bit. That chain stays the reference the golden replay
(``fast_path=False``) runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.cstates import CState, FrequencyPoint
from repro.errors import ConfigurationError, SimulationError
from repro.uarch.core import INV_POWER_SCALE, POWER_SCALE, Core
from repro.uarch.turbo import TurboBudget, TurboConfig


_P1 = FrequencyPoint.P1
_PN = FrequencyPoint.PN
_TURBO = FrequencyPoint.TURBO


@dataclass(frozen=True)
class PackageConfig:
    """Package-level parameters.

    Attributes:
        cores: physical core count per socket (Xeon Silver 4114: 10).
        uncore_watts: socket uncore power (mesh + LLC + IMC + IO). The
            4114's package idle sits tens of watts above the sum of core
            idle powers; ~38 W reproduces the Fig 9c band.
        sockets: sockets contributing to the reported package power.
    """

    cores: int = 10
    uncore_watts: float = 38.0
    sockets: int = 1

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError("core count must be positive")
        if self.uncore_watts < 0:
            raise ConfigurationError("uncore power must be >= 0")
        if self.sockets <= 0:
            raise ConfigurationError("socket count must be positive")


class Package:
    """A socket: cores + uncore + turbo budget.

    Args:
        cores: the core models aggregated by this socket.
        config: package parameters.
        turbo: shared turbo budget (a default one is built if omitted).
        incremental: keep the running core-power total updated by core
            deltas (O(1) reads; the default). ``False`` re-sums every core
            per read — the pre-optimisation reference used by the golden
            bit-identity tests; the delta bookkeeping still runs so modes
            can be compared on live objects.
    """

    def __init__(
        self,
        cores: Sequence[Core],
        config: PackageConfig = PackageConfig(),
        turbo: TurboBudget = None,
        incremental: bool = True,
    ):
        if not cores:
            raise ConfigurationError("package needs at least one core")
        if len(cores) != config.cores:
            raise ConfigurationError(
                f"got {len(cores)} cores but config says {config.cores}"
            )
        self.cores: List[Core] = list(cores)
        self.config = config
        self.turbo = turbo if turbo is not None else TurboBudget(TurboConfig())
        self._incremental = incremental
        self._core_power_int = 0
        # package_power runs per C-state transition; pin the config scalars.
        self._uncore = config.uncore_watts
        self._sockets = config.sockets
        for core in self.cores:
            # The core pushes fixed-point deltas straight into
            # _core_power_int (a bare attribute add — the whole per-event
            # cost of package accounting).
            core.attach_to_package(self)
            self._core_power_int += core.power_fixed_point

    # -- fused transitions --------------------------------------------------
    # One call per C-state transition of an attached core. Each does what
    # the reference chain does (Core.enter_idle / Core.wake, Core's
    # _commit_power, package_power, TurboBudget.update /
    # frequency_for_burst, Core.set_frequency) with the same float
    # operations in the same order, and keeps every check of that chain.
    # They read the fixed-point total, so only an incremental package may
    # call them; the uarch classes share this accounting contract, which
    # is why these reach into Core and TurboBudget state directly.
    def enter_idle(self, core: Core, time: float, state: CState) -> None:
        """Move ``core`` from C0 into the idle ``state`` at ``time``.

        Accrues the core's C0 residency, counts the entry, integrates its
        energy, applies the power delta to the package total and
        integrates the turbo tank up to ``time``.

        Raises:
            SimulationError: if the core is not active, ``state`` is not
                idle, or time runs backwards on the core or the tank.
        """
        current = core._state
        if not current._active:
            raise SimulationError(
                f"core {core.core_id}: cannot enter {state.name} from "
                f"{current.name}"
            )
        if state._active:
            raise SimulationError(f"core {core.core_id}: {state.name} is not idle")
        since = core._state_since
        if time < since:
            raise SimulationError(
                f"core {core.core_id}: time ran backwards ({time} < {since})"
            )
        residency = core._residency
        residency[current.name] = residency.get(current.name, 0.0) + (time - since)
        core._state_since = time
        core._state = state
        name = state.name
        transitions = core._transitions
        transitions[name] = transitions.get(name, 0) + 1
        if state.frequency is not None:
            core._frequency = state.frequency
        core._energy_acc += core._power * (time - core._energy_time)
        core._energy_time = time
        power = state.power_watts + core._snoop_power_delta
        power_int = int(power * POWER_SCALE)
        core._power = power
        self._core_power_int += power_int - core._power_int
        core._power_int = power_int
        turbo = self.turbo
        previous = turbo._time
        if time < previous:
            raise SimulationError(
                f"turbo budget time ran backwards ({time} < {previous})"
            )
        package_power = (
            self._core_power_int * INV_POWER_SCALE + self._uncore
        ) * self._sockets
        if package_power < 0:
            raise SimulationError("package power must be >= 0")
        level = turbo._level + (turbo._sustained - turbo._package_power) * (
            time - previous
        )
        if level < 0.0:
            level = 0.0
        elif level > turbo._tank:
            level = turbo._tank
        turbo._level = level
        turbo._time = time
        turbo._package_power = package_power

    def wake(self, core: Core, time: float) -> float:
        """Wake ``core`` back to C0 at ``time``; returns the exit latency.

        Accrues the idle residency, counts the C0 entry, ramps a Pn core
        back to P1, integrates the core's energy and the turbo tank, and
        records in the tank the package power at that pre-grant
        frequency. It then asks the tank for the burst's frequency and
        commits the core's C0 power at it (DVFS at zero span: no
        residency or energy to accrue).

        Raises:
            SimulationError: if the core is already active, or time runs
                backwards on the core or the tank.
        """
        current = core._state
        if current._active:
            raise SimulationError(f"core {core.core_id}: already active")
        since = core._state_since
        if time < since:
            raise SimulationError(
                f"core {core.core_id}: time ran backwards ({time} < {since})"
            )
        residency = core._residency
        residency[current.name] = residency.get(current.name, 0.0) + (time - since)
        core._state_since = time
        core._snoop_power_delta = 0.0
        core._state = core.catalog.active
        frequency = core._frequency
        if frequency is _PN:
            # Waking from a Pn state (C1E/C6AE) ramps back to base.
            frequency = _P1
        transitions = core._transitions
        transitions["C0"] = transitions.get("C0", 0) + 1
        core._energy_acc += core._power * (time - core._energy_time)
        core._energy_time = time
        power_int = int(frequency.active_power_watts * POWER_SCALE)
        turbo = self.turbo
        previous = turbo._time
        if time < previous:
            raise SimulationError(
                f"turbo budget time ran backwards ({time} < {previous})"
            )
        # The tank records the package power at the pre-grant frequency:
        # the reference chain's set_frequency never tells it.
        package_power = (
            (self._core_power_int + power_int - core._power_int)
            * INV_POWER_SCALE + self._uncore
        ) * self._sockets
        if package_power < 0:
            raise SimulationError("package power must be >= 0")
        level = turbo._level + (turbo._sustained - turbo._package_power) * (
            time - previous
        )
        if level < 0.0:
            level = 0.0
        elif level > turbo._tank:
            level = turbo._tank
        turbo._level = level
        turbo._time = time
        turbo._package_power = package_power
        if not turbo.enabled:
            granted = _P1
        elif level / turbo._tank >= turbo._threshold:
            turbo._grants += 1
            granted = _TURBO
        else:
            turbo._denials += 1
            granted = _P1
        if granted is not frequency:
            frequency = granted
            power_int = int(granted.active_power_watts * POWER_SCALE)
        core._frequency = frequency
        core._power = frequency.active_power_watts
        self._core_power_int += power_int - core._power_int
        core._power_int = power_int
        return current.exit_latency

    # -- incremental accounting --------------------------------------------
    def energy_joules(self, time: float) -> float:
        """Core energy integrated up to ``time`` (piecewise-constant).

        Reads the cores' running energy accumulators without mutating
        them, so it can be called mid-run; the cores themselves integrate
        in O(1) per transition, making this an O(cores) *reporting* call
        with zero per-event cost. Covers the cores only (multiply the
        span by ``config.uncore_watts * config.sockets`` for the full
        socket).

        Raises:
            ConfigurationError: if ``time`` precedes a core's last
                accounting point.
        """
        total = 0.0
        for core in self.cores:
            span = time - core._energy_time
            if span < 0:
                raise ConfigurationError(
                    f"package energy query at t={time} precedes core "
                    f"{core.core_id}'s accounting point t={core._energy_time}"
                )
            total += core._energy_acc + core.current_power * span
        return total

    def telemetry_power(self, time: float) -> "tuple[float, float, float]":
        """``(package_power, core_power, core_energy_joules)`` at ``time``.

        The read-only bundle the telemetry sampler
        (:class:`repro.obs.timeline.TimelineSampler`) pulls on every
        probe tick: instantaneous powers from the O(1) incremental
        accumulator plus integrated core energy via
        :meth:`energy_joules`. Never closes core accounting, so sampling
        mid-run cannot perturb the simulation's observables.
        """
        return (self.package_power, self.core_power, self.energy_joules(time))

    @property
    def core_power(self) -> float:
        """Instantaneous sum of core powers (O(1) when incremental)."""
        if not self._incremental:
            return sum(core.current_power for core in self.cores)
        return self._core_power_int * INV_POWER_SCALE

    @property
    def package_power(self) -> float:
        """Instantaneous socket power: cores + uncore."""
        if not self._incremental:
            return (self.core_power + self._uncore) * self._sockets
        return (
            self._core_power_int * INV_POWER_SCALE + self._uncore
        ) * self._sockets

"""CPU core model: C-state lifecycle, residency and energy accounting.

A :class:`Core` is the bookkeeping entity the server simulator drives: it
tracks which C-state the core occupies, integrates per-state residency and
energy (the simulated analogue of the residency MSRs and RAPL counters the
paper reads on real hardware), and counts transitions.

The class is deliberately time-explicit — every mutation takes the current
simulation time — so it can be driven by the event engine, by tests, or by
hand without hidden globals.

Power is recomputed only when the core transitions (state, frequency or
snoop-service changes); the instantaneous value is cached between
transitions, and the owning :class:`~repro.uarch.package.Package`
receives fixed-point deltas so the socket total stays O(1) per event
instead of re-summing every core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.cstates import CState, CStateCatalog, FrequencyPoint
from repro.errors import SimulationError

#: Fixed-point scale for core-power bookkeeping (joint contract with
#: :mod:`repro.uarch.package`). ``power * 2**80`` is an exact float
#: operation (power-of-two scaling only shifts the exponent) and is an
#: exact integer for any power >= ~1e-8 W, so per-core deltas accumulate
#: into a package total with *zero* float drift, independent of the order
#: cores transition in.
POWER_SCALE = 2.0 ** 80

#: Exact inverse (a power of two, so the product back is exact too).
INV_POWER_SCALE = 2.0 ** -80


@dataclass
class CoreStats:
    """Snapshot of a core's accumulated counters.

    Attributes:
        residency_seconds: seconds spent in each state (by name).
        transitions: number of entries into each state.
        energy_joules: total integrated energy.
        wall_seconds: total observed span.
    """

    residency_seconds: Dict[str, float]
    transitions: Dict[str, int]
    energy_joules: float
    wall_seconds: float

    @property
    def average_power(self) -> float:
        """Average power over the span (RAPL-style)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.energy_joules / self.wall_seconds


class Core:
    """One CPU core with C-state lifecycle tracking.

    The core starts in the catalog's active state (C0). Use
    :meth:`enter_idle` / :meth:`wake` to move through states and
    :meth:`snapshot` to read the accumulated statistics.
    """

    def __init__(
        self,
        core_id: int,
        catalog: CStateCatalog,
        start_time: float = 0.0,
        frequency: Optional[FrequencyPoint] = None,
    ):
        self.core_id = core_id
        self.catalog = catalog
        self._state: CState = catalog.active
        self._frequency = frequency or FrequencyPoint.P1
        self._state_since = start_time
        self._start_time = start_time
        self._residency: Dict[str, float] = {}
        self._transitions: Dict[str, int] = {}
        # Energy accounting is inlined, RAPL-style: piecewise-constant
        # power integrated at every power change, with no per-call guards
        # re-checking what _accrue already validated on this hot path.
        self._energy_acc = 0.0
        self._energy_time = start_time
        self._snoop_power_delta = 0.0
        self._power = self._current_power()
        self._power_int = int(self._power * POWER_SCALE)
        #: Owning package (set via attach_to_package): receives power
        #: deltas as a direct `_core_power_int` add, saving a call per
        #: transition.
        self._package = None

    # -- state queries -----------------------------------------------------
    @property
    def state(self) -> CState:
        return self._state

    @property
    def is_active(self) -> bool:
        return self._state.is_active

    @property
    def frequency(self) -> FrequencyPoint:
        return self._frequency

    @property
    def start_time(self) -> float:
        """Time accounting began (construction time)."""
        return self._start_time

    def _current_power(self) -> float:
        state = self._state
        if state._active:
            return self._frequency.active_power_watts
        return state.power_watts + self._snoop_power_delta

    @property
    def current_power(self) -> float:
        """Instantaneous power (cached; recomputed only on transitions)."""
        return self._power

    @property
    def power_fixed_point(self) -> int:
        """Instantaneous power in fixed-point units of ``2**-80`` W."""
        return self._power_int

    def attach_to_package(self, package) -> None:
        """Bind this core to its owning package (one package per core).

        Raises:
            SimulationError: if already attached.
        """
        if self._package is not None:
            raise SimulationError(
                f"core {self.core_id}: already attached to a package"
            )
        self._package = package

    def _update_power(self, time: float) -> None:
        """Recompute power after a transition; push the delta downstream.

        Used by the (rarer) snoop-service path; the lifecycle transitions
        compute the new power inline and call :meth:`_commit_power`
        directly.
        """
        self._commit_power(time, self._current_power())

    # -- transitions ------------------------------------------------------------
    def _accrue(self, time: float) -> None:
        if time < self._state_since:
            raise SimulationError(
                f"core {self.core_id}: time ran backwards "
                f"({time} < {self._state_since})"
            )
        span = time - self._state_since
        name = self._state.name
        self._residency[name] = self._residency.get(name, 0.0) + span
        self._state_since = time

    def _commit_power(self, time: float, power: float) -> None:
        """Integrate energy at the old power, then apply the new level.

        The package total is updated with a single attribute add — the
        delta is exact integer arithmetic, so update order never matters.
        """
        self._energy_acc += self._power * (time - self._energy_time)
        self._energy_time = time
        if power != self._power:
            self._power = power
            power_int = int(power * POWER_SCALE)
            package = self._package
            if package is not None:
                package._core_power_int += power_int - self._power_int
            self._power_int = power_int

    def enter_idle(self, time: float, state: CState) -> None:
        """Enter an idle state (the governor already chose it).

        Raises:
            SimulationError: if already idle or the state is active.
        """
        # The three lifecycle transitions (enter_idle / wake /
        # set_frequency) run once per simulated idle period each; their
        # accrual and power updates are inlined rather than calling
        # _accrue/_update_power to keep the per-event frame count down.
        current = self._state
        if not current._active:
            raise SimulationError(
                f"core {self.core_id}: cannot enter {state.name} from "
                f"{current.name}"
            )
        if state._active:
            raise SimulationError(f"core {self.core_id}: {state.name} is not idle")
        since = self._state_since
        if time < since:
            raise SimulationError(
                f"core {self.core_id}: time ran backwards ({time} < {since})"
            )
        residency = self._residency
        residency[current.name] = residency.get(current.name, 0.0) + (time - since)
        self._state_since = time
        self._state = state
        name = state.name
        transitions = self._transitions
        transitions[name] = transitions.get(name, 0) + 1
        if state.frequency is not None:
            self._frequency = state.frequency
        self._commit_power(time, state.power_watts + self._snoop_power_delta)

    def wake(self, time: float, frequency: Optional[FrequencyPoint] = None) -> float:
        """Exit the idle state back to C0; returns the exit latency paid.

        Raises:
            SimulationError: if the core is already active.
        """
        current = self._state
        if current._active:
            raise SimulationError(f"core {self.core_id}: already active")
        exit_latency = current.exit_latency
        since = self._state_since
        if time < since:
            raise SimulationError(
                f"core {self.core_id}: time ran backwards ({time} < {since})"
            )
        residency = self._residency
        residency[current.name] = residency.get(current.name, 0.0) + (time - since)
        self._state_since = time
        self._snoop_power_delta = 0.0
        self._state = self.catalog.active
        if frequency is not None:
            self._frequency = frequency
        elif self._frequency is FrequencyPoint.PN:
            # Waking from a Pn state (C1E/C6AE) ramps back to base.
            self._frequency = FrequencyPoint.P1
        transitions = self._transitions
        transitions["C0"] = transitions.get("C0", 0) + 1
        self._commit_power(time, self._frequency.active_power_watts)
        return exit_latency

    def set_frequency(self, time: float, frequency: FrequencyPoint) -> None:
        """DVFS change while active (e.g. Turbo grant/revoke)."""
        current = self._state
        if not current._active:
            raise SimulationError(
                f"core {self.core_id}: cannot DVFS while in {current.name}"
            )
        since = self._state_since
        if time < since:
            raise SimulationError(
                f"core {self.core_id}: time ran backwards ({time} < {since})"
            )
        residency = self._residency
        residency[current.name] = residency.get(current.name, 0.0) + (time - since)
        self._state_since = time
        self._frequency = frequency
        self._commit_power(time, frequency.active_power_watts)

    def begin_snoop_service(self, time: float, power_delta: float) -> None:
        """Cache domain woken to serve snoops while idle (C1 or C6A)."""
        if self._state.is_active:
            raise SimulationError(f"core {self.core_id}: snoop service is an idle-state event")
        self._accrue(time)
        self._snoop_power_delta = power_delta
        self._update_power(time)

    def end_snoop_service(self, time: float) -> None:
        """Snoop burst served; fall back to the quiescent idle power."""
        self._accrue(time)
        self._snoop_power_delta = 0.0
        self._update_power(time)

    # -- reporting ------------------------------------------------------------
    def snapshot(self, time: float) -> CoreStats:
        """Close accounting at ``time`` and return the statistics."""
        self._accrue(time)
        self._energy_acc += self._power * (time - self._energy_time)
        self._energy_time = time
        energy = self._energy_acc
        return CoreStats(
            residency_seconds=dict(self._residency),
            transitions=dict(self._transitions),
            energy_joules=energy,
            wall_seconds=time - self._start_time,
        )

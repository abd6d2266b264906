"""C-state model and catalogs (paper Tables 1 and 2).

A *C-state* is a core idle power state. Each state trades power for
transition latency: the deeper the state, the lower the idle power and the
longer the entry/exit. Power-management governors only enter a state if
the predicted idle interval exceeds its *target residency* — the
break-even span below which transitioning wastes more energy than it
saves.

Two catalogs are provided:

- :func:`skylake_baseline_catalog` — C0/C1/C1E/C6 of an Intel Skylake
  server core (Table 1, [15]).
- :func:`agilewatts_catalog` — AW's hierarchy where C6A replaces C1 and
  C6AE replaces C1E, with C6-like power at C1-like latency.

The headline numbers (Table 1)::

    state       transition  target residency  power/core
    C0 (P1)     -           -                 ~4 W
    C0 (Pn)     -           -                 ~1 W
    C1 (P1)     2 us        2 us              1.44 W
    C6A (P1)    2 us        2 us              ~0.3 W
    C1E (Pn)    10 us       20 us             0.88 W
    C6AE (Pn)   10 us       20 us             ~0.23 W
    C6          133 us      600 us            ~0.1 W
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CStateError
from repro.units import GHZ, NS, US, WATT


class FrequencyPoint(Enum):
    """Operating frequency points of the modelled Xeon Silver 4114."""

    P1 = "P1"      # base frequency, 2.2 GHz
    PN = "Pn"      # minimum frequency, 0.8 GHz
    TURBO = "Turbo"  # max single-core turbo, 3.0 GHz

    @property
    def frequency_hz(self) -> float:
        return _FREQUENCY_HZ[self]


# Enum's default __hash__ is a Python-level function (it hashes the member
# name), which makes every enum-keyed dict lookup on the simulation hot
# path pay a Python frame. Members are singletons compared by identity, so
# the C-level id hash is equivalent for every dict use — and dict ordering
# is insertion-based, so nothing observable changes. Applied *before* any
# enum-keyed dict is built, so every table uses the identity hash.
FrequencyPoint.__hash__ = object.__hash__

_FREQUENCY_HZ = {
    FrequencyPoint.P1: 2.2 * GHZ,
    FrequencyPoint.PN: 0.8 * GHZ,
    FrequencyPoint.TURBO: 3.0 * GHZ,
}


@dataclass(frozen=True)
class ComponentStates:
    """Per-component state of a core in a given C-state (Table 2).

    Values are short strings matching the paper's table vocabulary, e.g.
    clocks: "running"/"stopped"; adpll: "on"/"off"; l1l2: "coherent"/
    "flushed"; voltage: "active"/"min-vf"/"pg-ret-active"/"pg-ret-min-vf"/
    "shut-off"; context: "maintained"/"in-place-sr"/"sr-sram".
    """

    clocks: str
    adpll: str
    l1l2: str
    voltage: str
    context: str


# Table 2 rows.
_COMPONENT_STATES: Dict[str, ComponentStates] = {
    "C0": ComponentStates("running", "on", "coherent", "active", "maintained"),
    "C1": ComponentStates("stopped", "on", "coherent", "active", "maintained"),
    "C6A": ComponentStates("stopped", "on", "coherent", "pg-ret-active", "in-place-sr"),
    "C1E": ComponentStates("stopped", "on", "coherent", "min-vf", "maintained"),
    "C6AE": ComponentStates("stopped", "on", "coherent", "pg-ret-min-vf", "in-place-sr"),
    "C6": ComponentStates("stopped", "off", "flushed", "shut-off", "sr-sram"),
}


@dataclass(frozen=True)
class CState:
    """One core idle (or active) power state.

    Attributes:
        name: canonical name ("C0", "C1", "C6A", ...).
        power_watts: average per-core power while resident in the state.
        entry_latency: time from the entry trigger until the state's power
            level is reached (core unusable).
        exit_latency: time from the wake event until the first instruction
            executes (core unusable). What a waking request pays.
        target_residency: minimum predicted idle span for which a governor
            should choose this state.
        frequency: the P-state the core sits at in this C-state (C1E/C6AE
            transition to Pn; None for states where frequency is moot).
        depth: ordering key — deeper states have larger depth.
        snoop_wake_overhead: extra time to serve a snoop arriving in this
            state (sleep-mode exit for C6A; 0 when caches are clocked or
            flushed).
    """

    name: str
    power_watts: float
    entry_latency: float
    exit_latency: float
    target_residency: float
    frequency: Optional[FrequencyPoint]
    depth: int
    snoop_wake_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.power_watts < 0:
            raise CStateError(f"{self.name}: power must be >= 0")
        if self.entry_latency < 0 or self.exit_latency < 0:
            raise CStateError(f"{self.name}: latencies must be >= 0")
        if self.target_residency < 0:
            raise CStateError(f"{self.name}: target residency must be >= 0")
        if self.snoop_wake_overhead < 0:
            raise CStateError(f"{self.name}: snoop overhead must be >= 0")
        # is_active is read on every power recomputation in the simulation
        # hot path; precompute it once instead of string-matching per call.
        object.__setattr__(self, "_active", self.name.startswith("C0"))

    @property
    def transition_time(self) -> float:
        """Worst-case entry+exit time, as reported in Table 1."""
        return self.entry_latency + self.exit_latency

    @property
    def is_active(self) -> bool:
        return self._active

    @property
    def components(self) -> ComponentStates:
        """Table 2 component-state row for this C-state."""
        key = self.name
        if key not in _COMPONENT_STATES:
            raise CStateError(f"no component-state row for {key!r}")
        return _COMPONENT_STATES[key]


# --- canonical Table 1 constants --------------------------------------------

C0_P1_POWER = 4.0 * WATT
C0_PN_POWER = 1.0 * WATT
C0_TURBO_POWER = 5.5 * WATT  # single-core turbo draw; calibration constant
C1_POWER = 1.44 * WATT
C1E_POWER = 0.88 * WATT
C6_POWER = 0.1 * WATT
C6A_POWER = 0.3 * WATT
C6AE_POWER = 0.23 * WATT

#: Extra hardware latency C6A adds over C1 per transition (Sec 6.2: ~100 ns).
C6A_EXTRA_TRANSITION = 100 * NS

#: Extra time to pop L1/L2 out of sleep-mode for an incoming snoop; two
#: controller cycles at 500 MHz (Sec 5.2.3) — effectively nanoseconds.
C6A_SNOOP_WAKE = 4 * NS


def _c0(frequency: FrequencyPoint, power: float) -> CState:
    return CState(
        name="C0",
        power_watts=power,
        entry_latency=0.0,
        exit_latency=0.0,
        target_residency=0.0,
        frequency=frequency,
        depth=0,
    )


def make_c1() -> CState:
    """C1: clock-gate core domains, keep PLL on. 2 us round trip."""
    return CState(
        name="C1",
        power_watts=C1_POWER,
        entry_latency=1 * US,
        exit_latency=1 * US,
        target_residency=2 * US,
        frequency=FrequencyPoint.P1,
        depth=1,
    )


def make_c1e() -> CState:
    """C1E: C1 plus a DVFS transition to Pn. 10 us round trip, 20 us TR."""
    return CState(
        name="C1E",
        power_watts=C1E_POWER,
        entry_latency=5 * US,
        exit_latency=5 * US,
        target_residency=20 * US,
        frequency=FrequencyPoint.PN,
        depth=2,
    )


def make_c6() -> CState:
    """C6: flush caches, save context to SRAM, power off (133 us total).

    Entry ~87 us dominated by the L1/L2 flush (~75 us at 50% dirty,
    800 MHz) plus ~9 us context save; exit ~30 us hardware + ~16 us
    software overhead (Sec 3, [11-14]).
    """
    return CState(
        name="C6",
        power_watts=C6_POWER,
        entry_latency=87 * US,
        exit_latency=46 * US,
        target_residency=600 * US,
        frequency=None,
        depth=3,
    )


def make_c6a(power_watts: float = C6A_POWER) -> CState:
    """C6A: AW's agile deep state at P1 voltage.

    Software-visible transition matches C1 (the MWAIT/OS path dominates);
    the hardware adds only ~100 ns (Sec 5.2), split across entry (<20 ns)
    and exit (<80 ns).
    """
    return CState(
        name="C6A",
        power_watts=power_watts,
        entry_latency=1 * US + 20 * NS,
        exit_latency=1 * US + 80 * NS,
        target_residency=2 * US,
        frequency=FrequencyPoint.P1,
        depth=1,
        snoop_wake_overhead=C6A_SNOOP_WAKE,
    )


def make_c6ae(power_watts: float = C6AE_POWER) -> CState:
    """C6AE: C6A plus a non-blocking DVFS transition to Pn (like C1E)."""
    return CState(
        name="C6AE",
        power_watts=power_watts,
        entry_latency=5 * US + 20 * NS,
        exit_latency=5 * US + 80 * NS,
        target_residency=20 * US,
        frequency=FrequencyPoint.PN,
        depth=2,
        snoop_wake_overhead=C6A_SNOOP_WAKE,
    )


class CStateCatalog:
    """An ordered hierarchy of C-states plus governor-facing queries.

    States are kept sorted by depth. ``disable``/``enable`` model the BIOS
    switches the paper's tuned configurations flip (No_C6, No_C1E, ...).
    """

    def __init__(self, active: CState, idle_states: Sequence[CState], name: str = "catalog"):
        if not active.is_active:
            raise CStateError(f"active state must be C0-like, got {active.name}")
        if not idle_states:
            raise CStateError("catalog needs at least one idle state")
        names = [s.name for s in idle_states]
        if len(set(names)) != len(names):
            raise CStateError(f"duplicate idle states: {names}")
        self.name = name
        self.active = active
        self._idle = sorted(idle_states, key=lambda s: s.depth)
        self._disabled: set = set()
        # Governor queries read the enabled list on every idle entry (the
        # simulation hot path); rebuild it only when the switches flip.
        self._enabled_cache: Optional[List[CState]] = None
        # Latency limit -> (thresholds, choices): select()'s answer is
        # choices[bisect_right(thresholds, predicted)]. Built on first
        # use per limit, dropped when the switches flip.
        self._tables: Dict[Optional[float], Tuple[List[float], List[CState]]] = {}

    # -- lookups ----------------------------------------------------------
    @property
    def idle_states(self) -> List[CState]:
        """All idle states, shallow to deep, including disabled ones."""
        return list(self._idle)

    @property
    def enabled_idle_states(self) -> List[CState]:
        """Enabled states shallow-to-deep (cached; treat as read-only)."""
        cache = self._enabled_cache
        if cache is None:
            cache = [s for s in self._idle if s.name not in self._disabled]
            self._enabled_cache = cache
        return cache

    def get(self, name: str) -> CState:
        if name == self.active.name:
            return self.active
        for state in self._idle:
            if state.name == name:
                return state
        raise CStateError(f"no state {name!r} in catalog {self.name!r}")

    def __contains__(self, name: str) -> bool:
        try:
            self.get(name)
            return True
        except CStateError:
            return False

    # -- BIOS-style switches ------------------------------------------------
    def disable(self, *names: str) -> "CStateCatalog":
        """Disable states (as BIOS 'C-state control' does). Returns self."""
        for name in names:
            self.get(name)  # validate
            self._disabled.add(name)
        self._enabled_cache = None
        self._tables.clear()
        if not self.enabled_idle_states:
            raise CStateError("cannot disable every idle state")
        return self

    def enable(self, *names: str) -> "CStateCatalog":
        for name in names:
            self._disabled.discard(name)
        self._enabled_cache = None
        self._tables.clear()
        return self

    def is_enabled(self, name: str) -> bool:
        self.get(name)
        return name not in self._disabled

    # -- governor queries ---------------------------------------------------
    def shallowest(self) -> CState:
        return self.enabled_idle_states[0]

    def select(
        self,
        predicted_idle: float,
        latency_limit: Optional[float] = None,
    ) -> CState:
        """Deepest enabled state fitting the prediction and latency limit.

        This is the core of a menu-style governor: choose the deepest state
        whose target residency is within the predicted idle span and whose
        exit latency respects any QoS latency limit. Falls back to the
        shallowest enabled state.

        Answered by one ``bisect_right`` over a per-limit threshold
        table (see :meth:`_selection_table`).
        """
        if predicted_idle < 0:
            raise CStateError(f"predicted idle must be >= 0, got {predicted_idle}")
        table = self._tables.get(latency_limit)
        if table is None:
            table = self._selection_table(latency_limit)
        return table[1][bisect_right(table[0], predicted_idle)]

    def _selection_table(
        self, latency_limit: Optional[float]
    ) -> Tuple[List[float], List[CState]]:
        """Tabulate :meth:`_select_linear` for ``latency_limit``.

        As a function of the prediction the scan is a right-continuous
        step function that can change only where the prediction reaches
        some state's target residency. So it is exact to evaluate it at
        each distinct residency: ``choices[i + 1]`` is its answer from
        ``thresholds[i]`` up, ``choices[0]`` (the shallowest state) its
        answer below them all, for any catalog and any prediction, NaN
        included (``bisect_right`` puts NaN past the last threshold,
        where the scan also lands).
        """
        states = self.enabled_idle_states
        thresholds = sorted({s.target_residency for s in states})
        choices = [states[0]] + [
            self._select_linear(t, latency_limit) for t in thresholds
        ]
        table = (thresholds, choices)
        if latency_limit == latency_limit:  # a NaN key would never hit
            self._tables[latency_limit] = table
        return table

    def _select_linear(
        self, predicted_idle: float, latency_limit: Optional[float]
    ) -> CState:
        """The selection rule, state by state: the last enabled state
        fitting both the prediction and the limit."""
        states = self.enabled_idle_states
        chosen = states[0]
        for state in states:
            if state.target_residency > predicted_idle:
                continue
            if latency_limit is not None and state.exit_latency > latency_limit:
                continue
            chosen = state
        return chosen

    # -- reporting ------------------------------------------------------------
    def table1_rows(self) -> List[Tuple[str, str, str, str]]:
        """Render Table 1: (state, transition, target residency, power)."""
        from repro.units import pretty_power, pretty_time

        rows = []
        rows.append((f"{self.active.name} ({self.active.frequency.value})",
                     "N/A", "N/A", pretty_power(self.active.power_watts)))
        for state in self._idle:
            freq = f" ({state.frequency.value})" if state.frequency else ""
            rows.append(
                (
                    f"{state.name}{freq}",
                    pretty_time(state.transition_time),
                    pretty_time(state.target_residency),
                    pretty_power(state.power_watts),
                )
            )
        return rows


def skylake_baseline_catalog() -> CStateCatalog:
    """The Skylake server hierarchy of Table 1: C0 / C1 / C1E / C6."""
    return CStateCatalog(
        active=_c0(FrequencyPoint.P1, C0_P1_POWER),
        idle_states=[make_c1(), make_c1e(), make_c6()],
        name="skylake-baseline",
    )


def agilewatts_catalog(
    c6a_power: float = C6A_POWER,
    c6ae_power: float = C6AE_POWER,
    keep_c6: bool = True,
) -> CStateCatalog:
    """AW hierarchy: C6A replaces C1, C6AE replaces C1E (Sec 4).

    Args:
        c6a_power / c6ae_power: override with PPA-model-derived values.
        keep_c6: AW retains legacy C6 for long idle spans; tuned configs
            may disable it afterwards.
    """
    idle: List[CState] = [make_c6a(c6a_power), make_c6ae(c6ae_power)]
    if keep_c6:
        idle.append(make_c6())
    return CStateCatalog(
        active=_c0(FrequencyPoint.P1, C0_P1_POWER),
        idle_states=idle,
        name="agilewatts",
    )


#: C0 per-core power by frequency point (Table 1 + turbo calibration).
_ACTIVE_POWERS = {
    FrequencyPoint.P1: C0_P1_POWER,
    FrequencyPoint.PN: C0_PN_POWER,
    FrequencyPoint.TURBO: C0_TURBO_POWER,
}

# The active power is pinned onto each member as a plain attribute:
# ``frequency.active_power_watts`` is a single C-level attribute load,
# which the per-transition power recomputation in repro.uarch.core uses
# instead of a dict lookup.
for _frequency_point, _watts in _ACTIVE_POWERS.items():
    _frequency_point.active_power_watts = _watts

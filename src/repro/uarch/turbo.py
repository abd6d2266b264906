"""Turbo / thermal-capacitance model — the Sec 7.3 interaction.

Turbo Boost lets cores exceed base frequency while the package has thermal
headroom. Headroom behaves like a tank (RAPL's PL1/PL2 exponential budget):
it *fills* while package power sits below the sustained limit — i.e. while
idle cores sit in low-power C-states — and *drains* while cores run above
base power.

This is exactly why the paper's vendors' guidance conflicts: disabling
C1E removes its 10 us transition penalty but keeps idle power high, so
"the processor is kept at high power, thereby not gaining enough thermal
capacitance needed during Turbo Boost periods" (Sec 7.3). AW's C6A gives
the low idle power *and* the low latency, so Turbo actually helps.

The model is a token bucket measured in joules of headroom.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cstates import FrequencyPoint
from repro.errors import ConfigurationError, SimulationError


@dataclass(frozen=True)
class TurboConfig:
    """Parameters of the turbo budget.

    Attributes:
        sustained_watts: package sustained power limit (PL1-like); filling
            happens while package power is below this.
        tank_joules: headroom capacity (thermal capacitance analogue).
        grant_threshold: fraction of tank required to grant turbo to a
            waking core — granting on fumes causes oscillation.
        turbo_extra_watts: extra package power while one core turbos.
    """

    sustained_watts: float = 55.0
    tank_joules: float = 2.0
    grant_threshold: float = 0.10
    turbo_extra_watts: float = 1.5

    def __post_init__(self) -> None:
        if self.sustained_watts <= 0:
            raise ConfigurationError("sustained power must be positive")
        if self.tank_joules <= 0:
            raise ConfigurationError("tank capacity must be positive")
        if not 0.0 <= self.grant_threshold <= 1.0:
            raise ConfigurationError("grant threshold must be in [0, 1]")
        if self.turbo_extra_watts < 0:
            raise ConfigurationError("turbo extra power must be >= 0")


class TurboBudget:
    """Joule-denominated turbo headroom tank.

    Drive it with :meth:`update` whenever package power changes, then ask
    :meth:`frequency_for_burst` when a core starts a busy period. The
    fused :meth:`Package.enter_idle <repro.uarch.package.Package.enter_idle>`
    and :meth:`Package.wake <repro.uarch.package.Package.wake>` do both
    inline on the fast path; these methods are the reference they match.
    """

    def __init__(self, config: TurboConfig = TurboConfig(), enabled: bool = True):
        self.config = config
        self.enabled = enabled
        self._level = config.tank_joules  # start full (cold package)
        self._time = 0.0
        self._package_power = 0.0
        self._grants = 0
        self._denials = 0
        # The tank is integrated on every C-state transition; pin the
        # (frozen) config scalars as plain attributes.
        self._sustained = config.sustained_watts
        self._tank = config.tank_joules
        self._threshold = config.grant_threshold

    # -- accounting ----------------------------------------------------------
    def update(self, time: float, package_power: float) -> None:
        """Integrate headroom up to ``time`` given the *previous* power,
        then record the new package power level.

        Raises:
            SimulationError: if time runs backwards.
        """
        previous = self._time
        if time < previous:
            raise SimulationError(f"turbo budget time ran backwards ({time} < {previous})")
        if package_power < 0:
            raise SimulationError("package power must be >= 0")
        delta = (self._sustained - self._package_power) * (time - previous)
        level = self._level + delta
        if level < 0.0:
            level = 0.0
        elif level > self._tank:
            level = self._tank
        self._level = level
        self._time = time
        self._package_power = package_power

    # -- grants ------------------------------------------------------------------
    def frequency_for_burst(self, time: float, package_power: float) -> FrequencyPoint:
        """Frequency granted to a core starting a busy period now.

        Grants Turbo when enabled and the tank holds at least the grant
        threshold; otherwise base frequency. Updates accounting first.
        """
        self.update(time, package_power)
        if not self.enabled:
            return FrequencyPoint.P1
        if self._level / self._tank >= self._threshold:
            self._grants += 1
            return FrequencyPoint.TURBO
        self._denials += 1
        return FrequencyPoint.P1

    @property
    def grant_rate(self) -> float:
        """Fraction of burst starts that won turbo."""
        total = self._grants + self._denials
        if total == 0:
            return 0.0
        return self._grants / total

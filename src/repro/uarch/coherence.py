"""Snoop (cache-coherence) traffic model — Sec 4.2 and 7.5.

A core in C1 or C6A has *coherent* (unflushed) private caches, so other
cores' misses generate snoop requests it must answer even while idle. The
two states differ only in what waking the cache domain costs:

- C1: clock-ungate L1/L2 and controllers (~50 mW extra while serving);
- C6A: additionally exit SRAM sleep-mode (~120 mW more, ~170 mW total),
  with a 2-cycle wake hidden under the tag access.

A core in C6 flushed its caches, so snoops are satisfied from the LLC
directory and never reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.simkit.distributions import Distribution, Exponential
from repro.units import MILLIWATT, US


@dataclass(frozen=True)
class SnoopModel:
    """Cost of serving one snoop burst in each idle state.

    Attributes:
        service_time: cache-domain busy time per snoop burst.
        c1_power_delta: extra power over quiescent C1 while serving.
        c6a_power_delta: extra power over quiescent C6A while serving
            (clock ungate + sleep-mode exit).
    """

    service_time: float = 0.2 * US
    c1_power_delta: float = 50 * MILLIWATT
    c6a_power_delta: float = 170 * MILLIWATT

    def __post_init__(self) -> None:
        if self.service_time < 0:
            raise ConfigurationError("snoop service time must be >= 0")
        if self.c1_power_delta < 0 or self.c6a_power_delta < 0:
            raise ConfigurationError("snoop power deltas must be >= 0")

    def power_delta_for(self, state_name: str) -> float:
        """Extra power while serving snoops in the given idle state.

        C6/flushed states never see snoops, so their delta is zero.
        """
        if state_name in ("C1", "C1E"):
            return self.c1_power_delta
        if state_name in ("C6A", "C6AE"):
            return self.c6a_power_delta
        return 0.0

    def sees_snoops(self, state_name: str) -> bool:
        """Whether a core idling in ``state_name`` must serve snoops."""
        return state_name in ("C1", "C1E", "C6A", "C6AE")


class SnoopTrafficGenerator:
    """Poisson snoop-burst arrivals directed at one core.

    Snoop rate grows with the activity of *other* cores; callers pass the
    rate that matches the scenario (the Sec 7.5 analysis uses a saturating
    rate to bound the loss).
    """

    def __init__(self, rate_hz: float, seed: int = 0):
        if rate_hz < 0:
            raise ConfigurationError(f"snoop rate must be >= 0, got {rate_hz}")
        self.rate_hz = rate_hz
        self._interarrival: Optional[Distribution] = (
            Exponential(1.0 / rate_hz, seed=seed) if rate_hz > 0 else None
        )

    def next_arrival_delay(self) -> Optional[float]:
        """Delay to the next snoop burst, or None if traffic is disabled."""
        if self._interarrival is None:
            return None
        return self._interarrival.sample()

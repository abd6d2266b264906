"""Clock generation: the ADPLL.

Two facts from the paper drive AW's third idea (keep the PLL on):

- A Skylake-class all-digital PLL (ADPLL) consumes only ~7 mW, roughly
  constant across voltage/frequency levels [26], so keeping it locked in a
  deep idle state is nearly free.
- Relocking a PLL after power-off takes microseconds and sits on the C6
  exit critical path (part of the ~10 us hardware wake-up, Sec 3).

Clock gating/ungating the distribution network itself takes only 1-2
cycles in an optimized clock distribution system (Sec 5.2.1, [105, 106]).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PowerModelError
from repro.units import MILLIWATT, US


@dataclass
class ADPLL:
    """All-digital phase-locked loop.

    Attributes:
        power_watts: locked power draw (~7 mW on Skylake at any V/F [26]).
        relock_time: time to reacquire lock after being powered off
            (microseconds; part of C6's ~10 us hardware exit).
    """

    power_watts: float = 7 * MILLIWATT
    relock_time: float = 5 * US
    powered: bool = True
    locked: bool = True

    def __post_init__(self) -> None:
        if self.power_watts < 0:
            raise PowerModelError("ADPLL power must be >= 0")
        if self.relock_time < 0:
            raise PowerModelError("ADPLL relock time must be >= 0")

    @property
    def idle_power(self) -> float:
        """Power drawn right now (0 when off)."""
        return self.power_watts if self.powered else 0.0

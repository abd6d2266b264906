"""The C6A/C6AE power-management flow (Sec 4.3, Fig 6).

The flow lives in the core's power-management agent (PMA), an FSM in the
uncore, clocked at a few hundred MHz (500 MHz here, [108]). It orchestrates:

Entry (C0 -> C6A):
  1. clock-gate the UFPG domain, keep the PLL on
     (+ for C6AE: kick off a *non-blocking* DVFS transition to Pn);
  2. save the UFPG context in place (assert Ret, deassert Pwr);
  3. put L1/L2 into sleep-mode and clock-gate them.

Exit (C6A -> C0, on interrupt):
  4. clock-ungate L1/L2 and exit sleep-mode;
  5. power-ungate the UFPG zones (staggered, < 70 ns) and restore context;
  6. clock-ungate the UFPG domain.

Snoop service (while in C6A):
  a. clock-ungate the cache domain and exit sleep-mode;
  b. serve the outstanding snoops;
  c. re-enter sleep-mode and clock-gate.

The step tables here are the latency oracle (``entry_latency`` /
``exit_latency``) for the C-state catalog and the server simulator; the
snoop-service cost is modelled by :mod:`repro.uarch.coherence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.units import MHZ, cycles_to_seconds

from repro.core.ccsm import CCSM
from repro.core.ufpg import UFPG

#: PMA controller clock (Sec 5.2 footnote: several hundred MHz, e.g. 500).
PMA_CLOCK_HZ = 500 * MHZ


@dataclass(frozen=True)
class FlowStep:
    """One step of the Fig 6 flow with its latency contribution."""

    label: str
    cycles: int = 0
    extra_time: float = 0.0

    @property
    def latency(self) -> float:
        return cycles_to_seconds(self.cycles, PMA_CLOCK_HZ) + self.extra_time


class C6AFlow:
    """The PMA flow's steps and latencies for one core's C6A/C6AE states."""

    def __init__(
        self,
        ufpg: Optional[UFPG] = None,
        ccsm: Optional[CCSM] = None,
        enhanced: bool = False,
    ):
        self.ufpg = ufpg if ufpg is not None else UFPG()
        self.ccsm = ccsm if ccsm is not None else CCSM()
        self.enhanced = enhanced  # True => C6AE (adds non-blocking DVFS)

    # -- step tables ----------------------------------------------------------
    def entry_steps(self) -> List[FlowStep]:
        """Steps 1-3 of Fig 6 with their cycle costs (Sec 5.2.1)."""
        return [
            FlowStep("1: clock-gate UFPG domain, keep PLL on", cycles=2),
            FlowStep(
                "2: save context in place (Ret then !Pwr)",
                cycles=self.ufpg.save_cycles,
            ),
            FlowStep(
                "3: L1/L2 enter sleep-mode and clock-gate",
                cycles=self.ccsm.sleep_enter_cycles,
            ),
        ]

    def exit_steps(self) -> List[FlowStep]:
        """Steps 4-6 of Fig 6 with their cycle costs (Sec 5.2.2)."""
        return [
            FlowStep(
                "4: clock-ungate L1/L2 and exit sleep-mode",
                cycles=self.ccsm.sleep_exit_cycles,
            ),
            FlowStep(
                "5: power-ungate UFPG zones (staggered) and restore context",
                cycles=self.ufpg.restore_cycles,
                extra_time=self.ufpg.wake_latency,
            ),
            FlowStep("6: clock-ungate UFPG domain", cycles=2),
        ]

    # -- latency oracles --------------------------------------------------------
    @property
    def entry_latency(self) -> float:
        """Hardware C6A entry: < 10 PMA cycles => < 20 ns (Sec 5.2.1).

        The C6AE DVFS transition to Pn is non-blocking and therefore does
        not appear on this path.
        """
        return sum(step.latency for step in self.entry_steps())

    @property
    def exit_latency(self) -> float:
        """Hardware C6A exit: ~5 cycles + < 70 ns stagger => < 80 ns."""
        return sum(step.latency for step in self.exit_steps())

    @property
    def round_trip_latency(self) -> float:
        """Entry followed by immediate exit: < 100 ns (Sec 5.2)."""
        return self.entry_latency + self.exit_latency

    def describe(self) -> str:
        """Human-readable flow summary (used by the quickstart example)."""
        from repro.units import pretty_time

        lines = [f"C6A{'E' if self.enhanced else ''} flow @ {PMA_CLOCK_HZ / MHZ:.0f} MHz PMA clock"]
        lines.append("entry:")
        for step in self.entry_steps():
            lines.append(f"  {step.label}: {pretty_time(step.latency)}")
        lines.append(f"  total entry: {pretty_time(self.entry_latency)}")
        lines.append("exit:")
        for step in self.exit_steps():
            lines.append(f"  {step.label}: {pretty_time(step.latency)}")
        lines.append(f"  total exit: {pretty_time(self.exit_latency)}")
        lines.append(f"round trip: {pretty_time(self.round_trip_latency)}")
        return "\n".join(lines)

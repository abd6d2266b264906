"""Power delivery, clocking and gating substrate.

This package models the circuit-level building blocks the AgileWatts
architecture composes:

- :mod:`~repro.power.leakage` — leakage scaling across technology nodes and
  voltages (Shahidi [99] methodology used in Table 3 footnote gamma).
- :mod:`~repro.power.pdn` — the FIVR power-delivery model with
  conversion-efficiency and static losses.
- :mod:`~repro.power.clock` — the ADPLL, its locked power and relock
  latency.
- :mod:`~repro.power.powergate` — power-gate switch fabrics, daisy-chained
  staggered wake-up and multi-zone controllers (Fig 2, Sec 5.3).
- :mod:`~repro.power.retention` — context-retention structures: ungated
  registers, SRPG flops and ungated SRAM (Fig 5).
"""

from repro.power.leakage import (
    scale_leakage_power,
    sleep_transistor_efficiency,
)
from repro.power.pdn import FIVR, VoltageRegulator
from repro.power.clock import ADPLL
from repro.power.powergate import PowerGate, StaggeredWakeupController, ZonedPowerGating
from repro.power.retention import (
    RetentionPlan,
    SRPGBank,
    UngatedRegisterFile,
    UngatedSRAM,
)

__all__ = [
    "scale_leakage_power",
    "sleep_transistor_efficiency",
    "FIVR",
    "VoltageRegulator",
    "ADPLL",
    "PowerGate",
    "StaggeredWakeupController",
    "ZonedPowerGating",
    "RetentionPlan",
    "SRPGBank",
    "UngatedRegisterFile",
    "UngatedSRAM",
]

"""Power delivery, clocking and gating substrate.

This package models the circuit-level building blocks the AgileWatts
architecture composes:

- :mod:`~repro.power.leakage` — leakage scaling across technology nodes and
  voltages (Shahidi [99] methodology used in Table 3 footnote gamma).
- :mod:`~repro.power.pdn` — FIVR / MBVR / LDO power-delivery models with
  conversion-efficiency and static losses.
- :mod:`~repro.power.clock` — ADPLL and clock-distribution network, with
  clock gating and relock latency.
- :mod:`~repro.power.powergate` — power-gate switch fabrics, daisy-chained
  staggered wake-up and multi-zone controllers (Fig 2, Sec 5.3).
- :mod:`~repro.power.retention` — context-retention structures: ungated
  registers, SRPG flops and ungated SRAM (Fig 5).
"""

from repro.power.leakage import (
    LeakageModel,
    scale_leakage_power,
    sleep_transistor_efficiency,
)
from repro.power.pdn import FIVR, LDO, MBVR, VoltageRegulator
from repro.power.clock import ADPLL, ClockDistribution
from repro.power.powergate import PowerGate, StaggeredWakeupController, ZonedPowerGating
from repro.power.retention import (
    RetentionPlan,
    SRPGBank,
    UngatedRegisterFile,
    UngatedSRAM,
)

__all__ = [
    "LeakageModel",
    "scale_leakage_power",
    "sleep_transistor_efficiency",
    "FIVR",
    "LDO",
    "MBVR",
    "VoltageRegulator",
    "ADPLL",
    "ClockDistribution",
    "PowerGate",
    "StaggeredWakeupController",
    "ZonedPowerGating",
    "RetentionPlan",
    "SRPGBank",
    "UngatedRegisterFile",
    "UngatedSRAM",
]

"""Units' Fast Power-Gating (UFPG) — Sec 4.1 and 5.1.1.

UFPG is AW's first key idea: place ~70% of the core area behind
medium-grained power gates (the same technique Intel uses for the AVX-256/
AVX-512 units), and retain the ~8 KB of core context *in place* instead of
serialising it to an uncore SRAM. The result is a power-off/on path of tens
of nanoseconds instead of tens of microseconds.

This module combines the substrate pieces:

- the five-zone staggered power-gate fabric (:mod:`repro.power.powergate`),
- the in-place retention plan (:mod:`repro.power.retention`),

and exposes the quantities Table 3 reports: residual leakage (~30-50 mW at
P1, ~18-30 mW at Pn), retention power (~2 mW / ~1 mW) and area overhead
(2-6% of the gated region plus <1% for retention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import PowerModelError
from repro.power.powergate import UFPG_TO_AVX_AREA_RATIO, ZonedPowerGating
from repro.power.retention import RetentionPlan

from repro.core.cstates import C1_POWER

#: Nominal (P1) and minimum-operational (Pn) rail voltages for the 14 nm
#: Skylake-class core; the ratio reproduces the paper's P1->Pn leakage drop.
V_P1 = 1.00
V_PN = 0.78


@dataclass(frozen=True)
class UFPGConfig:
    """Parameters of the UFPG subsystem.

    Attributes:
        gated_area_fraction: share of core area behind the new gates
            (~70%, measured on the Fig 4 die photo).
        gated_leakage_fraction: share of core leakage those units
            contribute (~70%, from the Intel core-power-breakdown tool).
        core_leakage_watts: full-core leakage at P1 — approximately the C1
            power, since C1 removes only dynamic power (Sec 5.1.1 footnote).
        residual_low / residual_high: power gates eliminate 95-97% of
            leakage, leaving 3-5% residual.
        area_overhead_low / area_overhead_high: gates add 2-6% to the
            gated area.
        frequency_penalty: worst-case frequency loss from power-gate IR
            drop; an x86 core power-gate implementation costs <1% [93].
        zones: staggered wake-up zones (Sec 5.3).
    """

    gated_area_fraction: float = 0.70
    gated_leakage_fraction: float = 0.70
    core_leakage_watts: float = C1_POWER
    residual_low: float = 0.03
    residual_high: float = 0.05
    area_overhead_low: float = 0.02
    area_overhead_high: float = 0.06
    frequency_penalty: float = 0.01
    zones: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.gated_area_fraction <= 1.0:
            raise PowerModelError("gated_area_fraction must be in (0, 1]")
        if not 0.0 < self.gated_leakage_fraction <= 1.0:
            raise PowerModelError("gated_leakage_fraction must be in (0, 1]")
        if self.core_leakage_watts <= 0:
            raise PowerModelError("core leakage must be positive")
        if not 0.0 <= self.residual_low <= self.residual_high <= 1.0:
            raise PowerModelError("need 0 <= residual_low <= residual_high <= 1")
        if not 0.0 <= self.area_overhead_low <= self.area_overhead_high:
            raise PowerModelError("area overhead bounds out of order")
        if not 0.0 <= self.frequency_penalty < 0.1:
            raise PowerModelError("frequency penalty expected to be < 10%")
        if self.zones < 1:
            raise PowerModelError("need at least one wake-up zone")


class UFPG:
    """The UFPG subsystem of one core."""

    def __init__(
        self,
        config: UFPGConfig = UFPGConfig(),
        retention: RetentionPlan = None,
    ):
        self.config = config
        self.retention = retention if retention is not None else RetentionPlan.default_skylake()
        self.fabric = ZonedPowerGating(
            zones=config.zones,
            total_relative_area=UFPG_TO_AVX_AREA_RATIO,
        )

    # -- power -------------------------------------------------------------
    def _gated_leakage_at(self, voltage: float) -> float:
        """Leakage of the gated units at a rail voltage (quadratic scaling)."""
        scale = (voltage / V_P1) ** 2
        return (
            self.config.core_leakage_watts
            * self.config.gated_leakage_fraction
            * scale
        )

    def residual_power_range(self, rail: str = "P1") -> Tuple[float, float]:
        """(low, high) residual leakage of the gated region on ``rail``.

        Table 3 alpha row: ~30-50 mW at P1, ~18-30 mW at Pn.
        """
        voltage = {"P1": V_P1, "Pn": V_PN}.get(rail)
        if voltage is None:
            raise PowerModelError(f"unknown rail {rail!r}")
        gated = self._gated_leakage_at(voltage)
        return (gated * self.config.residual_low, gated * self.config.residual_high)

    def residual_power(self, rail: str = "P1") -> float:
        """Midpoint residual leakage on ``rail`` (for point estimates)."""
        low, high = self.residual_power_range(rail)
        return (low + high) / 2.0

    def retention_power(self, rail: str = "P1") -> float:
        """In-place context retention power: ~2 mW (P1) / ~1 mW (Pn)."""
        return self.retention.retention_power(rail)

    def idle_power(self, rail: str = "P1") -> float:
        """Total UFPG contribution to C6A/C6AE idle power."""
        return self.residual_power(rail) + self.retention_power(rail)

    # -- latency ------------------------------------------------------------
    @property
    def wake_latency(self) -> float:
        """Staggered power-ungate latency: < 70 ns with 5 zones."""
        return self.fabric.wake_latency

    @property
    def save_cycles(self) -> int:
        """Controller cycles to save context in place (3-4: Ret then Pwr)."""
        return self.retention.save_cycles

    @property
    def restore_cycles(self) -> int:
        """Controller cycles to restore context (deassert Ret): 1."""
        return self.retention.restore_cycles

    # -- area -----------------------------------------------------------------
    def area_overhead_range(self) -> Tuple[float, float]:
        """(low, high) extra core area from gates + retention.

        Gates add 2-6% of the gated ~70% region (1.4-4.2% of core); all
        three retention techniques add <1% each of their own footprint,
        which we bound by 1% of the gated region.
        """
        gate_low = self.config.area_overhead_low * self.config.gated_area_fraction
        gate_high = self.config.area_overhead_high * self.config.gated_area_fraction
        retention_bound = 0.01 * self.config.gated_area_fraction
        return (gate_low, gate_high + retention_bound)

    @property
    def frequency_penalty(self) -> float:
        """Fractional fmax loss from power-gate IR drop (~1%)."""
        return self.config.frequency_penalty

    @property
    def in_rush_safe(self) -> bool:
        """The zone split respects the AVX-calibrated in-rush budget."""
        return self.fabric.in_rush_safe

"""Cache Coherence and Sleep Mode (CCSM) — Sec 4.2 and 5.1.2.

AW's second key idea: do **not** flush L1/L2 when entering the deep state.
Keep the private caches power-ungated, drop their SRAM data arrays to a
retention voltage through sleep transistors (the same technique shipping
in Xeon L3 slices), clock-gate the whole cache domain, and keep a minimal
always-active sniffer so the core can still serve coherence (snoop)
traffic while "asleep".

Power derivation (Table 3 gamma): Intel published the leakage of a 2.5 MB
22 nm L3 slice with sleep mode; scale by capacity to the ~1.1 MB L1+L2 and
by node (22 -> 14 nm, alpha ~0.7, beta = 1.0 per [99]) to get ~55 mW for
the data arrays, plus ~55 mW for the rest of the power-ungated cache
subsystem (controllers, tags) at P1 — dropping to ~40 mW / ~33 mW at Pn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import PowerModelError
from repro.power.leakage import scale_leakage_power, sleep_transistor_efficiency
from repro.units import KB, MB, MILLIWATT

from repro.core.ufpg import V_P1, V_PN

#: Leakage of the reference 2.5 MB L3 slice with sleep mode at 22 nm [72, 98].
REFERENCE_L3_SLEEP_LEAKAGE = 180 * MILLIWATT
REFERENCE_L3_CAPACITY = 2.5 * MB

#: Retention voltage the sleep transistors hold the data array at.
V_RETENTION = 0.55


@dataclass(frozen=True)
class CCSMConfig:
    """Parameters of the CCSM subsystem.

    Attributes:
        l1_capacity_bytes / l2_capacity_bytes: private cache sizes of the
            Skylake server core (32 KB L1-I + 32 KB L1-D + 1 MB L2: ~1.1 MB).
        data_array_fraction: share of cache area that is SRAM data array
            and therefore placed in sleep-mode (> 90%).
        cache_area_fraction: share of core area the caches occupy (~30%,
            Fig 4 die photo).
        area_overhead_low/high: sleep transistors add 2-6% of the data
            array area (a recent implementation reports 2% [96]).
        clock_ungate_power: extra power while the cache domain is
            clock-ungated to serve snoops (~50 mW, Sec 7.5 baseline term).
        sleep_exit_extra_power: extra power while the data array is pulled
            out of sleep mode to serve snoops (~120 mW, Sec 7.5 AW term).
    """

    l1_capacity_bytes: float = 64 * KB
    l2_capacity_bytes: float = 1 * MB
    data_array_fraction: float = 0.90
    cache_area_fraction: float = 0.30
    area_overhead_low: float = 0.02
    area_overhead_high: float = 0.06
    clock_ungate_power: float = 50 * MILLIWATT
    sleep_exit_extra_power: float = 120 * MILLIWATT
    sleep_enter_cycles: int = 3
    sleep_exit_cycles: int = 2

    def __post_init__(self) -> None:
        if self.l1_capacity_bytes <= 0 or self.l2_capacity_bytes <= 0:
            raise PowerModelError("cache capacities must be positive")
        if not 0.5 <= self.data_array_fraction <= 1.0:
            raise PowerModelError("data array fraction expected in [0.5, 1.0]")
        if not 0.0 < self.cache_area_fraction < 1.0:
            raise PowerModelError("cache area fraction must be in (0, 1)")
        if not 0.0 <= self.area_overhead_low <= self.area_overhead_high:
            raise PowerModelError("area overhead bounds out of order")
        if self.clock_ungate_power < 0 or self.sleep_exit_extra_power < 0:
            raise PowerModelError("snoop powers must be >= 0")
        if self.sleep_enter_cycles < 1 or self.sleep_exit_cycles < 1:
            raise PowerModelError("sleep transition takes at least one cycle")

    @property
    def total_capacity_bytes(self) -> float:
        return self.l1_capacity_bytes + self.l2_capacity_bytes


class CCSM:
    """The CCSM subsystem of one core."""

    def __init__(self, config: CCSMConfig = CCSMConfig()):
        self.config = config

    # -- power -------------------------------------------------------------
    def data_array_sleep_power(self, rail: str = "P1") -> float:
        """Sleep-mode leakage of the L1/L2 data arrays on ``rail``.

        Scaled from the 22 nm L3 reference by capacity and node, then
        adjusted for the sleep transistor's LVR behaviour: the array holds
        V_RETENTION, so the rail-side draw scales with V_in / V_ret —
        lowering the rail toward retention (C6AE) *reduces* the draw
        (~55 mW at P1 -> ~40 mW at Pn).
        """
        v_in = self._rail_voltage(rail)
        capacity_ratio = self.config.total_capacity_bytes / REFERENCE_L3_CAPACITY
        at_14nm = scale_leakage_power(
            REFERENCE_L3_SLEEP_LEAKAGE * capacity_ratio, from_nm=22, to_nm=14
        )
        # Reference measurement is on a nominal rail; convert through the
        # LVR efficiency ratio for the actual rail.
        nominal_efficiency = sleep_transistor_efficiency(V_P1, V_RETENTION)
        actual_efficiency = sleep_transistor_efficiency(v_in, V_RETENTION)
        return at_14nm * (nominal_efficiency / actual_efficiency)

    def ungated_rest_power(self, rail: str = "P1") -> float:
        """Leakage of the power-ungated controllers/tags (no sleep mode).

        ~55 mW at P1; scales quadratically with voltage to ~33 mW at Pn
        (Table 3 'rest of the memory subsystem' row).
        """
        v_in = self._rail_voltage(rail)
        base = 55 * MILLIWATT
        return base * (v_in / V_P1) ** 2

    def idle_power(self, rail: str = "P1") -> float:
        """Total CCSM contribution to C6A/C6AE idle power."""
        return self.data_array_sleep_power(rail) + self.ungated_rest_power(rail)

    @staticmethod
    def _rail_voltage(rail: str) -> float:
        voltages = {"P1": V_P1, "Pn": V_PN}
        if rail not in voltages:
            raise PowerModelError(f"unknown rail {rail!r}; choose P1 or Pn")
        return voltages[rail]

    # -- latency ------------------------------------------------------------
    @property
    def sleep_enter_cycles(self) -> int:
        """Cycles to drop the arrays into sleep + clock-gate (1-3)."""
        return self.config.sleep_enter_cycles

    @property
    def sleep_exit_cycles(self) -> int:
        """Cycles to clock-ungate + raise the arrays out of sleep (2).

        Cycle 1 ungates the clock; cycle 2 starts the tag access in
        parallel with the data-array wake, hiding the array's wake latency
        behind the tag/state lookup — hence zero performance penalty for
        cache accesses after wake (Sec 5.1.2 performance paragraph).
        """
        return self.config.sleep_exit_cycles

    # -- area -----------------------------------------------------------------
    def area_overhead_range(self) -> Tuple[float, float]:
        """(low, high) extra core area from the sleep transistors.

        2-6% of the data array, which is ~90% of the ~30% of core area the
        caches occupy, plus <1% of the ungated remainder for isolation.
        """
        array_core_fraction = (
            self.config.cache_area_fraction * self.config.data_array_fraction
        )
        low = self.config.area_overhead_low * array_core_fraction
        high = self.config.area_overhead_high * array_core_fraction
        rest_bound = 0.01 * self.config.cache_area_fraction * (1 - self.config.data_array_fraction)
        return (low, high + rest_bound)

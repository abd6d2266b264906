"""`AgileWattsDesign`: the assembled architecture.

Glues the four subsystems (UFPG, CCSM, PMA flow, PLL/FIVR) into:

- a :class:`~repro.core.cstates.CStateCatalog` whose C6A/C6AE powers and
  latencies are *derived* from the PPA and flow models (not quoted), ready
  to drop into the server simulator or the analytical power model;
- design-level verification: in-rush safety, context coverage, latency
  budget, idle-power-fraction targets.

This is the class a downstream user starts from::

    design = AgileWattsDesign()
    catalog = design.catalog()          # C0 / C6A / C6AE / C6
    print(design.verify())              # all architecture invariants
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.power.clock import ADPLL
from repro.power.pdn import FIVR

from repro.core.ccsm import CCSM, CCSMConfig
from repro.core.cstates import (
    CStateCatalog,
    agilewatts_catalog,
)
from repro.core.latency import C6ALatencyModel, C6LatencyModel, transition_speedup
from repro.core.pma_flow import C6AFlow
from repro.core.ppa import PPABreakdown, PPAModel
from repro.core.ufpg import UFPG, UFPGConfig


@dataclass
class AgileWattsDesign:
    """A complete AW design instance for one core.

    Attributes:
        ufpg_config / ccsm_config: subsystem parameterisations; defaults
            reproduce the paper's Skylake-class design point.
    """

    ufpg_config: UFPGConfig = field(default_factory=UFPGConfig)
    ccsm_config: CCSMConfig = field(default_factory=CCSMConfig)
    adpll: ADPLL = field(default_factory=ADPLL)
    fivr: FIVR = field(default_factory=FIVR)

    def __post_init__(self) -> None:
        self.ufpg = UFPG(self.ufpg_config)
        self.ccsm = CCSM(self.ccsm_config)
        self.flow = C6AFlow(self.ufpg, self.ccsm)
        self.flow_enhanced = C6AFlow(self.ufpg, self.ccsm, enhanced=True)
        self.ppa = PPAModel(self.ufpg, self.ccsm, self.adpll, self.fivr)
        self._breakdown: Optional[PPABreakdown] = None

    # -- derived quantities ------------------------------------------------
    @property
    def breakdown(self) -> PPABreakdown:
        """The Table 3 PPA breakdown (cached)."""
        if self._breakdown is None:
            self._breakdown = self.ppa.build()
        return self._breakdown

    @property
    def c6a_power(self) -> float:
        return self.breakdown.c6a_power

    @property
    def c6ae_power(self) -> float:
        return self.breakdown.c6ae_power

    @property
    def hardware_round_trip(self) -> float:
        """C6A entry+exit hardware latency (< 100 ns)."""
        return self.flow.round_trip_latency

    @property
    def frequency_penalty(self) -> float:
        """fmax degradation from the added power gates (~1%)."""
        return self.ufpg.frequency_penalty

    def catalog(self, keep_c6: bool = True) -> CStateCatalog:
        """Build the AW C-state catalog with PPA-derived powers."""
        return agilewatts_catalog(
            c6a_power=self.c6a_power,
            c6ae_power=self.c6ae_power,
            keep_c6=keep_c6,
        )

    # -- verification ----------------------------------------------------------
    def verify(self) -> Dict[str, bool]:
        """Check the design invariants the paper's architecture relies on.

        Returns a dict of named checks; all must be True for a valid
        design point. Raises nothing — callers assert as appropriate.
        """
        checks: Dict[str, bool] = {}
        checks["in_rush_safe"] = self.ufpg.in_rush_safe
        checks["context_fully_retained"] = (
            self.ufpg.retention.total_context_bytes >= 8 * 1024
        )
        checks["entry_under_20ns"] = self.flow.entry_latency < 20e-9
        checks["exit_under_80ns"] = self.flow.exit_latency < 80e-9
        checks["round_trip_under_100ns"] = self.hardware_round_trip < 100e-9
        low, high = self.breakdown.total_power_range("C6A")
        checks["c6a_power_band"] = 0.25 <= low <= high <= 0.35
        low_e, high_e = self.breakdown.total_power_range("C6AE")
        checks["c6ae_power_band"] = 0.20 <= low_e <= high_e <= 0.27
        frac_a, frac_ae = self.ppa.idle_power_fraction_of_c0()
        checks["c6a_under_8pct_of_c0"] = frac_a < 0.08
        checks["c6ae_under_6pct_of_c0"] = frac_ae < 0.06
        area_low, area_high = self.breakdown.area_overhead_range
        checks["area_overhead_band"] = area_low >= 0.01 and area_high <= 0.08
        checks["speedup_three_orders"] = (
            transition_speedup(C6LatencyModel(), C6ALatencyModel(self.flow)) >= 500
        )
        return checks

    # -- reporting ------------------------------------------------------------
    def summary_lines(self) -> List[str]:
        """Human-readable design summary for examples and docs."""
        from repro.units import pretty_power, pretty_time

        frac_a, frac_ae = self.ppa.idle_power_fraction_of_c0()
        return [
            "AgileWatts design point (Skylake-class 14 nm core):",
            f"  C6A idle power:  {pretty_power(self.c6a_power)} ({frac_a * 100:.1f}% of C0)",
            f"  C6AE idle power: {pretty_power(self.c6ae_power)} ({frac_ae * 100:.1f}% of C0)",
            f"  hw entry latency: {pretty_time(self.flow.entry_latency)}",
            f"  hw exit latency:  {pretty_time(self.flow.exit_latency)}",
            f"  hw round trip:    {pretty_time(self.hardware_round_trip)}",
            f"  vs C6 transition: {transition_speedup():.0f}x faster",
            f"  frequency penalty: {self.frequency_penalty * 100:.1f}%",
        ]

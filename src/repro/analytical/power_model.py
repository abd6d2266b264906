"""The analytical power & performance model (Sec 6.2).

Two of the paper's evaluation equations live here:

- **Eq. 2** (baseline): ``AvgP = sum_i P_Ci * R_Ci`` over the measured
  C-state residencies.
- **Eq. 3** (AW): the same sum after (1) rescaling residencies for the
  ~1% power-gate frequency loss (weighted by the workload's frequency
  scalability) and the ~100 ns extra C6A/C6AE transition latency, and
  (2) substituting C1 -> C6A and C1E -> C6AE with their estimated powers.

The paper's Eq. 4 (Turbo-enabled savings against a measured baseline)
has no counterpart: the simulator runs Turbo configurations directly.
Eq. 3 is the oracle the simulated AW power is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.architecture import AgileWattsDesign
from repro.core.cstates import (
    C6A_EXTRA_TRANSITION,
    CStateCatalog,
    skylake_baseline_catalog,
)
from repro.errors import ConfigurationError
from repro.simkit.stats import weighted_mean


def average_power(
    residency: Mapping[str, float],
    catalog: Optional[CStateCatalog] = None,
    power_overrides: Optional[Mapping[str, float]] = None,
) -> float:
    """Eq. 2: residency-weighted average core power.

    Args:
        residency: fraction of time per state name; must sum to ~1.
        catalog: supplies per-state powers (default: Skylake baseline).
        power_overrides: per-state power replacements (e.g. measured C0
            power with Turbo enabled).

    Raises:
        ConfigurationError: if residencies do not sum to ~1 or a state is
            unknown.
    """
    catalog = catalog if catalog is not None else skylake_baseline_catalog()
    total = sum(residency.values())
    if abs(total - 1.0) > 1e-6:
        raise ConfigurationError(f"residencies must sum to 1, got {total}")
    powers = []
    weights = []
    for name, fraction in residency.items():
        if power_overrides and name in power_overrides:
            power = power_overrides[name]
        else:
            power = catalog.get(name).power_watts
        powers.append(power)
        weights.append(fraction)
    return weighted_mean(powers, weights)


@dataclass
class AgileWattsPowerModel:  # repro: allow[DEAD002] Eq. 3 oracle for the simulated AW power
    """Eq. 3: the AW average-power estimator.

    Args:
        design: the AW design point supplying C6A/C6AE powers, the ~1%
            frequency penalty and the ~100 ns transition overhead.
        frequency_scalability: the workload's performance sensitivity to
            frequency (Sec 6.2 footnote 8); scales how much busy time the
            fmax penalty adds.
    """

    design: AgileWattsDesign = None
    frequency_scalability: float = 0.4

    def __post_init__(self) -> None:
        if self.design is None:
            self.design = AgileWattsDesign()
        if not 0.0 <= self.frequency_scalability <= 1.0:
            raise ConfigurationError("frequency scalability must be in [0, 1]")

    # -- residency rescaling (Sec 6.2 step 1) ------------------------------
    def rescale_residency(
        self,
        residency: Mapping[str, float],
        transitions_per_second: Optional[Mapping[str, float]] = None,
    ) -> Dict[str, float]:
        """Rescale baseline residencies for AW's two overheads.

        (i) the ~1% frequency loss inflates busy (C0) time by
        ``penalty * scalability``; (ii) every C6A/C6AE transition adds
        ~100 ns of neither-idle-nor-working time, charged as busy time.
        Idle states shrink proportionally to fund the increase.
        """
        residency = dict(residency)
        c0 = residency.get("C0", 0.0)
        extra_busy = c0 * self.design.frequency_penalty * self.frequency_scalability
        if transitions_per_second:
            replaced = ("C1", "C1E", "C6A", "C6AE")
            rate = sum(transitions_per_second.get(n, 0.0) for n in replaced)
            extra_busy += rate * C6A_EXTRA_TRANSITION
        idle_total = sum(v for k, v in residency.items() if k != "C0")
        if idle_total <= 0 or extra_busy <= 0:
            return residency
        extra_busy = min(extra_busy, idle_total)
        shrink = (idle_total - extra_busy) / idle_total
        rescaled = {
            k: (v * shrink if k != "C0" else v + extra_busy)
            for k, v in residency.items()
        }
        return rescaled

    @staticmethod
    def substitute_states(residency: Mapping[str, float]) -> Dict[str, float]:
        """Step 2: move C1 residency to C6A and C1E residency to C6AE."""
        out: Dict[str, float] = {}
        mapping = {"C1": "C6A", "C1E": "C6AE"}
        for name, fraction in residency.items():
            target = mapping.get(name, name)
            out[target] = out.get(target, 0.0) + fraction
        return out

    # -- Eq. 3 ----------------------------------------------------------------
    def average_power(
        self,
        baseline_residency: Mapping[str, float],
        transitions_per_second: Optional[Mapping[str, float]] = None,
        c0_power_override: Optional[float] = None,
    ) -> float:
        """AW average core power from baseline residencies (Eq. 3)."""
        rescaled = self.rescale_residency(baseline_residency, transitions_per_second)
        substituted = self.substitute_states(rescaled)
        catalog = self.design.catalog(keep_c6=True)
        overrides = {"C0": c0_power_override} if c0_power_override else None
        return average_power(substituted, catalog, overrides)

    def savings_fraction(
        self,
        baseline_residency: Mapping[str, float],
        transitions_per_second: Optional[Mapping[str, float]] = None,
        baseline_power: Optional[float] = None,
    ) -> float:
        """Fractional AvgP reduction of AW vs the baseline hierarchy."""
        base = (
            baseline_power
            if baseline_power is not None
            else average_power(baseline_residency)
        )
        aw = self.average_power(baseline_residency, transitions_per_second)
        if base <= 0:
            return 0.0
        return (base - aw) / base

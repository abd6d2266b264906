"""Power gates, staggered wake-up and multi-zone gating controllers.

Background (Sec 3, Fig 2): a power-gated unit sits behind a fabric of
switch cells. Waking the unit instantly would draw a damaging in-rush
current spike, so controllers daisy-chain the switch cells' sleep signals
and turn them on in a staggered sequence. Skylake staggers the AVX gates
over ~15 ns.

AgileWatts (Sec 5.3) gates ~70% of the core — about 4.5x the area and
capacitance of the AVX units — and bounds in-rush by splitting the UFPG
region into five zones, each staggered over <= 15 ns and woken
sequentially, for a total of < 70 ns (4.5 x 15 ns = 67.5 ns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import PowerModelError
from repro.units import NS

#: Skylake staggers the AVX power-gate wake-up over ~15 ns [26][35].
AVX_STAGGER_TIME = 15 * NS

#: Ratio of UFPG area+capacitance to the AVX units' (Sec 5.3, from [78]).
UFPG_TO_AVX_AREA_RATIO = 4.5


@dataclass(frozen=True)
class PowerGate:
    """One power-gated region behind a daisy-chained switch fabric.

    Attributes:
        name: region identifier.
        relative_area: area of the region relative to the AVX units
            (the in-rush-current budget scales with area/capacitance).
        stagger_time: wall-clock time over which the controller staggers
            the switch-cell turn-on for this region.
        gate_effectiveness: fraction of region leakage eliminated when
            gated (95-97% per [76, 77, 191]).
    """

    name: str
    relative_area: float
    stagger_time: float = AVX_STAGGER_TIME
    gate_effectiveness: float = 0.96

    def __post_init__(self) -> None:
        if self.relative_area <= 0:
            raise PowerModelError(f"{self.name}: relative_area must be > 0")
        if self.stagger_time < 0:
            raise PowerModelError(f"{self.name}: stagger_time must be >= 0")
        if not 0.0 <= self.gate_effectiveness <= 1.0:
            raise PowerModelError(f"{self.name}: effectiveness must be in [0, 1]")

    def in_rush_safe(self, reference_area: float = 1.0) -> bool:
        """True if this region alone respects the per-wake in-rush budget.

        The budget is calibrated to the AVX gates: any region whose area is
        at most ``reference_area`` may be woken over one AVX-style stagger
        window without exceeding the current spike the PDN tolerates.
        """
        return self.relative_area <= reference_area + 1e-12


@dataclass
class StaggeredWakeupController:
    """Daisy-chained staggered wake-up over an ordered set of power gates.

    Models the Fig 2 controller: gates wake strictly sequentially, each
    taking its own stagger window; the ``ready`` acknowledgement of the
    last chain marks the region fully conducting.
    """

    gates: Sequence[PowerGate]
    gated: bool = True

    def __post_init__(self) -> None:
        if not self.gates:
            raise PowerModelError("controller needs at least one power gate")

    @property
    def wake_latency(self) -> float:
        """Total sequential wake-up latency (sum of stagger windows)."""
        return sum(gate.stagger_time for gate in self.gates)

    @property
    def sleep_latency(self) -> float:
        """Gating (sleep) is a single sleep-signal assertion: ~one window.

        Entering a gated state does not need staggering — current falls,
        it does not spike — so it completes within one stagger window of
        the slowest gate.
        """
        return max(gate.stagger_time for gate in self.gates)

    def sleep(self) -> float:
        """Gate all regions; returns latency. Idempotent."""
        if self.gated:
            return 0.0
        self.gated = True
        return self.sleep_latency

    def wake(self) -> float:
        """Ungate all regions sequentially; returns latency. Idempotent."""
        if not self.gated:
            return 0.0
        self.gated = False
        return self.wake_latency

    def max_in_rush_area(self) -> float:
        """Largest single region woken at once — the in-rush figure of merit."""
        return max(gate.relative_area for gate in self.gates)


def make_ufpg_zones(
    total_relative_area: float = UFPG_TO_AVX_AREA_RATIO,
    zones: int = 5,
    stagger_time: float = AVX_STAGGER_TIME,
    gate_effectiveness: float = 0.96,
) -> List[PowerGate]:
    """Split the UFPG region into equal zones per Sec 5.3.

    Five zones of 4.5/5 = 0.9 AVX-equivalents each: every zone is smaller
    than the AVX region, so staggering each over <= 15 ns keeps the in-rush
    current within the proven AVX budget.

    Raises:
        PowerModelError: if any zone would exceed one AVX-equivalent, i.e.
            the split does not satisfy the in-rush constraint.
    """
    if zones < 1:
        raise PowerModelError(f"need at least one zone, got {zones}")
    if total_relative_area <= 0:
        raise PowerModelError("total relative area must be positive")
    per_zone = total_relative_area / zones
    if per_zone > 1.0 + 1e-9:
        raise PowerModelError(
            f"{zones} zones of {per_zone:.2f} AVX-equivalents each exceed the "
            "in-rush budget; use more zones"
        )
    # The stagger window scales with the zone's capacitance (area): a zone
    # of 0.9 AVX-equivalents needs only 0.9 x 15 ns, so five zones wake in
    # 4.5 x 15 ns = 67.5 ns total (Sec 5.3).
    per_zone_stagger = stagger_time * per_zone
    return [
        PowerGate(
            name=f"ufpg_zone_{i}",
            relative_area=per_zone,
            stagger_time=per_zone_stagger,
            gate_effectiveness=gate_effectiveness,
        )
        for i in range(zones)
    ]


@dataclass
class ZonedPowerGating:
    """The UFPG power-gate subsystem: five zones + controller (Sec 5.3)."""

    zones: int = 5
    total_relative_area: float = UFPG_TO_AVX_AREA_RATIO
    stagger_time: float = AVX_STAGGER_TIME
    gate_effectiveness: float = 0.96

    def __post_init__(self) -> None:
        gates = make_ufpg_zones(
            self.total_relative_area,
            self.zones,
            self.stagger_time,
            self.gate_effectiveness,
        )
        self.controller = StaggeredWakeupController(gates, gated=False)

    @property
    def wake_latency(self) -> float:
        """< 70 ns with the default five-zone split (67.5 ns)."""
        return self.controller.wake_latency

    @property
    def in_rush_safe(self) -> bool:
        """Every zone fits within the AVX-calibrated in-rush budget."""
        return self.controller.max_in_rush_area() <= 1.0 + 1e-9

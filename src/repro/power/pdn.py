"""Power delivery network (PDN) models.

Modern CPUs use one of three PDN styles (Sec 3): a fully-integrated voltage
regulator per core (FIVR, used by Skylake server), a motherboard VR (MBVR)
or a low-dropout regulator (LDO). For the AW power accounting two FIVR
properties matter (Sec 5.1.4):

- *dynamic* conversion loss: ~80% efficiency at light load, so delivering
  P watts to the core burns an extra P * (1/0.8 - 1) = 0.25 P in the FIVR;
- *static* loss: ~100 mW per core of control/feedback power that is burned
  even when the output is 0 V (i.e. also in C6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PowerModelError
from repro.units import MILLIWATT


@dataclass(frozen=True)
class VoltageRegulator:
    """A generic voltage regulator with a flat efficiency and static loss.

    Attributes:
        name: human-readable identifier.
        efficiency: output/input power ratio in (0, 1].
        static_loss_watts: power burned regardless of load (>= 0).
    """

    name: str
    efficiency: float
    static_loss_watts: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise PowerModelError(
                f"{self.name}: efficiency must be in (0, 1], got {self.efficiency}"
            )
        if self.static_loss_watts < 0:
            raise PowerModelError(f"{self.name}: static loss must be >= 0")

    def conversion_loss(self, delivered_watts: float) -> float:
        """Power burned in the regulator to deliver ``delivered_watts``.

        Excludes the static loss (query that separately); this matches the
        paper's Table 3 split between "FIVR inefficiency" and "FIVR static
        losses" rows.
        """
        if delivered_watts < 0:
            raise PowerModelError("delivered power must be >= 0")
        return delivered_watts * (1.0 / self.efficiency - 1.0)


class FIVR(VoltageRegulator):
    """Skylake-style fully-integrated per-core voltage regulator.

    Defaults follow the paper: 80% light-load efficiency [41, 90, 91] and
    ~100 mW static loss [41, 91, 104].
    """

    def __init__(
        self,
        efficiency: float = 0.80,
        static_loss_watts: float = 100 * MILLIWATT,
    ):
        super().__init__("FIVR", efficiency, static_loss_watts)

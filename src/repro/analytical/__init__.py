"""The paper's analytical models.

- :mod:`~repro.analytical.power_model` — Eq. 2 (baseline average power),
  Eq. 3 (AW average power with residency rescaling).
- :mod:`~repro.analytical.motivation` — Eq. 1 upper-bound savings (Sec 2).
- :mod:`~repro.analytical.validation` — Sec 6.3 model-accuracy check.
- :mod:`~repro.analytical.snoop` — Sec 7.5 snoop-traffic bounds.
- :mod:`~repro.analytical.cost` — Table 5 datacenter cost savings.
"""

from repro.analytical.power_model import (
    AgileWattsPowerModel,
    average_power,
)
from repro.analytical.motivation import ideal_savings, motivation_table
from repro.analytical.validation import ValidationResult, validate_power_model
from repro.analytical.snoop import SnoopBounds, snoop_bounds
from repro.analytical.cost import CostModel, yearly_savings_musd
from repro.analytical.latency_model import (
    MG1SetupModel,
    SetupDistribution,
    aw_latency_advantage,
)
from repro.analytical.proportionality import ProportionalityReport, analyze_curve
from repro.analytical.sensitivity import tornado

__all__ = [
    "AgileWattsPowerModel",
    "average_power",
    "ideal_savings",
    "motivation_table",
    "ValidationResult",
    "validate_power_model",
    "SnoopBounds",
    "snoop_bounds",
    "CostModel",
    "yearly_savings_musd",
    "MG1SetupModel",
    "SetupDistribution",
    "aw_latency_advantage",
    "ProportionalityReport",
    "analyze_curve",
    "tornado",
]

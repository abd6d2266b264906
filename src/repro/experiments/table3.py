"""Table 3: area and power requirements of AW.

Regenerates the full PPA breakdown from the subsystem models: per-row
(low, high) power in C6A and C6AE, area notes, and the overall band —
the paper reports 290-315 mW (C6A), 227-243 mW (C6AE) and 3-7% core area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.architecture import AgileWattsDesign
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import Block, Table, column


@dataclass(frozen=True)
class Table3Params:
    """Design point regenerated; ``None`` uses the paper's defaults."""

    design: Optional[AgileWattsDesign] = None


#: Column header -> record key of the component rows.
_COLUMNS = {
    "Component": "component",
    "Sub-component": "sub_component",
    "Area requirement": "area_requirement",
    "C6A power": "c6a_power",
    "C6AE power": "c6ae_power",
}


@register_experiment
class Table3Experiment(Experiment):
    id = "table3"
    title = "Table 3: area and power requirements of AW."
    artifact = "Table 3"
    Params = Table3Params

    def analyze(self, results=None) -> ExperimentResult:
        design = self.params.design
        design = design if design is not None else AgileWattsDesign()
        breakdown = design.breakdown
        records = [dict(zip(_COLUMNS.values(), row)) for row in breakdown.rows()]
        low, high = breakdown.total_power_range("C6A")
        low_e, high_e = breakdown.total_power_range("C6AE")
        records.append(
            {
                "component": "total",
                "c6a_power_low_mw": low * 1e3,
                "c6a_power_high_mw": high * 1e3,
                "c6ae_power_low_mw": low_e * 1e3,
                "c6ae_power_high_mw": high_e * 1e3,
            }
        )
        notes = [
            f"paper bands: C6A 290-315 mW (ours {low * 1e3:.0f}-{high * 1e3:.0f});"
            f" C6AE 227-243 mW (ours {low_e * 1e3:.0f}-{high_e * 1e3:.0f})"
        ]
        return self.make_result(records=records, payload=breakdown, notes=notes)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        return [
            Table(
                "Table 3: area and power requirements of AW (derived)",
                [column(header, key) for header, key in _COLUMNS.items()],
                result.records[:-1],  # the last record is the total
            ),
            *result.notes,
        ]

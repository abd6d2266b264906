"""Table 1: the C-state hierarchy with AW's new states.

Regenerates the merged hierarchy the paper's Table 1 shows — the Skylake
baseline states (C0/C1/C1E/C6) interleaved with AW's C6A/C6AE, each with
its transition time, target residency and per-core power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.architecture import AgileWattsDesign
from repro.core.cstates import skylake_baseline_catalog
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import Block, Table, column
from repro.units import pretty_power, pretty_time


@dataclass(frozen=True)
class Table1Params:
    """Design point regenerated; ``None`` uses the paper's defaults."""

    design: Optional[AgileWattsDesign] = None


def _rows(design: AgileWattsDesign) -> List[Tuple[str, str, str, str]]:
    """Rows of (state, transition time, target residency, power/core) in
    the paper's Table 1 order."""
    baseline = skylake_baseline_catalog()
    aw = design.catalog()

    def row(catalog, name: str) -> Tuple[str, str, str, str]:
        state = catalog.get(name)
        freq = f" ({state.frequency.value})" if state.frequency else ""
        if state.is_active:
            return (f"{name}{freq}", "N/A", "N/A", pretty_power(state.power_watts))
        return (
            f"{name}{freq}",
            pretty_time(state.transition_time),
            pretty_time(state.target_residency),
            pretty_power(state.power_watts),
        )

    from repro.core.cstates import C0_PN_POWER

    return [
        row(baseline, "C0"),
        ("C0 (Pn)", "N/A", "N/A", pretty_power(C0_PN_POWER)),
        row(baseline, "C1"),
        row(aw, "C6A"),
        row(baseline, "C1E"),
        row(aw, "C6AE"),
        row(baseline, "C6"),
    ]


#: Column header -> record key.
_COLUMNS = {
    "Core C-state": "state",
    "Transition time": "transition_time",
    "Target residency": "target_residency",
    "Power per core": "power_per_core",
}


@register_experiment
class Table1Experiment(Experiment):
    id = "table1"
    title = "Table 1: the C-state hierarchy with AW's new states."
    artifact = "Table 1"
    Params = Table1Params

    def analyze(self, results=None) -> ExperimentResult:
        design = self.params.design
        rows = _rows(design if design is not None else AgileWattsDesign())
        records = [dict(zip(_COLUMNS.values(), row)) for row in rows]
        return self.make_result(records=records, payload=rows)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        return [Table(
            "Table 1: core C-states (Skylake baseline + AW's C6A/C6AE)",
            [column(header, key) for header, key in _COLUMNS.items()],
            result.records,
        )]

"""Table 2: per-component core state in each C-state.

Shows what each C-state does to the clocks, ADPLL, private caches, voltage
and context — the matrix that makes AW's design visible at a glance: C6A
keeps the PLL on and caches coherent like C1, but power-gates with
in-place save/restore like no existing state.
"""

from __future__ import annotations

from typing import List

from repro.core.cstates import ComponentStates, _COMPONENT_STATES
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import Block, Table, column

#: Paper row order.
_ORDER = ["C0", "C1", "C6A", "C1E", "C6AE", "C6"]

#: Column header -> record key.
_COLUMNS = {
    "C-State": "state",
    "Clocks": "clocks",
    "ADPLL": "adpll",
    "L1/L2 Cache": "l1l2_cache",
    "Voltage": "voltage",
    "Context": "context",
}


@register_experiment
class Table2Experiment(Experiment):
    id = "table2"
    title = "Table 2: per-component core state in each C-state."
    artifact = "Table 2"

    def analyze(self, results=None) -> ExperimentResult:
        rows = []
        for name in _ORDER:
            c: ComponentStates = _COMPONENT_STATES[name]
            rows.append((name, c.clocks, c.adpll, c.l1l2, c.voltage, c.context))
        records = [dict(zip(_COLUMNS.values(), row)) for row in rows]
        return self.make_result(records=records, payload=rows)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        return [Table(
            "Table 2: Skylake server core component states per C-state",
            [column(header, key) for header, key in _COLUMNS.items()],
            result.records,
        )]

"""Table 4: comparison of core power-gating schemes.

The literature rows are fixed citations; the AW row's wake-up overhead is
*computed* from the five-zone staggered wake model (Sec 5.3) rather than
quoted, demonstrating that gating ~70% of an OoO core on core-idle events
wakes in ~70 ns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.ufpg import UFPG
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import Block, Table, column
from repro.units import seconds_to_ns

#: (citation, core type, trigger, gated blocks, wake-up overhead) rows for
#: the prior schemes in the paper's Table 4.
_PRIOR_SCHEMES: List[Tuple[str, str, str, str, str]] = [
    ("[109]", "In-order CPU", "Cache miss", "Register file", "5 cycles"),
    ("[102]", "In-order CPU", "Cache miss", "Core", "10 ns"),
    ("[47]", "OoO CPU", "Execution unit idle", "Execution units", "9 cycles"),
    ("[110]", "OoO CPU", "Register file bank idle", "Register file bank", "17 cycles"),
    ("[111]", "GPU", "Register subarray unused", "Register subarray", "10 cycles"),
    ("[35]", "OoO CPU", "AVX execution unit idle", "Intel AVX execution unit", "~10-15 ns"),
]


#: Column header -> record key.
_COLUMNS = {
    "Technique": "technique",
    "Core type": "core_type",
    "Trigger": "trigger",
    "Power-gated blocks": "power_gated_blocks",
    "Wake-up overhead": "wake_up_overhead",
}


@dataclass(frozen=True)
class Table4Params:
    """Wake model used for the AW row; ``None`` uses the defaults."""

    ufpg: Optional[UFPG] = None


@register_experiment
class Table4Experiment(Experiment):
    id = "table4"
    title = "Table 4: comparison of core power-gating schemes."
    artifact = "Table 4"
    Params = Table4Params

    def analyze(self, results=None) -> ExperimentResult:
        ufpg = self.params.ufpg
        ufpg = ufpg if ufpg is not None else UFPG()
        rows = list(_PRIOR_SCHEMES)
        rows.append(
            (
                "AW (this work)",
                "OoO CPU",
                "Core idle",
                "Most of core units",
                f"~{seconds_to_ns(ufpg.wake_latency):.0f} ns",
            )
        )
        records = [dict(zip(_COLUMNS.values(), row)) for row in rows]
        return self.make_result(records=records, payload=rows)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        return [Table(
            "Table 4: comparison of core power-gating schemes",
            [column(header, key) for header, key in _COLUMNS.items()],
            result.records,
        )]

"""Sec 2 motivation: the Eq. 1 upper-bound savings table.

Reproduces the 23% / 41% / 55% power-saving opportunities for the search
workload at 50%/25% load and the key-value store at 20% load.
"""

from __future__ import annotations

from typing import List

from repro.analytical.motivation import motivation_table
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import Block, Table, column, number, percent


@register_experiment
class MotivationExperiment(Experiment):
    id = "motivation"
    title = "Sec 2 motivation: the Eq. 1 upper-bound savings table."
    artifact = "Section 2"

    def analyze(self, results=None) -> ExperimentResult:
        rows = motivation_table()
        records = [
            {
                "workload": description,
                "baseline_avg_power_w": base,
                "savings_bound": savings,
            }
            for description, base, savings in rows
        ]
        return self.make_result(
            records=records, payload=rows, notes=["paper: 23% / 41% / 55%"]
        )

    def blocks(self, result: ExperimentResult) -> List[Block]:
        return [
            Table("Sec 2 (Eq. 1): ideal agile-deep-state savings opportunity", [
                column("Workload", "workload"),
                column("Baseline AvgP", "baseline_avg_power_w",
                       number(".3f", suffix=" W")),
                column("Savings bound", "savings_bound", percent()),
            ], result.records),
            *result.notes,
        ]

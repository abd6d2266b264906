"""Sec 2 motivation: the Eq. 1 upper-bound savings table.

Reproduces the 23% / 41% / 55% power-saving opportunities for the search
workload at 50%/25% load and the key-value store at 20% load.
"""

from __future__ import annotations

from repro.analytical.motivation import motivation_table
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import format_table, pct


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

    def render_text(self, result: ExperimentResult) -> str:
        rows = [
            [description, f"{base:.3f} W", pct(savings)]
            for description, base, savings in result.payload
        ]
        lines = ["Sec 2 (Eq. 1): ideal agile-deep-state savings opportunity"]
        lines.append(format_table(["Workload", "Baseline AvgP", "Savings bound"], rows))
        lines.append("")
        lines.append("paper: 23% / 41% / 55%")
        return "\n".join(lines)

"""Sec 6.3: analytical power-model validation.

Regenerates the model-vs-measured comparison for SPECpower, Nginx, Spark
and Hive across utilisation levels; the paper reports per-workload
accuracies of 96.1% / 95.2% / 94.4% / 94.9%.
"""

from __future__ import annotations

from typing import List

from repro.analytical.validation import validate_power_model
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import Block, Table, column, number, percent


@register_experiment
class ValidationExperiment(Experiment):
    id = "validation"
    title = "Sec 6.3: analytical power-model validation."
    artifact = "Section 6.3"

    def analyze(self, results=None) -> ExperimentResult:
        validation = validate_power_model()
        records = []
        for result in validation:
            for label, est, meas in result.points:
                records.append(
                    {
                        "workload": result.workload,
                        "load": label,
                        "estimated_w": est,
                        "measured_w": meas,
                        "error": abs(est - meas) / meas,
                        "accuracy_percent": result.accuracy_percent,
                    }
                )
        notes = [
            "paper accuracies: SPECpower 96.1% / Nginx 95.2% / "
            "Spark 94.4% / Hive 94.9%"
        ]
        return self.make_result(records=records, payload=validation, notes=notes)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        blocks: List[Block] = ["Sec 6.3: power-model validation (estimated vs measured)"]
        watts = number(".3f", suffix=" W")
        for workload in dict.fromkeys(r["workload"] for r in result.records):
            rows = [r for r in result.records if r["workload"] == workload]
            blocks.append(Table(
                f"{workload} (accuracy {rows[0]['accuracy_percent']:.1f}%)", [
                    column("Load", "load"),
                    column("Estimated", "estimated_w", watts),
                    column("Measured", "measured_w", watts),
                    column("Error", "error", percent()),
                ], rows,
            ))
        return blocks + list(result.notes)

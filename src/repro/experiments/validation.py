"""Sec 6.3: analytical power-model validation.

Regenerates the model-vs-measured comparison for SPECpower, Nginx, Spark
and Hive across utilisation levels; the paper reports per-workload
accuracies of 96.1% / 95.2% / 94.4% / 94.9%.
"""

from __future__ import annotations

from repro.analytical.validation import validate_power_model
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import format_table


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

    def render_text(self, result: ExperimentResult) -> str:
        lines = ["Sec 6.3: power-model validation (estimated vs measured)"]
        for validation in result.payload:
            rows = [
                [label, f"{est:.3f} W", f"{meas:.3f} W",
                 f"{abs(est - meas) / meas * 100:.1f}%"]
                for label, est, meas in validation.points
            ]
            lines.append("")
            lines.append(
                f"{validation.workload} (accuracy {validation.accuracy_percent:.1f}%)"
            )
            lines.append(format_table(["Load", "Estimated", "Measured", "Error"], rows))
        lines.append("")
        lines.append("paper accuracies: SPECpower 96.1% / Nginx 95.2% / "
                     "Spark 94.4% / Hive 94.9%")
        return "\n".join(lines)

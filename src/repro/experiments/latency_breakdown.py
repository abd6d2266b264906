"""Sec 3 / Sec 5.2: transition-latency breakdowns and the headline ratio.

Regenerates:

- the C6 entry/exit phase breakdown (flush ~75 us at 50% dirty / 800 MHz,
  context save ~9 us, hardware wake ~10 us, restore ~20 us; ~87 us entry,
  ~30 us hw exit, ~133 us worst-case round trip);
- the C6A/C6AE step-by-step breakdown (< 20 ns entry, < 80 ns exit);
- the transition-time ratio (paper: up to ~900x, three orders of
  magnitude);
- a flush-time sensitivity grid over dirty fraction and frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.latency import (
    C6ALatencyModel,
    C6LatencyModel,
    CacheFlushModel,
    transition_speedup,
)
from repro.experiments.api import Experiment, ExperimentResult, register_experiment
from repro.experiments.common import Block, Table, column, number, percent, section
from repro.units import GHZ, MHZ, pretty_time


@dataclass
class LatencyReport:
    """All latency observables of the experiment."""

    c6_breakdown: Dict[str, float]
    c6_entry: float
    c6_exit: float
    c6_round_trip: float
    c6a_breakdown: Dict[str, float]
    c6a_entry: float
    c6a_exit: float
    c6a_round_trip: float
    speedup: float
    flush_grid: List[Tuple[float, float, float]]  # (dirty, freq_hz, seconds)


@register_experiment
class LatencyBreakdownExperiment(Experiment):
    id = "latency_breakdown"
    title = "Sec 3 / Sec 5.2: transition-latency breakdowns and the headline ratio."
    artifact = "Section 5.2"

    def analyze(self, results=None) -> ExperimentResult:
        c6 = C6LatencyModel()
        c6a = C6ALatencyModel()
        flush = CacheFlushModel()
        grid = []
        for dirty in (0.0, 0.25, 0.50, 0.75, 1.0):
            for freq in (800 * MHZ, 2.2 * GHZ):
                grid.append((dirty, freq, flush.flush_time(dirty, freq)))
        report = LatencyReport(
            c6_breakdown=c6.breakdown(),
            c6_entry=c6.entry_latency,
            c6_exit=c6.exit_latency,
            c6_round_trip=c6.transition_time,
            c6a_breakdown=c6a.breakdown(),
            c6a_entry=c6a.entry_latency,
            c6a_exit=c6a.exit_latency,
            c6a_round_trip=c6a.transition_time,
            speedup=transition_speedup(c6, c6a),
            flush_grid=grid,
        )
        records: List[Dict[str, object]] = []
        for state, breakdown, entry, exit_, round_trip in (
            ("C6", report.c6_breakdown, report.c6_entry, report.c6_exit,
             report.c6_round_trip),
            ("C6A", report.c6a_breakdown, report.c6a_entry, report.c6a_exit,
             report.c6a_round_trip),
        ):
            for phase, seconds in breakdown.items():
                records.append(
                    {"section": "breakdown", "state": state, "phase": phase,
                     "seconds": seconds}
                )
            records.append(
                {
                    "section": "totals",
                    "state": state,
                    "entry_seconds": entry,
                    "exit_seconds": exit_,
                    "round_trip_seconds": round_trip,
                }
            )
        records.append({"section": "speedup", "c6_to_c6a_speedup": report.speedup})
        for dirty, freq, seconds in report.flush_grid:
            records.append(
                {
                    "section": "flush_sensitivity",
                    "dirty_fraction": dirty,
                    "frequency_hz": freq,
                    "flush_seconds": seconds,
                }
            )
        return self.make_result(records=records, payload=report)

    def blocks(self, result: ExperimentResult) -> List[Block]:
        records = result.records

        def breakdown(state: str, title: str, header: str, totals: Tuple[str, ...]) -> Table:
            rows = [r for r in section(records, "breakdown") if r["state"] == state]
            total = next(r for r in section(records, "totals") if r["state"] == state)
            rows += [
                {"phase": label, "seconds": total[key]}
                for label, key in zip(
                    totals, ("entry_seconds", "exit_seconds", "round_trip_seconds")
                )
            ]
            return Table(title, [
                column(header, "phase"), column("Latency", "seconds", pretty_time),
            ], rows)

        speedup = section(records, "speedup")[0]["c6_to_c6a_speedup"]
        return [
            breakdown("C6", "C6 latency breakdown (50% dirty cache, 800 MHz flow clock)",
                      "Phase", ("entry total", "exit total (hw)", "worst-case round trip")),
            breakdown("C6A", "C6A latency breakdown (500 MHz PMA clock)",
                      "Step", ("entry total", "exit total", "round trip")),
            f"transition speedup C6 -> C6A: {speedup:.0f}x "
            "(paper: up to ~900x, i.e. three orders of magnitude)",
            Table("flush-time sensitivity (dirty fraction x frequency)", [
                column("Dirty", "dirty_fraction", percent(0)),
                column("Frequency", "frequency_hz",
                       number(".0f", lambda hz: hz / 1e6, " MHz")),
                column("Flush time", "flush_seconds", pretty_time),
            ], section(records, "flush_sensitivity")),
        ]

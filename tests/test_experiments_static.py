"""Tests for the non-simulation experiments (tables, breakdowns, bounds)."""

import pytest

from repro.experiments.common import format_table, pct
from repro.experiments.latency_breakdown import LatencyBreakdownExperiment
from repro.experiments.motivation import MotivationExperiment
from repro.experiments.snoop import SnoopExperiment
from repro.experiments.table1 import Table1Experiment
from repro.experiments.table2 import Table2Experiment
from repro.experiments.table3 import Table3Experiment
from repro.experiments.table4 import Table4Experiment
from repro.experiments.validation import ValidationExperiment


def payload(experiment_cls):
    """The typed value a static experiment analyzes to."""
    return experiment_cls().analyze().payload


def text(experiment_cls):
    """The experiment's table text, as ``repro run <id>`` prints it."""
    experiment = experiment_cls()
    return experiment.render_text(experiment.analyze())


class TestTable1:
    def test_row_order_matches_paper(self):
        names = [row[0] for row in payload(Table1Experiment)]
        assert names == [
            "C0 (P1)", "C0 (Pn)", "C1 (P1)", "C6A (P1)",
            "C1E (Pn)", "C6AE (Pn)", "C6",
        ]

    def test_c6a_next_to_c1(self):
        rows = {row[0]: row for row in payload(Table1Experiment)}
        assert rows["C1 (P1)"][1] == "2.0us"
        assert rows["C6A (P1)"][2] == "2.0us"  # same target residency

    def test_powers_rendered(self):
        rows = {row[0]: row for row in payload(Table1Experiment)}
        assert rows["C0 (P1)"][3] == "4.00W"
        assert rows["C6"][3] == "100.0mW"

    def test_main_prints(self):
        out = text(Table1Experiment)
        assert "Table 1" in out
        assert "C6AE" in out


class TestTable2:
    def test_six_states(self):
        assert len(payload(Table2Experiment)) == 6

    def test_c6a_row(self):
        rows = {row[0]: row for row in payload(Table2Experiment)}
        assert rows["C6A"][1] == "stopped"
        assert rows["C6A"][2] == "on"
        assert rows["C6A"][3] == "coherent"

    def test_main_prints(self):
        assert "Table 2" in text(Table2Experiment)


class TestTable3:
    def test_breakdown_bands(self):
        breakdown = payload(Table3Experiment)
        low, high = breakdown.total_power_range("C6A")
        assert 0.28 <= low <= high <= 0.32

    def test_main_prints(self):
        out = text(Table3Experiment)
        assert "Overall" in out
        assert "paper bands" in out


class TestTable4:
    def test_aw_row_is_last(self):
        rows = payload(Table4Experiment)
        assert rows[-1][0] == "AW (this work)"
        assert "ns" in rows[-1][4]

    def test_aw_wake_under_70ns(self):
        wake = payload(Table4Experiment)[-1][4]
        value = float(wake.strip("~ ns"))
        assert value < 70

    def test_seven_rows(self):
        assert len(payload(Table4Experiment)) == 7

    def test_main_prints(self):
        assert "Table 4" in text(Table4Experiment)


class TestMotivationExperiment:
    def test_three_rows_with_paper_fractions(self):
        rows = payload(MotivationExperiment)
        fractions = [savings for _, _, savings in rows]
        assert fractions[0] == pytest.approx(0.23, abs=0.01)
        assert fractions[1] == pytest.approx(0.41, abs=0.01)
        assert fractions[2] == pytest.approx(0.55, abs=0.01)

    def test_main_prints(self):
        assert "Eq. 1" in text(MotivationExperiment)


class TestLatencyBreakdownExperiment:
    def test_c6_phases(self):
        report = payload(LatencyBreakdownExperiment)
        assert report.c6_entry == pytest.approx(87e-6, rel=0.02)
        assert report.c6_exit == pytest.approx(30e-6, rel=0.01)
        assert report.c6_round_trip == pytest.approx(133e-6, rel=0.01)

    def test_c6a_under_100ns(self):
        report = payload(LatencyBreakdownExperiment)
        assert report.c6a_round_trip < 100e-9

    def test_speedup_three_orders(self):
        assert payload(LatencyBreakdownExperiment).speedup >= 500

    def test_flush_grid_monotone(self):
        report = payload(LatencyBreakdownExperiment)
        at_800 = [t for d, f, t in report.flush_grid if f == pytest.approx(800e6)]
        assert at_800 == sorted(at_800)

    def test_main_prints(self):
        out = text(LatencyBreakdownExperiment)
        assert "flush" in out
        assert "round trip" in out


class TestSnoopExperiment:
    def test_bounds(self):
        report = payload(SnoopExperiment)
        assert report.bounds.savings_no_snoops == pytest.approx(0.79, abs=0.01)
        assert report.bounds.savings_loss == pytest.approx(0.11, abs=0.01)

    def test_sweep_monotone_decreasing(self):
        report = payload(SnoopExperiment)
        savings = [s for _, s in report.duty_sweep]
        assert savings == sorted(savings, reverse=True)

    def test_main_prints(self):
        assert "7.5" in text(SnoopExperiment)


class TestValidationExperiment:
    def test_four_workloads(self):
        assert len(payload(ValidationExperiment)) == 4

    def test_main_prints(self):
        out = text(ValidationExperiment)
        assert "SPECpower" in out
        assert "accuracy" in out


class TestFormattingHelpers:
    def test_format_table_alignment(self):
        text = format_table(["A", "Bee"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")

    def test_pct(self):
        assert pct(0.235) == "23.5%"
        assert pct(0.235, 0) == "24%"

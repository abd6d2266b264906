"""Tests for the C6A PMA flow (Fig 6, Sec 4.3, 5.2)."""

import pytest

from repro.core.pma_flow import PMA_CLOCK_HZ, C6AFlow
from repro.units import NS


class TestLatencyBudgets:
    def test_entry_under_20ns(self):
        # Sec 5.2.1: < 10 PMA cycles at 500 MHz.
        assert C6AFlow().entry_latency < 20 * NS

    def test_entry_under_10_cycles(self):
        flow = C6AFlow()
        cycles = sum(step.cycles for step in flow.entry_steps())
        assert cycles < 10

    def test_exit_under_80ns(self):
        # Sec 5.2.2: ~5 cycles + < 70 ns staggered ungate.
        assert C6AFlow().exit_latency < 80 * NS

    def test_round_trip_under_100ns(self):
        assert C6AFlow().round_trip_latency < 100 * NS

    def test_pma_clock_is_500mhz(self):
        assert PMA_CLOCK_HZ == pytest.approx(500e6)

    def test_exit_dominated_by_stagger(self):
        flow = C6AFlow()
        stagger = flow.exit_steps()[1].extra_time
        assert stagger > 0.5 * flow.exit_latency

    def test_snoop_wake_is_two_cycles(self):
        # The sleep-mode exit a snoop waits for is step 4 of the exit flow.
        flow = C6AFlow()
        assert flow.exit_steps()[0].latency == pytest.approx(2 / PMA_CLOCK_HZ)

    def test_enhanced_flow_same_hardware_latency(self):
        # C6AE's DVFS to Pn is non-blocking: same entry/exit path.
        assert C6AFlow(enhanced=True).entry_latency == C6AFlow().entry_latency
        assert C6AFlow(enhanced=True).exit_latency == C6AFlow().exit_latency


class TestStepStructure:
    def test_three_entry_steps(self):
        labels = [s.label for s in C6AFlow().entry_steps()]
        assert len(labels) == 3
        assert labels[0].startswith("1:")
        assert labels[2].startswith("3:")

    def test_three_exit_steps(self):
        labels = [s.label for s in C6AFlow().exit_steps()]
        assert len(labels) == 3
        assert labels[0].startswith("4:")
        assert labels[2].startswith("6:")

    def test_all_step_latencies_positive(self):
        flow = C6AFlow()
        for step in flow.entry_steps() + flow.exit_steps():
            assert step.latency > 0


class TestDescribe:
    def test_describe_mentions_totals(self):
        text = C6AFlow().describe()
        assert "entry" in text
        assert "exit" in text
        assert "round trip" in text

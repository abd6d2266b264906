"""Tests for context-retention structures (Fig 5, Sec 4.1)."""

import pytest

from repro.errors import PowerModelError
from repro.power.retention import (
    CORE_CONTEXT_BYTES,
    MICROCODE_SRAM_BYTES,
    RetentionPlan,
    SRPGBank,
    UngatedRegisterFile,
    UngatedSRAM,
    context_retention_power,
)
from repro.units import KB, MILLIWATT


class TestContextRetentionPower:
    def test_full_context_at_p1_is_2mw(self):
        # Table 3 beta: ~2 mW at P1 for the ~8 KB context.
        power = context_retention_power(CORE_CONTEXT_BYTES, "P1")
        assert power == pytest.approx(2 * MILLIWATT)

    def test_full_context_at_pn_is_1mw(self):
        power = context_retention_power(CORE_CONTEXT_BYTES, "Pn")
        assert power == pytest.approx(1 * MILLIWATT)

    def test_at_retention_voltage(self):
        power = context_retention_power(CORE_CONTEXT_BYTES, "Vret")
        assert power == pytest.approx(0.2 * MILLIWATT)

    def test_scales_with_size(self):
        half = context_retention_power(CORE_CONTEXT_BYTES // 2, "P1")
        assert half == pytest.approx(1 * MILLIWATT)

    def test_unknown_rail_rejected(self):
        with pytest.raises(PowerModelError):
            context_retention_power(1024, "P2")

    def test_negative_size_rejected(self):
        with pytest.raises(PowerModelError):
            context_retention_power(-1, "P1")


class TestStructures:
    def test_ungated_registers_free_save_restore(self):
        r = UngatedRegisterFile("exec", 1 * KB)
        assert r.save_cycles == 0
        assert r.restore_cycles == 0

    def test_srpg_save_3_to_4_cycles(self):
        assert SRPGBank("csrs", 1 * KB, save_cycles=3).save_cycles == 3
        assert SRPGBank("csrs", 1 * KB, save_cycles=4).save_cycles == 4

    def test_srpg_restore_is_one_cycle(self):
        assert SRPGBank("csrs", 1 * KB).restore_cycles == 1

    def test_srpg_bad_save_cycles_rejected(self):
        with pytest.raises(PowerModelError):
            SRPGBank("csrs", 1 * KB, save_cycles=10)

    def test_ungated_sram_defaults_to_microcode(self):
        s = UngatedSRAM()
        assert s.context_bytes == MICROCODE_SRAM_BYTES
        assert s.save_cycles == 0

    def test_area_overheads_under_1pct(self):
        for s in (UngatedRegisterFile("a", 1024), SRPGBank("b", 1024), UngatedSRAM()):
            assert s.area_overhead_fraction <= 0.01


class TestRetentionPlan:
    def test_default_plan_covers_full_context(self):
        plan = RetentionPlan.default_skylake()
        assert plan.total_context_bytes == CORE_CONTEXT_BYTES

    def test_default_plan_power_matches_table3(self):
        plan = RetentionPlan.default_skylake()
        assert plan.retention_power("P1") == pytest.approx(2 * MILLIWATT)
        assert plan.retention_power("Pn") == pytest.approx(1 * MILLIWATT)

    def test_save_is_srpg_critical_path(self):
        # Structures save in parallel; SRPG's 3-4 cycles dominates.
        plan = RetentionPlan.default_skylake()
        assert 3 <= plan.save_cycles <= 4

    def test_restore_is_one_cycle(self):
        assert RetentionPlan.default_skylake().restore_cycles == 1

    def test_techniques_grouping(self):
        techniques = [
            type(s).__name__ for s in RetentionPlan.default_skylake().structures
        ]
        assert "SRPGBank" in techniques
        assert "UngatedSRAM" in techniques
        assert techniques.count("UngatedRegisterFile") == 3

    def test_empty_plan_rejected(self):
        with pytest.raises(PowerModelError):
            RetentionPlan(structures=[])

    def test_duplicate_names_rejected(self):
        with pytest.raises(PowerModelError):
            RetentionPlan(
                structures=[UngatedSRAM("x"), UngatedSRAM("x")]
            )

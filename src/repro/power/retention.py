"""Context-retention structures used by UFPG (Sec 4.1, Fig 5).

A modern core carries ~8 KB of context (CSRs, fuse registers, microcode
patch SRAM) that C6 serialises to an uncore save/restore SRAM — a ~9 us
process at 800 MHz. AW instead retains context *in place* with three
techniques, each modelled here:

- :class:`UngatedRegisterFile` (Fig 5a): move a unit's registers into the
  core's ungated power domain. Suits units with small, local context
  (execution units, OoO engine).
- :class:`UngatedSRAM` (Fig 5b): power the ~2 KB microcode-patch SRAM from
  the ungated rail so it never needs re-initialisation.
- :class:`SRPGBank` (Fig 5c): state-retention power gates — flip-flops with
  a shadow latch on the ungated rail — for distributed context that cannot
  be physically relocated.

Save = assert ``Ret`` then deassert ``Pwr`` (3-4 controller cycles);
restore = the reverse (1 cycle after power-good). No serialisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import PowerModelError
from repro.units import KB, MILLIWATT

#: Total context a Skylake-class core must retain across power-off (Sec 4.1).
CORE_CONTEXT_BYTES = 8 * KB

#: The microcode patch/data SRAM portion of that context [66, 67].
MICROCODE_SRAM_BYTES = 2 * KB

#: Power of the full 8 KB context held at retention voltage (Sec 5.1.1).
RETENTION_POWER_AT_VRET = 0.2 * MILLIWATT

#: Conservative multipliers from retention voltage to P1 / Pn rails.
RETENTION_MULTIPLIER_P1 = 10.0
RETENTION_MULTIPLIER_PN = 5.0


def context_retention_power(context_bytes: int, rail: str) -> float:
    """Idle power to hold ``context_bytes`` of context on a given rail.

    The paper holds retention structures on the core's ungated rail, which
    sits at P1 or Pn voltage (not a dedicated retention rail), and
    conservatively multiplies the retention-level power by 10x / 5x:
    ~2 mW at P1 and ~1 mW at Pn for the full 8 KB.

    Args:
        context_bytes: retained context size.
        rail: "P1", "Pn" or "Vret".

    Raises:
        PowerModelError: on negative size or unknown rail.
    """
    if context_bytes < 0:
        raise PowerModelError("context size must be >= 0")
    base = RETENTION_POWER_AT_VRET * (context_bytes / CORE_CONTEXT_BYTES)
    multipliers = {
        "P1": RETENTION_MULTIPLIER_P1,
        "Pn": RETENTION_MULTIPLIER_PN,
        "Vret": 1.0,
    }
    if rail not in multipliers:
        raise PowerModelError(f"unknown rail {rail!r}; choose from {sorted(multipliers)}")
    return base * multipliers[rail]


@dataclass(frozen=True)
class RetentionStructure:
    """Base record for one retained context block.

    Attributes:
        name: owning unit (e.g. "ooo_engine").
        context_bytes: bytes of state retained in place.
        area_overhead_fraction: extra silicon relative to the protected
            structure (all three techniques are < 1% per Table 3).
        save_cycles / restore_cycles: PMA controller cycles on the C6A
            entry / exit path.
    """

    name: str
    context_bytes: int
    area_overhead_fraction: float
    save_cycles: int
    restore_cycles: int

    def __post_init__(self) -> None:
        if self.context_bytes < 0:
            raise PowerModelError(f"{self.name}: context size must be >= 0")
        if not 0.0 <= self.area_overhead_fraction <= 0.05:
            raise PowerModelError(
                f"{self.name}: retention area overhead should be small "
                f"(< 5%), got {self.area_overhead_fraction}"
            )
        if self.save_cycles < 0 or self.restore_cycles < 0:
            raise PowerModelError(f"{self.name}: cycle counts must be >= 0")

    def retention_power(self, rail: str) -> float:
        """Idle power of this block's retained context on ``rail``."""
        return context_retention_power(self.context_bytes, rail)


class UngatedRegisterFile(RetentionStructure):
    """Fig 5(a): registers relocated to the ungated domain.

    Applicable to units whose context is small and local: execution units
    (the AVX precedent), execution ports, the out-of-order engine.
    Save/restore are free — the state simply never loses power — but the
    convention here charges the 0-cycle cost explicitly so flows can sum
    uniformly over techniques.
    """

    def __init__(self, name: str, context_bytes: int):
        super().__init__(
            name=name,
            context_bytes=context_bytes,
            area_overhead_fraction=0.01,  # isolation cells, < 1% [50]
            save_cycles=0,
            restore_cycles=0,
        )


class SRPGBank(RetentionStructure):
    """Fig 5(c): state-retention power-gate flops for distributed context.

    Save: assert Ret, deassert Pwr (3-4 cycles); restore: deassert Ret
    after power-good (1 cycle).
    """

    def __init__(self, name: str, context_bytes: int, save_cycles: int = 4):
        if not 3 <= save_cycles <= 4:
            raise PowerModelError("SRPG save takes 3-4 cycles (Sec 5.2.1)")
        super().__init__(
            name=name,
            context_bytes=context_bytes,
            area_overhead_fraction=0.01,  # selective retention, < 1% [65, 97]
            save_cycles=save_cycles,
            restore_cycles=1,
        )


class UngatedSRAM(RetentionStructure):
    """Fig 5(b): SRAM (microcode patches/data) on the ungated rail.

    Avoids the multi-microsecond sequential re-initialisation from the
    uncore S/R SRAM that the C6 exit flow performs.
    """

    def __init__(
        self,
        name: str = "microcode_patch_sram",
        context_bytes: int = MICROCODE_SRAM_BYTES,
    ):
        super().__init__(
            name=name,
            context_bytes=context_bytes,
            area_overhead_fraction=0.01,  # isolation cells, < 1% of SRAM area
            save_cycles=0,
            restore_cycles=0,
        )


@dataclass
class RetentionPlan:
    """The full in-place retention plan for a core's ~8 KB of context.

    The default plan follows Sec 4.1: execution units / ports / OoO engine
    context goes to the ungated domain, the 2 KB microcode SRAM goes on the
    ungated rail, and the remaining distributed context uses SRPGs.
    """

    structures: Sequence[RetentionStructure]

    def __post_init__(self) -> None:
        if not self.structures:
            raise PowerModelError("retention plan cannot be empty")
        names = [s.name for s in self.structures]
        if len(set(names)) != len(names):
            raise PowerModelError(f"duplicate structure names in plan: {names}")

    @classmethod
    def default_skylake(cls) -> "RetentionPlan":
        """The paper's retention plan for a Skylake-class core."""
        ungated_register_bytes = 3 * KB  # exec units + ports + OoO engine
        srpg_bytes = (
            CORE_CONTEXT_BYTES - MICROCODE_SRAM_BYTES - ungated_register_bytes
        )
        return cls(
            structures=[
                UngatedRegisterFile("execution_units", 1 * KB),
                UngatedRegisterFile("execution_ports", 1 * KB),
                UngatedRegisterFile("ooo_engine", 1 * KB),
                SRPGBank("distributed_csrs", srpg_bytes),
                UngatedSRAM(),
            ]
        )

    @property
    def total_context_bytes(self) -> int:
        return sum(s.context_bytes for s in self.structures)

    def retention_power(self, rail: str) -> float:
        """Idle power to hold the whole plan's context on ``rail``.

        ~2 mW at P1, ~1 mW at Pn for the default 8 KB plan (Table 3 beta).
        """
        return sum(s.retention_power(rail) for s in self.structures)

    @property
    def save_cycles(self) -> int:
        """Controller cycles to save all context (max across structures).

        Structures save in parallel — Ret is a broadcast signal — so the
        critical path is the slowest structure, i.e. the SRPG bank's 3-4
        cycles, not the sum.
        """
        return max(s.save_cycles for s in self.structures)

    @property
    def restore_cycles(self) -> int:
        """Controller cycles to restore all context (max across structures)."""
        return max(s.restore_cycles for s in self.structures)

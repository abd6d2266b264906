"""Transition-latency derivations (Sec 3 'Core C6 Entry/Exit Latency' and
Sec 5.2 'C6A and C6AE Latency').

The C6 numbers are derived from first principles rather than hard-coded:

- entry is dominated by the L1/L2 flush, which depends on the dirty
  fraction and core frequency (flushing a 50% dirty ~1.1 MB cache at
  800 MHz takes ~75 us), plus ~9 us to serialise the ~8 KB context to the
  uncore save/restore SRAM, plus control overhead — ~87 us total;
- exit is ~10 us of hardware wake (power-ungate, PLL relock, reset, fuse
  propagation) plus ~20 us of state/microcode restore, plus OS/software
  overhead for the worst-case 133 us Table 1 round trip.

The C6A numbers come from the PMA flow model
(:class:`repro.core.pma_flow.C6AFlow`): < 20 ns entry, < 80 ns exit —
three orders of magnitude below C6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import PowerModelError
from repro.power.retention import CORE_CONTEXT_BYTES
from repro.units import MHZ, US

from repro.core.pma_flow import C6AFlow

#: C6 flush/save happens at the minimum operational frequency (800 MHz).
C6_FLOW_FREQUENCY_HZ = 800 * MHZ

#: Cache-line granularity of the flush walk.
CACHE_LINE_BYTES = 64

#: Cycles to scan one line's tag/state during the flush walk.
FLUSH_SCAN_CYCLES_PER_LINE = 1.0

#: Average cycles to write back one dirty line (bandwidth-limited).
FLUSH_WRITEBACK_CYCLES_PER_LINE = 4.5

#: Cycles per byte to serialise context to the uncore S/R SRAM (~9 us for
#: 8 KB at 800 MHz).
SR_CYCLES_PER_BYTE = 0.88


@dataclass(frozen=True)
class CacheFlushModel:
    """Flush time of the private caches as a function of dirtiness and f.

    ``flush_time = (lines * scan + dirty_lines * writeback) / frequency``.
    """

    capacity_bytes: float = 1.125 * 1024 * 1024  # 64 KB L1 + 1 MB L2 + tags
    line_bytes: int = CACHE_LINE_BYTES
    scan_cycles: float = FLUSH_SCAN_CYCLES_PER_LINE
    writeback_cycles: float = FLUSH_WRITEBACK_CYCLES_PER_LINE

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.line_bytes <= 0:
            raise PowerModelError("cache geometry must be positive")
        if self.scan_cycles < 0 or self.writeback_cycles < 0:
            raise PowerModelError("cycle costs must be >= 0")

    @property
    def lines(self) -> int:
        return int(self.capacity_bytes // self.line_bytes)

    def flush_time(self, dirty_fraction: float, frequency_hz: float) -> float:
        """Seconds to flush with ``dirty_fraction`` of lines dirty.

        Raises:
            PowerModelError: if dirty_fraction outside [0, 1] or f <= 0.
        """
        if not 0.0 <= dirty_fraction <= 1.0:
            raise PowerModelError(
                f"dirty fraction must be in [0, 1], got {dirty_fraction}"
            )
        if frequency_hz <= 0:
            raise PowerModelError("frequency must be positive")
        cycles = self.lines * self.scan_cycles
        cycles += self.lines * dirty_fraction * self.writeback_cycles
        return cycles / frequency_hz


@dataclass(frozen=True)
class C6LatencyModel:
    """C6 entry/exit latency, built from its flow (Fig 3b).

    Attributes:
        flush: the cache-flush model.
        dirty_fraction: assumed dirtiness at entry (paper example: 50%).
        frequency_hz: frequency during entry/exit flows (800 MHz).
        control_overhead: flow control + power-gate controller time on the
            entry path (~3 us).
        hardware_wake: power-ungate + PLL relock + reset + fuse propagation
            (~10 us).
        restore_time: state + microcode restoration (~20 us).
        software_overhead: OS/driver entry+exit overhead that makes the
            worst-case Table 1 number (133 us) exceed entry+exit hw time.
    """

    flush: CacheFlushModel = CacheFlushModel()
    dirty_fraction: float = 0.50
    frequency_hz: float = C6_FLOW_FREQUENCY_HZ
    context_bytes: int = CORE_CONTEXT_BYTES
    control_overhead: float = 3 * US
    hardware_wake: float = 10 * US
    restore_time: float = 20 * US
    software_overhead: float = 16 * US

    def context_save_time(self) -> float:
        """Serialise ~8 KB to the uncore S/R SRAM: ~9 us at 800 MHz."""
        cycles = self.context_bytes * SR_CYCLES_PER_BYTE
        return cycles / self.frequency_hz

    @property
    def entry_latency(self) -> float:
        """Flush + context save + control: ~87 us at the defaults."""
        return (
            self.flush.flush_time(self.dirty_fraction, self.frequency_hz)
            + self.context_save_time()
            + self.control_overhead
        )

    @property
    def exit_latency(self) -> float:
        """Hardware wake + state/ucode restore: ~30 us at the defaults."""
        return self.hardware_wake + self.restore_time

    @property
    def transition_time(self) -> float:
        """Worst-case software-visible round trip: ~133 us (Table 1)."""
        return self.entry_latency + self.exit_latency + self.software_overhead

    def breakdown(self) -> Dict[str, float]:
        """Per-phase latencies, for the latency-breakdown experiment."""
        return {
            "flush_l1_l2": self.flush.flush_time(self.dirty_fraction, self.frequency_hz),
            "context_save": self.context_save_time(),
            "entry_control": self.control_overhead,
            "hardware_wake": self.hardware_wake,
            "state_ucode_restore": self.restore_time,
            "software_overhead": self.software_overhead,
        }


@dataclass
class C6ALatencyModel:
    """C6A/C6AE hardware latency, delegated to the PMA flow model."""

    flow: C6AFlow = None

    def __post_init__(self) -> None:
        if self.flow is None:
            self.flow = C6AFlow()

    @property
    def entry_latency(self) -> float:
        return self.flow.entry_latency

    @property
    def exit_latency(self) -> float:
        return self.flow.exit_latency

    @property
    def transition_time(self) -> float:
        return self.flow.round_trip_latency

    def breakdown(self) -> Dict[str, float]:
        steps = {}
        for step in self.flow.entry_steps() + self.flow.exit_steps():
            steps[step.label] = step.latency
        return steps


def transition_speedup(
    c6: C6LatencyModel = None, c6a: C6ALatencyModel = None
) -> float:
    """How many times faster C6A's hardware transition is than C6's.

    The paper headline is "up to 900x"; with the default models the
    hardware-only ratio lands in the same three-orders-of-magnitude band.
    """
    c6 = c6 if c6 is not None else C6LatencyModel()
    c6a = c6a if c6a is not None else C6ALatencyModel()
    return c6.transition_time / c6a.transition_time

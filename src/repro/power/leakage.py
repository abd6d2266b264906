"""Leakage power scaling laws.

Table 3 of the paper derives the L1/L2 sleep-mode leakage by scaling a
published 22 nm L3-slice measurement to Skylake's 14 nm node using the
methodology of Shahidi, *Chip Power Scaling in Recent CMOS Technology
Nodes* (IEEE Access 2018) [99]: for a dimensional scaling factor ``alpha``
(~0.7x for 22->14 nm) and a voltage scaling factor ``beta``, leakage power
scales as ``alpha * beta``. The paper conservatively uses ``beta = 1.0``.

This module also captures the sleep-transistor-as-linear-regulator
observation used for the C6AE row: a sleep transistor is effectively an
LDO whose efficiency is Vout/Vin, so lowering the rail toward the retention
voltage *increases* its efficiency and lowers the leakage it passes.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import PowerModelError

# Dimensional scaling factors between adjacent nodes, relative pitch ratio.
# Values follow the ~0.7x/generation rule of thumb used by [99].
_NODE_PITCH_NM: Dict[int, float] = {
    45: 45.0,
    32: 32.0,
    28: 28.0,
    22: 22.0,
    14: 15.4,  # Intel 14 nm actual gate pitch scaling vs 22 nm is ~0.7x
    10: 11.0,
    7: 7.7,
}


def node_scaling_factor(from_nm: int, to_nm: int) -> float:
    """Dimensional scaling factor ``alpha`` between two technology nodes.

    The paper's 22 nm -> 14 nm transition yields ~0.7x.

    Raises:
        PowerModelError: for unknown nodes.
    """
    if from_nm not in _NODE_PITCH_NM or to_nm not in _NODE_PITCH_NM:
        known = sorted(_NODE_PITCH_NM)
        raise PowerModelError(
            f"unknown node pair ({from_nm}, {to_nm}); known nodes: {known}"
        )
    return _NODE_PITCH_NM[to_nm] / _NODE_PITCH_NM[from_nm]


def scale_leakage_power(
    power_watts: float,
    from_nm: int,
    to_nm: int,
    voltage_scaling: float = 1.0,
) -> float:
    """Scale a leakage measurement across nodes: ``P' = P * alpha * beta``.

    Args:
        power_watts: measured leakage at the source node.
        from_nm / to_nm: technology nodes (e.g. 22 -> 14).
        voltage_scaling: ``beta`` in [0.7, 1.0]; the paper conservatively
            uses 1.0 (no voltage scaling credit).

    Raises:
        PowerModelError: on negative power or out-of-range beta.
    """
    if power_watts < 0:
        raise PowerModelError(f"leakage power must be >= 0, got {power_watts}")
    if not 0.5 <= voltage_scaling <= 1.0:
        raise PowerModelError(
            f"voltage scaling beta expected in [0.5, 1.0], got {voltage_scaling}"
        )
    alpha = node_scaling_factor(from_nm, to_nm)
    return power_watts * alpha * voltage_scaling


def sleep_transistor_efficiency(v_in: float, v_out: float) -> float:
    """Power-conversion efficiency of a sleep transistor acting as an LVR.

    Efficiency = Vout / Vin (Sec 5.1.2): the closer the input rail is to
    the retained output voltage, the less power burns across the device.

    Raises:
        PowerModelError: if voltages are non-positive or v_out > v_in.
    """
    if v_in <= 0 or v_out <= 0:
        raise PowerModelError(f"voltages must be positive, got {v_in}, {v_out}")
    if v_out > v_in:
        raise PowerModelError(f"v_out {v_out} cannot exceed v_in {v_in}")
    return v_out / v_in

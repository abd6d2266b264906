"""Unit helpers and conversions used throughout the library.

The simulator keeps time in **seconds** (floats) and power in **watts**.
The paper mixes microseconds, nanoseconds, milliwatts and watts; these
helpers make call sites read like the paper text (``2 * US``, ``70 * NS``,
``55 * MILLIWATT``) instead of raw exponents.
"""

from __future__ import annotations

# -- time -------------------------------------------------------------------
SECOND = 1.0
MS = 1e-3
US = 1e-6
NS = 1e-9
PS = 1e-12

MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
YEAR = 365 * DAY

# -- power / energy ---------------------------------------------------------
WATT = 1.0
MILLIWATT = 1e-3
MICROWATT = 1e-6
KILOWATT = 1e3

JOULE = 1.0
KWH = 3.6e6  # joules per kilowatt-hour

# -- frequency --------------------------------------------------------------
HZ = 1.0
KHZ = 1e3
MHZ = 1e6
GHZ = 1e9

# -- capacity ---------------------------------------------------------------
KB = 1024
MB = 1024 * KB


def seconds_to_us(value: float) -> float:
    """Convert seconds to microseconds."""
    return value / US


def seconds_to_ns(value: float) -> float:
    """Convert seconds to nanoseconds."""
    return value / NS


def watts_to_mw(value: float) -> float:
    """Convert watts to milliwatts."""
    return value / MILLIWATT


def cycles_to_seconds(cycles: float, frequency_hz: float) -> float:
    """Duration of ``cycles`` clock cycles at ``frequency_hz``.

    Raises:
        ValueError: if ``frequency_hz`` is not positive.
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return cycles / frequency_hz


def pretty_time(value: float) -> str:
    """Render a duration with a sensible unit (for reports)."""
    if value < 0:
        return "-" + pretty_time(-value)
    if value == 0:
        return "0s"
    if value < 1e-9:
        return f"{value / PS:.1f}ps"
    if value < 1e-6:
        return f"{value / NS:.1f}ns"
    if value < 1e-3:
        return f"{value / US:.1f}us"
    if value < 1.0:
        return f"{value / MS:.1f}ms"
    return f"{value:.3f}s"


def pretty_power(value: float) -> str:
    """Render a power with a sensible unit (for reports)."""
    if value < 0:
        return "-" + pretty_power(-value)
    if value < 1e-3:
        return f"{value / MICROWATT:.1f}uW"
    if value < 1.0:
        return f"{value / MILLIWATT:.1f}mW"
    return f"{value:.2f}W"

"""Formatting helpers shared by the experiments' text renderings."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "pct"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table for experiment reports."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def pct(value: float, digits: int = 1) -> str:
    """Format a fraction as a percentage string."""
    return f"{value * 100:.{digits}f}%"

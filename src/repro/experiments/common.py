"""Table declarations and the cell formatters the experiments share.

An experiment's text rendering is a list of blocks, declared by
:meth:`repro.experiments.api.Experiment.blocks`: free-text strings and
:class:`Table` declarations (a title, columns as a header plus a cell
formatter, and a row source). :func:`render_blocks` lays them out one
blank line apart; it is the one place an experiment table is formatted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.units import seconds_to_us

#: What a table row is: usually a record dict, sometimes a tuple of them.
Row = Any
#: A cell formatter of one value.
Format = Callable[[Any], str]


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


# -- cell formatters ------------------------------------------------------------

def number(
    spec: str = ".1f",
    unit: Optional[Callable[[float], float]] = None,
    suffix: str = "",
) -> Callable[[Optional[float]], str]:
    """A cell formatter: ``unit(value)`` in ``spec``, then ``suffix``.

    ``None`` (a latency of a point that completed no request, or a ratio
    over one) prints as ``-``.
    """

    def cell(value: Optional[float]) -> str:
        if value is None:
            return "-"
        return f"{value if unit is None else unit(value):{spec}}{suffix}"

    return cell


def percent(digits: int = 1) -> Callable[[Optional[float]], str]:
    """A cell formatter of a fraction as a percentage."""
    return number(f".{digits}f", lambda fraction: fraction * 100, "%")


def pct(value: Optional[float], digits: int = 1) -> str:
    """Format a fraction as a percentage string (``-`` when undefined)."""
    return percent(digits)(value)


#: A latency in seconds, shown in microseconds.
microseconds = number(".1f", seconds_to_us)


def kqps_label(qps: Union[float, str]) -> str:
    """A request rate in KQPS (``20K``); a string (``Avg``) passes through."""
    return qps if isinstance(qps, str) else f"{qps / 1000:.0f}K"


# -- declarations ---------------------------------------------------------------

@dataclass(frozen=True)
class Column:
    """One table column: its header and the cell text of a row."""

    header: str
    cell: Callable[[Row], str]


def column(header: str, key: Union[str, Tuple[str, ...]], fmt: Format = str) -> Column:
    """A column of ``fmt(row[key])``, blank where a row has no ``key``.

    A tuple ``key`` is a path into nested records.
    """

    def cell(row: Row) -> str:
        for part in key if isinstance(key, tuple) else (key,):
            if part not in row:
                return ""
            row = row[part]
        return fmt(row)

    return Column(header, cell)


#: The request-rate column of a table whose rows are records.
qps_column = column("QPS", "qps", kqps_label)


@dataclass(frozen=True)
class Table:
    """A declared table: optional title, columns, rows, footer lines."""

    title: Optional[str]
    columns: Sequence[Column]
    rows: Iterable[Row]
    footer: Sequence[str] = ()

    def render(self) -> str:
        lines = [] if self.title is None else [self.title]
        lines.append(format_table(
            [c.header for c in self.columns],
            [[c.cell(row) for c in self.columns] for row in self.rows],
        ))
        lines.extend(self.footer)
        return "\n".join(lines)


#: One block of a text rendering: a table or free text.
Block = Union[Table, str]


def render_blocks(blocks: Iterable[Block]) -> str:
    """Blocks in order, one blank line apart."""
    return "\n\n".join(
        block if isinstance(block, str) else block.render() for block in blocks
    )


# -- the shapes that recur -------------------------------------------------------

def section(records: Sequence[Row], name: str) -> List[Row]:
    """The records of one ``section`` of a multi-part experiment."""
    return [record for record in records if record.get("section") == name]


def config_series(records: Sequence[Row], configs: Sequence[str]) -> Dict[str, Sequence[Row]]:
    """Config-major sweep records (a rate sweep's grid order) split into
    one rate-ordered series per config."""
    n = len(records) // len(configs)
    return {c: records[i * n:(i + 1) * n] for i, c in enumerate(configs)}


def rate_pivot(title: str, series: Mapping[str, Sequence[Row]], key: str, fmt: Format) -> Table:
    """Rate x config pivot: a row per request rate, a column per config
    of ``series``, each cell ``fmt(record[key])`` of that point."""
    columns = [Column("QPS", lambda rows: kqps_label(rows[0]["qps"]))]
    columns += [
        Column(config, lambda rows, i=i: fmt(rows[i][key]))
        for i, config in enumerate(series)
    ]
    return Table(title, columns, list(zip(*series.values())))


def residency_table(
    title: str,
    lead: Sequence[Column],
    rows: Sequence[Row],
    residency: Callable[[Row], Mapping[str, float]],
) -> Table:
    """Rows x C-state residency: the ``lead`` columns, then one column per
    C-state any row visits (sorted), in whole percent."""
    states = sorted({state for row in rows for state in residency(row)})
    columns = list(lead) + [
        Column(state, lambda row, s=state: pct(residency(row).get(s, 0.0), 0))
        for state in states
    ]
    return Table(title, columns, rows)

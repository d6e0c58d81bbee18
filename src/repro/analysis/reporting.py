"""Plain-text and CSV rendering of result tables.

The benchmark harness regenerates the paper's tables/figures as ASCII
tables (plus CSV for post-processing); no plotting dependencies are
required, which keeps the reproduction runnable in minimal environments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

Cell = Union[str, int, float]


def _format_cell(value: Cell, *, float_format: str = "{:.2f}") -> str:
    if isinstance(value, float):
        return float_format.format(value)
    return str(value)


@dataclass
class Table:
    """A small column-ordered table."""

    title: str
    columns: List[str]
    rows: List[Dict[str, Cell]] = field(default_factory=list)

    def add_row(self, **values: Cell) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns in row: {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> List[Cell]:
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return [row.get(name, "") for row in self.rows]

    def render(self, *, float_format: str = "{:.2f}") -> str:
        return render_table(self, float_format=float_format)


def render_table(table: Table, *, float_format: str = "{:.2f}") -> str:
    """Render the table as aligned monospace text."""
    header = list(table.columns)
    body = [
        [_format_cell(row.get(col, ""), float_format=float_format) for col in header]
        for row in table.rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [table.title, "=" * len(table.title)]
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in body:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def bar_chart(
    values: Dict[str, float],
    *,
    width: int = 50,
    maximum: Optional[float] = None,
    unit: str = "",
) -> str:
    """Tiny horizontal ASCII bar chart (used for figure-style output)."""
    if not values:
        return "(no data)"
    peak = maximum if maximum is not None else max(values.values())
    peak = peak or 1.0
    label_width = max(len(k) for k in values)
    lines = []
    for key, value in values.items():
        filled = int(round(width * value / peak)) if peak else 0
        lines.append(
            f"{key.ljust(label_width)} | {'#' * filled}{' ' * (width - filled)} "
            f"{value:.3f}{unit}"
        )
    return "\n".join(lines)

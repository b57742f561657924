"""Result-table rendering: markdown and CSV.

Experiments produce lists of flat dict rows; these helpers render them
into markdown tables and into CSV files under
``results/`` for downstream plotting.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.model.errors import HarnessError

__all__ = ["render_markdown", "write_csv", "format_value"]

Row = Dict[str, object]


def format_value(value: object) -> str:
    """Human-friendly cell formatting (floats to 3 significant digits)."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}"
    if value is None:
        return "-"
    return str(value)


def _columns(rows: Sequence[Row], columns: Optional[Sequence[str]]) -> List[str]:
    if not rows:
        raise HarnessError("cannot render a table of zero rows")
    if columns is not None:
        missing = [c for c in columns if c not in rows[0]]
        if missing:
            raise HarnessError(f"columns not in rows: {missing}")
        return list(columns)
    cols: List[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return cols


def render_markdown(
    rows: Sequence[Row],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as a GitHub-flavored markdown table."""
    cols = _columns(rows, columns)
    lines: List[str] = []
    if title:
        lines.append(f"### {title}")
        lines.append("")
    lines.append("| " + " | ".join(cols) + " |")
    lines.append("| " + " | ".join("---" for _ in cols) + " |")
    for row in rows:
        cells = [format_value(row.get(c)) for c in cols]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def write_csv(
    path: str | Path,
    rows: Sequence[Row],
    columns: Optional[Sequence[str]] = None,
) -> Path:
    """Write rows to CSV, creating parent directories.

    Returns:
        The resolved output path.
    """
    cols = _columns(rows, columns)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: row.get(c) for c in cols})
    return out

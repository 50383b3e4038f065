"""Plain-text rendering of evaluation tables and figure sweeps."""

from __future__ import annotations

from collections.abc import Sequence

from repro.eval.figures import SweepPoint


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None, title: str = "") -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)\n" if title else "(no rows)\n"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {col: max(len(str(col)), max(len(_fmt(row.get(col))) for row in rows)) for col in columns}
    lines: list[str] = []
    if title:
        lines.append(title)
    header = " | ".join(str(col).ljust(widths[col]) for col in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[col] for col in columns))
    for row in rows:
        lines.append(" | ".join(_fmt(row.get(col)).ljust(widths[col]) for col in columns))
    return "\n".join(lines) + "\n"


def format_sweep(
    points: Sequence[SweepPoint], title: str = "", columns: Sequence[str] | None = None
) -> str:
    """Render a figure sweep as an aligned text table grouped by series.

    ``columns`` selects and orders the rendered columns (default: all of
    them, wall-clock ``compile_s`` included).
    """
    rows = [
        {
            "series": point.series,
            "x": point.x,
            "cycles": round(point.cycles, 1),
            "compile_s": round(point.compile_seconds, 4),
            **{k: _round(v) for k, v in point.extra.items()},
        }
        for point in points
    ]
    return format_table(rows, columns=columns, title=title)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _round(value):
    if isinstance(value, float):
        return round(value, 3)
    return value

"""Plain-text and markdown table rendering for experiment results."""

from __future__ import annotations

from typing import Any, Sequence

Row = Sequence[Any]


def _stringify(value: Any) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Row, rows: Sequence[Row], title: str | None = None) -> str:
    """Fixed-width aligned table for terminal output."""
    cells = [[_stringify(h) for h in headers]] + [[_stringify(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(c.ljust(w) for c, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_curve(
    points: Sequence[tuple[float, float]],
    width: int = 70,
    height: int = 14,
    label: str = "",
) -> str:
    """Tiny ASCII plot of (x, y) series — accuracy curves in the terminal."""
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
        grid[height - 1 - row][col] = "*"
    lines = [f"{label} (y: {y_lo:.3f}..{y_hi:.3f}, x: {x_lo:.0f}..{x_hi:.0f})"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    return "\n".join(lines)

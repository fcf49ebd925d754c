"""Plain-text rendering of result tables, series, and heatmaps.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output aligned and readable in CI
logs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: A heatmap cell's format, and the text of an empty (NaN) cell, which is
#: as wide as a formatted one.
HEATMAP_CELL_FORMAT = "{:6.3f}"
HEATMAP_NAN_TEXT = "   .  "


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str | None = None) -> str:
    """Fixed-width ASCII table."""
    columns = [list(col) for col in zip(headers, *rows)]
    widths = [max(len(str(cell)) for cell in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(label: str, xs: Sequence, ys: Sequence[float],
                  y_format: str = "{:.4f}") -> str:
    """One labelled series as ``label: x=y`` pairs (a figure's data line)."""
    pairs = ", ".join(f"{x}={y_format.format(y)}" for x, y in zip(xs, ys))
    return f"{label}: {pairs}"


def format_heatmap(matrix: np.ndarray, title: str = "") -> str:
    """Lower-triangular matrix as aligned text (the Fig. 4 heatmaps)."""
    lines = [title] if title else []
    for row in np.asarray(matrix):
        cells = [HEATMAP_NAN_TEXT if np.isnan(v) else HEATMAP_CELL_FORMAT.format(v)
                 for v in row]
        lines.append(" ".join(cells))
    return "\n".join(lines)

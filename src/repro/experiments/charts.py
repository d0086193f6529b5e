"""ASCII chart rendering for figure reports.

The tables in each figure module are the canonical machine-readable
output; Fig 1's scatter plot is also drawn as a character grid for a
visual impression in a terminal or CI log.
"""

from __future__ import annotations

from typing import Dict, Tuple


def scatter_plot(
    points: Dict[str, Tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    size: int = 20,
    title: str = "",
) -> str:
    """A character-grid scatter plot over [0, 1] x [0, 1] (Fig 1's axes).

    Each point is drawn with the first letter of its label; a legend maps
    letters back to names.
    """
    grid = [[" "] * (size + 1) for _ in range(size + 1)]
    legend = []
    for label, (x, y) in points.items():
        column = min(size, max(0, int(round(x * size))))
        row = min(size, max(0, int(round((1.0 - y) * size))))
        marker = label[0].upper()
        grid[row][column] = marker
        legend.append(f"{marker}={label}")
    rows = [title] if title else []
    rows.append(f"^ {y_label}")
    for row in grid:
        rows.append("|" + "".join(row))
    rows.append("+" + "-" * (size + 1) + f"> {x_label}")
    rows.append("  " + "  ".join(legend))
    return "\n".join(rows)

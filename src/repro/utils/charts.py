"""ASCII line plots for benchmark output.

The benchmarks print the same series the paper's figures plot;
:func:`line_plot` renders them in plain text, so
`benchmarks/output/*.txt` can be eyeballed against the paper without a
plotting stack.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


def line_plot(
    x: Sequence[float],
    series: Dict[str, Sequence[float]],
    *,
    width: int = 60,
    height: int = 16,
    title: Optional[str] = None,
) -> str:
    """Multi-series ASCII line plot (markers a, b, c, ... per series).

    All series share the x grid; y is auto-scaled over all series.

    Raises
    ------
    ValueError
        On empty input or series/x length mismatch.
    """
    if not x or not series:
        raise ValueError("need x values and at least one series")
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(
                f"series {name!r} has {len(ys)} points, x has {len(x)}"
            )
    all_y = [y for ys in series.values() for y in ys]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(x), max(x)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    markers = "abcdefghij"
    for k, (name, ys) in enumerate(series.items()):
        m = markers[k % len(markers)]
        for xi, yi in zip(x, ys):
            col = int(round((xi - x_lo) / (x_hi - x_lo) * (width - 1)))
            row = int(
                round((yi - y_lo) / (y_hi - y_lo) * (height - 1))
            )
            grid[height - 1 - row][col] = m

    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: {y_lo:.2f} .. {y_hi:.2f}")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"x: {x_lo:g} .. {x_hi:g}")
    legend = "   ".join(
        f"{markers[k % len(markers)]}={name}"
        for k, name in enumerate(series)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


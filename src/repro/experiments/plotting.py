"""Output helpers: CSV rows and ASCII charts (no plotting dependency)."""

from __future__ import annotations

import csv
import os

import numpy as np


def write_csv(path: str, rows: list[dict]) -> None:
    """Write dict rows to CSV, creating parent directories."""
    if not rows:
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def ascii_series(
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    width: int = 64,
    height: int = 16,
    logx: bool = False,
    logy: bool = False,
    title: str = "",
) -> str:
    """Render named (x, y) series as an ASCII scatter chart.

    Each series gets a marker character; used for the log-log scaling
    figures and the correctness time series.
    """
    markers = "ox+*#@%&"
    xs_all = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    fx = (lambda v: np.log10(np.maximum(v, 1e-12))) if logx else (lambda v: v)
    fy = (lambda v: np.log10(np.maximum(v, 1e-12))) if logy else (lambda v: v)
    x_lo, x_hi = fx(xs_all).min(), fx(xs_all).max()
    y_lo, y_hi = fy(ys_all).min(), fy(ys_all).max()
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (name, (x, y)), marker in zip(series.items(), markers):
        for xv, yv in zip(np.asarray(x, float), np.asarray(y, float)):
            col = int((fx(np.array(xv)) - x_lo) / x_span * (width - 1))
            row = int((fy(np.array(yv)) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = []
    if title:
        lines.append(title)
    top = 10**y_hi if logy else y_hi
    bottom = 10**y_lo if logy else y_lo
    lines.append(f"{_fmt(top):>10} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 10 + " |" + "".join(row) + "|")
    lines.append(f"{_fmt(bottom):>10} +" + "-" * width + "+")
    left = 10**x_lo if logx else x_lo
    right = 10**x_hi if logx else x_hi
    lines.append(" " * 12 + f"{_fmt(left)}" + " " * max(1, width - 16) + f"{_fmt(right)}")
    legend = "  ".join(
        f"{m}={name}" for (name, _), m in zip(series.items(), markers)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.1e}"
    return f"{v:.3g}"


def hbar_chart(rows: list[tuple[str, dict[str, float]]], width: int = 50,
               title: str = "") -> str:
    """Stacked horizontal bars (the Fig 4 breakdown chart).

    ``rows`` is [(label, {segment_name: value})]; segments stack with
    distinct fill characters.
    """
    fills = "#=+*"
    total_max = max(sum(seg.values()) for _, seg in rows) or 1.0
    lines = []
    if title:
        lines.append(title)
    label_w = max(len(label) for label, _ in rows) + 1
    for label, segs in rows:
        bar = ""
        for (name, value), fill in zip(segs.items(), fills):
            bar += fill * int(round(value / total_max * width))
        lines.append(f"{label:>{label_w}} |{bar:<{width}}| "
                     f"{sum(segs.values()):.1f}s")
    seg_names = list(rows[0][1].keys())
    lines.append(
        " " * (label_w + 2)
        + "  ".join(f"{f}={n}" for n, f in zip(seg_names, fills))
    )
    return "\n".join(lines)

"""Self-contained SVG line plots, no plotting dependency.

Good enough for eyeballing runs: axes, ticks, polylines and a legend.
NaN samples split a polyline into segments (used for undefined stretches
of the time maps).  Output is deterministic text.

Polylines are drawn at screen resolution: each segment keeps, per run of
consecutive points in one pixel column, only the first, last, lowest and
highest point (M4, Jugel et al., PVLDB 7(10), 2014), which renders the
same pixels as the full series.  Axis ranges and ticks come from every
sample, and the CSVs written beside the plots keep every sample.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot"]

_PALETTE = ("#0a4570", "#af1a2e", "#055805", "#b06f00", "#5b2d8c", "#006d66")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 16, 34, 46
_BLOCK = 4096  # polyline points formatted at a time
_TICKS = 5  # about this many ticks per axis


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _points(cx: np.ndarray, cy: np.ndarray) -> str:
    """Polyline points 'x,y x,y ...' to two decimals, formatted a block at a time."""
    blocks = []
    for lo in range(0, cx.size, _BLOCK):
        flat = np.column_stack((cx[lo : lo + _BLOCK], cy[lo : lo + _BLOCK])).ravel().tolist()
        blocks.append(" ".join(["%.2f,%.2f"] * (len(flat) // 2)) % tuple(flat))
    return " ".join(blocks)


def _m4(cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the first, last, min-y and max-y point of each run of points in one pixel column.

    A run is a maximal stretch of consecutive points with equal floor(cx);
    min and max keep their first occurrence.  The kept points stay in
    series order, each once.
    """
    col = np.floor(cx)
    first = np.concatenate(([True], col[1:] != col[:-1]))
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    keep = first | np.append(first[1:], True)  # the first and the last point of each run
    for extreme in (np.minimum.reduceat(cy, starts), np.maximum.reduceat(cy, starts)):
        hits = np.flatnonzero(cy == extreme[run])
        keep[hits[np.diff(run[hits], prepend=-1) != 0]] = True  # first hit of each run
    return cx[keep], cy[keep]


def line_plot(
    path,
    series: list[tuple[np.ndarray, np.ndarray, str]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write an SVG with one polyline per (x, y, label) series."""
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    xs = xs[np.isfinite(xs)]
    ys = ys[np.isfinite(ys)]
    if xs.size == 0 or ys.size == 0:
        raise ValueError("nothing finite to plot")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    # elementwise on arrays in the same operation order, so scalars and arrays agree bit for bit
    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for tx in _nice_ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" '
            'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _nice_ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
            'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>'
        )
    for idx, (sx, sy, label) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        sx = np.asarray(sx, dtype=float)
        sy = np.asarray(sy, dtype=float)
        cx, cy = px(sx), py(sy)
        # one polyline per run of at least two finite points between non-finite ones
        cuts = [-1, *np.flatnonzero(~(np.isfinite(sx) & np.isfinite(sy))).tolist(), sx.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo > 2:
                parts.append(
                    f'<polyline points="{_points(*_m4(cx[lo + 1 : hi], cy[lo + 1 : hi]))}" '
                    f'fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        ly = _MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 122}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 116}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")

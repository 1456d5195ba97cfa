"""Self-contained SVG line plots, no plotting dependency.

Good enough for eyeballing runs: axes, ticks, polylines and a legend.
NaN samples split a polyline into segments (used for undefined stretches
of the time maps).  Output is deterministic text.

Polylines are drawn at screen resolution: each segment keeps, per run of
consecutive points in one pixel column, only the first, last, lowest and
highest point (M4, Jugel et al., PVLDB 7(10), 2014), which renders the
same pixels as the full series.  Axis ranges and ticks come from every
sample, and the CSVs written beside the plots keep every sample.

Every polyline of a plot is formatted in one whole-array pass, which
writes what ``'%.2f' % v`` writes.  The precondition is the canvas: a
screen coordinate v lies in [32, 1024) (x in [64, 704], y in [34, 434],
by construction of the screen maps).  v >= 2**5 puts its last bit at
2**-47 or above and v < 2**10 bounds it, so I = v * 2**47 is an exact
integer below 2**57, and v * 100 is exactly I * 25 / 2**45.  Its
hundredths rounded half to even, as ``%`` rounds, are (I * 25 + 2**44 - 1
+ q % 2) >> 45 with q = (I * 25) >> 45, all in int64.  The text is then
gathered from two word tables, the four-digit whole parts and the '.dd'
tails with their separator, with the whole part's leading zeros masked
out.  Only a NaN falls outside the canvas, when an axis span passes the
float range; such a plot is formatted by ``%``, which writes 'nan'.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .floatrepr import _u32

__all__ = ["line_plot"]

_PALETTE = ("#0a4570", "#af1a2e", "#055805", "#b06f00", "#5b2d8c", "#006d66")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 64, 16, 34, 46
_BLOCK = 4096  # polyline points formatted at a time by `%`, off the canvas
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


def _span(arrays: list[np.ndarray]) -> tuple[float, float]:
    """The least and the greatest finite value of the arrays; (inf, -inf) if none is finite."""
    finite = [np.isfinite(a) for a in arrays]
    return (min(float(np.min(a, where=f, initial=np.inf)) for a, f in zip(arrays, finite)),
            max(float(np.max(a, where=f, initial=-np.inf)) for a, f in zip(arrays, finite)))


def _fmt(v: float) -> str:
    return f"{v:.6g}"


@cache
def _words():
    """The whole parts '0000' .. '1024' and the tails '.00,' .. '.99,', '.00 ' .. '.99 ',
    each as one 4-byte word, built at first use."""
    wholes = _u32("".join(f"{i:04d}" for i in range(1025)).encode())
    tails = _u32("".join(f".{i:02d}{sep}" for sep in ", " for i in range(100)).encode())
    return wholes, tails


def _texts(polylines: list[tuple[np.ndarray, np.ndarray]]) -> list[str]:
    """The points 'x,y x,y ...' of each (cx, cy) polyline, each coordinate as
    '%.2f' writes it, formatted for all polylines in one pass."""
    if not polylines:
        return []
    xy = np.column_stack([np.concatenate(c) for c in zip(*polylines)])
    bounds = np.cumsum([0] + [cx.size for cx, _ in polylines])
    if not ((xy >= 32.0) & (xy < 1024.0)).all():
        # only a NaN leaves the canvas, written 'nan' by `%`, _BLOCK points at a time
        return [" ".join(" ".join(["%.2f,%.2f"] * len(b)) % tuple(b.ravel().tolist())
                         for b in np.split(xy[lo:hi], range(_BLOCK, hi - lo, _BLOCK)))
                for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    wholes, tails = _words()
    scaled = (xy * 2.0**47).astype(np.int64) * 25
    hundredths = (scaled + ((scaled >> 45) & 1) + (2**44 - 1)) >> 45
    whole, frac = np.divmod(hundredths, 100)
    words = np.empty(xy.shape + (2,), dtype=np.uint32)
    words[..., 0] = wholes[whole]
    words[..., 1] = tails[frac + [0, 100]]  # x ends in ',', y in ' '
    zeros = np.add(whole < 100, whole < 1000, dtype=np.int8)  # the whole part's leading '0's
    text = words.view(np.uint8)[np.arange(8) >= zeros[..., None]].tobytes().decode("ascii")
    # each polyline's text ends before the separator after its last y
    ends = np.cumsum(16 - zeros.sum(axis=1))[bounds[1:] - 1].tolist()
    return [text[lo : hi - 1] for lo, hi in zip([0, *ends[:-1]], ends)]


def _m4(cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the first, last, min-y and max-y point of each run of points in one pixel column.

    A run is a maximal stretch of consecutive points with equal floor(cx);
    min and max keep their first occurrence, and a run whose extreme is
    NaN keeps only its ends.  The kept points stay in series order, each once.
    """
    col = np.floor(cx)
    first = np.concatenate(([True], col[1:] != col[:-1]))
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], cx.size)
    keep = first | np.append(first[1:], True)  # the first and the last point of each run
    for extreme in (np.minimum.reduceat(cy, starts), np.maximum.reduceat(cy, starts)):
        hits = np.flatnonzero(cy == np.repeat(extreme, ends - starts))
        # each run's first hit, unless the next hit at or after its start lies in a later run
        hit = np.append(hits, cx.size)[np.searchsorted(hits, starts)]
        keep[hit[hit < ends]] = True
    return cx[keep], cy[keep]


def line_plot(
    path,
    series: list[tuple[np.ndarray, np.ndarray, str]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write an SVG with one polyline per (x, y, label) series."""
    series = [(np.asarray(sx, dtype=float), np.asarray(sy, dtype=float), label)
              for sx, sy, label in series]
    x_lo, x_hi = _span([sx for sx, _, _ in series])
    y_lo, y_hi = _span([sy for _, sy, _ in series])
    if x_lo > x_hi or y_lo > y_hi:
        raise ValueError("nothing finite to plot")
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
    # each polyline's points, and the index in parts of its element, which holds
    # its color until every polyline of the plot is formatted
    polylines, slots = [], []
    for idx, (sx, sy, label) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        with np.errstate(invalid="ignore"):  # a span past the float range: inf/inf, 'nan'
            cx, cy = px(sx), py(sy)
        # one polyline per run of at least two finite points between non-finite ones
        cuts = [-1, *np.flatnonzero(~(np.isfinite(sx) & np.isfinite(sy))).tolist(), sx.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo > 2:
                polylines.append(_m4(cx[lo + 1 : hi], cy[lo + 1 : hi]))
                slots.append(len(parts))
                parts.append(color)
        ly = _MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 122}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 116}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    for at, text in zip(slots, _texts(polylines)):
        parts[at] = (f'<polyline points="{text}" fill="none" stroke="{parts[at]}" '
                     'stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")

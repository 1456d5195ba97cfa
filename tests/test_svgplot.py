import math

import numpy as np
import pytest

from qcascade.svgplot import (
    _BLOCK, _H, _MB, _ML, _MR, _MT, _PALETTE, _W, _fmt, _nice_ticks, line_plot,
)


def reference_line_plot(path, series, title="", xlabel="", ylabel=""):
    """The writer as it was with one Python-level step per point, kept as the byte reference."""
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

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
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
        good = np.isfinite(sx) & np.isfinite(sy)
        segment: list[str] = []
        for ok, x, y in zip(good, sx, sy):
            if ok:
                segment.append(f"{px(x):.2f},{py(y):.2f}")
            elif segment:
                if len(segment) > 1:
                    parts.append(
                        f'<polyline points="{" ".join(segment)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>'
                    )
                segment = []
        if len(segment) > 1:
            parts.append(
                f'<polyline points="{" ".join(segment)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
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


def _with_nan(y, *idx):
    y = np.array(y, dtype=float)
    y[list(idx)] = np.nan
    return y


_T = np.linspace(-1.5, 7.25, 41)
_Y = np.exp(-_T / 3.0) * np.cos(2.0 * _T)
_LONG = np.arange(2 * _BLOCK + 7.0)
CASES = {
    "finite": [(_T, _Y, "a"), (_T, -2.0 * _Y, "b")],
    "leading_trailing_interior_gaps": [(_T, _with_nan(_Y, 0, 1, 2, 17, 18, 30, 39, 40), "gaps")],
    "isolated_point": [(_T, _with_nan(_Y, 9, 11, 20, 22), "single"), (_T, _Y, "full")],
    "nonfinite_x_and_inf": [(_with_nan(_T, 5), np.where(_T > 6.0, np.inf, _Y), "inf")],
    "all_but_one_gap": [(_T, _with_nan(_Y, *range(1, 41)), "lone"), (_T, _Y, "full")],
    "longer_than_block": [(_LONG, _with_nan(np.sin(_LONG / 50.0), 100, _BLOCK), "long")],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_line_plot_matches_per_point_reference(tmp_path, case):
    series = CASES[case]
    line_plot(tmp_path / "new.svg", series, title="t", xlabel="x", ylabel="y")
    reference_line_plot(tmp_path / "ref.svg", series, title="t", xlabel="x", ylabel="y")
    new = (tmp_path / "new.svg").read_bytes()
    assert new == (tmp_path / "ref.svg").read_bytes()
    assert b"<polyline" in new


def test_line_plot_segment_count(tmp_path):
    # runs of >= 2 finite points become polylines; a lone finite point draws nothing
    line_plot(tmp_path / "p.svg", CASES["leading_trailing_interior_gaps"])
    assert (tmp_path / "p.svg").read_text().count("<polyline") == 3
    line_plot(tmp_path / "q.svg", CASES["all_but_one_gap"][:1] + [(_T[:2], _Y[:2], "pair")])
    assert (tmp_path / "q.svg").read_text().count("<polyline") == 1


def test_line_plot_block_boundary_is_seamless(tmp_path):
    n = _BLOCK + 1
    x = np.arange(float(n))
    line_plot(tmp_path / "b.svg", [(x, x, "ramp")])
    (points,) = [ln for ln in (tmp_path / "b.svg").read_text().splitlines() if "<polyline" in ln]
    coords = points.split('points="')[1].split('"')[0].split(" ")
    assert len(coords) == n and all(c.count(",") == 1 for c in coords)
    assert math.isclose(float(coords[-1].split(",")[0]), _W - _MR)


def test_line_plot_rejects_nothing_finite(tmp_path):
    with pytest.raises(ValueError, match="nothing finite"):
        line_plot(tmp_path / "n.svg", [(_T, np.full(_T.shape, np.nan), "nan")])

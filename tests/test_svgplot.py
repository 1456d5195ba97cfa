import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcascade import cli
from qcascade.svgplot import (
    _BLOCK, _H, _MB, _ML, _MR, _MT, _PALETTE, _W, _fmt, _nice_ticks, _texts, line_plot,
)


def reference_m4(points):
    """Per point: in each run of consecutive points in one pixel column keep the
    first, the last and the first lowest and highest y, in series order."""
    keep = set()
    for i, (x, y) in enumerate(points):
        if i == 0 or math.floor(x) != math.floor(points[i - 1][0]):
            if i:
                keep.update((i - 1, lo, hi))
            keep.add(i)
            lo = hi = i
        if y < points[lo][1]:
            lo = i
        if y > points[hi][1]:
            hi = i
    keep.update((len(points) - 1, lo, hi))
    return [points[i] for i in sorted(keep)]


def reference_axes(series):
    """Screen maps px, py of the reference writer, from every finite sample."""
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

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    return px, py, (x_lo, x_hi, y_lo, y_hi)


def reference_line_plot(path, series, title="", xlabel="", ylabel=""):
    """The writer as it was with one Python-level step per point, kept as the byte
    reference, drawing each segment reduced by reference_m4."""
    px, py, (x_lo, x_hi, y_lo, y_hi) = reference_axes(series)
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
        segments, segment = [], []
        for ok, x, y in zip(good, sx, sy):
            if ok:
                segment.append((px(x), py(y)))
            elif segment:
                segments.append(segment)
                segment = []
        for seg in [*segments, segment]:
            if len(seg) > 1:
                points = " ".join(f"{x:.2f},{y:.2f}" for x, y in reference_m4(seg))
                parts.append(
                    f'<polyline points="{points}" fill="none" '
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
_RNG = np.random.default_rng(20261018)
_NOISY_X = np.linspace(0.0, 3.0, 20001)
_WALK = np.cumsum(_RNG.standard_normal(4000))
CASES = {
    "finite": [(_T, _Y, "a"), (_T, -2.0 * _Y, "b")],
    "leading_trailing_interior_gaps": [(_T, _with_nan(_Y, 0, 1, 2, 17, 18, 30, 39, 40), "gaps")],
    "isolated_point": [(_T, _with_nan(_Y, 9, 11, 20, 22), "single"), (_T, _Y, "full")],
    "nonfinite_x_and_inf": [(_with_nan(_T, 5), np.where(_T > 6.0, np.inf, _Y), "inf")],
    "all_but_one_gap": [(_T, _with_nan(_Y, *range(1, 41)), "lone"), (_T, _Y, "full")],
    "longer_than_block": [(_LONG, _with_nan(np.sin(_LONG / 50.0), 100, _BLOCK), "long")],
    "noisy_with_gaps": [(
        _NOISY_X,
        _with_nan(np.sin(3 * _NOISY_X) + 0.3 * _RNG.standard_normal(_NOISY_X.size), 0, 5000, 5001),
        "noisy",
    )],
    # non-monotone x revisits columns; y on a coarse grid ties min and max within a column
    "nonmonotone_x_with_ties": [(_WALK, np.round(np.cos(_WALK), 1), "walk")],
    # every y equal, as lindblad's P1 and P2 from |gg> at beta = 0: the y range is widened to 1
    "flat_range": [(_T, np.zeros_like(_T), "P1"), (_T, np.zeros_like(_T), "P2")],
    # y spans +-1e308, so the padded y span overflows and every screen y is NaN,
    # written 'nan' by `%`; x alternates between the plot edges, so every point
    # is kept and the text crosses two of its blocks
    "y_span_past_the_float_range": [(
        ((np.arange(2 * _BLOCK + 7) + 1) % 2).astype(float),
        1e308 * np.cos(np.arange(2 * _BLOCK + 7.0)),
        "huge",
    )],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_line_plot_matches_per_point_reference(tmp_path, case):
    series = CASES[case]
    # line_plot warns about nothing, not even when a span passes the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line_plot(tmp_path / "new.svg", series, title="t", xlabel="x", ylabel="y")
    # the overflowed y span of y_span_past_the_float_range divides inf by inf in the reference
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "invalid value encountered", RuntimeWarning)
        reference_line_plot(tmp_path / "ref.svg", series, title="t", xlabel="x", ylabel="y")
    new = (tmp_path / "new.svg").read_bytes()
    assert new == (tmp_path / "ref.svg").read_bytes()
    assert b"<polyline" in new


def test_line_plot_x_span_past_the_float_range(tmp_path):
    # x spans +-1e308, so x_hi - x_lo overflows: the x span becomes (-inf, inf),
    # as the y pad widens y, every screen x is NaN, written 'nan', and y is drawn
    x = np.array([-1e308, 0.0, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        line_plot(tmp_path / "x.svg", [(x, np.array([0.0, 1.0, 0.5]), "wide")])
    (points,) = re.findall(r'<polyline points="([^"]*)"', (tmp_path / "x.svg").read_text())
    xs, ys = zip(*(p.split(",") for p in points.split(" ")))
    assert xs == ("nan",) * 3
    assert all(math.isfinite(float(v)) for v in ys)


def test_line_plot_segment_count(tmp_path):
    # runs of >= 2 finite points become polylines; a lone finite point draws nothing
    line_plot(tmp_path / "p.svg", CASES["leading_trailing_interior_gaps"])
    assert (tmp_path / "p.svg").read_text().count("<polyline") == 3
    line_plot(tmp_path / "q.svg", CASES["all_but_one_gap"][:1] + [(_T[:2], _Y[:2], "pair")])
    assert (tmp_path / "q.svg").read_text().count("<polyline") == 1


def test_line_plot_block_boundary_is_seamless(tmp_path):
    # x alternates between the plot edges, so every pixel-column run is one
    # point and all n points reach the block formatter
    n = _BLOCK + 1
    x = ((np.arange(n) + 1) % 2).astype(float)
    line_plot(tmp_path / "b.svg", [(x, np.arange(float(n)), "zigzag")])
    (points,) = [ln for ln in (tmp_path / "b.svg").read_text().splitlines() if "<polyline" in ln]
    coords = points.split('points="')[1].split('"')[0].split(" ")
    assert len(coords) == n and all(c.count(",") == 1 for c in coords)
    assert math.isclose(float(coords[-1].split(",")[0]), _W - _MR)


def canvas_sample(rng, n):
    """Screen coordinates the one-pass formatter takes: uniform in [32, 1024),
    uniform over the bit patterns there, every exact hundredths tie k/8 (k odd)
    with both its float neighbours, and the canvas ends."""
    lo, hi = np.array([32.0, 1024.0]).view(np.int64)
    ties = np.arange(32 * 8 + 1, 1024 * 8, 2) / 8.0
    return np.concatenate([
        rng.uniform(32.0, 1024.0, n),
        rng.integers(lo, hi, n).view(np.float64),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        [32.0, np.nextafter(1024.0, 0.0)],
    ])


def test_one_pass_formatter_writes_what_percent_writes():
    rng = np.random.default_rng(20261021)
    values = canvas_sample(rng, 20_000)
    values = values[: values.size // 2 * 2]
    # polylines of 1, 2, 997 and the remaining points
    sizes = np.array([1, 2, 997])
    cuts = np.cumsum(sizes) * 2
    polylines = [(v[0::2], v[1::2]) for v in np.split(values, cuts)]
    texts = _texts(polylines)
    assert len(texts) == len(polylines)
    for text, (cx, cy) in zip(texts, polylines):
        assert text == " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(cx.tolist(), cy.tolist()))
    assert _texts([(np.array([32.0]), np.array([np.nextafter(1024.0, 0.0)]))]) == ["32.00,1024.00"]


M4_BOUND = 4 * (_W - _ML - _MR + 1)  # four points in each of the 641 columns a monotone x can reach


def drawn_polylines(svg_text, color=None):
    """Points of each polyline, optionally of one stroke color, as (n, 2) arrays."""
    found = []
    for line in svg_text.splitlines():
        if "<polyline" in line and (color is None or f'stroke="{color}"' in line):
            pairs = line.split('points="')[1].split('"')[0].split(" ")
            found.append(np.array([p.split(",") for p in pairs], dtype=float))
    return found


def _two_decimals(values):
    return np.array([float(f"{v:.2f}") for v in values])


def _column_runs(x):
    """Start and stop index of each run of consecutive x in one pixel column."""
    col = np.floor(x)
    starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))
    return zip(starts, np.append(starts[1:], x.size))


def test_m4_keeps_each_columns_first_last_min_and_max(tmp_path):
    rng = np.random.default_rng(11)
    # integer x in [0, 2**14]: each screen x is an exact multiple of 1/128, so
    # its fraction stays <= 127/128 and the x written to two decimals keeps its column
    mono_x = np.arange(2.0**14 + 1)
    mono_y = _with_nan(np.sin(mono_x / 600.0) + 0.2 * rng.standard_normal(mono_x.size),
                       0, 4000, 4001, 9000)
    walk_x = np.abs(np.cumsum(rng.integers(-15, 16, 20000))) % (2**14 + 1.0)
    walk_y = _with_nan(np.cos(walk_x / 100.0) + 0.2 * rng.standard_normal(walk_x.size), 777, 12000)
    series = [(mono_x, mono_y, "monotone"), (walk_x, walk_y, "walk")]
    line_plot(tmp_path / "m4.svg", series)
    svg = (tmp_path / "m4.svg").read_text()
    px, py, _ = reference_axes(series)
    for idx, (sx, sy, _) in enumerate(series):
        drawn = drawn_polylines(svg, _PALETTE[idx])
        cuts = [-1, *np.flatnonzero(np.isnan(sy)), sy.size]
        full = [(px(sx[lo + 1 : hi]), py(sy[lo + 1 : hi])) for lo, hi in zip(cuts, cuts[1:])]
        full = [(cx, cy) for cx, cy in full if cx.size > 1]
        assert len(drawn) == len(full) == 3
        for kept, (cx, cy) in zip(drawn, full):
            assert np.all(cx - np.floor(cx) <= 127 / 128)
            fx, fy = _two_decimals(cx), _two_decimals(cy)
            runs = list(_column_runs(cx))
            kept_runs = list(_column_runs(kept[:, 0]))
            assert len(kept_runs) == len(runs)
            for (lo, hi), (klo, khi) in zip(runs, kept_runs):
                run = kept[klo:khi]
                assert tuple(run[0]) == (fx[lo], fy[lo])
                assert tuple(run[-1]) == (fx[hi - 1], fy[hi - 1])
                assert run[:, 1].min() == fy[lo:hi].min()
                assert run[:, 1].max() == fy[lo:hi].max()
    monotone = drawn_polylines(svg, _PALETTE[0])
    assert all(len(k) <= M4_BOUND for k in monotone)
    assert sum(map(len, monotone)) < mono_x.size // 4


def test_shipped_config_svgs_stay_within_the_m4_bound(tmp_path):
    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    for path in configs:
        assert cli.main(["--config", str(path), "--svg", "--out", str(tmp_path)]) == 0
    svgs = sorted(tmp_path.glob("*.svg"))
    assert len(svgs) == len(configs)
    for svg in svgs:
        drawn = drawn_polylines(svg.read_text())
        assert drawn and all(len(k) <= M4_BOUND for k in drawn), svg.name


def test_line_plot_rejects_nothing_finite(tmp_path):
    with pytest.raises(ValueError, match="nothing finite"):
        line_plot(tmp_path / "n.svg", [(_T, np.full(_T.shape, np.nan), "nan")])

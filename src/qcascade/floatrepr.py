"""Exact ``repr`` text for whole float64 arrays.

`repr_bytes` returns, for each value of a float64 array, the bytes of
``repr(float(v))``, with NaN as an empty field.

- **Digits.** The shortest digits that round-trip, and of those the
  closest to the value, ties to even: what ``repr`` writes.  They come
  from Schubfach (R. Giulietti, "The Schubfach way to render doubles",
  2020) in integer NumPy.  Each 128-bit power-of-ten significand is a
  pair of uint64 limbs, and the one 192-bit product per value is built
  from 32-bit halves; the two bounds of the rounding interval are that
  product plus or minus a shifted significand.
- **Layout.** Fixed notation when the decimal point position p (the
  value is 0.d1d2... * 10**p) satisfies -4 < p <= 16, with '.0' on
  integral values; otherwise d.ddde+XX, as ``repr`` does.  Each value's
  digits, exponent and sign characters go into one row, and its text is
  gathered from that row by a template chosen by (sign, notation,
  decimal point, digit count).
- **Repeats.** Each distinct bit pattern is formatted once and its row
  copied to every repeat; CSV columns repeat heavily (exact zeros, a
  time grid repeated per snapshot).

The power-of-ten table and the templates are built at first use, so
importing the module computes nothing.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["repr_bytes"]

_WIDTH = 24  # the longest text: '-', 17 digits, '.', 'e-' and 3 exponent digits

# decimal exponents e = -k of the significands: k spans floor(log10(v)) of every double
_E_MIN, _E_MAX = -292, 324
_M32 = np.uint64(0xFFFFFFFF)

# a value's source row, in bytes: 20 digits right-aligned (so at least three
# leading '0's), '.', '0', 'e', the exponent sign, the exponent as 4 digits
# (at most 324, so its first is '0'), '-', 'inf' and four NULs
_DOT, _ZERO, _E, _EXP_SIGN = range(20, 24)
_EXP_HUNDREDS, _EXP_TENS, _EXP_ONES = range(25, 28)
_MINUS, _INF, _NUL = 28, [29, 30, 31], 32
_ROW = 36
_GATHER = 4096  # values per gather, which bounds its index array to 768 KiB
# templates: (neg * 22 + form) * 17 + n - 1 for n digits, where form is p + 3 for
# fixed notation with decimal point p in -3..16, and 20 or 21 for an exponent of
# two or three digits; then ±0.0, ±inf and NaN at _SPECIAL + 2 * kind + neg
_SPECIAL = 2 * 22 * 17


def _u32(text: bytes) -> np.ndarray:
    # groups of 4 bytes as uint32 words that store those bytes in this order
    return np.frombuffer(text, dtype=np.uint32)


def _template(neg: int, form: int, n: int) -> list[int]:
    """Source-row byte positions of the text of a value with this sign, form and digit count."""
    digits = list(range(20 - n, 20))
    if form >= 20:
        body = digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
        body += [_E, _EXP_SIGN] + [_EXP_HUNDREDS] * (form - 20) + [_EXP_TENS, _EXP_ONES]
    elif (p := form - 3) <= 0:
        body = [_ZERO, _DOT] + [_ZERO] * -p + digits
    elif p < n:
        body = digits[:p] + [_DOT] + digits[p:]
    else:
        body = digits + [_ZERO] * (p - n) + [_DOT, _ZERO]
    return [_MINUS] * neg + body


@cache
def _tables():
    """(g_hi, g_lo, quads, pow10, templates, lengths), built at first use."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    g = []
    for ei, shift in zip(e.tolist(), (127 - ((e * 1741647) >> 19)).tolist()):
        if ei >= 0:
            v = 10**ei << shift if shift >= 0 else 10**ei >> -shift
        else:
            v = (1 << shift) // 10**-ei
        g.append(v + 1)  # floor(10**e * 2**(127 - floor(log2(10**e)))) + 1, in [2**127, 2**128)
    g_hi = np.array([v >> 64 for v in g], dtype=np.uint64)
    g_lo = np.array([v & (2**64 - 1) for v in g], dtype=np.uint64)
    quads = _u32("".join(f"{i:04d}" for i in range(10**4)).encode())
    pow10 = np.array([10**i for i in range(1, 18)], dtype=np.int64)
    bodies = [_template(neg, form, n) for neg in (0, 1) for form in range(22) for n in range(1, 18)]
    for kind in ([_ZERO, _DOT, _ZERO], _INF, []):
        bodies += [kind, [_MINUS] + kind] if kind else [kind, kind]
    templates = np.full((len(bodies), _WIDTH), _NUL, dtype=np.uint8)
    for row, body in zip(templates, bodies):
        row[: len(body)] = body
    lengths = np.array([len(b) for b in bodies], dtype=np.uint8)
    return g_hi, g_lo, quads, pow10, templates, lengths


def _mul64(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) words of the 128-bit products a * b of uint64 arrays, b = b1 << 32 | b0."""
    a0, a1 = a & _M32, a >> 32
    t = a0 * b0
    u = a1 * b0 + (t >> 32)
    v = a0 * b1 + (u & _M32)
    return a1 * b1 + (u >> 32) + (v >> 32), (v << 32) | (t & _M32)


def _shifted(g_hi: np.ndarray, g_lo: np.ndarray, s: np.ndarray):
    """The three words (high first) of g << s, for shifts s in 1..63."""
    return g_hi >> (64 - s), (g_hi << s) | (g_lo >> (64 - s)), g_lo << s


def _plus(w2, w1, w0, d2, d1, d0) -> np.ndarray:
    """Schubfach's round-to-odd of w + d: bits 128.. of the sum, odd if bits 64..127 exceed 1."""
    r1 = w1 + d1
    carry = r1 < w1
    r1_c = r1 + (w0 + d0 < w0)
    return (w2 + d2 + carry + (r1_c < r1)) | (r1_c > 1)


def _minus(w2, w1, w0, d2, d1, d0) -> np.ndarray:
    """Schubfach's round-to-odd of w - d, for d <= w."""
    l1 = w1 - d1
    borrow = w1 < d1
    l1_b = l1 - (w0 < d0)
    return (w2 - d2 - borrow - (l1_b > l1)) | (l1_b > 1)


def _scaled(c, h, closer, gh, gl):
    """(vbl, vb, vbr): g * (4c - 2 + closer, 4c, 4c + 2) << h, rounded to odd.

    One 192-bit product g * (4c << h), words w2 w1 w0; the bounds add or
    subtract g << (h + 1), or g << h on the lower side when it is closer.
    """
    cp = (c << 2) << h
    cp0, cp1 = cp & _M32, cp >> 32
    xh, w0 = _mul64(gl, cp0, cp1)
    yh, w1 = _mul64(gh, cp0, cp1)
    w1 += xh
    w2 = yh + (w1 < xh)
    return (_minus(w2, w1, w0, *_shifted(gh, gl, h + 1 - closer)), w2 | (w1 > 1),
            _plus(w2, w1, w0, *_shifted(gh, gl, h + 1)))


def _choose(vbl, vb, vbr, odd):
    """(d, shorter): Schubfach's pick, with one digit fewer where shorter.

    That is s // 10 or its successor if exactly one of them lies in the
    rounding interval, else s or s + 1 if exactly one does, else the
    closer of the two, ties to even; s = vb >> 2.
    """
    lower, upper = vbl + odd, vbr - odd
    s = vb >> 2
    sp = s // 10
    up_in = lower <= sp * 40
    wp_in = sp * 40 + 40 <= upper
    shorter = (s >= 10) & (up_in != wp_in)
    u_in = lower <= s << 2
    w_in = (s << 2) + 4 <= upper
    mid = (s << 2) + 2
    nearest = (vb > mid) | ((vb == mid) & (s & 1 == 1))
    return np.where(shorter, sp + wp_in, s + np.where(u_in != w_in, w_in, nearest)), shorter


def _digits(bits: np.ndarray, g_hi: np.ndarray, g_lo: np.ndarray):
    """(d, k): the shortest round-trip decimal d * 10**k of each double with these bits.

    The bits are those of finite, positive doubles, as uint64.
    """
    be = (bits >> 52).view(np.int64)
    bs = bits & (2**52 - 1)
    c = np.where(be != 0, bs | 2**52, bs)
    closer = (bs == 0) & (be > 1)  # the lower neighbour is half as far as the upper
    q = np.maximum(be, 1) - 1075
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2**q)), or of 3/4 * 2**q
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)  # in 1..4
    row = -k - _E_MIN
    d, shorter = _choose(*_scaled(c, h, closer, g_hi.take(row), g_lo.take(row)), c & 1)
    return d, k + shorter


def _source_rows(x, g_hi, g_lo, quads, pow10) -> tuple[np.ndarray, np.ndarray]:
    """(tid, src): each value's template and its source row, uint8 of shape (n, _ROW)."""
    bits = x.view(np.uint64)
    magnitude = bits & (2**63 - 1)
    special = (magnitude == 0) | (magnitude >= 0x7FF << 52)
    neg = (bits >> 63).view(np.int64)
    # the kernel sees 1.0 in place of ±0, ±inf and NaN, whose templates ignore it
    d, k = _digits(np.where(special, 0x3FF << 52, magnitude), g_hi, g_lo)
    d = d.view(np.int64)
    for p in (8, 4, 2, 1):  # strip trailing zeros: d < 10**17 has at most 15
        t = d // 10**p
        z = d == t * 10**p
        d = np.where(z, t, d)
        k += z * p
    n_digits = np.searchsorted(pow10, d, side="right") + 1
    point = k + n_digits  # x = 0.d1d2... * 10**point
    exp = point - 1
    mag = np.abs(exp)
    form = np.where((point > -4) & (point <= 16), point + 3, 20 + (mag >= 100))
    tid = (neg * 22 + form) * 17 + n_digits - 1
    if special.any():
        kind = (magnitude >= 0x7FF << 52).astype(np.intp) + (magnitude > 0x7FF << 52)
        tid = np.where(special, _SPECIAL + 2 * kind + neg, tid)
    # source rows as uint32 words: words 0..4 hold the 20 digits of d
    src = np.empty((x.size, _ROW // 4), dtype=np.uint32)
    hi8 = d // 10**8
    lo8 = d - hi8 * 10**8
    top = hi8 // 10**8
    mid8 = hi8 - top * 10**8
    src[:, 0] = quads.take(top)
    for w, chunk in ((1, mid8), (3, lo8)):
        q = chunk // 10**4
        src[:, w] = quads.take(q)
        src[:, w + 1] = quads.take(chunk - q * 10**4)
    src[:, 5] = np.where(exp < 0, _u32(b".0e-")[0], _u32(b".0e+")[0])
    src[:, 6] = quads.take(mag)
    src[:, 7] = _u32(b"-inf")[0]
    src[:, 8] = 0
    return tid, src.view(np.uint8)


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, inverse): the distinct uint64 values, ascending, and bits == values[inverse]."""
    order = np.argsort(bits, kind="stable")  # timsort: fast on the runs of a time grid
    ordered = bits.take(order)
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(bits.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def repr_bytes(x) -> tuple[np.ndarray, np.ndarray]:
    """(chars, lengths): row i, up to lengths[i], holds the bytes of repr(float(x[i])).

    x is a 1-D array of float64; NaN has length 0.  chars has dtype uint8
    and shape (len(x), w), where w <= 24 is the longest length; each
    row is NUL past its length.  Each distinct bit pattern is formatted
    once, since repr depends only on a value's bits; keying on bits
    rather than on float equality keeps +0.0 and -0.0 apart.
    """
    g_hi, g_lo, quads, pow10, templates, lengths = _tables()
    bits, inverse = _distinct(np.ascontiguousarray(x, dtype=np.float64).view(np.uint64))
    tid, src = _source_rows(bits.view(np.float64), g_hi, g_lo, quads, pow10)
    size = lengths.take(tid)
    width = int(size.max(initial=0))
    chars = np.empty((tid.size, width), dtype=np.uint8)
    flat = src.reshape(-1)
    for lo in range(0, tid.size, _GATHER):
        part = tid[lo : lo + _GATHER]
        idx = np.add(templates[:, :width].take(part, axis=0),
                     np.arange(lo * _ROW, (lo + part.size) * _ROW, _ROW)[:, None], dtype=np.intp)
        chars[lo : lo + part.size] = flat.take(idx)
    return chars.take(inverse, axis=0), size.take(inverse)

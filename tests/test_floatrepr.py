import math

import numpy as np
import pytest

from qcascade.floatrepr import repr_bytes


def _texts(x):
    chars, lengths = repr_bytes(x)
    assert chars.dtype == np.uint8 and chars.shape == (x.size, max(lengths, default=0))
    # NUL past each length
    assert not chars[np.arange(chars.shape[1]) >= lengths[:, None]].any()
    return [bytes(row[:n]).decode() for row, n in zip(chars, lengths.tolist())]


def assert_repr(values):
    x = np.asarray(values, dtype=np.float64)
    expected = ["" if v != v else repr(v) for v in x.tolist()]
    got = _texts(x)
    bad = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected) if g != e]
    assert not bad, bad[:10]


def _with_neighbours(values):
    x = np.asarray(values, dtype=np.float64)
    x = x[np.isfinite(x)]
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return np.concatenate([x, -x])


def test_subnormals_and_extremes():
    tiny, smallest_normal, largest = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308
    subnormals = np.random.default_rng(3).integers(1, 2**52, 2000, dtype=np.uint64)
    assert_repr(_with_neighbours([tiny, 2 * tiny, 2.5e-310, smallest_normal, largest,
                                  *subnormals.view(np.float64)]))


def test_powers_of_two_and_ten_and_their_neighbours():
    # every binary exponent, at the significand where the lower neighbour is closer
    twos = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    assert_repr(_with_neighbours(twos + tens))


def test_notation_switch_points():
    # fixed notation for 1e-4 <= |x| < 1e16, else d.ddde+XX
    edges = [1e16, 9999999999999998.0, 1e15 + 0.5, 1e-4, 9.999999999999999e-05, 0.001, 1e-5]
    assert_repr(_with_neighbours(edges))


def _significant_digits(v):
    return len(repr(v).split("e")[0].lstrip("-").replace(".", "").strip("0"))


def test_every_digit_count():
    digits = "12345678901234567"
    values = []
    for n in range(1, 18):
        for exp in range(-25, 25):
            values.append(float(f"{digits[:n]}e{exp}"))
            values.append(float(f"0.{'3' * n}e{exp}"))
    assert {_significant_digits(v) for v in values} == set(range(1, 18))
    assert_repr(_with_neighbours(values))


@pytest.mark.parametrize("t0, dt", [(0.0, 1e-3), (-3.0, 0.01), (12.5, 5e-4), (0.0, 1e-3 / 3)])
def test_time_grids(t0, dt):
    assert_repr(t0 + dt * np.arange(20_000))


def test_zeros_infinities_and_nan():
    x = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -2.5])
    assert _texts(x) == ["0.0", "-0.0", "inf", "-inf", "", "", "1.0", "-2.5"]
    assert _texts(np.array([math.nan])) == [""]
    assert _texts(np.zeros(0)) == []


def test_random_bit_patterns():
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**5, dtype=np.uint64,
                                                    endpoint=False)
    assert_repr(bits.view(np.float64))


def test_strided_input():
    x = np.random.default_rng(7).standard_normal((500, 3))
    assert_repr(x[:, 1])


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def test_repeated_values():
    # each distinct bit pattern is formatted once and copied to its repeats, so the
    # pool holds values that compare equal with different bits, and NaN payloads
    pool = [0.0, -0.0, _nan(0x7FF8000000000000), _nan(0x7FF0000000000001),
            _nan(0xFFF8000000000123), math.inf, -math.inf, 5e-324, -2.5e-310,
            1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
            *(0.3 + 1e-3 * np.arange(50)).tolist()]
    rng = np.random.default_rng(11)
    x = rng.choice(np.array(pool), 20_000, replace=True)
    rng.shuffle(x)
    assert {v.tobytes() for v in x} == {np.float64(v).tobytes() for v in pool}
    assert_repr(x)
    assert_repr(x[::3])  # a strided view
    assert_repr(np.full(1000, -0.0))
    assert_repr(np.full(1000, 0.1))
    assert_repr([1e16])
    assert_repr([])
    assert _texts(np.array([0.0, -0.0] * 3)) == ["0.0", "-0.0"] * 3

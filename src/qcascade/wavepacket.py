"""Sampled wave packets and the reversing transformation between the systems.

A device at position X along the channel applies a unitary map that time
reverses the packet, stretches it by alpha and shifts it to omega0.  In
frequency space

    out(nu) = sqrt(alpha) * in(-alpha (nu - omega0)) * exp(i nu T),

and the equivalent time-domain form on the production window is

    out(t) = (1/sqrt(alpha)) * exp(-i omega0 (t - T)) * in((T - t)/alpha).

The timing parameter T fixes when production starts, t_s = T/(1+alpha);
the device integrates over a window Delta, so processing runs on
[t_i, t_s) with t_i = t_s - Delta and production on [t_s, t_f) with
t_f = t_s + alpha Delta.  TransformSpec holds the parameters and derives
these instants, so one object is the whole device geometry.  Choosing
alpha = gamma1/gamma2 and omega0 = omega2 + omega1/alpha turns the packet
emitted by system 1 into the time-reversed packet system 2 would emit,
which is what system 2 absorbs best.  Times go in as arrays and values
come out as arrays shaped like them, NaN where a time map is undefined.
Every experiment runs the time-domain form; the frequency-space route is
kept with the tests as their reference (tests/oracles.py).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cascade import _SLICE

__all__ = [
    "Envelope",
    "TransformSpec",
    "PhaseTag",
    "derive_transform_params",
    "matched_timing",
    "apply_u_time_domain",
    "assemble_piecewise_field",
    "time_map",
    "time_map_inverse",
    "time_map_slope",
    "time_map_inverse_slope",
    "gap_geometry",
]


@dataclass(eq=False)
class Envelope:
    """Uniformly sampled complex amplitude in time.

    t0 is the first sample time, dt the spacing (> 0).  Amplitudes for
    photon-flux envelopes carry units of sqrt(1/time).  n_zero_filled
    counts samples that a transformation had to zero-fill because the
    source did not cover their preimage.
    """

    t0: float
    dt: float
    samples: np.ndarray
    n_zero_filled: int = 0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("envelope needs at least two samples on a 1-d grid")
        if not self.dt > 0.0:
            raise ValueError("envelope sample spacing dt must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("envelope samples must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.samples.size - 1)

    def squared_norm(self) -> float:
        """Sum |a|^2 dt over the samples."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.dt)

    def interp(self, t) -> np.ndarray:
        """Cubic (4-point Lagrange) interpolation, shaped like t; zero outside the support.
        Evaluated _SLICE points a pass into one output: no temporary is longer."""
        samples, n = self.samples, self.samples.size
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        flat_t, flat_out = t.reshape(-1), out.reshape(-1)
        for lo in range(0, flat_t.size, _SLICE):
            pos = (flat_t[lo : lo + _SLICE] - self.t0) / self.dt
            inside = (pos >= -1e-9) & (pos <= (n - 1) + 1e-9)
            if not np.any(inside):
                continue
            p = np.clip(pos[inside], 0.0, float(n - 1))
            rows = flat_out[lo : lo + _SLICE]
            if n < 4:
                i0 = np.clip(np.floor(p).astype(int), 0, n - 2)
                x = p - i0
                rows[inside] = (1.0 - x) * samples[i0] + x * samples[i0 + 1]
                continue
            base = np.clip(np.floor(p).astype(int) - 1, 0, n - 4)
            x = p - base
            w0 = -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0
            w1 = x * (x - 2.0) * (x - 3.0) / 2.0
            w2 = -x * (x - 1.0) * (x - 3.0) / 2.0
            w3 = x * (x - 1.0) * (x - 2.0) / 6.0
            rows[inside] = (w0 * samples[base] + w1 * samples[base + 1]
                            + w2 * samples[base + 2] + w3 * samples[base + 3])
        return out

    def shifted(self, offset: float) -> "Envelope":
        """The same samples, shared, with the time axis shifted by offset."""
        return Envelope(self.t0 + offset, self.dt, self.samples, self.n_zero_filled)

    def slice_window(self, lo: float, hi: float) -> "Envelope":
        """Sub-envelope of the samples with lo <= t <= hi (small tolerance)."""
        tol = 1e-9 * self.dt
        times = self.times
        idx = np.nonzero((times >= lo - tol) & (times <= hi + tol))[0]
        if idx.size < 2:
            raise ValueError(f"window [{lo}, {hi}] overlaps fewer than two samples")
        return Envelope(float(times[idx[0]]), self.dt, self.samples[idx[0] : idx[-1] + 1])


def _uniform_grid(grid, name: str) -> tuple[np.ndarray, float]:
    """(grid as a float array, its spacing); ValueError naming the grid
    unless it is a uniform 1-d grid of at least two points."""
    arr = np.asarray(grid, dtype=float)
    uniform = arr.ndim == 1 and arr.size >= 2
    if uniform:
        step = arr[1] - arr[0]
        for lo in range(0, arr.size - 1, _SLICE):  # no temporary as long as the grid
            dev = np.diff(arr[lo : lo + _SLICE + 1])
            dev -= step
            uniform = np.all(np.abs(dev, out=dev) <= 1e-9 * abs(step))
            if not uniform:
                break
    if not uniform:
        raise ValueError(f"{name} must be a uniform 1-d grid of at least two points")
    return arr, float(step)


@dataclass(frozen=True)
class TransformSpec:
    """Parameters of the reversing transformation.

    alpha  : stretch factor (> 0), alpha = gamma1/gamma2 matches the rates
    omega0 : frequency offset of the remap (rad/time)
    T      : timing phase; production starts at t_s = T/(1 + alpha)
    Delta  : device integration window (> 0)
    X      : device position along the channel (0 < X, and X < c tau when
             the downstream system position is part of the problem)
    c      : propagation speed (default 1, natural units)

    The device geometry follows from these as properties: t_i, processing
    starts; t_s, production starts; t_f, production ends; t_a, a window
    Delta of wave packet has arrived at the device; delay, the travel
    time X/c from the emitter to the device; preimage, the device-time
    window ((T - t_f)/alpha, (T - t_s)/alpha) that production consumes.
    """

    alpha: float
    omega0: float
    T: float
    Delta: float
    X: float
    c: float = 1.0

    def __post_init__(self) -> None:
        # each message starts with the field it names
        for name in ("alpha", "omega0", "T", "Delta", "X", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("alpha", "Delta", "X", "c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def t_s(self) -> float:
        return self.T / (1.0 + self.alpha)

    @property
    def t_f(self) -> float:
        return self.t_s + self.alpha * self.Delta

    @property
    def t_i(self) -> float:
        return self.t_s - self.Delta

    @property
    def delay(self) -> float:
        return self.X / self.c

    @property
    def t_a(self) -> float:
        return self.delay + self.Delta

    @property
    def preimage(self) -> tuple[float, float]:
        return (self.T - self.t_f) / self.alpha, (self.T - self.t_s) / self.alpha

    def position_ok(self, tau: float) -> bool:
        """True when the device sits strictly between the systems."""
        return 0.0 < self.X < self.c * tau


class PhaseTag(Enum):
    INITIAL = "initial"
    VACUUM = "vacuum"
    TRANSFORMED = "transformed"


def derive_transform_params(
    gamma1: float, gamma2: float, omega1: float, omega2: float
) -> tuple[float, float]:
    """Rate-matched stretch and frequency offset.

    alpha = gamma1/gamma2 rescales the decay rate of the packet to system
    2's; omega0 = omega2 + omega1/alpha lands its resonance on omega2
    after the reversal remaps nu -> -nu/alpha.
    """
    if not (gamma1 > 0.0 and gamma2 > 0.0):
        raise ValueError("decay rates must be positive")
    alpha = gamma1 / gamma2
    return alpha, omega2 + omega1 / alpha


def matched_timing(alpha: float, delta: float, x: float, c: float = 1.0) -> float:
    """T such that production starts exactly when a window Delta has arrived.

    t_a = X/c + Delta and T = (1 + alpha) t_a makes t_s = t_a, so the first
    slice of an exponentially decaying packet is the one transformed.
    """
    return (1.0 + alpha) * (x / c + delta)


def _device_phase(r: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """int8 PhaseTag codes of device times r: VACUUM (1) while the device
    buffers, on [t_i, t_s); TRANSFORMED (2) while it produces, on
    [t_s, t_f); INITIAL (0) at every other time."""
    return np.select([(spec.t_i <= r) & (r < spec.t_s),
                      (spec.t_s <= r) & (r < spec.t_f)],
                     [np.int8(1), np.int8(2)], np.int8(0))


def _u_output(t: np.ndarray, vals: np.ndarray, spec: TransformSpec) -> np.ndarray:
    """U's output at the production times t, e^{-i w0 (t-T)} vals / sqrt a, from
    vals, the input at the preimage times (T - t)/a."""
    out = -1j * spec.omega0 * (t - spec.T)
    np.exp(out, out=out)
    np.multiply(vals, out, out=out)
    np.divide(out, math.sqrt(spec.alpha), out=out)
    return out


def apply_u_time_domain(env: Envelope, spec: TransformSpec) -> Envelope:
    """Transformed envelope out(t) = (1/sqrt a) e^{-i w0 (t-T)} env((T-t)/a).

    The output grid is the exact image of the input sample grid restricted
    to the production window [t_s, t_f] (spacing alpha * env.dt), so no
    interpolation enters and the squared norm of the output equals that of
    the consumed input window to round-off.  Preimage points outside the
    envelope support are zero-filled, counted in n_zero_filled and flagged
    with a RuntimeWarning; an empty overlap between the production window's
    preimage and the support is an error.
    """
    a = spec.alpha
    s_lo, s_hi = spec.preimage
    if min(s_hi, env.t_end) - max(s_lo, env.t0) <= 0.0:
        raise ValueError(
            f"production window [{spec.t_s}, {spec.t_f}] has preimage "
            f"[{s_lo}, {s_hi}] with empty overlap against the envelope support "
            f"[{env.t0}, {env.t_end}]"
        )
    h = env.dt
    j_lo = math.ceil((s_lo - env.t0) / h - 1e-9)
    j_hi = math.floor((s_hi - env.t0) / h + 1e-9)
    j = np.arange(j_lo, j_hi + 1)
    valid = (j >= 0) & (j < env.samples.size)
    vals = np.zeros(j.size, dtype=complex)
    vals[valid] = env.samples[j[valid]]
    n_fill = int(np.count_nonzero(~valid))
    if n_fill:
        warnings.warn(
            f"transformation zero-filled {n_fill} samples outside the envelope support",
            RuntimeWarning,
            stacklevel=2,
        )
    # the image grid T - a (t0 + h j) falls with j, so reversed it ascends
    t_arr = (spec.T - a * (env.t0 + h * j))[::-1]
    out_vals = _u_output(t_arr, vals[::-1], spec)
    return Envelope(float(t_arr[0]), a * h, out_vals, n_zero_filled=n_fill)


def assemble_piecewise_field(
    xs: np.ndarray, t: float, initial: Envelope, transformed: Envelope, spec: TransformSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Field amplitudes at the positions xs (1-d) at time t, through the
    four transformation phases.

    `initial` is the emitted envelope sqrt(gamma1) <s1-(s)> as a function
    of emission time s (the field at x is u(x) initial(t - x/c));
    `transformed` is the produced envelope at the device as a function of
    time.  Downstream of the device the retarded time t - (x - X)/c
    selects, by `_device_phase`, the vacuum gap on [t_i, t_s), the
    transformed packet on [t_s, t_f), or the untouched initial field;
    elsewhere the initial field propagates freely.

    Returns a complex amplitude array and an int8 array of tag codes in
    PhaseTag's order (list(PhaseTag)[code] is the tag), with one envelope
    interpolation per branch.
    """
    retarded = t - (xs - spec.X) / spec.c
    codes = np.where(xs >= spec.X, _device_phase(retarded, spec), np.int8(0))
    produced = codes == 2
    free = (codes == 0) & (xs >= 0.0)
    amp = np.zeros(xs.shape, dtype=complex)
    amp[produced] = transformed.interp(retarded[produced])
    # u(x), with u(0) = 1/2, scales the initial branch only: a float x complex product
    # by 1.0 can still turn an imaginary -0.0 into +0.0
    u = np.where(xs[free] == 0.0, 0.5, 1.0)
    amp[free] = u * initial.interp(t - xs[free] / spec.c)
    return amp, codes


def _on_phases(t: np.ndarray, spec: TransformSpec, buffering, producing, elsewhere) -> np.ndarray:
    """A time map's value by phase: buffering on (t_i, t_s), producing on
    (t_s, t_f), elsewhere at every other t, the boundary points included.

    Each branch is a value or an array shaped like t, NaN where the map
    is undefined; the result is an array shaped like t.
    """
    return np.where((spec.t_i < t) & (t < spec.t_s), buffering,
                    np.where((spec.t_s < t) & (t < spec.t_f), producing, elsewhere))


def time_map(t, spec: TransformSpec, tau: float) -> np.ndarray:
    """Fictitious system-1 time tilde_t = f(t), an array shaped like t.

    f(t) = (T - t)/alpha - tau on the production window (t_s, t_f), t - tau
    elsewhere, undefined (NaN) on (t_i, t_s).  Boundary points take the
    continuous / resumed branch value t - tau.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # as with Python floats: an overflow is inf, unwarned
        return _on_phases(t, spec, np.nan, (spec.T - t) / spec.alpha - tau, t - tau)


def time_map_inverse(t, spec: TransformSpec, tau: float) -> np.ndarray:
    """Inverse map: T - alpha (t + tau) when t + tau lies in (t_i, t_s),
    undefined (NaN) when t + tau lies in (t_s, t_f), t + tau elsewhere."""
    s = np.asarray(t, dtype=float) + tau
    with np.errstate(over="ignore"):  # as in time_map
        return _on_phases(s, spec, spec.T - spec.alpha * s, np.nan, s)


def time_map_slope(t, spec: TransformSpec) -> np.ndarray:
    """d f/dt per branch: -1/alpha on the production window, 1 elsewhere,
    undefined (NaN) while the device buffers."""
    return _on_phases(np.asarray(t, dtype=float), spec, np.nan, -1.0 / spec.alpha, 1.0)


def time_map_inverse_slope(t, spec: TransformSpec, tau: float) -> np.ndarray:
    """d f^-1/dt per branch of t + tau, undefined where time_map_inverse is."""
    return _on_phases(np.asarray(t, dtype=float) + tau, spec, -spec.alpha, np.nan, 1.0)


def gap_geometry(spec: TransformSpec) -> tuple[float, float]:
    """(horizontal, vertical) gaps of f.

    Horizontal: width of the undefined buffering window, t_s - t_i = Delta.
    Vertical: band of f values never attained because the initial packet
    is blocked during production, f(t_f) - f(t_s) = t_f - t_s = alpha Delta.
    """
    return spec.t_s - spec.t_i, spec.t_f - spec.t_s

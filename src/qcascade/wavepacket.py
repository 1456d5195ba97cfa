"""Sampled wave packets and the reversing transformation between the systems.

A device at position X along the channel applies a unitary map that time
reverses the packet, stretches it by alpha and shifts it to omega0.  In
frequency space

    out(nu) = sqrt(alpha) * in(-alpha (nu - omega0)) * exp(i nu T),

and the equivalent time-domain form on the production window is

    out(t) = (1/sqrt(alpha)) * exp(-i omega0 (t - T)) * in((T - t)/alpha).

The timing parameter T fixes when production starts, t_s = T/(1+alpha);
the device integrates over a window Delta, so processing runs on
(t_i, t_s) with t_i = t_s - Delta and production on (t_s, t_f) with
t_f = t_s + alpha Delta.  Choosing alpha = gamma1/gamma2 and
omega0 = omega2 + omega1/alpha turns the packet emitted by system 1 into
the time-reversed packet system 2 would emit, which is what system 2
absorbs best.

DFT convention: the forward transform uses the e^{+i nu t} kernel,
F(nu) = (2 pi)^(-1/2) Int dt env(t) e^{+i nu t}, matching in-field mode
expansions with e^{-i omega (t - t0)} time dependence; with this sign the
e^{i nu T} factor delays the packet.  Spectra carry `t_ref`, the start of
the time window they were computed from, which makes band-limited
interpolation off the sample grid well defined.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Envelope",
    "Spectrum",
    "TransformSpec",
    "PhaseSchedule",
    "PhaseTag",
    "derive_transform_params",
    "matched_timing",
    "phase_schedule",
    "apply_u_time_domain",
    "apply_u_frequency_domain",
    "envelope_to_spectrum",
    "spectrum_to_envelope",
    "assemble_piecewise_field",
    "heaviside",
    "time_map",
    "time_map_inverse",
    "time_map_slope",
    "time_map_inverse_slope",
    "gap_geometry",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


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

    def interp(self, t) -> np.ndarray | complex:
        """Cubic (4-point Lagrange) interpolation; zero outside the support."""
        scalar = np.isscalar(t)
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = _interp_uniform(self.samples, self.t0, self.dt, t_arr)
        return complex(out[0]) if scalar else out

    def shifted(self, offset: float) -> "Envelope":
        """Same samples with the time axis shifted by offset."""
        return Envelope(self.t0 + offset, self.dt, self.samples.copy(), self.n_zero_filled)

    def slice_window(self, lo: float, hi: float) -> "Envelope":
        """Sub-envelope of the samples with lo <= t <= hi (small tolerance)."""
        tol = 1e-9 * self.dt
        mask = (self.times >= lo - tol) & (self.times <= hi + tol)
        idx = np.nonzero(mask)[0]
        if idx.size < 2:
            raise ValueError(f"window [{lo}, {hi}] overlaps fewer than two samples")
        return Envelope(float(self.times[idx[0]]), self.dt, self.samples[idx[0] : idx[-1] + 1])


def _interp_uniform(samples: np.ndarray, t0: float, dt: float, t: np.ndarray) -> np.ndarray:
    n = samples.size
    pos = (t - t0) / dt
    out = np.zeros(t.shape, dtype=complex)
    inside = (pos >= -1e-9) & (pos <= (n - 1) + 1e-9)
    if not np.any(inside):
        return out
    p = np.clip(pos[inside], 0.0, float(n - 1))
    if n < 4:
        i0 = np.clip(np.floor(p).astype(int), 0, n - 2)
        x = p - i0
        out[inside] = (1.0 - x) * samples[i0] + x * samples[i0 + 1]
        return out
    base = np.clip(np.floor(p).astype(int) - 1, 0, n - 4)
    x = p - base
    s0 = samples[base]
    s1 = samples[base + 1]
    s2 = samples[base + 2]
    s3 = samples[base + 3]
    w0 = -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0
    w1 = x * (x - 2.0) * (x - 3.0) / 2.0
    w2 = -x * (x - 1.0) * (x - 3.0) / 2.0
    w3 = x * (x - 1.0) * (x - 2.0) / 6.0
    out[inside] = w0 * s0 + w1 * s1 + w2 * s2 + w3 * s3
    return out


@dataclass(eq=False)
class Spectrum:
    """Uniformly sampled complex amplitude in angular frequency.

    t_ref declares the start of the time window the spectrum represents
    (its canonical window has width 2 pi / dnu); it anchors band-limited
    interpolation between frequency samples.
    """

    nu0: float
    dnu: float
    samples: np.ndarray
    t_ref: float = 0.0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("spectrum needs at least two samples on a 1-d grid")
        if not self.dnu > 0.0:
            raise ValueError("spectrum sample spacing dnu must be positive")

    @property
    def nus(self) -> np.ndarray:
        return self.nu0 + self.dnu * np.arange(self.samples.size)

    @property
    def nu_end(self) -> float:
        return self.nu0 + self.dnu * (self.samples.size - 1)

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dnu)


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

    def position_ok(self, tau: float) -> bool:
        """True when the device sits strictly between the systems."""
        return 0.0 < self.X < self.c * tau


@dataclass(frozen=True)
class PhaseSchedule:
    """Derived instants of the transformation phases.

    t_i: processing starts; t_s: production starts; t_f: production ends;
    t_a: arrival time of a window Delta of wave packet at the device.
    """

    t_i: float
    t_s: float
    t_f: float
    t_a: float


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
    if gamma1 <= 0.0 or gamma2 <= 0.0:
        raise ValueError("decay rates must be positive")
    alpha = gamma1 / gamma2
    return alpha, omega2 + omega1 / alpha


def matched_timing(alpha: float, delta: float, x: float, c: float = 1.0) -> float:
    """T such that production starts exactly when a window Delta has arrived.

    t_a = X/c + Delta and T = (1 + alpha) t_a makes t_s = t_a, so the first
    slice of an exponentially decaying packet is the one transformed.
    """
    return (1.0 + alpha) * (x / c + delta)


def phase_schedule(spec: TransformSpec) -> PhaseSchedule:
    t_s = spec.T / (1.0 + spec.alpha)
    return PhaseSchedule(
        t_i=t_s - spec.Delta,
        t_s=t_s,
        t_f=t_s + spec.alpha * spec.Delta,
        t_a=spec.X / spec.c + spec.Delta,
    )


def apply_u_time_domain(
    env: Envelope, spec: TransformSpec, t_out: np.ndarray | None = None
) -> Envelope:
    """Transformed envelope out(t) = (1/sqrt a) e^{-i w0 (t-T)} env((T-t)/a).

    With t_out = None the output grid is the exact image of the input
    sample grid restricted to the production window [t_s, t_f] (spacing
    alpha * env.dt), so no interpolation enters and the squared norm of
    the output equals that of the consumed input window to round-off.
    An explicit t_out grid is evaluated by cubic interpolation instead.
    Preimage points outside the envelope support are zero-filled, counted
    in n_zero_filled and flagged with a RuntimeWarning; an empty overlap
    between the production window's preimage and the support is an error.
    """
    sched = phase_schedule(spec)
    a = spec.alpha
    # Preimage of the production window under s = (T - t)/alpha.
    s_lo = (spec.T - sched.t_f) / a
    s_hi = (spec.T - sched.t_s) / a
    if min(s_hi, env.t_end) - max(s_lo, env.t0) <= 0.0:
        raise ValueError(
            f"production window [{sched.t_s}, {sched.t_f}] has preimage "
            f"[{s_lo}, {s_hi}] with empty overlap against the envelope support "
            f"[{env.t0}, {env.t_end}]"
        )
    if t_out is None:
        h = env.dt
        j_lo = math.ceil((s_lo - env.t0) / h - 1e-9)
        j_hi = math.floor((s_hi - env.t0) / h + 1e-9)
        j = np.arange(j_lo, j_hi + 1)
        valid = (j >= 0) & (j < env.samples.size)
        vals = np.zeros(j.size, dtype=complex)
        vals[valid] = env.samples[j[valid]]
        n_fill = int(np.count_nonzero(~valid))
        t_vals = spec.T - a * (env.t0 + h * j)
        order = np.argsort(t_vals)
        t_vals = t_vals[order]
        vals = vals[order]
        out_vals = vals * np.exp(-1j * spec.omega0 * (t_vals - spec.T)) / math.sqrt(a)
        if n_fill:
            warnings.warn(
                f"transformation zero-filled {n_fill} samples outside the "
                f"envelope support",
                RuntimeWarning,
                stacklevel=2,
            )
        return Envelope(float(t_vals[0]), a * h, out_vals, n_zero_filled=n_fill)
    t_arr = np.asarray(t_out, dtype=float)
    if t_arr.ndim != 1 or t_arr.size < 2:
        raise ValueError("t_out must be a 1-d grid of at least two points")
    step = np.diff(t_arr)
    if np.any(np.abs(step - step[0]) > 1e-9 * abs(step[0])):
        raise ValueError("t_out must be uniform")
    s = (spec.T - t_arr) / a
    vals = np.asarray(env.interp(s))
    outside = (s < env.t0 - 1e-9 * env.dt) | (s > env.t_end + 1e-9 * env.dt)
    n_fill = int(np.count_nonzero(outside))
    if n_fill:
        warnings.warn(
            f"transformation zero-filled {n_fill} samples outside the envelope support",
            RuntimeWarning,
            stacklevel=2,
        )
    out_vals = vals * np.exp(-1j * spec.omega0 * (t_arr - spec.T)) / math.sqrt(a)
    return Envelope(float(t_arr[0]), float(step[0]), out_vals, n_zero_filled=n_fill)


def _dtft_sum(values: np.ndarray, points: np.ndarray, targets: np.ndarray, sign: float) -> np.ndarray:
    """Sum_m values[m] exp(sign * i * target * points[m]), chunked."""
    out = np.empty(targets.size, dtype=complex)
    chunk = max(1, 2_000_000 // max(1, points.size))
    for j0 in range(0, targets.size, chunk):
        block = np.exp(sign * 1j * np.outer(targets[j0 : j0 + chunk], points))
        out[j0 : j0 + chunk] = block @ values
    return out


def envelope_to_spectrum(
    env: Envelope,
    nu0: float | None = None,
    dnu: float | None = None,
    n: int | None = None,
) -> Spectrum:
    """Forward transform F[k] = (dt/sqrt(2 pi)) Sum_m env[m] e^{+i nu_k t_m}.

    Defaults to the conjugate grid dnu = 2 pi/(N dt) centered on zero,
    evaluated by FFT; an explicit grid uses the direct sum.
    """
    m = env.samples.size
    if nu0 is None and dnu is None and n is None:
        dnu_c = 2.0 * math.pi / (m * env.dt)
        nu0_c = -(m // 2) * dnu_c
        phases = np.exp(1j * nu0_c * env.dt * np.arange(m))
        core = m * np.fft.ifft(env.samples * phases)
        nus = nu0_c + dnu_c * np.arange(m)
        samples = (env.dt / _SQRT2PI) * np.exp(1j * nus * env.t0) * core
        return Spectrum(nu0_c, dnu_c, samples, t_ref=env.t0)
    if nu0 is None or dnu is None or n is None:
        raise ValueError("give all of nu0, dnu, n or none of them")
    nus = nu0 + dnu * np.arange(n)
    samples = (env.dt / _SQRT2PI) * _dtft_sum(env.samples, env.times, nus, +1.0)
    return Spectrum(float(nu0), float(dnu), samples, t_ref=env.t0)


def spectrum_to_envelope(
    spec: Spectrum,
    t0: float | None = None,
    dt: float | None = None,
    n: int | None = None,
) -> Envelope:
    """Inverse transform env[m] = (dnu/sqrt(2 pi)) Sum_k F[k] e^{-i nu_k t_m}.

    Defaults to the canonical window starting at t_ref with
    dt = 2 pi/(N dnu) via FFT; an explicit grid uses the direct sum.
    """
    m = spec.samples.size
    if t0 is None and dt is None and n is None:
        dt_c = 2.0 * math.pi / (m * spec.dnu)
        t0_c = spec.t_ref
        core = np.fft.fft(spec.samples * np.exp(-1j * spec.nus * t0_c))
        phases = np.exp(-1j * spec.nu0 * dt_c * np.arange(m))
        samples = (spec.dnu / _SQRT2PI) * phases * core
        return Envelope(t0_c, dt_c, samples)
    if t0 is None or dt is None or n is None:
        raise ValueError("give all of t0, dt, n or none of them")
    times = t0 + dt * np.arange(n)
    samples = (spec.dnu / _SQRT2PI) * _dtft_sum(spec.samples, spec.nus, times, -1.0)
    return Envelope(float(t0), float(dt), samples)


def _edge_advisory(samples: np.ndarray) -> None:
    peak = float(np.max(np.abs(samples)))
    if peak == 0.0:
        return
    edge = max(abs(samples[0]), abs(samples[-1]))
    if edge > 1e-6 * peak:
        warnings.warn(
            f"spectrum magnitude at the band edges is {edge / peak:.2e} of the "
            "peak (above 1e-6); the remap may lose out-of-band content",
            RuntimeWarning,
            stacklevel=3,
        )


def apply_u_frequency_domain(
    spec_in: Spectrum, spec: TransformSpec, nu_out: np.ndarray | None = None
) -> Spectrum:
    """out(nu) = sqrt(alpha) in(-alpha (nu - omega0)) e^{i nu T}.

    With nu_out = None the output grid is the exact image of the input
    grid (spacing dnu/alpha), where the remap lands on input samples and
    no interpolation is needed.  An explicit grid resamples the input by
    band-limited interpolation (inverse transform over its canonical
    window, direct re-evaluation); remapped points outside the input band
    raise ValueError naming the required band.
    """
    a = spec.alpha
    n = spec_in.samples.size
    _edge_advisory(spec_in.samples)
    dt_c = 2.0 * math.pi / (n * spec_in.dnu)
    t_ref_out = spec.T - a * (spec_in.t_ref + (n - 1) * dt_c)
    if nu_out is None:
        dnu_out = spec_in.dnu / a
        nu0_out = spec.omega0 - spec_in.nu_end / a
        nus_out = nu0_out + dnu_out * np.arange(n)
        samples = math.sqrt(a) * spec_in.samples[::-1] * np.exp(1j * nus_out * spec.T)
        return Spectrum(float(nu0_out), float(dnu_out), samples, t_ref=t_ref_out)
    nu_arr = np.asarray(nu_out, dtype=float)
    if nu_arr.ndim != 1 or nu_arr.size < 2:
        raise ValueError("nu_out must be a 1-d grid of at least two points")
    step = np.diff(nu_arr)
    if np.any(np.abs(step - step[0]) > 1e-9 * abs(step[0])):
        raise ValueError("nu_out must be uniform")
    u = -a * (nu_arr - spec.omega0)
    tol = 1e-9 * spec_in.dnu
    if u.min() < spec_in.nu0 - tol or u.max() > spec_in.nu_end + tol:
        raise ValueError(
            f"remap needs input band [{u.min()}, {u.max()}] but the spectrum "
            f"covers [{spec_in.nu0}, {spec_in.nu_end}]"
        )
    base = spectrum_to_envelope(spec_in)
    f_u = (base.dt / _SQRT2PI) * _dtft_sum(base.samples, base.times, u, +1.0)
    samples = math.sqrt(a) * f_u * np.exp(1j * nu_arr * spec.T)
    return Spectrum(float(nu_arr[0]), float(step[0]), samples, t_ref=t_ref_out)


def heaviside(x: float) -> float:
    """Unit step with u(0) = 1/2."""
    if x < 0.0:
        return 0.0
    if x == 0.0:
        return 0.5
    return 1.0


def assemble_piecewise_field(
    x,
    t: float,
    initial: Envelope,
    transformed: Envelope | None,
    spec: TransformSpec,
    schedule: PhaseSchedule,
) -> tuple[complex, PhaseTag] | tuple[np.ndarray, np.ndarray]:
    """Field amplitude at (x, t) through the four transformation phases.

    `initial` is the emitted envelope sqrt(gamma1) <s1-(s)> as a function
    of emission time s (the field at x is u(x) initial(t - x/c));
    `transformed` is the produced envelope at the device as a function of
    time.  Downstream of the device the retarded time t - (x - X)/c
    selects the vacuum gap, the transformed packet, or the untouched
    initial field; elsewhere the initial field propagates freely.

    A scalar x gives (amplitude, PhaseTag); a 1-d array of positions gives
    a complex amplitude array and an object array of tags, with one
    envelope interpolation per branch.
    """
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    retarded = t - (xs - spec.X) / spec.c
    downstream = xs >= spec.X
    vacuum = downstream & (schedule.t_i < retarded) & (retarded < schedule.t_s)
    produced = downstream & (schedule.t_s < retarded) & (retarded < schedule.t_f)
    free = ~(vacuum | produced) & (xs >= 0.0)
    amp = np.zeros(xs.shape, dtype=complex)
    if transformed is not None:
        amp[produced] = transformed.interp(retarded[produced])
    # u(x), with u(0) = 1/2, scales the initial branch only: a float x complex product
    # by 1.0 can still turn an imaginary -0.0 into +0.0
    u = np.where(xs[free] == 0.0, heaviside(0.0), 1.0)
    amp[free] = u * initial.interp(t - xs[free] / spec.c)
    tags = np.select([vacuum, produced], [PhaseTag.VACUUM, PhaseTag.TRANSFORMED], PhaseTag.INITIAL)
    return (complex(amp[0]), tags[0]) if scalar else (amp, tags)


def time_map(
    t: float, spec: TransformSpec, schedule: PhaseSchedule, tau: float
) -> float | None:
    """Fictitious system-1 time tilde_t = f(t); None while buffering.

    f(t) = (T - t)/alpha - tau on the production window (t_s, t_f), t - tau
    elsewhere, undefined on (t_i, t_s).  Boundary points take the
    continuous / resumed branch value t - tau.
    """
    if schedule.t_i < t < schedule.t_s:
        return None
    if schedule.t_s < t < schedule.t_f:
        return (spec.T - t) / spec.alpha - tau
    return t - tau


def time_map_inverse(
    t: float, spec: TransformSpec, schedule: PhaseSchedule, tau: float
) -> float | None:
    """Inverse map: T - alpha (t + tau) when t + tau lies in (t_i, t_s),
    undefined when t + tau lies in (t_s, t_f), t + tau elsewhere."""
    s = t + tau
    if schedule.t_i < s < schedule.t_s:
        return spec.T - spec.alpha * s
    if schedule.t_s < s < schedule.t_f:
        return None
    return s


def time_map_slope(t: float, spec: TransformSpec, schedule: PhaseSchedule) -> float | None:
    """d f/dt per branch: -1/alpha on the production window, 1 elsewhere."""
    if schedule.t_i < t < schedule.t_s:
        return None
    if schedule.t_s < t < schedule.t_f:
        return -1.0 / spec.alpha
    return 1.0


def time_map_inverse_slope(
    t: float, spec: TransformSpec, schedule: PhaseSchedule, tau: float
) -> float | None:
    s = t + tau
    if schedule.t_i < s < schedule.t_s:
        return -spec.alpha
    if schedule.t_s < s < schedule.t_f:
        return None
    return 1.0


def gap_geometry(spec: TransformSpec, schedule: PhaseSchedule) -> tuple[float, float]:
    """(horizontal, vertical) gaps of f.

    Horizontal: width of the undefined buffering window, t_s - t_i = Delta.
    Vertical: band of f values never attained because the initial packet
    is blocked during production, f(t_f) - f(t_s) = t_f - t_s = alpha Delta.
    """
    return schedule.t_s - schedule.t_i, schedule.t_f - schedule.t_s

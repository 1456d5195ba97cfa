"""Single-excitation state transfer: emit, optionally transform, absorb.

In the sector with at most one excitation the operator equations close
exactly on the excited-state amplitudes: system 1 decays as
c1(t) = c1(0) exp(-(gamma1/2 + i omega1) t), radiating the envelope
xi(t) = sqrt(gamma1) c1(t), and system 2 is driven by whatever envelope
arrives,

    dc2/dt = -(gamma2/2 + i omega2) c2 - sqrt(gamma2) xi(t - tau).

The drive sign comes from closing the operator product sz * drive with
system 2 near its ground state (sz -> -1); absorption probabilities do
not depend on that overall sign.  The transfer experiment compares the
direct drive against the drive routed through the reversing
transformation (vacuum gap while the device buffers, then the
time-reversed stretched packet), and reports excitation probabilities
and a qubit-transfer fidelity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeModel
from .wavepacket import (
    Envelope,
    PhaseSchedule,
    TransformSpec,
    apply_u_time_domain,
    derive_transform_params,
    matched_timing,
    phase_schedule,
)

__all__ = [
    "TransferResult",
    "TransferComparison",
    "TimeReversalReport",
    "qubit_transfer_fidelity",
    "emit_envelope",
    "drive_system2",
    "transfer_experiment",
    "check_time_reversed_envelope",
]


@dataclass(eq=False)
class TransferResult:
    """Outcome of driving system 2 with one envelope."""

    times: np.ndarray
    c2: np.ndarray
    p2: np.ndarray
    p2_max: float
    t_at_max: float
    fidelity: float
    transform_enabled: bool


@dataclass(eq=False)
class TransferComparison:
    """Transform-off versus transform-on results for one model."""

    off: TransferResult
    on: TransferResult
    ratio: float
    spec: TransformSpec
    schedule: PhaseSchedule


@dataclass(eq=False)
class TimeReversalReport:
    """Fitted envelope rates of the reversed system-1 coherence.

    The reversed coherence exp(-i omega0 t) <s1-(-t/alpha)> should grow at
    +gamma2/2 in magnitude (sign flipped against system 2's decay) while
    rotating at -omega2 (same sign as system 2).
    """

    alpha: float
    omega0: float
    magnitude_rate: float
    phase_rate: float


def qubit_transfer_fidelity(p2_max: float, excited_weight: float = 0.5) -> float:
    """Overlap fidelity for transferring a|g> + b|e> through a pure-loss map.

    excited_weight is |b|^2.  F = |a|^4 + |b|^4 p + 2 |a|^2 |b|^2 sqrt(p)
    with p the excitation transfer probability.
    """
    if not 0.0 <= excited_weight <= 1.0:
        raise ValueError("excited_weight is a probability")
    p = min(max(p2_max, 0.0), 1.0)
    w = excited_weight
    return (1.0 - w) ** 2 + w**2 * p + 2.0 * w * (1.0 - w) * math.sqrt(p)


def emit_envelope(
    gamma1: float,
    omega1: float,
    c1_0: complex,
    t_grid: np.ndarray,
    rotating_frame: bool = True,
) -> Envelope:
    """Envelope radiated by system 1 decaying from amplitude c1_0.

    Samples sqrt(gamma1) c1_0 exp(-(gamma1/2 + i omega1) t) for t >= 0 and
    zero before the emission starts (the t = 0 sample takes the full
    value).  With rotating_frame the carrier omega1 is dropped.
    """
    if abs(c1_0) > 1.0 + 1e-12:
        raise ValueError("|c1_0| cannot exceed 1")
    t = np.asarray(t_grid, dtype=float)
    step = np.diff(t)
    if t.ndim != 1 or t.size < 2 or np.any(np.abs(step - step[0]) > 1e-9 * abs(step[0])):
        raise ValueError("t_grid must be a uniform 1-d grid")
    w = 0.0 if rotating_frame else omega1
    vals = math.sqrt(gamma1) * c1_0 * np.exp(-(gamma1 / 2.0 + 1j * w) * t)
    vals[t < 0.0] = 0.0
    return Envelope(float(t[0]), float(step[0]), vals)


def _half_grid_values(env: Envelope, t0: float, h: float, n_steps: int, tau: float) -> np.ndarray:
    """Drive samples at t0 + j h/2 - tau for j = 0 .. 2 n_steps.

    Uses exact sample lookup when the envelope grid is the aligned
    half-step grid, cubic interpolation otherwise.
    """
    half = h / 2.0
    need = t0 - tau + half * np.arange(2 * n_steps + 1)
    if abs(env.dt - half) <= 1e-12 * half:
        offset = (need[0] - env.t0) / env.dt
        k = round(offset)
        if abs(offset - k) < 1e-6:
            idx = k + np.arange(need.size)
            vals = np.zeros(need.size, dtype=complex)
            ok = (idx >= 0) & (idx < env.samples.size)
            vals[ok] = env.samples[idx[ok]]
            return vals
    return np.asarray(env.interp(need))


def drive_system2(
    input_env: Envelope,
    gamma2: float,
    omega2: float,
    tau: float,
    t_grid: np.ndarray,
) -> TransferResult:
    """Integrate the driven amplitude equation for system 2 (RK4, c2(t0)=0).

    The drive is the input envelope evaluated at t - tau; RK4 stage values
    fall on the half-step grid, so an input sampled at spacing h/2 aligned
    with t_grid is consumed exactly.  The rate is constant, so each RK4
    step is c <- r c + w0 x0 + wm xm + w1 x1 with fixed coefficients.
    Returns the P2 series, its maximum and the equal-superposition fidelity.
    """
    if gamma2 <= 0.0:
        raise ValueError("gamma2 must be positive")
    t = np.asarray(t_grid, dtype=float)
    step = np.diff(t)
    if t.ndim != 1 or t.size < 2 or np.any(np.abs(step - step[0]) > 1e-9 * abs(step[0])):
        raise ValueError("t_grid must be a uniform 1-d grid")
    h = float(step[0])
    n_steps = t.size - 1
    xi = _half_grid_values(input_env, float(t[0]), h, n_steps, tau)
    lam = -(gamma2 / 2.0 + 1j * omega2)
    g = math.sqrt(gamma2)

    def rk4_step(c, x0, xm, x1):
        k1 = lam * c - g * x0
        k2 = lam * (c + 0.5 * h * k1) - g * xm
        k3 = lam * (c + 0.5 * h * k2) - g * xm
        k4 = lam * (c + h * k3) - g * x1
        return c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # the step is linear in (c, x0, xm, x1): evaluate it on the basis vectors
    r, w0, wm, w1 = rk4_step(*np.eye(4, dtype=complex)).tolist()
    u = (w0 * xi[0:-1:2] + wm * xi[1::2] + w1 * xi[2::2]).tolist()
    c2 = np.array(list(itertools.accumulate(u, lambda c, uk: r * c + uk, initial=0j)))
    p2 = np.abs(c2) ** 2
    imax = int(np.argmax(p2))
    p2_max = float(p2[imax])
    return TransferResult(
        times=t,
        c2=c2,
        p2=p2,
        p2_max=p2_max,
        t_at_max=float(t[imax]),
        fidelity=qubit_transfer_fidelity(p2_max),
        transform_enabled=False,
    )


def _transformed_drive(
    emitted: Envelope,
    spec: TransformSpec,
    schedule: PhaseSchedule,
    t_half: np.ndarray,
    h_half: float,
) -> Envelope:
    """Device-output drive on the half-step grid through the four phases.

    Retarded times are referenced to the device position: the incident
    envelope passes untouched outside [t_i, t_f), the gap [t_i, t_s) is
    vacuum, and [t_s, t_f) carries the transformed packet.
    """
    at_device = emitted.shifted(spec.X / spec.c)
    vals = np.asarray(at_device.interp(t_half)).copy()
    in_gap = (t_half >= schedule.t_i) & (t_half < schedule.t_s)
    vals[in_gap] = 0.0
    in_prod = (t_half >= schedule.t_s) & (t_half < schedule.t_f)
    if in_prod.any():
        # apply_u_time_domain needs two samples: dt <= alpha*Delta keeps two in the window
        vals[in_prod] = apply_u_time_domain(at_device, spec, t_out=t_half[in_prod]).samples
    return Envelope(float(t_half[0]), h_half, vals)


def transfer_experiment(
    model: CascadeModel,
    spec: TransformSpec | None = None,
    t_grid: np.ndarray | None = None,
    delta: float | None = None,
    x_position: float | None = None,
) -> TransferComparison:
    """Run the transfer with and without the reversing transformation.

    When spec is None a rate-matched spec is derived from the model
    (alpha = gamma1/gamma2, omega0 from the frame frequencies) with the
    production timed to catch the leading slice, T = (1 + alpha) t_a;
    delta defaults to 8/gamma1 and the device position to c * delta.  The
    off branch feeds the emitted envelope straight to system 2; the on
    branch routes it through the device (vacuum gap, transformed packet,
    untouched remainder).
    """
    w1, w2 = model.frame_omegas()
    if spec is None:
        alpha, omega0 = derive_transform_params(model.gamma1, model.gamma2, w1, w2)
        d = 8.0 / model.gamma1 if delta is None else delta
        x = d if x_position is None else x_position
        spec = TransformSpec(alpha, omega0, matched_timing(alpha, d, x), d, x)
    schedule = phase_schedule(spec)
    if t_grid is None:
        h = 1e-3 / max(model.gamma1, model.gamma2)
        t_end = schedule.t_f + 10.0 / model.gamma2
        t_grid = np.arange(0.0, t_end + h, h)
    t = np.asarray(t_grid, dtype=float)
    h = float(t[1] - t[0])
    n_steps = t.size - 1
    t_half = t[0] + (h / 2.0) * np.arange(2 * n_steps + 1)
    half = h / 2.0
    # Emission-time grid aligned with the half-step drive grid (so the off
    # branch consumes exact samples), extended to cover the emission start
    # and the device pass-through window.
    start_target = min(0.0, t[0] - model.tau, t[0] - spec.X / spec.c)
    n_lead = max(0, int(math.ceil((t[0] - model.tau - start_target) / half - 1e-9)))
    end_target = max(t[-1] - model.tau, t[-1] - spec.X / spec.c)
    n_tail = max(0, int(math.ceil((end_target - (t[-1] - model.tau)) / half - 1e-9))) + 2
    emit_t0 = t[0] - model.tau - n_lead * half
    emit_grid = emit_t0 + half * np.arange(n_lead + 2 * n_steps + 1 + n_tail)
    emitted = emit_envelope(model.gamma1, w1, 1.0, emit_grid, rotating_frame=model.rotating_frame)
    off = drive_system2(emitted, model.gamma2, w2, model.tau, t)
    drive_on = _transformed_drive(emitted, spec, schedule, t_half, h / 2.0)
    on = drive_system2(drive_on, model.gamma2, w2, model.tau, t)
    on.transform_enabled = True
    ratio = on.p2_max / off.p2_max if off.p2_max > 0.0 else math.inf
    return TransferComparison(off=off, on=on, ratio=ratio, spec=spec, schedule=schedule)


def check_time_reversed_envelope(
    gamma1: float, gamma2: float, omega1: float, omega2: float
) -> TimeReversalReport:
    """Fit the reversed-coherence envelope rates against the matched target.

    Builds exp(-i omega0 t) <s1-(-t/alpha)> from the closed-form decay
    (vacuum input, <s1-(0)> = 1) on t <= 0 and fits d log|.|/dt and the
    phase rotation rate by least squares.
    """
    alpha, omega0 = derive_transform_params(gamma1, gamma2, omega1, omega2)
    t = np.linspace(-6.0 / gamma2, 0.0, 2001)
    sigma1 = np.exp(-(gamma1 / 2.0 + 1j * omega1) * (-t / alpha))
    tilde = np.exp(-1j * omega0 * t) * sigma1
    magnitude_rate = float(np.polyfit(t, np.log(np.abs(tilde)), 1)[0])
    phase_rate = float(np.polyfit(t, np.unwrap(np.angle(tilde)), 1)[0])
    return TimeReversalReport(
        alpha=alpha, omega0=omega0, magnitude_rate=magnitude_rate, phase_rate=phase_rate
    )

"""Single-excitation state transfer: emit, optionally transform, absorb.

In the sector with at most one excitation the operator equations close
exactly on the excited-state amplitudes: system 1 decays from its excited
state as c1(t) = exp(-(gamma1/2 + i omega1) t), radiating the envelope
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

RK4 takes the drive at t - tau on the half-step grid.  The emitted packet
is sampled on that grid, and the device output on the half-step grid of
t itself, so system 2 consumes the samples of the off drive exactly, and
those of the on drive when tau and X/c are multiples of h/2.  An input counts
as aligned when the first and last drive points each lie within 1e-6 of
a sample index (`Envelope.on_grid`): a spacing taken from a grid's first
difference can miss h/2 by a few 1e-12 of a step, which over the 2.3e5
points of the emission grid at gamma1/gamma2 = 0.25 builds up to 5e-7 of
a sample.  Any other input is interpolated.  Each drive is read 4096 steps
(8193 half-step points) at a time: a transfer holds whole only the emitted
packet, the on drive, the step inputs and the histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import _SLICE, CascadeModel, IntegrationAbort, checked_step_matrix, step_history
from .wavepacket import Envelope, TransformSpec, _device_phase, _uniform_grid, apply_u_time_domain

__all__ = [
    "TransferResult",
    "TransferComparison",
    "qubit_transfer_fidelity",
    "emit_envelope",
    "drive_step_coefficients",
    "drive_system2",
    "transfer_experiment",
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


@dataclass(eq=False)
class TransferComparison:
    """Transform-off versus transform-on results for one model."""

    off: TransferResult
    on: TransferResult
    ratio: float


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


def emit_envelope(gamma1: float, omega1: float, t_grid: np.ndarray) -> Envelope:
    """Envelope radiated by system 1 decaying from its excited state.

    Samples sqrt(gamma1) exp(-(gamma1/2 + i omega1) t) for t >= 0 and zero
    before the emission starts (the t = 0 sample takes the full value).
    omega1 is the carrier as it enters the chosen frame
    (`CascadeModel.frame_omegas`): 0 in the rotating frame.
    """
    t, h = _uniform_grid(t_grid, "t_grid")
    vals = -(gamma1 / 2.0 + 1j * omega1) * t
    np.exp(vals, out=vals)
    np.multiply(math.sqrt(gamma1), vals, out=vals)
    vals[t < 0.0] = 0.0
    return Envelope(float(t[0]), h, vals)


def drive_step_coefficients(gamma2: float, omega2: float, h: float) -> tuple[complex, ...]:
    """(r, w0, wm, w1) of one RK4 step of the drive, c <- r c + w0 x0 + wm xm + w1 x1.

    The rate lam = -(gamma2/2 + i omega2) is constant, so the step is
    linear in (c, x0, xm, x1) with fixed coefficients.  The step of the
    1x1 generator [[lam]] must pass `cascade.checked_step_matrix`, the
    stability rule of every integrator here, and the coefficients must be
    finite, or IntegrationAbort.
    """
    lam = -(gamma2 / 2.0 + 1j * omega2)
    checked_step_matrix(np.array([[lam]]), h)
    g = math.sqrt(gamma2)

    def rk4_step(c, x0, xm, x1):
        k1 = lam * c - g * x0
        k2 = lam * (c + 0.5 * h * k1) - g * xm
        k3 = lam * (c + 0.5 * h * k2) - g * xm
        k4 = lam * (c + h * k3) - g * x1
        return c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # evaluate the step on the basis vectors (r from the checked step matrix may
    # differ in the last bit)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows if |lam| nears the float max
        coefficients = rk4_step(*np.eye(4, dtype=complex))
    if not np.all(np.isfinite(coefficients)):
        raise IntegrationAbort(f"RK4 step overflows in its stages at dt={h:g}")
    return tuple(coefficients.tolist())


def drive_system2(
    input_env: Envelope,
    gamma2: float,
    omega2: float,
    tau: float,
    t_grid: np.ndarray,
) -> TransferResult:
    """Integrate the driven amplitude equation for system 2 (RK4, c2(t0)=0).

    The drive is the input envelope evaluated at t - tau; RK4 stage values
    fall on the half-step grid, so an input whose samples lie on it (the
    first and last stage points each within 1e-6 of a sample, see
    `Envelope.on_grid`) is consumed exactly, and any other input by cubic
    interpolation.  Each step is c <- r c + w0 x0 + wm xm + w1 x1 with the
    checked coefficients of `drive_step_coefficients`, through `cascade.step_history`.
    Returns the P2 series, its maximum and the equal-superposition fidelity.
    """
    if not gamma2 > 0.0:
        raise ValueError("gamma2 must be positive")
    if not 0.0 <= omega2 < math.inf:
        raise ValueError("omega2 must be finite and non-negative")
    t, h = _uniform_grid(t_grid, "t_grid")
    n_steps = t.size - 1
    r, w0, wm, w1 = drive_step_coefficients(gamma2, omega2, h)
    u = np.empty(n_steps, dtype=complex)
    for lo in range(0, n_steps, _SLICE):  # steps lo .. hi-1 read half-step points 2 lo .. 2 hi
        hi = min(lo + _SLICE, n_steps)
        xi = input_env.on_grid(float(t[0]) - tau, h / 2.0, 2 * n_steps + 1, 2 * lo, 2 * hi + 1)
        u[lo:hi] = w0 * xi[0:-1:2] + wm * xi[1::2] + w1 * xi[2::2]
    c2 = step_history(np.array([[r]]), np.zeros((1, 1)), n_steps, u.reshape(-1, 1, 1)).ravel()
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
    )


def _transformed_drive(
    emitted: Envelope,
    spec: TransformSpec,
    t0: float,
    h_half: float,
    n: int,
) -> Envelope:
    """Device-output drive on the n-point half-step grid from t0 through the four phases.

    Retarded times are referenced to the device position; `_device_phase`
    decides the phase: the incident envelope passes untouched outside
    [t_i, t_f), the gap [t_i, t_s) is vacuum, and [t_s, t_f) carries the
    transformed packet.
    """
    at_device = emitted.shifted(spec.delay)
    vals = at_device.on_grid(t0, h_half, n)
    # t0 + h_half j rises with j, so production takes the run of `count`
    # indices from `start`, the first at or after t_s
    start = count = 0
    for lo in range(0, n, _SLICE):
        t = t0 + h_half * np.arange(lo, min(lo + _SLICE, n))
        phase = _device_phase(t, spec)
        vals[lo : lo + t.size][phase == 1] = 0.0
        start += int(np.count_nonzero(t < spec.t_s))
        count += int(np.count_nonzero(phase == 2))
    if count:
        # apply_u_time_domain needs two samples: dt <= alpha*Delta keeps two in the window
        t_prod = t0 + h_half * np.arange(start, start + count)
        vals[start : start + count] = apply_u_time_domain(at_device, spec, t_out=t_prod).samples
    return Envelope(t0, h_half, vals)


def _emission_window(t0: float, t1: float, tau: float, spec: TransformSpec) -> tuple[float, float]:
    """(lo, hi) of the emission times the transfer over [t0, t1] reads: the
    off drive reads t - tau, the device t - delay and its production
    window's preimage from t_i - delay on, and lo reaches back to the
    emission start at 0."""
    d = spec.delay
    return min(0.0, t0 - tau, t0 - d, spec.preimage[0] - d), max(t1 - tau, t1 - d)


def transfer_experiment(
    model: CascadeModel, spec: TransformSpec, t_grid: np.ndarray
) -> TransferComparison:
    """Run the transfer with and without the reversing transformation.

    The off branch feeds the emitted envelope straight to system 2; the on
    branch routes it through the device (vacuum gap, transformed packet,
    untouched remainder).  The CLI derives a rate-matched spec and the
    time grid from the model when a config leaves them out.
    """
    w1, w2 = model.frame_omegas()
    t, h = _uniform_grid(t_grid, "t_grid")
    n_steps = t.size - 1
    half = h / 2.0
    # Emission-time grid aligned with the half-step drive grid (so the off
    # branch consumes exact samples), extended to cover the emission window.
    start_target, end_target = _emission_window(t[0], t[-1], model.tau, spec)
    n_lead = max(0, int(math.ceil((t[0] - model.tau - start_target) / half - 1e-9)))
    n_tail = max(0, int(math.ceil((end_target - (t[-1] - model.tau)) / half - 1e-9))) + 2
    emit_t0 = t[0] - model.tau - n_lead * half
    emitted = emit_envelope(
        model.gamma1, w1, emit_t0 + half * np.arange(n_lead + 2 * n_steps + 1 + n_tail))
    off = drive_system2(emitted, model.gamma2, w2, model.tau, t)
    drive_on = _transformed_drive(emitted, spec, float(t[0]), half, 2 * n_steps + 1)
    del emitted  # the on drive holds all the second run reads
    on = drive_system2(drive_on, model.gamma2, w2, model.tau, t)
    ratio = on.p2_max / off.p2_max if off.p2_max > 0.0 else math.inf
    return TransferComparison(off=off, on=on, ratio=ratio)

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

Both drives are the emitted packet's closed form, evaluated at the times
RK4 reads: the off drive xi(t - tau), the on drive the device's output at
t - tau, one phase at a time (`_device_output`).  No drive is sampled on
a grid of its own, so nothing is interpolated.  RK4 takes each step's
inputs at its start, its midpoint and its end, and reads the end one ulp
below the grid point: a drive that jumps on a grid point (the emission
start, t_i or t_f) then starts the next step, not the end of the one
before.  Each drive is read 4096 steps at a time, so a transfer holds
whole only the step inputs and the histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .cascade import _SLICE, CascadeModel, IntegrationAbort, checked_step_matrix, step_history
from .wavepacket import Envelope, TransformSpec, _device_phase, _u_output, _uniform_grid

# no transfer calls it; the benchmark's layer timing wraps this module's name
from .wavepacket import apply_u_time_domain  # noqa: F401

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


def qubit_transfer_fidelity(p2_max: float) -> float:
    """Overlap fidelity for transferring (|g> + |e>)/sqrt 2 through a pure-loss map.

    F = (1 + p + 2 sqrt(p))/4 with p the excitation transfer probability.
    """
    p = min(max(p2_max, 0.0), 1.0)
    return 0.25 + 0.25 * p + 0.5 * math.sqrt(p)


def _emitted(gamma1: float, omega1: float, t: np.ndarray) -> np.ndarray:
    """sqrt(gamma1) exp(-(gamma1/2 + i omega1) t) for t >= 0, zero before
    the emission starts; the exponential is taken only where t >= 0."""
    out = np.zeros(t.shape, dtype=complex)
    on = t >= 0.0
    vals = -(gamma1 / 2.0 + 1j * omega1) * t[on]
    np.exp(vals, out=vals)
    out[on] = math.sqrt(gamma1) * vals
    return out


def emit_envelope(gamma1: float, omega1: float, t_grid: np.ndarray) -> Envelope:
    """Envelope radiated by system 1 decaying from its excited state.

    Samples sqrt(gamma1) exp(-(gamma1/2 + i omega1) t) for t >= 0 and zero
    before the emission starts (the t = 0 sample takes the full value).
    omega1 is the carrier as it enters the chosen frame
    (`CascadeModel.frame_omegas`): 0 in the rotating frame.
    """
    t, h = _uniform_grid(t_grid, "t_grid")
    return Envelope(float(t[0]), h, _emitted(gamma1, omega1, t))


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
    drive: Callable[[np.ndarray], np.ndarray],
    gamma2: float,
    omega2: float,
    tau: float,
    t_grid: np.ndarray,
) -> TransferResult:
    """Integrate the driven amplitude equation for system 2 (RK4, c2(t0)=0).

    drive maps an array of times to the input amplitudes there, and system
    2 reads it at t - tau.  Each step takes its inputs x0, xm, x1 at its
    start, midpoint and end, the end read one ulp below the grid point, so
    that a drive that jumps on a grid point enters the step that starts
    there.  The drive is evaluated 4096 steps at a time, and each step is
    c <- r c + w0 x0 + wm xm + w1 x1 with the checked coefficients of
    `drive_step_coefficients`, through `cascade.step_history`.
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
        points = float(t[0]) - tau + (h / 2.0) * np.arange(2 * lo, 2 * hi + 1)
        xi = drive(points[:-1])  # each step's start and midpoint
        u[lo:hi] = w0 * xi[0::2] + wm * xi[1::2] + w1 * drive(np.nextafter(points[2::2], -np.inf))
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


def _device_output(gamma1: float, omega1: float, spec: TransformSpec, r: np.ndarray) -> np.ndarray:
    """The device's output at device times r, each phase (`_device_phase`)
    evaluated on its own points: the packet emitted X/c earlier passes
    untouched outside [t_i, t_f), the gap [t_i, t_s) is vacuum, and
    [t_s, t_f) carries U applied to the packet's closed form."""
    phase = _device_phase(r, spec)
    out = np.zeros(r.shape, dtype=complex)
    free, produced = phase == 0, phase == 2
    out[free] = _emitted(gamma1, omega1, r[free] - spec.delay)
    rp = r[produced]
    out[produced] = _u_output(rp, _emitted(gamma1, omega1, (spec.T - rp) / spec.alpha - spec.delay), spec)
    return out


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
    off = drive_system2(partial(_emitted, model.gamma1, w1), model.gamma2, w2, model.tau, t_grid)
    on = drive_system2(partial(_device_output, model.gamma1, w1, spec),
                       model.gamma2, w2, model.tau, t_grid)
    ratio = on.p2_max / off.p2_max if off.p2_max > 0.0 else math.inf
    return TransferComparison(off=off, on=on, ratio=ratio)

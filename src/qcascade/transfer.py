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

Each drive is a list of pieces (a, b, A, mu), the drive A e^(mu (r - a))
on device times a <= r < b and zero outside every piece: the off drive is
the emitted packet, one piece; the on drive is the packet that reaches
the device X/c later, untouched before t_i and after t_f, and U's output
of it on the production window, itself one exponential.  The rate of
system 2 is constant, so each step's input is the exact integral of the
drive over the step, and c2 on the grid is exact to rounding wherever a
piece starts or ends.  The inputs are formed 4096 steps at a time, so a
transfer holds whole only them and the histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import _SLICE, CascadeModel, step_history
from .wavepacket import Envelope, TransformSpec, _u_output, _uniform_grid

# no transfer calls it; the benchmark's layer timing wraps this module's name
from .wavepacket import apply_u_time_domain  # noqa: F401

__all__ = [
    "TransferResult",
    "TransferComparison",
    "qubit_transfer_fidelity",
    "emit_envelope",
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


def _phi1(z: np.ndarray) -> np.ndarray:
    """expm1(z)/z elementwise, from its series 1 + z/2 + z^2/6 where |z| < 1e-5 (z = 0 too)."""
    big = np.abs(z) >= 1e-5
    small = np.where(big, 0.0, z)
    return np.divide(np.expm1(z), z, out=1.0 + small * (0.5 + small / 6.0), where=big)


def _step_inputs(pieces: list[tuple], lam: complex, s: np.ndarray) -> np.ndarray:
    """Input of each step [s_n, s_n+1) between the ascending device times s:
    the integral of e^(lam (s_n+1 - r)) times the drive over the step, piece
    by piece over the part [lo, lo + w) that the piece covers,
    A e^(mu (lo - a) + lam (s_n+1 - lo)) w phi1((mu - lam) w)."""
    u = np.zeros(s.size - 1, dtype=complex)
    for a, b, amp, mu in pieces:
        lo = np.clip(s[:-1], a, b)
        w = np.clip(s[1:], a, b)
        w -= lo
        on = w > 0.0
        lo, w = lo[on], w[on]
        z = (mu - lam) * w
        u[on] += amp * np.exp(mu * (lo - a) + lam * (s[1:][on] - lo)) * w * _phi1(z)
    return u


def drive_system2(
    pieces: list[tuple], gamma2: float, omega2: float, tau: float, t_grid: np.ndarray
) -> TransferResult:
    """Integrate the driven amplitude equation for system 2 exactly (c2(t0) = 0).

    pieces is the drive as (a, b, A, mu), each A e^(mu (r - a)) on device
    times a <= r < b, and system 2 reads it at r = t - tau.  With lam =
    -(gamma2/2 + i omega2), each step is c <- e^(lam h) c - sqrt(gamma2)
    times the integral of e^(lam (t_n+1 - t)) times the drive over the
    step, which `_step_inputs` forms in closed form, 4096 steps at a time;
    `cascade.step_history` takes the recurrence as one blocked scan.  A
    piece may start or end anywhere, on a grid point or inside a step.
    Returns the P2 series, its maximum and the equal-superposition fidelity.
    """
    if not gamma2 > 0.0:
        raise ValueError("gamma2 must be positive")
    if not 0.0 <= omega2 < math.inf:
        raise ValueError("omega2 must be finite and non-negative")
    t, h = _uniform_grid(t_grid, "t_grid")
    n_steps = t.size - 1
    lam = -(gamma2 / 2.0 + 1j * omega2)
    u = np.empty(n_steps, dtype=complex)
    for lo in range(0, n_steps, _SLICE):
        hi = min(lo + _SLICE, n_steps)
        u[lo:hi] = _step_inputs(pieces, lam, t[lo : hi + 1] - tau)
    u *= -math.sqrt(gamma2)
    c2 = step_history(np.array([[np.exp(lam * h)]]), np.zeros((1, 1)), n_steps,
                      u.reshape(-1, 1, 1)).ravel()
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


def _on_pieces(gamma1: float, omega1: float, spec: TransformSpec) -> list[tuple]:
    """The device's output as drive pieces: the packet reaches the device at
    X/c and passes untouched before t_i and after t_f, the gap [t_i, t_s)
    is vacuum, and production carries U applied to the packet read at the
    preimage (T - r)/alpha, until that preimage reaches the emission start.
    U's output is one exponential that grows towards its end; it is split so
    that none of its pieces grows by more than e^512, and no A underflows."""
    mu = -(gamma1 / 2.0 + 1j * omega1)
    start, resume = spec.delay, max(spec.t_f, spec.delay)
    first, last = _emitted(gamma1, omega1, np.array([0.0, resume - start])).tolist()
    pieces = [(start, spec.t_i, first, mu)]
    stop = min(spec.t_f, spec.T - spec.alpha * start)
    if spec.t_s < stop:
        n = math.ceil(gamma1 * (stop - spec.t_s) / spec.alpha / 1024.0)
        edges = np.linspace(spec.t_s, stop, n + 1)
        r = edges[:-1]
        amps = _u_output(r, _emitted(gamma1, omega1, (spec.T - r) / spec.alpha - start), spec)
        rate = -1j * spec.omega0 - mu / spec.alpha
        pieces += [(a, b, amp, rate)
                   for a, b, amp in zip(r.tolist(), edges[1:].tolist(), amps.tolist())]
    pieces.append((resume, math.inf, last, mu))
    return [piece for piece in pieces if piece[0] < piece[1]]


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
    emitted = (0.0, math.inf, math.sqrt(model.gamma1), -(model.gamma1 / 2.0 + 1j * w1))
    off = drive_system2([emitted], model.gamma2, w2, model.tau, t_grid)
    on = drive_system2(_on_pieces(model.gamma1, w1, spec), model.gamma2, w2, model.tau, t_grid)
    ratio = on.p2_max / off.p2_max if off.p2_max > 0.0 else math.inf
    return TransferComparison(off=off, on=on, ratio=ratio)

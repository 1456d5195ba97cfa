"""Generators and master-equation integration for the cascaded pair.

Two two-level systems are coupled unidirectionally through a 1-D field:
system 1 radiates into the channel and drives system 2, never the
reverse.  After eliminating the field (Markov coupling, coherent input
amplitude beta) the reduced dynamics is a Lindblad equation

    drho/dt = i [rho, H0] + J rho J+ - (1/2) {rho, J+ J}

with a single collective jump operator

    J = sqrt(gamma1) s1- + sqrt(gamma2) s2- + beta

and H0 = H_sys + H_ex, where H_ex contains the channel-mediated exchange.
The propagation delay tau never enters the generator; it lives purely in
the interpretation of the composite state, whose system-1 factor is read
at the fictitious time tilde_t = f(t) (see `wavepacket.time_map`).  Each
emitted integration step therefore carries two clocks.

The master equation is integrated with fixed-step classical RK4, applied
as one step matrix (`step_matrix`) to the vectorized density matrix; the
step matrix is checked for stability before the first step, and the
history is re-Hermitized and trace-checked afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import identity, kron, ladder_two_level

__all__ = [
    "CascadeModel",
    "MasterRun",
    "IntegrationAbort",
    "ConsistencyReport",
    "build_h_sys",
    "build_jump_operator",
    "build_h_ex",
    "build_h0",
    "build_h_eff",
    "lindblad_rhs",
    "liouvillian",
    "step_matrix",
    "time_grid",
    "integrate_master",
    "heisenberg_consistency",
]

_SM, _SP, _SZ = ladder_two_level()
_I2 = identity(2)

# Composite two-level pair operators, system 1 on the left.
SIGMA1_MINUS = kron(_SM, _I2)
SIGMA1_PLUS = kron(_SP, _I2)
SIGMA1_Z = kron(_SZ, _I2)
SIGMA2_MINUS = kron(_I2, _SM)
SIGMA2_PLUS = kron(_I2, _SP)
SIGMA2_Z = kron(_I2, _SZ)
NUMBER1 = SIGMA1_PLUS @ SIGMA1_MINUS
NUMBER2 = SIGMA2_PLUS @ SIGMA2_MINUS
IDENT4 = identity(4)


class IntegrationAbort(RuntimeError):
    """Fixed-step integration left its validity regime (step too large)."""


@dataclass(frozen=True)
class CascadeModel:
    """Full parameterization of the cascaded two-system problem.

    gamma1, gamma2 : decay rates into the channel (1/time, > 0)
    omega1, omega2 : resonance angular frequencies (rad/time, >= 0)
    tau            : propagation delay between the systems (time, >= 0)
    beta           : coherent input amplitude (sqrt(1/time)), a
                     rotating-frame constant
    rotating_frame : if True the omegas entering H_sys are zero; the
                     stored values remain available for the transform
    """

    gamma1: float
    gamma2: float
    omega1: float = 0.0
    omega2: float = 0.0
    tau: float = 0.0
    beta: complex = 0.0
    rotating_frame: bool = True

    def __post_init__(self) -> None:
        # each message starts with the field it names
        for name in ("gamma1", "gamma2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("omega1", "omega2", "tau"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        # |beta|^2 sets a rate scale; hypot and * overflow to inf where ** raises
        mag = math.hypot(self.beta.real, self.beta.imag)
        if not math.isfinite(mag * mag):
            raise ValueError(f"beta has |beta|^2 of {self.beta!r} above the largest float")

    def frame_omegas(self) -> tuple[float, float]:
        """(omega1, omega2) as they enter H_sys in the chosen frame."""
        if self.rotating_frame:
            return 0.0, 0.0
        return self.omega1, self.omega2


def build_h_sys(model: CascadeModel) -> np.ndarray:
    """H_sys = (omega1 sz1 + omega2 sz2)/2 with frame-resolved omegas."""
    w1, w2 = model.frame_omegas()
    return 0.5 * (w1 * SIGMA1_Z + w2 * SIGMA2_Z)


def build_jump_operator(model: CascadeModel) -> np.ndarray:
    """J = sqrt(gamma1) s1- + sqrt(gamma2) s2- + beta on the composite space."""
    return (
        math.sqrt(model.gamma1) * SIGMA1_MINUS
        + math.sqrt(model.gamma2) * SIGMA2_MINUS
        + model.beta * IDENT4
    )


def build_h_ex(model: CascadeModel) -> np.ndarray:
    """Channel-mediated exchange Hamiltonian, Hermitian by construction."""
    g1 = math.sqrt(model.gamma1)
    g2 = math.sqrt(model.gamma2)
    term = (-0.5j) * (
        g1 * g2 * (SIGMA2_PLUS @ SIGMA1_MINUS)
        + (g1 * SIGMA1_PLUS + g2 * SIGMA2_PLUS) * model.beta
    )
    return term + term.conj().T


def build_h0(model: CascadeModel) -> np.ndarray:
    """H0 = H_sys + H_ex."""
    return build_h_sys(model) + build_h_ex(model)


def build_h_eff(model: CascadeModel) -> np.ndarray:
    """Non-Hermitian generator of the no-jump evolution, H0 - (i/2) J+ J.

    Expanding shows the one-way structure: the s1- s2+ term survives with
    weight -i sqrt(gamma1 gamma2) while its Hermitian conjugate cancels.
    """
    j = build_jump_operator(model)
    return build_h0(model) - 0.5j * (j.conj().T @ j)


def lindblad_rhs(rho: np.ndarray, model: CascadeModel) -> np.ndarray:
    """Right-hand side i[rho, H0] + J rho J+ - (1/2){rho, J+J} (traceless)."""
    rho = np.asarray(rho, dtype=complex)
    h0 = build_h0(model)
    j = build_jump_operator(model)
    jdj = j.conj().T @ j
    return (
        1j * (rho @ h0 - h0 @ rho)
        + j @ rho @ j.conj().T
        - 0.5 * (jdj @ rho + rho @ jdj)
    )


def _superoperator(h0: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Matrix acting on row-major vec(rho) for the Lindblad flow."""
    dim = h0.shape[0]
    ident = np.eye(dim, dtype=complex)
    jdj = j.conj().T @ j
    return (
        1j * (np.kron(ident, h0.T) - np.kron(h0, ident))
        + np.kron(j, j.conj())
        - 0.5 * (np.kron(jdj, ident) + np.kron(ident, jdj.T))
    )


def liouvillian(model: CascadeModel) -> np.ndarray:
    """16x16 superoperator matrix for the cascaded pair."""
    return _superoperator(build_h0(model), build_jump_operator(model))


def step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step of y' = a y as one matrix: y <- P y.

    For a constant generator the four stages collapse to
    P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24.
    """
    ha = h * np.asarray(a, dtype=complex)
    ident = np.eye(ha.shape[0], dtype=complex)
    return ident + ha @ (ident + ha @ (ident + ha @ (ident + ha / 4.0) / 3.0) / 2.0)


def time_grid(t_span: tuple[float, float], dt: float) -> np.ndarray:
    """Fixed-step grid t0 + k dt for k = 0 .. round((t1 - t0)/dt).

    The one time-grid rule of the integrators and the CLI: t1 is rounded
    to a whole number of steps.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    return t0 + dt * np.arange(int(round((t1 - t0) / dt)) + 1)


def _rk4_density_history(
    lmat: np.ndarray,
    rho0: np.ndarray,
    n_steps: int,
    dt: float,
    trace_tol: float = 1e-6,
) -> np.ndarray:
    """Fixed-step RK4 on vec(rho), one step matrix checked for stability first.

    The history is re-Hermitized and trace-checked after the loop.  rho0
    may carry a leading batch axis, shape (B, dim, dim); the batch shares
    one step loop.  Returns the history, shape (n_steps + 1, [B,] dim, dim).
    """
    pt = step_matrix(lmat, dt).T.copy()
    if not np.all(np.isfinite(pt)):
        raise IntegrationAbort(f"RK4 step matrix is not finite at dt={dt:g}")
    radius = float(np.max(np.abs(np.linalg.eigvals(pt))))
    if radius > 1.0 + 1e-12:
        raise IntegrationAbort(
            f"RK4 step matrix has spectral radius {radius:.6g} > 1; reduce the step size dt={dt:g}"
        )
    batched = rho0.ndim == 3
    rho_b = rho0 if batched else rho0[None, :, :]
    history = np.empty((n_steps + 1, *rho_b.shape), dtype=complex)
    history[0] = rho_b
    flat = history.reshape(n_steps + 1, rho_b.shape[0], -1)
    for step in range(n_steps):
        flat[step + 1] = flat[step] @ pt
    for lo in range(1, n_steps + 1, 4096):  # blocks: no temporary spans the whole history
        block = history[lo : lo + 4096]
        block[...] = 0.5 * (block + block.conj().swapaxes(-1, -2))
        worst = np.max(np.abs(np.trace(block, axis1=-2, axis2=-1) - 1.0), axis=1)
        bad = np.flatnonzero(~(worst <= trace_tol))  # NaN counts as bad
        if bad.size:
            step = lo + int(bad[0])
            raise IntegrationAbort(
                f"trace deviation {worst[bad[0]]:.3e} > {trace_tol:.1e} at step "
                f"{step} (t = {step * dt:.6g}); reduce the step size dt={dt:g}"
            )
    return history if batched else history[:, 0]


@dataclass(eq=False)
class MasterRun:
    """Time series emitted by integrate_master.

    tilde_t uses NaN where the fictitious system-1 clock is undefined.
    """

    times: np.ndarray
    tilde_t: np.ndarray
    rhos: np.ndarray
    model: CascadeModel
    p1: np.ndarray = field(init=False)
    p2: np.ndarray = field(init=False)
    sigma1: np.ndarray = field(init=False)
    sigma2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.p1 = np.einsum("nij,ji->n", self.rhos, NUMBER1).real
        self.p2 = np.einsum("nij,ji->n", self.rhos, NUMBER2).real
        self.sigma1 = np.einsum("nij,ji->n", self.rhos, SIGMA1_MINUS)
        self.sigma2 = np.einsum("nij,ji->n", self.rhos, SIGMA2_MINUS)

    def trace_deviation(self) -> np.ndarray:
        return np.abs(np.einsum("nii->n", self.rhos) - 1.0)

    def min_eigenvalues(self) -> np.ndarray:
        return np.min(np.linalg.eigvalsh(self.rhos), axis=1)


def integrate_master(
    rho0: np.ndarray,
    model: CascadeModel,
    t_span: tuple[float, float],
    dt: float,
    transform=None,
) -> MasterRun:
    """Integrate the cascaded master equation with fixed-step RK4.

    rho0 is the composite 4x4 density matrix at t_span[0].  When a
    `wavepacket.TransformSpec` is supplied the fictitious system-1 clock
    is attached through the piecewise time map; otherwise tilde_t = t - tau.

    Recommended dt * max(gamma1, gamma2, |beta|^2) <= 0.1.  An RK4 step
    matrix with spectral radius above 1 aborts with IntegrationAbort
    before the first step, a trace deviation above 1e-6 after the loop.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t1 <= t0:
        raise ValueError("t_span must satisfy t1 > t0")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"rho0 must be 4x4 for the two-level pair, got {rho0.shape}")
    times = time_grid(t_span, dt)
    rhos = _rk4_density_history(liouvillian(model), rho0, times.size - 1, dt)
    if transform is not None:
        from .wavepacket import phase_schedule, time_map

        schedule = phase_schedule(transform)
        tilde = np.array(
            [
                np.nan if (v := time_map(t, transform, schedule, model.tau)) is None else v
                for t in times
            ]
        )
    else:
        tilde = times - model.tau
    return MasterRun(times=times, tilde_t=tilde, rhos=rhos, model=model)


@dataclass(eq=False)
class ConsistencyReport:
    """Cross-check of Heisenberg amplitude EOMs against the master equation.

    max_deviation is over both coherences and the full time grid.
    analytic_sigma1_deviation compares the master-equation <s1-> against
    the closed-form decay (available for beta = 0); it carries the
    integrator's own O(dt^4) error and is the quantity used for step-size
    order checks, since the two integrations agree to round-off whenever
    the amplitude closure is exact.
    """

    times: np.ndarray
    sigma1_deviation: float
    sigma2_deviation: float
    max_deviation: float
    analytic_sigma1_deviation: float | None


def heisenberg_consistency(
    model: CascadeModel,
    t_span: tuple[float, float],
    dt: float,
    rho0: np.ndarray | None = None,
) -> ConsistencyReport:
    """Compare the two-level expectation EOMs against the master equation.

    Integrates d<s1->/dt = -(gamma1/2 + i w1)<s1-> - sqrt(gamma1) beta and
    d<s2->/dt = -(gamma2/2 + i w2)<s2-> - sqrt(gamma2)(beta
    + sqrt(gamma1)<s1->), i.e. the operator EOMs closed with the
    single-excitation replacement <sz . drive> -> -<drive>, and compares
    with expectations of the RK4 master-equation run at the same step.
    The closure is exact for beta = 0 and states in the <= 1 excitation
    sector; for beta != 0 the reported deviation includes the closure bias.

    Default initial state: ((|e> + |g>)/sqrt2) (x) |g>, which has nonzero
    coherences so the comparison is not vacuous.
    """
    if rho0 is None:
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        psi0 = np.kron(plus, np.array([0.0, 1.0], dtype=complex))
        rho0 = np.outer(psi0, psi0.conj())
    run = integrate_master(rho0, model, t_span, dt)
    w1, w2 = model.frame_omegas()
    g1 = math.sqrt(model.gamma1)
    g2 = math.sqrt(model.gamma2)
    # the affine flow v' = M v + b as a linear flow on (v, 1)
    aug = np.array(
        [
            [-(model.gamma1 / 2.0 + 1j * w1), 0.0, -g1 * model.beta],
            [-g1 * g2, -(model.gamma2 / 2.0 + 1j * w2), -g2 * model.beta],
            [0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    p = step_matrix(aug, dt)
    amp = np.empty((run.times.size, 3), dtype=complex)
    amp[0] = [run.sigma1[0], run.sigma2[0], 1.0]
    for step in range(run.times.size - 1):
        amp[step + 1] = p @ amp[step]
    dev1 = float(np.max(np.abs(amp[:, 0] - run.sigma1)))
    dev2 = float(np.max(np.abs(amp[:, 1] - run.sigma2)))
    analytic = None
    if model.beta == 0:
        exact = run.sigma1[0] * np.exp(-(model.gamma1 / 2.0 + 1j * w1) * (run.times - run.times[0]))
        analytic = float(np.max(np.abs(run.sigma1 - exact)))
    return ConsistencyReport(
        times=run.times,
        sigma1_deviation=dev1,
        sigma2_deviation=dev2,
        max_deviation=max(dev1, dev2),
        analytic_sigma1_deviation=analytic,
    )

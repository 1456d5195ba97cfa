"""Comparison references for the tests: code that no experiment runs.

Each definition here checks a shipped solver against an independent
route to the same quantity, so it lives beside the tests rather than in
the package.

* `two_level_ket`, `composite_ket` and `density_from_ket` -- kets by
  subsystem labels, built as Kronecker products, and |psi><psi| / <psi|psi>,
  against the literal kets and densities of the CLI's initial states.
* `lindblad_rhs` -- the master equation's right-hand side as matrix
  products, against the vectorized Liouvillian.
* `heisenberg_consistency` -- the single-excitation amplitude equations
  against the master equation's coherences.
* `check_time_reversed_envelope` -- a least-squares fit of the reversed
  system-1 coherence's growth and rotation rates.
* the frequency-domain route: `Spectrum`, `envelope_to_spectrum`,
  `spectrum_to_envelope` and `apply_u_frequency_domain`, the paper's
  out(nu) = sqrt(alpha) in(-alpha (nu - omega0)) e^{i nu T}, against the
  time-domain form every experiment runs.
* `heaviside`, the unit step with u(0) = 1/2.
* `density_history` -- every rho of a master-equation run, held whole,
  against the run's slice-by-slice reduction.
* `step_inputs` and `drive_history` -- the transfer's exact step inputs
  formed over the whole grid, against `drive_system2`, which forms them a
  slice at a time, each piece over the range of steps it overlaps.
* `read_pieces` -- the drive that a list of pieces describes, at any times,
  and `device_output`, the device's output phase by phase from the emitted
  packet's closed form and U, against the pieces of the on drive.
* `rk4_step_matrix` -- one classical RK4 step as one matrix, the step matrix
  before the exact one: its norm loss on a state that cannot jump reaches
  the trajectory core's "norm fell to 0" abort, which the exact step does not.

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

import numpy as np

from qcascade import cascade
from qcascade.cascade import (
    CascadeModel,
    build_h0,
    build_jump_operator,
    integrate_master,
    step_history,
    step_matrix,
    time_grid,
)
from qcascade.transfer import _emitted
from qcascade.wavepacket import (
    Envelope,
    TransformSpec,
    _device_phase,
    _u_output,
    _uniform_grid,
    derive_transform_params,
)

_SQRT2PI = math.sqrt(2.0 * math.pi)


def two_level_ket(label: str) -> np.ndarray:
    """|e> or |g> in the (|e>, |g>) ordering."""
    ket = np.zeros(2, dtype=complex)
    ket[{"e": 0, "g": 1}[label]] = 1.0
    return ket


def composite_ket(labels: str) -> np.ndarray:
    """Product ket for a string of two-level labels, system 1 first: 'eg' -> |e>|g>."""
    ket = two_level_ket(labels[0])
    for ch in labels[1:]:
        ket = np.kron(ket, two_level_ket(ch))
    return ket


def density_from_ket(psi: np.ndarray) -> np.ndarray:
    """Normalized density matrix |psi><psi| / <psi|psi>."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj()) / float(np.real(psi.conj() @ psi))


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


def density_history(
    rho0: np.ndarray, model: CascadeModel, t_span: tuple[float, float], dt: float
) -> np.ndarray:
    """Every rho of `integrate_master`'s run, (n_steps + 1, 4, 4).

    The whole history from `step_history` with the run's step matrix,
    re-Hermitized as the run re-Hermitizes each slice (rho0 as given).
    """
    n_steps = time_grid(t_span, dt).size - 1
    # through the module attribute, so that a test that patches liouvillian is seen
    pt = step_matrix(cascade.liouvillian(model), dt).T.copy()
    rhos = step_history(pt, np.asarray(rho0, dtype=complex).reshape(1, -1), n_steps)
    rhos = rhos.reshape(-1, 4, 4)
    later = rhos[1:]
    later += later.conj().swapaxes(-1, -2)
    later *= 0.5
    return rhos


def rk4_step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 step of y' = a y as one matrix: y <- P y.

    For a constant generator the four stages collapse to
    P = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24.
    """
    ha = h * np.asarray(a, dtype=complex)
    ident = np.eye(ha.shape[0], dtype=complex)
    return ident + ha @ (ident + ha @ (ident + ha @ (ident + ha / 4.0) / 3.0) / 2.0)


def step_inputs(pieces, lam: complex, s: np.ndarray) -> np.ndarray:
    """The transfer's exact step inputs, formed over all steps [s_n, s_n+1) of
    the device times s at once.

    Each piece (a, b, A, mu) adds A e^(mu (lo - a) + lam (s_n+1 - lo)) w (e^(z) - 1)/z,
    z = (mu - lam) w, on the part [lo, lo + w) of the step it covers (the last
    factor from its series 1 + z/2 + z^2/6 where |z| < 1e-5).
    """
    u = np.zeros(s.size - 1, dtype=complex)
    for a, b, amp, mu in pieces:
        lo = np.clip(s[:-1], a, b)
        w = np.clip(s[1:], a, b) - lo
        on = w > 0.0
        lo, w = lo[on], w[on]
        z = (mu - lam) * w
        phi = np.empty_like(z)
        big = np.abs(z) >= 1e-5
        phi[big] = np.expm1(z[big]) / z[big]
        phi[~big] = 1.0 + z[~big] * (0.5 + z[~big] / 6.0)
        u[on] += amp * np.exp(mu * (lo - a) + lam * (s[1:][on] - lo)) * w * phi
    return u


def drive_history(
    pieces, gamma2: float, omega2: float, tau: float, t_grid: np.ndarray
) -> np.ndarray:
    """c2 of `drive_system2`'s run, (n_steps + 1,), with the step inputs formed whole.

    `step_inputs` over all steps of s = t - tau at once, times -sqrt(gamma2),
    go to `step_history` with the step factor e^(lam h).
    """
    t, h = _uniform_grid(t_grid, "t_grid")
    lam = -(gamma2 / 2.0 + 1j * omega2)
    u = step_inputs(pieces, lam, t - tau)
    u *= -math.sqrt(gamma2)
    return step_history(np.array([[np.exp(lam * h)]]), np.zeros((1, 1)), t.size - 1,
                        u.reshape(-1, 1, 1)).ravel()


def read_pieces(pieces, r: np.ndarray) -> np.ndarray:
    """The drive that pieces (a, b, A, mu) describe at the times r: A e^(mu (r - a))
    where a <= r < b, zero where no piece covers r."""
    out = np.zeros(r.shape, dtype=complex)
    for a, b, amp, mu in pieces:
        on = (a <= r) & (r < b)
        out[on] += amp * np.exp(mu * (r[on] - a))
    return out


def device_output(gamma1: float, omega1: float, spec: TransformSpec, r: np.ndarray) -> np.ndarray:
    """The device's output at device times r, phase by phase (`_device_phase`):
    the packet emitted X/c earlier passes untouched outside [t_i, t_f), the gap
    [t_i, t_s) is vacuum, and [t_s, t_f) carries U applied to the packet's
    closed form at the preimage (T - r)/alpha, zero before the emission starts."""
    phase = _device_phase(r, spec)
    out = np.zeros(r.shape, dtype=complex)
    free, produced = phase == 0, phase == 2
    out[free] = _emitted(gamma1, omega1, r[free] - spec.delay)
    rp = r[produced]
    out[produced] = _u_output(rp, _emitted(gamma1, omega1, (spec.T - rp) / spec.alpha - spec.delay), spec)
    return out


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
    with expectations of the master-equation run at the same step.  Both
    sides take the exact step matrix, so where the closure is exact, for
    beta = 0 and states in the <= 1 excitation sector, they agree to
    rounding; for beta != 0 the reported deviation includes the closure bias.

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
    amp0 = np.array([[run.sigma1[0], run.sigma2[0], 1.0]])
    amp = step_history(step_matrix(aug, dt).T, amp0, run.times.size - 1)[:, 0]
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
    nu_arr, dnu_out = _uniform_grid(nu_out, "nu_out")
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
    return Spectrum(float(nu_arr[0]), dnu_out, samples, t_ref=t_ref_out)


def heaviside(x: float) -> float:
    """Unit step with u(0) = 1/2."""
    if x < 0.0:
        return 0.0
    if x == 0.0:
        return 0.5
    return 1.0

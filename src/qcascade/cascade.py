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
at the fictitious time tilde_t = f(t).  The integrator knows only lab
time: the `lindblad` experiment tags each row with the second clock.

The generator is constant in time, so one step of the flow is exactly
e^(dt L): the master equation applies that one step matrix (`step_matrix`,
by scaling and squaring) to the vectorized density matrix, so there is no
truncation error to control, and the history is taken by blocks of its
powers, one slice of 4096 rows at a time (`_scan`).  A run holds no
history: each slice is re-Hermitized and reduced as it is made.  Every
observable a run reports, tr(rho op) for op in n1, n2, s1-, s2- and
the identity, is one column of the slice's product with a constant readout
matrix, and the trace check reads the identity's column of that product.
The least eigenvalue of each rho is taken from the slice too, but only when
asked for.  Where the generator and rho0 keep the excitation sectors {ee},
{eg, ge}, {gg} apart, every rho is block-diagonal in them and its least
eigenvalue comes from the blocks instead of a 4x4 eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CascadeModel",
    "MasterRun",
    "IntegrationAbort",
    "build_h_sys",
    "build_jump_operator",
    "build_h_ex",
    "build_h0",
    "build_h_eff",
    "liouvillian",
    "step_matrix",
    "time_grid",
    "step_history",
    "integrate_master",
]

# One two-level system on (|e>, |g>): sigma- |e> = |g>, sigma+ its conjugate
# transpose, sigma_z = diag(+1, -1).  The composite basis is |ee>, |eg>, |ge>,
# |gg> at indices 0..3: system 1 is the left Kronecker factor.
_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

# Composite two-level pair operators.
SIGMA1_MINUS = np.kron(_SM, _I2)
SIGMA1_PLUS = np.kron(_SP, _I2)
SIGMA1_Z = np.kron(_SZ, _I2)
SIGMA2_MINUS = np.kron(_I2, _SM)
SIGMA2_PLUS = np.kron(_I2, _SP)
SIGMA2_Z = np.kron(_I2, _SZ)
NUMBER1 = SIGMA1_PLUS @ SIGMA1_MINUS
NUMBER2 = SIGMA2_PLUS @ SIGMA2_MINUS
IDENT4 = np.eye(4, dtype=complex)

# tr(rho op) = vec(rho) . vec(op^T) on row-major vecs, so vec(rho) @ _READOUT
# holds the run's observables in one row: P1, P2, <s1->, <s2->, tr rho.
_READOUT = np.stack(
    [op.T.reshape(-1) for op in (NUMBER1, NUMBER2, SIGMA1_MINUS, SIGMA2_MINUS, IDENT4)], axis=1
)

# number of excitations of each basis state, and the row-major vec(rho)
# entries that couple two different such sectors
_SECTOR = np.array([2, 1, 1, 0])
_CROSS = (_SECTOR[:, None] != _SECTOR).reshape(-1)


class IntegrationAbort(RuntimeError):
    """A fixed-step run left its validity regime: a step matrix that is not
    finite, a trace that drifts, a jump probability per step above 0.1, or a
    norm that falls to 0."""


@dataclass(frozen=True)
class CascadeModel:
    """Full parameterization of the cascaded two-system problem.

    gamma1, gamma2 : decay rates into the channel (1/time, > 0)
    omega1, omega2 : resonance angular frequencies (rad/time, >= 0)
    tau            : propagation delay between the systems (time, >= 0)
    beta           : coherent input amplitude (sqrt(1/time)), a
                     rotating-frame constant
    rotating_frame : if True the omegas entering H_sys are zero, and the
                     stored values enter nothing (`frame_omegas`)
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
        for name in ("gamma1", "gamma2", "omega1", "omega2", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.kron of two square matrices, the same products as one broadcast
    # product, without np.kron's handling of general shapes
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def _superoperator(h0: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Matrix acting on row-major vec(rho) for the Lindblad flow."""
    dim = h0.shape[0]
    ident = np.eye(dim, dtype=complex)
    jdj = j.conj().T @ j
    return (
        1j * (_kron(ident, h0.T) - _kron(h0, ident))
        + _kron(j, j.conj())
        - 0.5 * (_kron(jdj, ident) + _kron(ident, jdj.T))
    )


def liouvillian(model: CascadeModel) -> np.ndarray:
    """16x16 superoperator matrix for the cascaded pair."""
    return _superoperator(build_h0(model), build_jump_operator(model))


def step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    """e^(ha), the exact step of y' = a y as one matrix: y <- P y.

    By scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3 (2003)): the
    degree-18 Taylor polynomial of ha / 2^s, 2^s the least power of two
    that brings the 1-norm of ha to 1 or below, by Horner, squared s times.
    The polynomial's truncation error is below 1/19! < 1e-17 there.  A zero
    that the pattern of a forces in every power of a, such as a column of
    zeros or a set of entries that a never feeds, is an exact zero of P.  A P
    that is not finite is an IntegrationAbort naming dt.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as not finite
        x = h * np.asarray(a, dtype=complex)
        mant, s = math.frexp(float(np.max(np.sum(np.abs(x), axis=0))))
        s = max(0, s - (mant == 0.5))
        x *= 2.0**-s
        ident = np.eye(x.shape[0], dtype=complex)
        p = ident
        for k in range(18, 0, -1):
            p = ident + x @ p / k
        for _ in range(s):
            p = p @ p
    if not np.all(np.isfinite(p)):
        raise IntegrationAbort(f"step matrix is not finite at dt={h:g}")
    return p


_MAX_GRID = np.iinfo(np.intp).max // 8  # the most float64 values one array can hold


def time_grid(t_span: tuple[float, float], dt: float) -> np.ndarray:
    """Fixed-step grid t0 + k dt for k = 0 .. round((t1 - t0)/dt).

    The one time-grid rule of the integrators and the CLI: t1 is rounded
    to a whole number of steps.  A dt that is not positive, a t_span that
    is not finite with t1 > t0, or more steps than one array holds is a
    ValueError naming dt or t_span.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must have finite ends, got ({t0!r}, {t1!r})")
    steps = (t1 - t0) / dt
    if not steps < _MAX_GRID:
        raise ValueError(f"dt = {dt!r} makes {steps:.3g} steps over t_span, "
                         "more than one array holds")
    return t0 + dt * np.arange(int(round(steps)) + 1)


_BLOCK = 64  # the longest block of the scan, and the most steps it takes one at a time
_SLICE = 4096  # rows of the scan's output per slice, and so per matmul


def _scan(p, x0, n_steps, inputs=None):
    """Rows x[k+1] = x[k] @ p + inputs[k], k < n_steps, from x[0] = x0, each of shape (m, d).

    The blocked scan of a linear recurrence (Blelloch, "Prefix sums and their
    applications", 1990) in blocks of b steps, b the least power of two at or
    above sqrt(n_steps) but at most 64: a short history does not pay for 64 powers.
    p^1..p^b come from log2(b) doublings.  A block's rows are one matmul of its
    first row against [p^1 | ... | p^b], plus, with inputs (n_steps, m, d), one
    of its inputs against the block-Toeplitz matrix of p^(j - i), j >= i.  The
    block starts, n_steps/b rows, are the same recurrence in p^b, solved first
    by recursion, so at most 64 steps are taken one at a time.

    Yields (lo, rows) for rows lo .. lo + len(rows) - 1: row 0 alone, then
    slices [1, 4097), [4097, 8193), ..., each filled into one reused (4096, m, d)
    complex buffer, so the whole history is never held.  A consumer may change
    a slice in place.
    """
    x0 = np.array(x0, dtype=complex)
    m, d = x0.shape
    yield 0, x0[None]
    buf = np.empty((min(n_steps, _SLICE), m, d), dtype=complex)
    if n_steps <= _BLOCK:
        prev = x0
        for k in range(n_steps):
            buf[k] = prev @ p if inputs is None else prev @ p + inputs[k]
            prev = buf[k]
        if n_steps:
            yield 1, buf
        return
    b = min(_BLOCK, 1 << ((n_steps - 1).bit_length() + 1) // 2)
    wide = np.empty((d, b * d), dtype=complex)  # [p^1 | ... | p^b]
    wide[:, :d] = p
    for k in [1 << e for e in range(b.bit_length() - 1)]:
        np.matmul(wide[:, (k - 1) * d : k * d], wide[:, : k * d], out=wide[:, k * d : 2 * k * d])

    def response(lo, nb, w, cols):  # of columns cols to the first w inputs of nb blocks from lo
        u = inputs[lo : lo + nb * b].reshape(nb, -1, m, d)[:, :w]
        return u.swapaxes(1, 2).reshape(nb * m, w * d) @ toep[: w * d, cols]

    n_full, rem = divmod(n_steps, b)
    ends = None
    if inputs is not None:
        lag = np.arange(b) - np.arange(b)[:, None]
        toep = np.concatenate((np.eye(d)[None], wide.reshape(d, b, d).swapaxes(0, 1)[:-1]))
        toep = np.where(lag[:, :, None, None] >= 0, toep[np.maximum(lag, 0)], 0)
        toep = toep.transpose(0, 2, 1, 3).reshape(b * d, b * d)
        ends = [response(lo, min(_SLICE // b, n_full - lo // b), b, slice(-d, None))
                for lo in range(0, n_steps - rem, _SLICE)]
        ends = np.concatenate(ends).reshape(n_full, m, d)
    starts = step_history(wide[:, -d:], x0, n_full, ends)  # row j is row j * b
    for lo in range(0, n_steps, _SLICE):
        j, nb = lo // b, min(_SLICE // b, n_full - lo // b)  # first block, full blocks
        rows = buf[: min(_SLICE, n_steps - lo)]
        if nb:
            fill = starts[j : j + nb].reshape(nb * m, d) @ wide[:, : (b - 1) * d]
            if inputs is not None:
                fill += response(lo, nb, b - 1, slice((b - 1) * d))
            blocks = rows[: nb * b].reshape(nb, b, m, d)
            blocks[:, :-1] = fill.reshape(nb, m, b - 1, d).swapaxes(1, 2)
            blocks[:, -1] = starts[j + 1 : j + nb + 1]  # a block ends where the next starts
        if len(rows) > nb * b:  # the last rem rows, after the last full block
            fill = starts[n_full] @ wide[:, : rem * d]
            if inputs is not None:
                fill += response(n_steps - rem, 1, rem, slice(rem * d))
            rows[nb * b :] = fill.reshape(m, rem, d).swapaxes(0, 1)
        yield lo + 1, rows


def step_history(p, x0, n_steps, inputs=None) -> np.ndarray:
    """All n_steps + 1 rows of the recurrence that `_scan` takes, (n_steps + 1, m, d) complex."""
    out = np.empty((n_steps + 1, *np.shape(x0)), dtype=complex)
    for lo, rows in _scan(p, x0, n_steps, inputs):
        out[lo : lo + len(rows)] = rows
    return out


_TRACE_TOL = 1e-6  # largest |tr rho - 1| a master-equation run may reach


def _least_eig(r: np.ndarray, sectored: bool) -> np.ndarray:
    """Least eigenvalue of each Hermitian 4x4 of r, (k, 4, 4).

    Where every rho is block-diagonal in the excitation sectors (sectored),
    it is the least of rho_ee, rho_gg and the lower eigenvalue of the
    Hermitian {eg, ge} block, (a + b)/2 - hypot((a - b)/2, |c|), with no
    eigensolve; out= keeps at most two temporaries live.
    """
    if not sectored:
        return np.min(np.linalg.eigvalsh(r), axis=1)
    a, b = r[:, 1, 1].real, r[:, 2, 2].real
    low = 0.5 * (a - b)
    np.hypot(low, np.abs(r[:, 1, 2]), out=low)
    np.subtract(0.5 * (a + b), low, out=low)
    return np.minimum(np.minimum(r[:, 0, 0].real, r[:, 3, 3].real), low, out=low)


def _readout(lmat, rho0, n_steps, dt, least=None):
    """The exact step e^(dt lmat) on vec(rho), as one step matrix.

    The steps come from `_scan` a slice at a time, and each slice is reduced
    as it is made: re-Hermitized in place (rho0 is kept as given), read as
    vec(rho) times `_READOUT` in one matmul, checked on that product's trace
    column and, when least is given, passed to it for each rho's least
    eigenvalue.  Returns the product, (n_steps + 1, 5), and the least
    eigenvalues, (n_steps + 1,) or None.
    """
    pt = step_matrix(lmat, dt).T.copy()
    reads = np.empty((n_steps + 1, 5), dtype=complex)
    low = None if least is None else np.empty(n_steps + 1)
    for lo, flat in _scan(pt, rho0.reshape(1, -1), n_steps):  # flat: (k, 1, 16)
        block = flat.reshape(-1, 4, 4)
        if lo:
            block += block.conj().swapaxes(-1, -2)  # in place: conj() is a copy, so no overlap
            block *= 0.5
        rows = reads[lo : lo + len(block)]
        np.matmul(flat.reshape(-1, 16), _READOUT, out=rows)
        worst = np.abs(rows[:, 4] - 1.0)
        bad = np.flatnonzero(~(worst <= _TRACE_TOL))  # NaN counts as bad
        if bad.size:
            step = lo + int(bad[0])
            raise IntegrationAbort(
                f"trace deviation {worst[bad[0]]:.3e} > {_TRACE_TOL:.1e} at step "
                f"{step} (t = {step * dt:.6g}, dt={dt:g})"
            )
        if least is not None:
            low[lo : lo + len(block)] = least(block)
    return reads, low


def _keeps_sectors(lmat: np.ndarray, rho0: np.ndarray) -> bool:
    """True when no rho of the run can couple two excitation sectors.

    rho0 has no entry between sectors and lmat feeds none from an entry
    within a sector, so the scan keeps every such entry exactly 0.
    """
    return not (np.any(rho0.reshape(-1)[_CROSS]) or np.any(lmat[np.ix_(_CROSS, ~_CROSS)]))


@dataclass(eq=False)
class MasterRun:
    """Time series emitted by integrate_master.

    readout holds one row per time, tr(rho op) for op in n1, n2, s1-, s2-
    and the identity: P1, P2, <s1->, <s2->, tr rho.  keeps_sectors says
    that every rho is block-diagonal in the excitation sectors {ee},
    {eg, ge}, {gg}.  min_eig holds each rho's least eigenvalue when the run
    was asked for it, else None.
    """

    times: np.ndarray
    readout: np.ndarray
    keeps_sectors: bool = False
    min_eig: np.ndarray | None = None
    p1: np.ndarray = field(init=False)
    p2: np.ndarray = field(init=False)
    sigma1: np.ndarray = field(init=False)
    sigma2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.p1 = self.readout[:, 0].real
        self.p2 = self.readout[:, 1].real
        self.sigma1 = self.readout[:, 2]
        self.sigma2 = self.readout[:, 3]

    def trace_deviation(self) -> np.ndarray:
        return np.abs(self.readout[:, 4] - 1.0)

    def min_eigenvalues(self) -> np.ndarray:
        if self.min_eig is None:
            raise ValueError("min_eig was not taken: run integrate_master with min_eig=True")
        return self.min_eig


# rho0's largest elementwise Hermiticity deviation and |tr rho0 - 1|, and its
# least eigenvalue (slightly negative values are round-off)
_HERM_TOL, _RHO0_TRACE_TOL, _EIG_FLOOR = 1e-12, 1e-9, -1e-9


def _check_rho0(rho0: np.ndarray) -> None:
    """ValueError naming rho0 unless it is a 4x4 density matrix, to the tolerances above."""
    if rho0.shape != (4, 4):
        raise ValueError(f"rho0 must be 4x4 for the two-level pair, got {rho0.shape}")
    why = "rho0 is not a density matrix: density matrix"
    herm_dev = float(np.max(np.abs(rho0 - rho0.conj().T)))
    if herm_dev > _HERM_TOL:
        raise ValueError(f"{why} Hermiticity deviation {herm_dev} > {_HERM_TOL}")
    trace_dev = abs(complex(np.trace(rho0)) - 1.0)
    if trace_dev > _RHO0_TRACE_TOL:
        raise ValueError(f"{why} trace deviation {trace_dev} > {_RHO0_TRACE_TOL}")
    min_eig = float(np.min(np.linalg.eigvalsh((rho0 + rho0.conj().T) / 2.0)))
    if min_eig < _EIG_FLOOR:
        raise ValueError(f"{why} eigenvalue {min_eig} below floor {_EIG_FLOOR}")


def integrate_master(
    rho0: np.ndarray,
    model: CascadeModel,
    t_span: tuple[float, float],
    dt: float,
    *,
    min_eig: bool = False,
) -> MasterRun:
    """Integrate the cascaded master equation by the exact step matrix e^(dt L).

    dt and t_span are checked by `time_grid`.  rho0 is the composite 4x4
    density matrix at t_span[0]: Hermitian, unit-trace and positive, or
    ValueError naming rho0, before any step (`_check_rho0`).  The run is
    on lab time only.
    With min_eig, each rho's least eigenvalue is taken too
    (`MasterRun.min_eigenvalues`); a 4x4 eigensolve per row costs more than
    the scan, so it is left out by default.  Whether the run keeps the
    excitation sectors apart, so that it is taken per sector instead, is
    decided here from the Liouvillian and rho0 before the scan (true at
    beta = 0 from eg, ge, ee or gg).

    Each step is exact to rounding, so dt sets only where the history is
    sampled (the CLI keeps dt * max(gamma1, gamma2, |beta|^2) <= 0.1).  A
    step matrix that is not finite aborts with IntegrationAbort before the
    first step, a trace deviation above 1e-6 at the slice that reaches it.
    """
    times = time_grid(t_span, dt)
    rho0 = np.asarray(rho0, dtype=complex)
    _check_rho0(rho0)
    lmat = liouvillian(model)
    sectored = _keeps_sectors(lmat, rho0)
    least = (lambda r: _least_eig(r, sectored)) if min_eig else None
    readout, low = _readout(lmat, rho0, times.size - 1, dt, least)
    return MasterRun(times=times, readout=readout, keeps_sectors=sectored, min_eig=low)

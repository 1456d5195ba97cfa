"""Monte-Carlo wave-function unraveling of the cascaded master equation.

Each trajectory evolves a pure state under the non-Hermitian generator
H_eff (fixed-step RK4 as one step matrix, no renormalization, so the norm
decays between jumps) punctuated by photon-counting jumps: per step the
conditional jump probability is delta_p = dt <J+J> / <psi|psi>, a uniform
variate is compared against it, and on a jump the state is replaced by
the normalized J psi.  Observables are sampled from the renormalized
state; the raw decaying norm is recorded for jump statistics.  Averaging
the per-trajectory observables over the ensemble converges to the master
equation at the usual 1/sqrt(n_traj) rate.

Randomness comes from a counter-based generator: the variate for
(seed, trajectory, step) is a 64-bit hash of the triple, so runs are
reproducible bit for bit, any trajectory can be recomputed in isolation,
and results do not depend on how the ensemble is batched or scheduled.

Trajectories that share a jump history hold bitwise-equal states, so the
ensemble propagates one state per live jump history and maps each
trajectory to its history's state.  Only trajectories whose state can
jump draw a variate.  The ensemble reduction runs over the
per-trajectory values in a fixed order (whole-ensemble sums at each
recorded step), independent of any execution parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import (
    CascadeModel,
    IntegrationAbort,
    build_h_eff,
    build_jump_operator,
    step_matrix,
    time_grid,
)
from .hilbert import validate_state_vector

__all__ = [
    "TrajectoryConfig",
    "TrajectoryRecord",
    "EnsembleResult",
    "uniform_counter",
    "evolve_trajectory",
    "ensemble_average",
]

_GOLD1 = np.uint64(0x9E3779B97F4A7C15)


def _finalize(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps modulo 2^64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    keys = np.uint64(seed) ^ ((streams.astype(np.uint64) + np.uint64(1)) * _GOLD1)
    return _finalize(keys)


def _uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    # step constant folded in python ints to keep numpy scalar overflow silent
    c = np.uint64(((step + 1) * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF)
    v = _finalize(keys ^ c)
    return (v >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform_counter(seed: int, stream: int, step: int) -> float:
    """Uniform [0, 1) variate keyed by (seed, stream, step)."""
    keys = _stream_keys(seed, np.array([stream], dtype=np.uint64))
    return float(_uniforms(keys, step)[0])


@dataclass(frozen=True)
class TrajectoryConfig:
    """Numerics of a trajectory run.

    The step must satisfy 4 dt (gamma1 + gamma2 + |beta|^2) < 0.1 so the
    first-order jump sampling stays in its validity regime; the bound is
    checked against the model when a run starts.
    """

    dt: float
    n_traj: int
    seed: int
    t_span: tuple[float, float]
    record_stride: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.t_span[1] <= self.t_span[0]:
            raise ValueError("t_span must satisfy t1 > t0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass(eq=False)
class TrajectoryRecord:
    """One trajectory: sampled raw norms, observables and jump times.

    Norms are of the unnormalized state (non-increasing between jumps,
    reset to 1 at each jump); p1/p2 are excitation probabilities of the
    renormalized state.
    """

    stream_index: int
    times: np.ndarray
    norms: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    jump_times: np.ndarray


@dataclass(eq=False)
class EnsembleResult:
    """Ensemble averages with standard errors and jump statistics."""

    times: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    sem_p2: np.ndarray
    mean_jumps: float
    jump_times: np.ndarray
    n_traj: int


def _check_step_bound(model: CascadeModel, dt: float) -> None:
    bound = 4.0 * dt * (model.gamma1 + model.gamma2 + abs(model.beta) ** 2)
    if bound >= 0.1:
        raise ValueError(
            "trajectory step too large: 4*dt*(gamma1 + gamma2 + |beta|^2) = "
            f"{bound:.3g} must stay below 0.1"
        )


def _apply(op: np.ndarray, psi: np.ndarray) -> np.ndarray:
    # (op @ psi_i) row-wise with a fixed accumulation order over k, so the
    # result is independent of how the trajectory axis is batched
    out = psi[:, 0, None] * op[None, :, 0]
    for k in range(1, op.shape[0]):
        out = out + psi[:, k, None] * op[None, :, k]
    return out


def _mc_core(
    psi0: np.ndarray,
    model: CascadeModel,
    dt: float,
    t_span: tuple[float, float],
    seed: int,
    streams: np.ndarray,
    record_stride: int,
    on_record,
) -> tuple[list[float], np.ndarray]:
    """Shared step loop over jump histories.

    Every operation acts row by row, so trajectories with the same jump
    history hold bitwise-equal states.  The loop therefore propagates one
    row of ``states`` per live history, and ``cls[i]`` is the row of
    trajectory i.  Calls on_record(slot, states, norm2, cls) at sampled
    steps; a per-trajectory quantity is a per-row one indexed by ``cls``.

    Returns (jump times, jump count per trajectory).
    """
    prop = step_matrix(-1j * build_h_eff(model), dt)
    jop = build_jump_operator(model)
    times = time_grid(t_span, dt)
    n = streams.size
    states = np.array(psi0, dtype=complex).reshape(1, -1)
    cls = np.zeros(n, dtype=np.intp)
    sizes = np.array([n])
    norm2 = np.sum(np.abs(states) ** 2, axis=1)
    keys = _stream_keys(seed, streams)
    jump_times: list[float] = []
    jump_counts = np.zeros(n, dtype=np.int64)
    slot = 0
    on_record(slot, states, norm2, cls)
    for step in range(times.size - 1):
        jpsi = _apply(jop, states)
        jj = np.sum(np.abs(jpsi) ** 2, axis=1)
        delta_p = dt * jj / norm2
        # every row has members here, so this is the max over trajectories
        worst = float(np.max(delta_p))
        if not math.isfinite(worst) or worst > 0.1:
            raise IntegrationAbort(
                f"jump probability per step {worst:.3g} > 0.1 at t = "
                f"{times[step]:.6g}; reduce dt={dt:g}"
            )
        states = _apply(prop, states)
        # u in [0, 1) is never below delta_p = 0: only trajectories whose
        # row can jump draw a variate
        p = delta_p[cls]
        cand = np.flatnonzero(p)
        jumpers = cand[_uniforms(keys[cand], step) < p[cand]]
        if jumpers.size:
            # the jumpers leaving one row share one new state, J psi / |J psi|
            rows, new_row, moved = np.unique(
                cls[jumpers], return_inverse=True, return_counts=True
            )
            jp = jpsi[rows]
            jn = np.sqrt(np.sum(np.abs(jp) ** 2, axis=1))
            new = jp / jn[:, None]
            # a row left by all its members takes the new state in place, so
            # no row is ever empty; any other row's jumpers get a new row
            left = sizes[rows] - moved
            kept = left > 0
            dest = np.where(kept, states.shape[0] + np.cumsum(kept) - 1, rows)
            if kept.any():
                states = np.concatenate([states, new[kept]])
                sizes = np.concatenate([sizes, moved[kept]])
            states[dest] = new
            sizes[rows] = np.where(kept, left, moved)
            cls[jumpers] = dest[new_row]
            jump_times.extend([float(times[step + 1])] * jumpers.size)
            jump_counts[jumpers] += 1
        norm2 = np.sum(np.abs(states) ** 2, axis=1)
        if (step + 1) % record_stride == 0:
            slot += 1
            on_record(slot, states, norm2, cls)
    return jump_times, jump_counts


def _record_times(cfg: TrajectoryConfig) -> np.ndarray:
    return time_grid(cfg.t_span, cfg.dt)[:: cfg.record_stride]


def _populations(psi: np.ndarray, norm2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # composite basis |ee>=0, |eg>=1, |ge>=2, |gg>=3
    a = np.abs(psi) ** 2
    p1 = (a[:, 0] + a[:, 1]) / norm2
    p2 = (a[:, 0] + a[:, 2]) / norm2
    return p1, p2


def evolve_trajectory(
    psi0: np.ndarray,
    model: CascadeModel,
    cfg: TrajectoryConfig,
    stream_index: int,
) -> TrajectoryRecord:
    """Evolve a single trajectory on the deterministic stream stream_index.

    Identical (seed, stream_index) inputs reproduce the record bit for bit.
    """
    validate_state_vector(psi0)
    _check_step_bound(model, cfg.dt)
    times = _record_times(cfg)
    norms = np.empty(times.size)
    p1 = np.empty(times.size)
    p2 = np.empty(times.size)

    def record(slot, states, norm2, cls):
        row = cls[0]
        norms[slot] = math.sqrt(float(norm2[row]))
        a, b = _populations(states, norm2)
        p1[slot] = float(a[row])
        p2[slot] = float(b[row])

    streams = np.array([stream_index], dtype=np.uint64)
    jump_times, _ = _mc_core(
        psi0, model, cfg.dt, cfg.t_span, cfg.seed, streams, cfg.record_stride, record
    )
    return TrajectoryRecord(
        stream_index=stream_index,
        times=times,
        norms=norms,
        p1=p1,
        p2=p2,
        jump_times=np.array(jump_times),
    )


def ensemble_average(
    psi0: np.ndarray, model: CascadeModel, cfg: TrajectoryConfig
) -> EnsembleResult:
    """Average n_traj trajectories (streams 0 .. n_traj-1).

    Trajectories with the same jump history share one propagated state,
    and reductions run over the full trajectory axis at once, so the
    result is a deterministic function of (psi0, model, cfg) alone and
    equals the mean of the single trajectories bit for bit.
    """
    validate_state_vector(psi0)
    _check_step_bound(model, cfg.dt)
    times = _record_times(cfg)
    p1_mean = np.empty(times.size)
    p2_mean = np.empty(times.size)
    p2_sq = np.empty(times.size)

    def record(slot, states, norm2, cls):
        a, b = _populations(states, norm2)
        a, b = a[cls], b[cls]
        p1_mean[slot] = float(np.mean(a))
        p2_mean[slot] = float(np.mean(b))
        p2_sq[slot] = float(np.mean(b * b))

    streams = np.arange(cfg.n_traj, dtype=np.uint64)
    jump_times, jump_counts = _mc_core(
        psi0, model, cfg.dt, cfg.t_span, cfg.seed, streams, cfg.record_stride, record
    )
    n = cfg.n_traj
    if n > 1:
        var = np.maximum(p2_sq - p2_mean**2, 0.0) * (n / (n - 1))
        sem = np.sqrt(var / n)
    else:
        sem = np.zeros(times.size)
    return EnsembleResult(
        times=times,
        p1=p1_mean,
        p2=p2_mean,
        sem_p2=sem,
        mean_jumps=float(np.sum(jump_counts)) / n,
        jump_times=np.array(jump_times),
        n_traj=n,
    )

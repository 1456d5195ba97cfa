"""Monte-Carlo wave-function unraveling of the cascaded master equation.

Each trajectory evolves a pure state under the non-Hermitian generator
H_eff (fixed-step RK4 as one step matrix, no renormalization, so the norm
decays between jumps) punctuated by photon-counting jumps, drawn by the
waiting-time rule (Dum, Zoller & Ritsch, PRA 45, 4879 (1992); Plenio &
Knight, RMP 70, 101 (1998)): a trajectory holds a threshold r, uniform in
[0, 1), and jumps at the first step after which the squared norm of its
unnormalized state falls below r.  The state is then replaced by the
normalized J psi of the post-step state, and the next threshold is drawn.
A state with J psi = 0 cannot emit: where the step's truncation error
alone takes its norm below r (as for |gg> in the lab frame), it keeps r.
Observables are sampled from the renormalized state; the raw decaying
norm is recorded for jump statistics.  Averaging the per-trajectory
observables over the ensemble converges to the master equation at the
usual 1/sqrt(n_traj) rate.

Randomness comes from a counter-based generator: the j-th threshold of
trajectory k is a 64-bit hash of (seed, k, j), so any trajectory can be
recomputed in isolation.

Trajectories that share a jump history hold bitwise-equal states, so the
ensemble propagates one state row per live jump history.  The members of
each row form one contiguous segment of a permutation of the
trajectories, sorted by threshold in descending order, so the jumpers of
a row at a step are a prefix of its segment, found by binary search.  The
prefix moves to a new row, or the row takes the new state in place when
all its members jump; only the jumpers are re-sorted.  A row whose state
the step leaves bitwise unchanged, with <J+J> = 0, is a fixed point that
can never jump again: it is retired from the step loop and its
size-weighted observables are added to the records once.  Work per step
therefore scales with the live rows; only jumps and the initial sort
touch single trajectories.

Every trajectory's jump history, and so its state at every step, is
bit-for-bit independent of the ensemble it runs in, and repeated runs are
byte-identical.  Ensemble records are size-weighted sums over rows, so
their additions, unlike the histories, are grouped by the rows the
ensemble holds.
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


def _uniforms(keys: np.ndarray, counters) -> np.ndarray:
    # counters: one int for every key, or one per key; kept as an array so
    # the uint64 product wraps silently instead of warning as a scalar would
    c = (np.asarray(counters, dtype=np.uint64).reshape(-1) + np.uint64(1)) * np.uint64(
        0xD1B54A32D192ED03
    )
    v = _finalize(keys ^ c)
    return (v >> np.uint64(11)).astype(np.float64) * 2.0**-53


def uniform_counter(seed: int, stream: int, counter: int) -> float:
    """Uniform [0, 1) variate keyed by (seed, stream, counter).

    The trajectories draw the threshold for their j-th jump with
    counter = j.
    """
    keys = _stream_keys(seed, np.array([stream], dtype=np.uint64))
    return float(_uniforms(keys, counter)[0])


@dataclass(frozen=True)
class TrajectoryConfig:
    """Numerics of a trajectory run.

    Jumps follow the waiting-time rule, which has no first-order sampling
    error in dt, so dt needs no trajectory-specific bound.  The run still
    aborts with IntegrationAbort if a row's jump probability per step,
    dt <J+J> / <psi|psi>, exceeds 0.1.
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


def _apply(op: np.ndarray, psi: np.ndarray) -> np.ndarray:
    # (op @ psi_i) row-wise with a fixed accumulation order over k, so the
    # result is independent of how the trajectory axis is batched
    out = psi[:, 0, None] * op[None, :, 0]
    for k in range(1, op.shape[1]):
        out = out + psi[:, k, None] * op[None, :, k]
    return out


def _rowsum(a: np.ndarray) -> np.ndarray:
    # row sums adding the columns in order: what np.sum(a, axis=1) gives
    # for four columns, without the overhead of a reduction over a short axis
    out = a[:, 0]
    for k in range(1, a.shape[1]):
        out = out + a[:, k]
    return out


def _norm2(states: np.ndarray) -> np.ndarray:
    return _rowsum(np.abs(states) ** 2)


def _prefix_lengths(neg: np.ndarray, lo: np.ndarray, hi: np.ndarray, target: np.ndarray):
    """Count the entries below target in each ascending segment neg[lo:hi].

    One binary search runs over all segments at once; the first entry of
    every segment is known to be below its target.
    """
    first = lo
    lo = lo + 1
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        below = neg[np.minimum(mid, neg.size - 1)] < target
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
        active = lo < hi
    return lo - first


def _mc_core(
    psi0: np.ndarray,
    model: CascadeModel,
    dt: float,
    t_span: tuple[float, float],
    seed: int,
    streams: np.ndarray,
    record_stride: int,
    observe,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared step loop over jump histories (see the module docstring).

    observe(states, norm2) maps row states and their squared norms to a
    (q, rows) array of per-row values.  At every record_stride-th step,
    and at the start, the core adds these up weighted by row size:
    records[s] holds the ensemble sums of the s-th sampled step, over live
    rows in row order plus the retired rows' sums.

    Returns (records, jump steps, jump trajectories): jump i happened on
    trajectory jump_trajs[i] (an index into streams) at step jump_steps[i],
    in step order.
    """
    jop = build_jump_operator(model)
    # one pass over the rows gives J psi, for the guard, and the step P psi
    jop_prop = np.concatenate([jop, step_matrix(-1j * build_h_eff(model), dt)])
    dim = jop.shape[0]
    times = time_grid(t_span, dt)
    n = streams.size
    keys = _stream_keys(seed, streams)
    jumps = np.zeros(n, dtype=np.int64)
    # perm lists the trajectories row segment by row segment; neg holds
    # their negated thresholds, ascending within each segment
    neg = -_uniforms(keys, 0)
    perm = np.argsort(neg, kind="stable")
    neg = neg[perm]
    states = np.array(psi0, dtype=complex).reshape(1, -1)
    norm2 = _norm2(states)
    start = np.zeros(1, dtype=np.intp)
    size = np.array([n], dtype=np.intp)
    values = observe(states, norm2)
    records = np.empty(((times.size - 1) // record_stride + 1, values.shape[0]))
    records[0] = np.sum(values * size, axis=1)
    retired = np.zeros(values.shape[0])
    jump_steps: list[int] = []
    jumped: list[np.ndarray] = []
    slot = 0
    for step in range(times.size - 1):
        if not size.size:
            break  # every row is a fixed point
        stepped = _apply(jop_prop, states)
        mag2 = np.abs(stepped) ** 2
        jj, norm2_after = _rowsum(mag2[:, :dim]), _rowsum(mag2[:, dim:])
        worst = float(np.max(dt * jj / norm2))
        if not math.isfinite(worst) or worst > 0.1:
            raise IntegrationAbort(
                f"jump probability per step {worst:.3g} > 0.1 at t = "
                f"{times[step]:.6g}; reduce dt={dt:g}"
            )
        before = states
        states, norm2 = stepped[:, dim:], norm2_after
        # rows to retire: <J+J> = 0 and the state unchanged, so J psi stays 0
        dark = np.empty(0, dtype=np.intp)
        if not jj.all():
            dark = np.flatnonzero(jj == 0.0)
            dark = dark[(states[dark] == before[dark]).all(axis=1)]
        # rows whose largest threshold exceeds the squared norm have jumpers,
        # unless J psi = 0: such a row cannot emit, its norm falls only by
        # the step's truncation error, and its members keep their thresholds
        hit = np.flatnonzero(neg[start] < -norm2)
        if hit.size:
            jpsi = _apply(jop, states[hit])
            jn2 = _norm2(jpsi)
            emits = jn2 > 0.0
            hit, jpsi, jn2 = hit[emits], jpsi[emits], jn2[emits]
        if hit.size:
            lo, sz = start[hit], size[hit]
            if hit.size == 1:
                # most steps of a narrow ensemble hit one row, where one
                # searchsorted call is much cheaper than the looped search
                h = int(lo[0])
                count = np.searchsorted(neg[h : h + int(sz[0])], -norm2[hit])
            else:
                count = _prefix_lengths(neg, lo, lo + sz, -norm2[hit])
            new = jpsi / np.sqrt(jn2)[:, None]
            new2 = _norm2(new)
            # the jumpers sit at lo .. lo + count of each hit row; re-sort
            # only them, within their new row
            total = int(count.sum())
            pos = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(total)
            traj = perm[pos]
            jumps[traj] += 1
            thr = -_uniforms(keys[traj], jumps[traj])
            order = np.lexsort((thr, np.repeat(np.arange(hit.size), count)))
            perm[pos] = traj[order]
            neg[pos] = thr[order]
            jump_steps.append(step)
            jumped.append(traj)
            # a row left by all its members takes the new state in place;
            # the jumpers of any other row become a new row on its prefix,
            # and hit then names the row each new state goes to
            whole = count == sz
            if not whole.all():
                part = np.flatnonzero(~whole)
                rows = hit[part]
                hit[part] = size.size + np.arange(part.size)
                states = np.concatenate([states, new[part]])
                norm2 = np.concatenate([norm2, new2[part]])
                start = np.concatenate([start, lo[part]])
                size = np.concatenate([size, count[part]])
                start[rows] += count[part]
                size[rows] -= count[part]
            states[hit] = new
            norm2[hit] = new2
        if dark.size:
            retired = retired + np.sum(observe(states[dark], norm2[dark]) * size[dark], axis=1)
            live = np.ones(size.size, dtype=bool)
            live[dark] = False
            states, norm2, start, size = states[live], norm2[live], start[live], size[live]
        if (step + 1) % record_stride == 0:
            slot += 1
            records[slot] = np.sum(observe(states, norm2) * size, axis=1) + retired
    records[slot + 1 :] = retired
    counts = np.array([t.size for t in jumped], dtype=np.intp)
    jump_trajs = np.concatenate([np.zeros(0, dtype=np.intp), *jumped])
    return records, np.repeat(np.array(jump_steps, dtype=np.intp), counts), jump_trajs


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

    This is the ensemble core run with one trajectory, so the record
    equals that trajectory's history inside any ensemble bit for bit.
    """
    validate_state_vector(psi0)

    def observe(states, norm2):
        return np.array([np.sqrt(norm2), *_populations(states, norm2)])

    streams = np.array([stream_index], dtype=np.uint64)
    records, steps, _ = _mc_core(
        psi0, model, cfg.dt, cfg.t_span, cfg.seed, streams, cfg.record_stride, observe
    )
    return TrajectoryRecord(
        stream_index=stream_index,
        times=_record_times(cfg),
        norms=records[:, 0],
        p1=records[:, 1],
        p2=records[:, 2],
        jump_times=time_grid(cfg.t_span, cfg.dt)[steps + 1],
    )


def ensemble_average(
    psi0: np.ndarray, model: CascadeModel, cfg: TrajectoryConfig
) -> EnsembleResult:
    """Average n_traj trajectories (streams 0 .. n_traj-1).

    Jumps follow the waiting-time rule.  The ensemble is propagated as
    one state row per live jump history, the members of each row a
    threshold-sorted segment of one permutation, and rows that reached a
    fixed point are retired (see the module docstring), so the work per
    step scales with the live rows, not with n_traj.

    Every trajectory's jump history is bit-for-bit independent of the
    ensemble it runs in: its jump times equal those of evolve_trajectory
    on its stream.  The means are size-weighted sums over rows, so they
    equal the mean of the single trajectories up to the order of the
    additions.  Repeated runs are byte-identical.
    """
    validate_state_vector(psi0)

    def observe(states, norm2):
        p1, p2 = _populations(states, norm2)
        return np.array([p1, p2, p2 * p2])

    n = cfg.n_traj
    streams = np.arange(n, dtype=np.uint64)
    records, steps, _ = _mc_core(
        psi0, model, cfg.dt, cfg.t_span, cfg.seed, streams, cfg.record_stride, observe
    )
    p1_mean, p2_mean, p2_sq = (records / n).T
    times = _record_times(cfg)
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
        mean_jumps=float(steps.size) / n,
        jump_times=time_grid(cfg.t_span, cfg.dt)[steps + 1],
        n_traj=n,
    )

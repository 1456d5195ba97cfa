"""Monte-Carlo wave-function unraveling of the cascaded master equation.

Each trajectory evolves a pure state under the non-Hermitian generator
H_eff (the exact step e^(-i dt H_eff) as one step matrix P, no
renormalization, so the norm decays between jumps) punctuated by
photon-counting jumps, drawn by the waiting-time rule (Dum, Zoller &
Ritsch, PRA 45, 4879 (1992); Plenio & Knight, RMP 70, 101 (1998)): a
trajectory holds a threshold r, uniform in [0, 1), and jumps at the first
step after which the squared norm of its unnormalized state falls below r.  The state is then replaced by the
normalized J psi of the post-step state, and the next threshold is drawn,
unless that state is a fixed point that can never jump again (below):
such a threshold would never be read.
Between jumps the state comes from powers of P: it is anchored when it is
made and every _SEGMENT steps after, and m steps past its anchor it is
P^m applied to the anchor, and J psi is J P^m applied to it, from one
table of [J P^m; P^(m+1)], m < _SEGMENT, built once per run.
A state with J psi = 0 cannot emit, so it keeps r even where rounding
takes its norm below r.
One fixed set is recorded: P1, P2 and P2^2 of the renormalized state and
the raw decaying norm.  Averaging the per-trajectory observables over the
ensemble converges to the master equation at the usual 1/sqrt(n_traj)
rate.  A dt that would let any state's jump probability per step,
dt <J+J>/<psi|psi>, exceed 0.1 is refused before the first step.

Randomness comes from a counter-based generator: the j-th threshold of
trajectory k is a 64-bit hash of (seed, k, j), so a trajectory's history
is that of `_mc_core` run on its stream alone.

Trajectories that share a jump history hold bitwise-equal states, so the
ensemble propagates one state row per live jump history.  The members of
each row form one contiguous segment of a permutation of the
trajectories, sorted by threshold in descending order.  Equal thresholds
keep the order a stable sort gives them: stream order in the first sort,
and for the jumpers of a row the order they held in the segment they
leave.  NumPy's unstable, SIMD-dispatched argsort does the sorting, and
any run of equal keys is then put back in that order (`_ascending`), so
the order does not depend on the sort kernel.  The rows advance
in passes: each pending row, from its anchor, takes up to _WINDOW steps,
whole segments, each segment one product of the anchor with the table,
storing the block of states, squared norms and <J+J>.  The block is then
resolved at once.  The running minimum of the squared norms over
the steps after which J psi != 0 falls monotonically, so the jumpers of a
row are the prefix of its segment whose thresholds exceed the last
running minimum (one binary search over all segments), and each jumps at
the first step where that minimum falls below its threshold (one more,
vectorized over the jumpers).  The jumpers of a row at one step become a
new row from the next step on; the members left continue from the end of
the window, a new anchor, in the next pass.  A new row made only of basis
states that every power of P in the table keeps exactly in place, and
that no J P^m reaches, is a fixed point that can never jump: it retires
at once, and its size-weighted observables are added to every later
record.  The members of every other new row draw their next thresholds
and are re-sorted by them; those of a fixed point draw none, and keep
stale entries in the permutation that nothing reads.  The window
shrinks, a segment at a time, so that rows x steps stays under _BLOCK,
and beyond _BLOCK // _SEGMENT live rows the rows take their passes in
groups, which bounds the memory of a pass.
Work therefore scales with the live rows times the steps, with the
bookkeeping paid once per pass and the NumPy calls once per segment;
only the initial sort and the jumps touch single trajectories, and only
a jump into a row that can jump again draws a threshold and is sorted.

The anchors fall at fixed ages of each trajectory's own history, so its
jump history, and its state at every step, is bit-for-bit independent
of the ensemble it runs in and of the window, and repeated runs are
byte-identical.  Ensemble records are size-weighted sums over rows, so
their additions, unlike the histories, are grouped by the rows and
passes the ensemble holds.
"""

from __future__ import annotations

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

__all__ = [
    "TrajectoryConfig",
    "EnsembleResult",
    "checked_jump_operator",
    "ensemble_average",
]

_GOLD1 = np.uint64(0x9E3779B97F4A7C15)


def _finalize(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, in place, with one scratch array; uint64
    # arithmetic wraps modulo 2^64
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _stream_keys(seed: int, streams: np.ndarray) -> np.ndarray:
    keys = streams.astype(np.uint64)  # a copy, hashed in place
    keys += np.uint64(1)
    keys *= _GOLD1
    keys ^= np.uint64(seed)
    return _finalize(keys)


def _uniforms(keys: np.ndarray, counters) -> np.ndarray:
    # counters: one int for every key, or one per key; kept as an array so
    # the uint64 product wraps silently instead of warning as a scalar would.
    # keys is not modified: the hash works on a fresh key ^ counter array
    c = np.array(counters, dtype=np.uint64).reshape(-1)
    c += np.uint64(1)
    c *= np.uint64(0xD1B54A32D192ED03)
    v = _finalize(keys ^ c)
    v >>= np.uint64(11)
    u = v.astype(np.float64)
    u *= 2.0**-53
    return u


@dataclass(frozen=True)
class TrajectoryConfig:
    """Numerics of a trajectory run.

    The no-jump evolution is the exact step e^(-i dt H_eff), and jumps
    follow the waiting-time rule, which has no first-order sampling error
    in dt.  dt must still keep the jump probability per step under
    0.1 in every state (`checked_jump_operator`), or the run aborts with
    IntegrationAbort before its first step.  How many steps a pass takes
    is not a setting: it changes no result.
    """

    dt: float
    n_traj: int
    seed: int
    t_span: tuple[float, float]
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not self.t_span[1] > self.t_span[0]:
            raise ValueError("t_span must satisfy t1 > t0")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.record_stride >= 2**63:
            raise ValueError("record_stride must fit in a signed 64-bit integer")


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


def _apply(ops: np.ndarray, psi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # out[i, r] = ops[i] @ psi[r] for every operator i and row r, with a fixed
    # accumulation order over k, so the result is independent of how the
    # rows and the operators are batched
    out = np.multiply(psi[None, :, 0, None], ops[:, None, :, 0], out=out)
    for k in range(1, ops.shape[2]):
        out += psi[None, :, k, None] * ops[:, None, :, k]
    return out


def _step_table(jop: np.ndarray, prop: np.ndarray, segment: int) -> np.ndarray:
    """table[m] = [J P^m; P^(m+1)] for m < segment, (segment, 2 dim, dim).

    P^m = P^(m-1) @ P, so table[0] is [J; P] exactly.  Applied to the
    anchor of a row, table[m] gives J psi at m steps past the anchor and
    the state one step later; table[segment - 1] gives the next anchor.
    """
    dim = prop.shape[0]
    table = np.empty((segment, 2 * dim, dim), dtype=complex)
    table[0, :dim], table[0, dim:] = jop, prop
    for m in range(1, segment):
        table[m, :dim] = jop @ table[m - 1, dim:]
        table[m, dim:] = table[m - 1, dim:] @ prop
    return table


def _advance(table: np.ndarray, states: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Fill block[i] with table[i % segment] applied to the anchor of segment i // segment.

    The first anchors are states; each later one is the state the segment
    before it ends on, P^segment of its anchor.  Each segment is split
    into calls of about _CALL row-steps, which changes no bit.
    """
    segment, dim = table.shape[0], states.shape[1]
    call = max(1, _CALL // len(states))
    anchor = states
    for lo in range(0, len(block), segment):
        hi = min(lo + segment, len(block))
        for i in range(lo, hi, call):
            _apply(table[i - lo : min(i + call, hi) - lo], anchor, block[i : min(i + call, hi)])
        anchor = block[hi - 1, :, dim:]
    return block


def _rowsum(a: np.ndarray) -> np.ndarray:
    # sums over the last axis adding the entries in order: what
    # np.sum(a, axis=-1) gives for four entries, without the overhead of a
    # reduction over a short axis
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k]
    return out


def _norm2(states: np.ndarray) -> np.ndarray:
    return _rowsum(np.abs(states) ** 2)


def _bisect(lo: np.ndarray, hi: np.ndarray, below) -> np.ndarray:
    """The first index of each range [lo, hi) at which below(index) fails.

    below(mid) maps one index per range to booleans and must hold on a
    prefix of each range; one binary search runs over all ranges at once.
    """
    top = hi - 1
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = np.minimum((lo + hi) >> 1, top)
        b = below(mid)
        lo = np.where(active & b, mid + 1, lo)
        hi = np.where(active & ~b, mid, hi)


def _crossings(low: np.ndarray, row: np.ndarray, neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The first step k at which low[k, row[i]] falls below the threshold
    -neg[pos[i]], for each i; every threshold must fall below it at some step.

    Each column of low is non-increasing, so the keys (r, -low[k, r]) ascend
    column by column, and one search of them all for (row[i], neg[pos[i]])
    counts the steps before the crossing.  NumPy orders complex numbers by
    real part, then imaginary part; the parts are set one by one, since
    1j * -inf has a NaN real part, and the thresholds are gathered straight
    into the needles, which are the one array per jumper.
    """
    steps, rows = low.shape
    keys = np.empty((rows, steps), dtype=complex)
    keys.real = np.arange(rows)[:, None]
    np.negative(low.T, out=keys.imag)
    needles = np.empty(row.size, dtype=complex)
    needles.real = row
    np.take(neg, pos, out=needles.imag)
    return np.searchsorted(keys.ravel(), needles, side="right") - row * steps


def _ascending(
    neg: np.ndarray, group: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The order a stable sort puts neg in, by group first if one is given,
    and neg in that order: np.argsort(neg, kind="stable"), or
    np.lexsort((neg, group)).

    NumPy's unstable argsort, SIMD-dispatched, does the work; a stable
    argsort of the group ids in its order then brings each group together.
    Only equal keys can come out in an order that depends on the sort
    kernel: each run of them is put back in input order.
    """
    order = np.argsort(neg)
    if group is not None:
        ids = group[order]
        by_group = np.argsort(ids, kind="stable")
        order, ids = order[by_group], ids[by_group]
    key = neg[order]
    tied = key[1:] == key[:-1]
    if group is not None:
        tied &= ids[1:] == ids[:-1]
    if tied.any():
        # number the runs of equal keys, and sort the members of each by input index
        run = np.cumsum(np.concatenate([[True], ~tied]))
        at = np.flatnonzero(np.concatenate([tied, [False]]) | np.concatenate([[False], tied]))
        order[at] = order[at][np.lexsort((order[at], run[at]))]
    return order, key


def checked_jump_operator(model: CascadeModel, dt: float) -> np.ndarray:
    """The jump operator J, checked at dt before any step is taken with it.

    The jump probability per step, dt <J+J>/<psi|psi>, is a Rayleigh
    quotient of J+J, so no state exceeds dt times its top eigenvalue;
    above 0.1 that bound is an IntegrationAbort.
    """
    jop = build_jump_operator(model)
    bound = dt * float(np.linalg.eigvalsh(jop.conj().T @ jop)[-1])
    if not bound <= 0.1:
        raise IntegrationAbort(
            f"jump probability per step dt*max(<J+J>/<psi|psi>) = {bound:.6g} exceeds 0.1; "
            f"reduce dt={dt:g}"
        )
    return jop


def _still(table: np.ndarray) -> np.ndarray:
    """The basis states that every power of P in table keeps exactly in
    place, and that no J P^m reaches.

    A product of the table with a state made of these alone copies its
    amplitudes and adds zeros: the state never changes and its J psi is
    exactly 0, so it can never jump.
    """
    dim = table.shape[2]
    no_jump = (table[:, :dim] == 0.0).all(axis=(0, 1))
    return no_jump & (table[:, dim:] == np.eye(dim)).all(axis=(0, 1))


def _observables(states: np.ndarray, norm2: np.ndarray) -> np.ndarray:
    # per row: the raw norm, then P1, P2 and P2^2 of the renormalized state,
    # in the composite basis |ee>=0, |eg>=1, |ge>=2, |gg>=3
    a = np.abs(states) ** 2
    with np.errstate(invalid="ignore"):  # 0/0 at a norm of 0, which _mc_core reports
        p1 = (a[:, 0] + a[:, 1]) / norm2
        p2 = (a[:, 0] + a[:, 2]) / norm2
    return np.array([np.sqrt(norm2), p1, p2, p2 * p2])


# A row is anchored every _SEGMENT steps.  A pass advances every pending
# row by up to _WINDOW steps, whole segments, fewer when rows x steps would
# exceed _BLOCK, and takes at most _BLOCK // _SEGMENT rows, which bounds
# its memory.  The products go to NumPy about _CALL row-steps at a time.
_SEGMENT = 16
_WINDOW = 256
_BLOCK = 2**15
_CALL = 512


def _mc_core(
    psi0: np.ndarray, model: CascadeModel, cfg: TrajectoryConfig, streams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the jump-history rows of the trajectories on streams in
    passes (see the module docstring); cfg.n_traj is not read.

    At every record_stride-th step, and at the start, the core adds up the
    rows' raw norms, P1, P2 and P2^2 weighted by row size: records[s]
    holds these ensemble sums at the s-th sampled step.

    Returns (records, jump steps, jump trajectories): jump i happened on
    trajectory jump_trajs[i] (an index into streams) at step jump_steps[i],
    in step order.  A step matrix P that is not finite, or a dt that lets
    some state's jump probability per step exceed 0.1, aborts with
    IntegrationAbort before the first pass; a state that cannot jump but
    whose norm falls to 0, after it.
    """
    dt, record_stride = cfg.dt, cfg.record_stride
    prop = step_matrix(-1j * build_h_eff(model), dt)
    jop = checked_jump_operator(model, dt)
    # one product with the anchors gives J psi, for the jumps, and the states
    table = _step_table(jop, prop, _SEGMENT)
    still = _still(table)
    dim = jop.shape[0]
    end = time_grid(cfg.t_span, dt).size - 1  # rows advance while their step is below end
    n = streams.size
    keys = _stream_keys(cfg.seed, streams)
    jumps = np.zeros(n, dtype=np.int64)
    # perm lists the trajectories row segment by row segment; neg holds
    # their negated thresholds, ascending within each segment, equal ones
    # in the order a stable sort keeps
    perm, neg = _ascending(-_uniforms(keys, 0))
    n_slots = end // record_stride + 1
    # sums[:, s] adds up the rows with members at sampled step s, and
    # sums[:, n_slots + s] the rows retired from sampled step s on
    new = np.array(psi0, dtype=complex).reshape(1, -1)
    sums = np.zeros((_observables(new, _norm2(new)).shape[0], 2 * n_slots))
    # the new rows, starting with psi0: state, step of that state, and
    # segment start and size
    new_begin = np.zeros(1, dtype=np.intp)
    new_start = np.zeros(1, dtype=np.intp)
    new_size = np.array([n], dtype=np.intp)
    # a new row made of still basis states alone is a fixed point that can
    # never jump: it retires on admission
    dark = (new[:, ~still] == 0.0).all(axis=1)
    # the pending rows, which have steps left
    states = np.empty((0, dim), dtype=complex)
    begin = start = size = np.zeros(0, dtype=np.intp)
    jump_steps: list[np.ndarray] = []
    jumped: list[np.ndarray] = []
    slots: list[np.ndarray] = []
    values: list[np.ndarray] = []
    while True:
        # admit the new rows; the dark ones retire
        first = -(-new_begin // record_stride)
        shown = np.flatnonzero(~dark & (new_begin % record_stride == 0))
        gone = np.flatnonzero(dark & (first < n_slots))
        slots += [first[shown], n_slots + first[gone]]
        seen = _observables(new, _norm2(new)) * new_size
        values += [seen[:, shown], seen[:, gone]]
        # one bincount per observable adds up the records of a pass
        slot = np.concatenate(slots)
        value = np.concatenate(values, axis=1)
        for q in range(sums.shape[0]):
            sums[q] += np.bincount(slot, value[q], minlength=2 * n_slots)
        live = ~dark & (new_begin < end)
        states = np.concatenate([states, new[live]])
        begin = np.concatenate([begin, new_begin[live]])
        start = np.concatenate([start, new_start[live]])
        size = np.concatenate([size, new_size[live]])
        if not size.size:
            break
        # the first _BLOCK // _SEGMENT rows take this pass, the others wait
        rows = min(size.size, _BLOCK // _SEGMENT)
        waiting = states[rows:], begin[rows:], start[rows:], size[rows:]
        states, begin, start, size = states[:rows], begin[:rows], start[:rows], size[:rows]
        # advance every row, from its anchor, by up to w steps, whole
        # segments: block[i] holds J psi at i steps on and the state one
        # step later (the last state is not used)
        w = int(min(_WINDOW, _BLOCK // rows // _SEGMENT * _SEGMENT, (end - begin).max()))
        span = np.minimum(end - begin, w)
        block = _advance(table, states, np.empty((w + 1, rows, 2 * dim), dtype=complex))
        mag2 = np.abs(block) ** 2
        jj = _rowsum(mag2[..., :dim])
        n2 = _rowsum(mag2[:-1, :, dim:])  # the squared norm after each step
        # a member jumps at the first step whose squared norm falls below
        # its threshold, among the steps after which J psi != 0; the
        # running minimum of those norms is non-increasing, so the
        # jumpers of a row are the prefix of its segment whose thresholds
        # exceed the last running minimum, each at its first crossing
        step = np.arange(w)[:, None]
        inside = step < span
        low = np.minimum.accumulate(np.where(inside & (jj[1:] > 0.0), n2, np.inf))
        last = -low[-1]
        count = _bisect(start, start + size, lambda k: neg[k] < last) - start
        total = int(count.sum())
        row = np.repeat(np.arange(rows), count)
        pos = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(total)
        at = _crossings(low, row, neg, pos)
        jumps_at = np.bincount(at * rows + row, minlength=w * rows).reshape(w, rows)
        left = size - np.cumsum(jumps_at, axis=0)
        # records of the states after each step, weighted by the members left
        index = begin + step + 1
        sampled = (inside & (left > 0) & (index % record_stride == 0)).reshape(-1)
        seen = _observables(block[:-1, :, dim:].reshape(-1, dim), n2.reshape(-1))
        slots = [np.where(sampled, index.reshape(-1) // record_stride, 0)]
        values = [np.where(sampled, seen * left.reshape(-1), 0.0)]
        # the jumpers of each row at each step become one new row holding
        # the normalized J psi
        traj = perm[pos]
        jump_steps.append(begin[row] + at)
        jumped.append(traj)
        heads = np.flatnonzero(np.diff(row * w + at, prepend=-1))
        hrow, hat = row[heads], at[heads] + 1
        new = block[hat, hrow, :dim] / np.sqrt(jj[hat, hrow])[:, None]
        new_begin = begin[hrow] + hat
        new_start = pos[heads]
        new_size = np.diff(heads, append=total)
        dark = (new[:, ~still] == 0.0).all(axis=1)
        # only the members of a row that can jump again draw their next
        # threshold and are re-sorted by it, ties in the order they held;
        # those of a dark row keep stale entries in perm and neg, which
        # nothing reads, since the row retires on admission
        lively = np.repeat(~dark, new_size)
        pos, traj, sizes = pos[lively], traj[lively], new_size[~dark]
        jumps[traj] += 1
        thr = -_uniforms(keys[traj], jumps[traj])
        # group ids as narrow as they fit: NumPy sorts 8- and 16-bit ids by radix
        ids = np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size))
        order, neg[pos] = _ascending(thr, np.repeat(ids, sizes))
        perm[pos] = traj[order]
        # the members left continue from the end of the window, a new
        # anchor, after the rows that waited
        states = block[span - 1, np.arange(rows), dim:]
        begin = begin + span
        start = start + count
        size = size - count
        keep = (size > 0) & (begin < end)
        states, begin, start, size = (
            np.concatenate([old, now[keep]])
            for old, now in zip(waiting, (states, begin, start, size))
        )
    records = sums[:, :n_slots] + np.cumsum(sums[:, n_slots:], axis=1)
    if not np.isfinite(records).all():  # P1 and P2 of a norm 0 are 0/0
        raise IntegrationAbort(f"a state's norm fell to 0 without a jump at dt={dt:g}")
    steps = np.concatenate([np.zeros(0, dtype=np.intp), *jump_steps])
    trajs = np.concatenate([np.zeros(0, dtype=np.intp), *jumped])
    order = np.argsort(steps, kind="stable")
    return records.T, steps[order], trajs[order]


_NORM_TOL = 1e-9  # the largest |norm - 1| of psi0


def ensemble_average(
    psi0: np.ndarray, model: CascadeModel, cfg: TrajectoryConfig
) -> EnsembleResult:
    """Average n_traj trajectories (streams 0 .. n_traj-1).

    Jumps follow the waiting-time rule.  The ensemble is propagated as
    one state row per live jump history, the members of each row a
    threshold-sorted segment of one permutation.  Between jumps a row's
    state is P^m of its anchor, taken when the row is made and every
    _SEGMENT steps after.  The rows advance in passes of up to _WINDOW
    steps, whole segments, fewer when rows x steps would exceed _BLOCK,
    and in groups beyond _BLOCK // _SEGMENT rows; the jumps of a pass are
    resolved once for the whole block, and rows at a fixed point retire
    when they are made (see the module docstring).  The work scales with
    the live rows, not with n_traj.

    Every trajectory's jump history is bit-for-bit independent of the
    ensemble it runs in: its anchors fall at fixed ages of its own
    history, so it is the history of `_mc_core` run on its stream alone.
    The means are size-weighted sums over rows, so they equal the mean
    of the single trajectories up to the order of the additions.
    Repeated runs are byte-identical.

    psi0 must be a 1-d ket of 4 amplitudes and norm 1 to within _NORM_TOL, else ValueError.
    """
    psi = np.asarray(psi0, dtype=complex)
    if psi.ndim != 1:
        raise ValueError(f"state vector must be 1-d, got shape {psi.shape}")
    if psi.size != 4:
        raise ValueError(f"psi0 must hold the pair's 4 amplitudes, got {psi.size}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(f"state vector norm {norm} deviates from 1 by more than {_NORM_TOL}")
    n = cfg.n_traj
    streams = np.arange(n, dtype=np.uint64)
    records, steps, _ = _mc_core(psi0, model, cfg, streams)
    _, p1_mean, p2_mean, p2_sq = (records / n).T
    grid = time_grid(cfg.t_span, cfg.dt)
    times = grid[:: cfg.record_stride]
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
        jump_times=grid[steps + 1],
        n_traj=n,
    )

import functools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from qcascade import trajectory as tj
from qcascade.cascade import (
    CascadeModel,
    IntegrationAbort,
    build_h_eff,
    build_jump_operator,
    integrate_master,
    step_matrix,
    time_grid,
)
from qcascade.trajectory import TrajectoryConfig, ensemble_average

from oracles import composite_ket, density_from_ket, density_history

MODEL = CascadeModel(gamma1=1.0, gamma2=1.0)
PSI_EG = composite_ket("eg")


def _alone(psi0, model, cfg, k):
    # trajectory k as _mc_core runs it on its stream alone: sampled times,
    # raw norms, P1, P2 and jump times
    records, steps, _ = tj._mc_core(psi0, model, cfg, np.array([k], dtype=np.uint64))
    grid = time_grid(cfg.t_span, cfg.dt)
    return SimpleNamespace(times=grid[:: cfg.record_stride], norms=records[:, 0],
                           p1=records[:, 1], p2=records[:, 2], jump_times=grid[steps + 1])


def _uniform(seed, stream, counter):
    # the counter-th threshold of trajectory stream, drawn for its key alone
    keys = tj._stream_keys(seed, np.array([stream], dtype=np.uint64))
    return float(tj._uniforms(keys, counter)[0])


def test_config_invariants():
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=-0.01, n_traj=10, seed=1, t_span=(0.0, 1.0))
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.01, n_traj=0, seed=1, t_span=(0.0, 1.0))
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.01, n_traj=10, seed=-1, t_span=(0.0, 1.0))
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.01, n_traj=10, seed=1, t_span=(1.0, 0.0))


def test_counter_rng_determinism_and_range():
    assert _uniform(42, 3, 17) == _uniform(42, 3, 17)
    assert _uniform(42, 3, 17) != _uniform(42, 4, 17)
    assert _uniform(42, 3, 17) != _uniform(42, 3, 18)
    assert _uniform(42, 3, 17) != _uniform(43, 3, 17)
    vals = np.array([_uniform(1, s, k) for s in range(40) for k in range(50)])
    assert np.all((0.0 <= vals) & (vals < 1.0))
    assert abs(vals.mean() - 0.5) < 0.02
    assert abs(np.mean(vals < 0.25) - 0.25) < 0.03
    # the core draws the thresholds of many keys in one call, each as drawn alone
    keys = tj._stream_keys(42, np.arange(5, dtype=np.uint64))
    j = np.array([0, 3, 17, 2**40, 7])
    assert tj._uniforms(keys, j).tolist() == [_uniform(42, k, int(c)) for k, c in enumerate(j)]


def test_dark_state_no_jumps():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=9, t_span=(0.0, 3.0))
    rec = _alone(composite_ket("gg"), MODEL, cfg, 0)
    assert rec.jump_times.size == 0
    assert np.allclose(rec.norms, 1.0, atol=1e-12)
    assert np.all(rec.p1 == 0.0)
    assert np.all(rec.p2 == 0.0)


def test_lab_frame_ground_state_loses_norm_without_jumping():
    # in the lab frame |gg> turns at (omega1 + omega2)/2, and the RK4 step
    # shrinks its norm a little each step although J|gg> = 0: members whose
    # thresholds the norm falls below must not jump, and records stay finite
    model = CascadeModel(1.0, 1.0, omega1=50.0, omega2=50.0, rotating_frame=False)
    cfg = TrajectoryConfig(dt=0.01, n_traj=200, seed=5, t_span=(0.0, 10.0))
    rec = _alone(composite_ket("gg"), model, cfg, 0)
    assert rec.norms[-1] ** 2 < 0.9
    thresholds = [_uniform(cfg.seed, k, 0) for k in range(cfg.n_traj)]
    assert max(thresholds) > rec.norms[-1] ** 2
    gg = ensemble_average(composite_ket("gg"), model, cfg)
    assert gg.mean_jumps == 0.0
    assert np.all(gg.p1 == 0.0) and np.all(gg.p2 == 0.0) and np.all(gg.sem_p2 == 0.0)
    # from |eg> each trajectory emits its one photon, then sits in |gg>
    _, steps, trajs = tj._mc_core(composite_ket("eg"), model, cfg,
                                  np.arange(cfg.n_traj, dtype=np.uint64))
    assert np.bincount(trajs, minlength=cfg.n_traj).max() == 1
    eg = ensemble_average(composite_ket("eg"), model, cfg)
    assert 0.9 < eg.mean_jumps <= 1.0
    assert all(np.isfinite(a).all() for a in (eg.p1, eg.p2, eg.sem_p2))


def test_trajectory_bit_identical_repeat():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=13, t_span=(0.0, 8.0))
    a = _alone(PSI_EG, MODEL, cfg, 7)
    b = _alone(PSI_EG, MODEL, cfg, 7)
    assert np.array_equal(a.norms, b.norms)
    assert np.array_equal(a.p1, b.p1)
    assert np.array_equal(a.p2, b.p2)
    assert np.array_equal(a.jump_times, b.jump_times)


def test_norm_monotone_between_jumps_and_reset():
    # find a stream whose trajectory jumps
    cfg = TrajectoryConfig(0.01, 1, 13, (0.0, 10.0))
    rec = None
    for stream in range(50):
        cand = _alone(PSI_EG, MODEL, cfg, stream)
        if cand.jump_times.size >= 1:
            rec = cand
            break
    assert rec is not None
    jump_idx = {int(round((t - rec.times[0]) / 0.01)) for t in rec.jump_times}
    for k in range(1, rec.norms.size):
        if k in jump_idx:
            assert rec.norms[k] == pytest.approx(1.0, abs=1e-12)
        else:
            assert rec.norms[k] <= rec.norms[k - 1] + 1e-12


def test_no_jump_trajectory_matches_heff_evolution():
    # find a stream whose trajectory never jumps over a short window
    cfg = TrajectoryConfig(dt=0.005, n_traj=1, seed=5, t_span=(0.0, 0.5))
    rec = None
    for stream in range(50):
        cand = _alone(PSI_EG, MODEL, cfg, stream)
        if cand.jump_times.size == 0:
            rec = cand
            break
    assert rec is not None
    heff = build_h_eff(MODEL)
    psi = PSI_EG.astype(complex)
    p2 = [0.0]
    for _ in range(100):
        k1 = -1j * (heff @ psi)
        k2 = -1j * (heff @ (psi + 0.0025 * k1))
        k3 = -1j * (heff @ (psi + 0.0025 * k2))
        k4 = -1j * (heff @ (psi + 0.005 * k3))
        psi = psi + (0.005 / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        n2 = float(np.sum(np.abs(psi) ** 2))
        p2.append(float(np.abs(psi[2]) ** 2) / n2)
    assert np.max(np.abs(rec.p2 - np.array(p2))) < 1e-10


def test_ensemble_independent_of_batching():
    _check_independent_of_batching()


def _check_independent_of_batching():
    # every trajectory jumps in the ensemble exactly as it does alone; the
    # means are row-weighted sums, whose additions are grouped by row
    model = CascadeModel(gamma1=1.3, gamma2=0.8)
    cfg = TrajectoryConfig(dt=0.01, n_traj=5, seed=99, t_span=(0.0, 6.0))
    ens = ensemble_average(composite_ket("eg"), model, cfg)
    singles = [_alone(composite_ket("eg"), model, cfg, k) for k in range(5)]
    _, steps, trajs = tj._mc_core(composite_ket("eg"), model, cfg, np.arange(5, dtype=np.uint64))
    grid = time_grid(cfg.t_span, cfg.dt)
    for k, single in enumerate(singles):
        assert np.array_equal(grid[steps[trajs == k] + 1], single.jump_times)
    assert ens.mean_jumps == sum(s.jump_times.size for s in singles) / 5
    pooled = np.sort(np.concatenate([s.jump_times for s in singles]))
    assert np.array_equal(np.sort(ens.jump_times), pooled)
    assert pooled.size > 0
    np.testing.assert_allclose(ens.p2, np.mean([s.p2 for s in singles], axis=0), rtol=1e-14)
    np.testing.assert_allclose(ens.p1, np.mean([s.p1 for s in singles], axis=0), rtol=1e-14)


def test_mean_jump_count_against_master_oracle():
    # expected jumps = integral of Tr(J rho J+) dt from the master equation
    dt = 0.01
    t_span = (0.0, 10.0)
    model = MODEL
    rhos = density_history(density_from_ket(PSI_EG), model, t_span, dt)
    j = build_jump_operator(model)
    rate = np.array([np.trace(j @ r @ j.conj().T).real for r in rhos])
    expected = float(np.trapezoid(rate, dx=dt))
    cfg = TrajectoryConfig(dt=dt, n_traj=2000, seed=71, t_span=t_span)
    ens = ensemble_average(PSI_EG, model, cfg)
    assert abs(ens.mean_jumps - expected) < 0.02
    assert abs(expected - 1.0) < 0.01  # exactly one photon leaves, minus the tail


def test_two_photon_jump_count_against_master_oracle():
    # from |ee> at beta = 0 both systems emit: two jumps per trajectory,
    # spread over many jump-history rows that end in the dark state |gg>
    dt = 0.01
    t_span = (0.0, 10.0)
    psi0 = composite_ket("ee")
    run = integrate_master(density_from_ket(psi0), MODEL, t_span, dt)
    j = build_jump_operator(MODEL)
    rate = np.array([np.trace(j @ r @ j.conj().T).real
                     for r in density_history(density_from_ket(psi0), MODEL, t_span, dt)])
    expected = float(np.trapezoid(rate, dx=dt))
    cfg = TrajectoryConfig(dt=dt, n_traj=2000, seed=73, t_span=t_span)
    ens = ensemble_average(psi0, MODEL, cfg)
    assert abs(ens.mean_jumps - expected) < 0.03
    assert abs(expected - 2.0) < 0.01
    assert np.max(np.abs(ens.p2 - run.p2)) < 5.0 / math.sqrt(2000)


def test_ensemble_matches_master_equation():
    dt = 0.01
    cfg = TrajectoryConfig(dt=dt, n_traj=1000, seed=3, t_span=(0.0, 10.0))
    ens = ensemble_average(PSI_EG, MODEL, cfg)
    run = integrate_master(density_from_ket(PSI_EG), MODEL, (0.0, 10.0), dt)
    dev = np.max(np.abs(ens.p2 - run.p2))
    assert dev < 5.0 / math.sqrt(1000)
    assert np.all(ens.sem_p2 >= 0.0)


def test_ensemble_with_coherent_drive():
    # beta enters both the jump operator and H_eff; check against the
    # master equation and its jump-rate integral
    model = CascadeModel(gamma1=1.0, gamma2=1.0, beta=0.3)
    dt = 0.005
    cfg = TrajectoryConfig(dt=dt, n_traj=500, seed=31, t_span=(0.0, 4.0))
    psi0 = composite_ket("gg")
    ens = ensemble_average(psi0, model, cfg)
    run = integrate_master(density_from_ket(psi0), model, (0.0, 4.0), dt)
    assert np.max(np.abs(ens.p2 - run.p2)) < 5.0 / math.sqrt(500)
    j = build_jump_operator(model)
    rhos = density_history(density_from_ket(psi0), model, (0.0, 4.0), dt)
    rate = np.array([np.trace(j @ r @ j.conj().T).real for r in rhos])
    expected = float(np.trapezoid(rate, dx=dt))
    assert abs(ens.mean_jumps - expected) < 0.05


def test_deviation_shrinks_with_ensemble_size():
    # doubling n_traj shrinks the max deviation by ~1/sqrt(2) on average
    dt = 0.01
    span = (0.0, 5.0)
    run = integrate_master(density_from_ket(PSI_EG), MODEL, span, dt)
    p2_me = run.p2[::5]
    devs_small, devs_big = [], []
    for rep in range(10):
        small = ensemble_average(
            PSI_EG, MODEL, TrajectoryConfig(dt, 200, 1000 + rep, span, record_stride=5)
        )
        big = ensemble_average(
            PSI_EG, MODEL, TrajectoryConfig(dt, 400, 2000 + rep, span, record_stride=5)
        )
        devs_small.append(np.max(np.abs(small.p2 - p2_me)))
        devs_big.append(np.max(np.abs(big.p2 - p2_me)))
    ratio = np.mean(devs_small) / np.mean(devs_big)
    assert 1.05 < ratio < 2.0


def test_delta_p_abort_in_core():
    # reachable only past the public dt bound: exercise the core guard
    with pytest.raises(IntegrationAbort, match="jump probability"):
        tj._mc_core(PSI_EG, MODEL, TrajectoryConfig(0.2, 1, 1, (0.0, 2.0)),
                    np.array([0], dtype=np.uint64))


def test_unstable_step_aborts_in_core_before_the_first_pass():
    # lab frame at omega = 200 and dt = 0.05: the no-jump step matrix has
    # spectral radius about 400, so the core stops before it steps, with
    # no overflow on the way
    model = CascadeModel(1.0, 1.0, omega1=200.0, omega2=200.0, rotating_frame=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationAbort, match="spectral radius"):
            tj._mc_core(PSI_EG, model, TrajectoryConfig(0.05, 10, 1, (0.0, 10.0)),
                        np.arange(10, dtype=np.uint64))


def test_norm_that_falls_to_zero_aborts():
    # in the lab frame at dt (omega1 + omega2) = 2.8, inside the RK4 stability
    # bound, the step shrinks |gg>'s squared norm by about 8 % a step although
    # J|gg> = 0: it reaches 0 near t = 90, where P1 and P2 would be 0/0; the run
    # aborts, with no warning on the way
    model = CascadeModel(1.0, 1.0, omega1=140.0, omega2=140.0, rotating_frame=False)
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=1, t_span=(0.0, 100.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationAbort, match="norm fell to 0"):
            ensemble_average(composite_ket("gg"), model, cfg)


def test_record_stride():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=4, t_span=(0.0, 1.0), record_stride=10)
    rec = _alone(PSI_EG, MODEL, cfg, 0)
    assert rec.times.size == rec.norms.size == 11
    assert rec.times[1] - rec.times[0] == pytest.approx(0.1)


def test_unnormalized_psi0_rejected():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=4, t_span=(0.0, 1.0))
    with pytest.raises(ValueError, match="norm 2.0 deviates"):
        ensemble_average(2.0 * PSI_EG, MODEL, cfg)


def test_psi0_of_two_dimensions_rejected():
    # a density matrix is not a ket
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=4, t_span=(0.0, 1.0))
    with pytest.raises(ValueError, match="must be 1-d, got shape"):
        ensemble_average(density_from_ket(PSI_EG), MODEL, cfg)


@pytest.mark.parametrize("psi0", [[1.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]], ids=["2", "6"])
def test_psi0_of_other_than_4_amplitudes_rejected(psi0):
    # a normalized ket of the wrong length is named before the core indexes it
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=4, t_span=(0.0, 1.0))
    message = f"^psi0 must hold the pair's 4 amplitudes, got {len(psi0)}$"
    with pytest.raises(ValueError, match=message):
        ensemble_average(np.array(psi0), MODEL, cfg)


def _rowwise(ops, psi):
    # ops[r] @ psi[r] for each row r, adding over k in the core's order
    out = psi[:, 0, None] * ops[:, :, 0]
    for k in range(1, psi.shape[1]):
        out += psi[:, k, None] * ops[:, :, k]
    return out


def _reference_mc_core(psi0, model, cfg, streams, segment):
    # the waiting-time rule with one state per trajectory, no rows and no
    # retirement; a state is anchored when it is made and every segment
    # steps after, and m steps past its anchor is P^m of it, from the
    # core's table (segment 1: one step of P at a time); returns
    # per-trajectory values (records, q, trajectories) of the core's observables
    prop = step_matrix(-1j * build_h_eff(model), cfg.dt)
    jop = build_jump_operator(model)
    table = tj._step_table(jop, prop, segment)
    dim = jop.shape[0]
    times = time_grid(cfg.t_span, cfg.dt)
    n = streams.size
    psi = np.tile(np.asarray(psi0, dtype=complex), (n, 1))
    anchor = psi.copy()
    age = np.zeros(n, dtype=np.intp)
    norm2 = np.sum(np.abs(psi) ** 2, axis=1)
    keys = tj._stream_keys(cfg.seed, streams)
    counts = np.zeros(n, dtype=np.int64)
    thresholds = tj._uniforms(keys, counts)
    steps, trajs = [], []
    records = [tj._observables(psi, norm2)]
    for step in range(times.size - 1):
        psi = _rowwise(table[age % segment, dim:], anchor)
        age += 1
        anchor[age % segment == 0] = psi[age % segment == 0]
        norm2 = np.sum(np.abs(psi) ** 2, axis=1)
        # a trajectory whose J psi is 0 cannot emit and keeps its threshold
        jump = np.flatnonzero(norm2 < thresholds)
        jp = _rowwise(table[age[jump] % segment, :dim], anchor[jump])
        jn2 = np.sum(np.abs(jp) ** 2, axis=1)
        jump, jp, jn2 = jump[jn2 > 0.0], jp[jn2 > 0.0], jn2[jn2 > 0.0]
        if jump.size:
            psi[jump] = anchor[jump] = jp / np.sqrt(jn2)[:, None]
            age[jump] = 0
            norm2[jump] = np.sum(np.abs(psi[jump]) ** 2, axis=1)
            counts[jump] += 1
            thresholds[jump] = tj._uniforms(keys[jump], counts[jump])
            steps += [step] * jump.size
            trajs += jump.tolist()
        if (step + 1) % cfg.record_stride == 0:
            records.append(tj._observables(psi, norm2))
    return np.array(records), np.array(steps, dtype=np.intp), np.array(trajs, dtype=np.intp)


def _reference_sums(*args):
    # the reference in the core's calling convention, at the core's
    # segment: sums over trajectories
    records, steps, trajs = _reference_mc_core(*args, tj._SEGMENT)
    return records.sum(axis=2), steps, trajs


def _histories(steps, trajs):
    # (trajectory, step) of every jump, ordered by trajectory, then step
    order = np.lexsort((steps, trajs))
    return np.stack([trajs[order], steps[order]])


def _fingerprints(states):
    # small integers hashed from the bits of each state, signed zeros made
    # equal: their size-weighted sums are exact in any order of addition,
    # so equal sums mean equal multisets of states, bit for bit
    h = tj._finalize(np.ascontiguousarray(states + 0.0).view(np.uint64).sum(axis=1))
    return np.stack([((h >> np.uint64(s)) & np.uint64(0xFFFFF)).astype(float) for s in (0, 20, 40)])


CORE_CASES = {
    "beta0_eg": (CascadeModel(1.0, 1.0), "eg", TrajectoryConfig(0.01, 400, 5, (0.0, 6.0))),
    "beta03_gg": (
        CascadeModel(1.0, 1.0, beta=0.3), "gg", TrajectoryConfig(0.005, 300, 31, (0.0, 4.0))
    ),
    "ee_lab_frame": (
        CascadeModel(1.0, 1.0, omega2=0.4, rotating_frame=False),
        "ee",
        TrajectoryConfig(0.01, 300, 8, (0.0, 5.0)),
    ),
    # |gg> rows lose norm to the RK4 step below some thresholds, but cannot jump
    "eg_lab_frame_fast": (
        CascadeModel(1.0, 1.0, omega1=50.0, omega2=50.0, rotating_frame=False),
        "eg",
        TrajectoryConfig(0.01, 200, 5, (0.0, 10.0)),
    ),
    # 500 steps: the last 3 are not followed by a record
    "beta05_ee_stride7": (
        CascadeModel(1.3, 0.8, beta=0.5),
        "ee",
        TrajectoryConfig(0.01, 300, 17, (0.0, 5.0), record_stride=7),
    ),
    # one trajectory: no spread to estimate, so sem_P2 is zero
    "single_trajectory": (CascadeModel(1.0, 1.0), "eg", TrajectoryConfig(0.01, 1, 5, (0.0, 6.0))),
}


_OBSERVABLES = tj._observables


def _fingerprinted(states, norm2):
    # the core's observables, then the fingerprints of the states
    return np.concatenate([_OBSERVABLES(states, norm2), _fingerprints(states)])


# each case's trajectories one at a time: "case@k" runs stream k alone
ONE_STREAM_CASES = [f"{case}@{k}" for case in sorted(CORE_CASES) for k in (0, 3, 11, 12345)]


def _core_args(case):
    name, _, k = case.partition("@")
    model, label, cfg = CORE_CASES[name]
    streams = np.array([int(k)] if k else np.arange(cfg.n_traj), dtype=np.uint64)
    return composite_ket(label), model, cfg, streams


@functools.cache
def _core_reference(case, segment):
    # depends on neither the window nor the block, so each case is computed
    # once per segment; called only with the fingerprints patched in
    records, steps, trajs = _reference_mc_core(*_core_args(case), segment)
    return records.sum(axis=2), steps, trajs


@pytest.mark.parametrize("case", sorted(CORE_CASES) + ONE_STREAM_CASES)
def test_mc_core_matches_per_row_reference(case, monkeypatch):
    monkeypatch.setattr(tj, "_observables", _fingerprinted)
    _check_core(_core_args(case), _core_reference(case, tj._SEGMENT))


def _check_core(args, reference):
    # every trajectory's jump history and state, bit for bit; the sums of
    # norms, populations and P2^2 up to the order of their additions, which
    # one trajectory alone does not have.  Needs _observables fingerprinted;
    # returns the core's three arrays
    cfg, streams = args[2:]
    got, steps, trajs = tj._mc_core(*args)
    ref, ref_steps, ref_trajs = reference
    n_records = time_grid(cfg.t_span, cfg.dt)[:: cfg.record_stride].size
    assert got.shape == ref.shape == (n_records, 7)
    assert np.array_equal(got[:, 4:], ref[:, 4:])
    np.testing.assert_allclose(got[:, :4], ref[:, :4], rtol=1e-14 if streams.size > 1 else 0.0)
    assert np.array_equal(_histories(steps, trajs), _histories(ref_steps, ref_trajs))
    assert 0 < steps.size or streams.size == 1  # a trajectory alone may not jump
    return got, steps, trajs


@pytest.mark.parametrize(
    "window, block",
    [(1, tj._BLOCK), (7, tj._BLOCK), (64, tj._BLOCK), (tj._WINDOW, tj._BLOCK), (64, 50), (20, 80)],
)
@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_window_cannot_change_results(case, window, block, monkeypatch):
    # the number of steps a pass advances, a multiple of the segment, decides
    # only when jumps and records are resolved.  The segment is the greatest
    # common divisor of the window and _SEGMENT: windows of 1 and 7 steps
    # run the per-step rule (7 so that the windows of staggered rows end at
    # different steps), 64 and _WINDOW steps whole segments of _SEGMENT, and
    # 20 steps five segments of 4.  Through the block bound, at most
    # 50 // 16 = 3 or 80 // 4 = 20 rows take a pass, the others waiting for
    # the next.  The histories and states stay bit for bit.
    monkeypatch.setattr(tj, "_SEGMENT", math.gcd(window, tj._SEGMENT))
    monkeypatch.setattr(tj, "_WINDOW", window)
    monkeypatch.setattr(tj, "_BLOCK", block)
    test_mc_core_matches_per_row_reference(case, monkeypatch)


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_anchored_rule_moves_records_by_rounding_only(case, monkeypatch):
    # against the per-step rule, which applies P once a step, the anchored
    # powers of P change the states by rounding alone: every jump history is
    # the same, and the sums of the observables agree to 1e-13
    monkeypatch.setattr(tj, "_observables", _fingerprinted)
    got, steps, trajs = tj._mc_core(*_core_args(case))
    ref, ref_steps, ref_trajs = _core_reference(case, 1)
    np.testing.assert_allclose(got[:, :4], ref[:, :4], rtol=1e-13)
    assert np.array_equal(_histories(steps, trajs), _histories(ref_steps, ref_trajs))


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_step_table_holds_powers_of_the_step(case):
    # the core and the reference share the table, so it is checked here on its
    # own: [J P^m; P^(m+1)] to 1e-13, and [J; P] exactly at m = 0
    model, _, cfg = CORE_CASES[case]
    prop = step_matrix(-1j * build_h_eff(model), cfg.dt)
    jop = build_jump_operator(model)
    table = tj._step_table(jop, prop, tj._SEGMENT)
    assert table.shape == (tj._SEGMENT, 8, 4)
    assert np.array_equal(table[0], np.concatenate([jop, prop]))
    for m in range(tj._SEGMENT):
        power = np.linalg.matrix_power(prop, m)
        np.testing.assert_allclose(table[m, :4], jop @ power, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(table[m, 4:], power @ prop, rtol=0.0, atol=1e-13)


def test_many_live_rows_stay_within_the_block_bound():
    # at beta = 0.5 from ee nearly every trajectory holds its own row, so
    # 20,000 rows are live: they take passes in turn, each within _BLOCK
    # row-steps, and the traced peak stays under 20 MB
    cfg = TrajectoryConfig(0.01, 20000, 3, (0.0, 1.0))
    tracemalloc.start()
    try:
        ensemble_average(composite_ket("ee"), CascadeModel(1.0, 1.0, beta=0.5), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_ensemble_average_matches_per_row_reference(case, monkeypatch):
    model, label, cfg = CORE_CASES[case]
    got = ensemble_average(composite_ket(label), model, cfg)
    monkeypatch.setattr(tj, "_mc_core", _reference_sums)
    ref = ensemble_average(composite_ket(label), model, cfg)
    for name in ("times", "jump_times"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.mean_jumps == ref.mean_jumps
    np.testing.assert_allclose(got.p1, ref.p1, rtol=1e-14)
    np.testing.assert_allclose(got.p2, ref.p2, rtol=1e-14)
    # compare the variance before the square root, sem^2 (n - 1) =
    # max(<p2^2> - <p2>^2, 0): a difference of means of values in [0, 1],
    # so reordered additions move it by a few ulps of 1, not of itself
    var_got, var_ref = (r.sem_p2**2 * (cfg.n_traj - 1) for r in (got, ref))
    np.testing.assert_allclose(var_got, var_ref, rtol=1e-14, atol=1e-15)
    assert np.all(np.isfinite(got.sem_p2)) and (cfg.n_traj > 1 or not got.sem_p2.any())


_UNIFORMS = tj._uniforms


def _quantized_uniforms(keys, counters):
    # thresholds at the midpoints of a grid of 1/8: ties in every sort,
    # which 53-bit uniforms almost never have
    return (np.floor(_UNIFORMS(keys, counters) * 8.0) + 0.5) / 8.0


def _stable_ascending(neg, group=None):
    # the stable sorts that _ascending returns the order of
    order = np.argsort(neg, kind="stable") if group is None else np.lexsort((neg, group))
    return order, neg[order]


@pytest.mark.parametrize("n", [0, 1, 2, 10_000])
@pytest.mark.parametrize("groups", ["none", "one", "many"])
def test_ascending_is_the_stable_sort(n, groups):
    # keys on a grid of 1/8 tie everywhere, so the unstable argsort leaves
    # runs of equal keys in kernel order, and only the repair puts them back.
    # Many groups come unsorted, about four members each, so equal keys also
    # meet across group boundaries, and as ids as narrow as the core's
    rng = np.random.default_rng(n)
    neg = -np.floor(rng.random(n) * 8.0) / 8.0
    many = n // 4 + 1
    group = {
        "none": None,
        "one": np.zeros(n, dtype=np.intp),
        "many": rng.integers(0, many, n).astype(np.min_scalar_type(many)),
    }[groups]
    order, key = tj._ascending(neg, group)
    want, want_key = _stable_ascending(neg, group)
    assert order.dtype == want.dtype
    assert np.array_equal(order, want)
    assert np.array_equal(key, want_key)


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_mc_core_with_tied_thresholds(case, monkeypatch):
    # with thresholds quantized to 1/8, equal thresholds share segments and
    # jumps: the histories and states still match the reference bit for
    # bit, and the three returned arrays are those of the stable sorts
    monkeypatch.setattr(tj, "_uniforms", _quantized_uniforms)
    monkeypatch.setattr(tj, "_observables", _fingerprinted)
    args = _core_args(case)
    records, steps, trajs = _reference_mc_core(*args, tj._SEGMENT)
    got = _check_core(args, (records.sum(axis=2), steps, trajs))
    monkeypatch.setattr(tj, "_ascending", _stable_ascending)
    assert all(np.array_equal(a, b) for a, b in zip(got, tj._mc_core(*args)))


def test_ensemble_independent_of_batching_with_tied_thresholds(monkeypatch):
    monkeypatch.setattr(tj, "_uniforms", _quantized_uniforms)
    _check_independent_of_batching()

import functools
import math
import re
import warnings

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
from qcascade.hilbert import composite_ket, density_from_ket
from qcascade.trajectory import (
    TrajectoryConfig,
    ensemble_average,
    evolve_trajectory,
    uniform_counter,
)

from oracles import density_history

MODEL = CascadeModel(gamma1=1.0, gamma2=1.0)
PSI_EG = composite_ket("eg")


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
    assert uniform_counter(42, 3, 17) == uniform_counter(42, 3, 17)
    assert uniform_counter(42, 3, 17) != uniform_counter(42, 4, 17)
    assert uniform_counter(42, 3, 17) != uniform_counter(42, 3, 18)
    assert uniform_counter(42, 3, 17) != uniform_counter(43, 3, 17)
    vals = np.array([uniform_counter(1, s, k) for s in range(40) for k in range(50)])
    assert np.all((0.0 <= vals) & (vals < 1.0))
    assert abs(vals.mean() - 0.5) < 0.02
    assert abs(np.mean(vals < 0.25) - 0.25) < 0.03
    # the core draws the j-th threshold of trajectory k as uniform_counter(seed, k, j)
    keys = tj._stream_keys(42, np.arange(5, dtype=np.uint64))
    j = np.array([0, 3, 17, 2**40, 7])
    assert tj._uniforms(keys, j).tolist() == [uniform_counter(42, k, int(c)) for k, c in enumerate(j)]


def test_dark_state_no_jumps():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=9, t_span=(0.0, 3.0))
    rec = evolve_trajectory(composite_ket("gg"), MODEL, cfg, 0)
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
    rec = evolve_trajectory(composite_ket("gg"), model, cfg, 0)
    assert rec.norms[-1] ** 2 < 0.9
    thresholds = [uniform_counter(cfg.seed, k, 0) for k in range(cfg.n_traj)]
    assert max(thresholds) > rec.norms[-1] ** 2
    gg = ensemble_average(composite_ket("gg"), model, cfg)
    assert gg.mean_jumps == 0.0
    assert np.all(gg.p1 == 0.0) and np.all(gg.p2 == 0.0) and np.all(gg.sem_p2 == 0.0)
    # from |eg> each trajectory emits its one photon, then sits in |gg>
    _, steps, trajs = tj._mc_core(
        composite_ket("eg"), model, cfg.dt, cfg.t_span, cfg.seed,
        np.arange(cfg.n_traj, dtype=np.uint64), 1, lambda states, norm2: norm2[None],
    )
    assert np.bincount(trajs, minlength=cfg.n_traj).max() == 1
    eg = ensemble_average(composite_ket("eg"), model, cfg)
    assert 0.9 < eg.mean_jumps <= 1.0
    assert all(np.isfinite(a).all() for a in (eg.p1, eg.p2, eg.sem_p2))


def test_trajectory_bit_identical_repeat():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=13, t_span=(0.0, 8.0))
    a = evolve_trajectory(PSI_EG, MODEL, cfg, 7)
    b = evolve_trajectory(PSI_EG, MODEL, cfg, 7)
    assert np.array_equal(a.norms, b.norms)
    assert np.array_equal(a.p1, b.p1)
    assert np.array_equal(a.p2, b.p2)
    assert np.array_equal(a.jump_times, b.jump_times)


def test_norm_monotone_between_jumps_and_reset():
    # find a stream whose trajectory jumps
    cfg = TrajectoryConfig(0.01, 1, 13, (0.0, 10.0))
    rec = None
    for stream in range(50):
        cand = evolve_trajectory(PSI_EG, MODEL, cfg, stream)
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
        cand = evolve_trajectory(PSI_EG, MODEL, cfg, stream)
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
    # every trajectory jumps in the ensemble exactly as it does alone; the
    # means are row-weighted sums, whose additions are grouped by row
    model = CascadeModel(gamma1=1.3, gamma2=0.8)
    cfg = TrajectoryConfig(dt=0.01, n_traj=5, seed=99, t_span=(0.0, 6.0))
    ens = ensemble_average(composite_ket("eg"), model, cfg)
    singles = [evolve_trajectory(composite_ket("eg"), model, cfg, k) for k in range(5)]
    _, steps, trajs = tj._mc_core(
        composite_ket("eg"), model, cfg.dt, cfg.t_span, cfg.seed,
        np.arange(5, dtype=np.uint64), 1, lambda states, norm2: norm2[None],
    )
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
    def observe(states, norm2):
        return norm2[None]

    with pytest.raises(IntegrationAbort, match="jump probability"):
        tj._mc_core(
            PSI_EG, MODEL, 0.2, (0.0, 2.0), 1, np.array([0], dtype=np.uint64), 1, observe
        )


def test_unstable_step_aborts_in_core_before_the_first_pass():
    # lab frame at omega = 200 and dt = 0.05: the no-jump step matrix has
    # spectral radius about 400, so the core stops before it steps, with
    # no overflow on the way
    model = CascadeModel(1.0, 1.0, omega1=200.0, omega2=200.0, rotating_frame=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationAbort, match="spectral radius"):
            tj._mc_core(PSI_EG, model, 0.05, (0.0, 10.0), 1, np.arange(10, dtype=np.uint64), 1,
                        lambda states, norm2: norm2[None])


def test_record_stride():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=4, t_span=(0.0, 1.0), record_stride=10)
    rec = evolve_trajectory(PSI_EG, MODEL, cfg, 0)
    assert rec.times.size == 11
    assert rec.times[1] - rec.times[0] == pytest.approx(0.1)


def test_unnormalized_psi0_rejected():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=4, t_span=(0.0, 1.0))
    with pytest.raises(ValueError):
        evolve_trajectory(2.0 * PSI_EG, MODEL, cfg, 0)


def _reference_mc_core(psi0, model, dt, t_span, seed, streams, record_stride, observe):
    # the waiting-time rule with one state per trajectory, no rows and no
    # retirement; returns per-trajectory values (records, q, trajectories)
    prop = step_matrix(-1j * build_h_eff(model), dt)
    jop = build_jump_operator(model)
    times = time_grid(t_span, dt)
    n = streams.size
    psi = np.tile(np.asarray(psi0, dtype=complex), (n, 1))
    norm2 = np.sum(np.abs(psi) ** 2, axis=1)
    keys = tj._stream_keys(seed, streams)
    counts = np.zeros(n, dtype=np.int64)
    thresholds = tj._uniforms(keys, counts)
    steps, trajs = [], []
    records = [observe(psi, norm2)]
    for step in range(times.size - 1):
        jj = np.sum(np.abs(tj._apply(jop, psi)) ** 2, axis=1)
        worst = float(np.max(dt * jj / norm2))
        if not math.isfinite(worst) or worst > 0.1:
            raise IntegrationAbort(
                f"jump probability per step {worst:.3g} > 0.1 at t = {times[step]:.6g}"
            )
        psi = tj._apply(prop, psi)
        norm2 = np.sum(np.abs(psi) ** 2, axis=1)
        # a trajectory whose J psi is 0 cannot emit and keeps its threshold
        jump = np.flatnonzero(norm2 < thresholds)
        jp = tj._apply(jop, psi[jump])
        jn2 = np.sum(np.abs(jp) ** 2, axis=1)
        jump, jp, jn2 = jump[jn2 > 0.0], jp[jn2 > 0.0], jn2[jn2 > 0.0]
        if jump.size:
            psi[jump] = jp / np.sqrt(jn2)[:, None]
            norm2[jump] = np.sum(np.abs(psi[jump]) ** 2, axis=1)
            counts[jump] += 1
            thresholds[jump] = tj._uniforms(keys[jump], counts[jump])
            steps += [step] * jump.size
            trajs += jump.tolist()
        if (step + 1) % record_stride == 0:
            records.append(observe(psi, norm2))
    return np.array(records), np.array(steps, dtype=np.intp), np.array(trajs, dtype=np.intp)


def _reference_sums(*args):
    # the reference in the core's calling convention: sums over trajectories
    records, steps, trajs = _reference_mc_core(*args)
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


def _core_observe(states, norm2):
    return np.concatenate([[np.sqrt(norm2)], tj._populations(states, norm2), _fingerprints(states)])


def _core_args(case):
    model, label, cfg = CORE_CASES[case]
    streams = np.arange(cfg.n_traj, dtype=np.uint64)
    return (composite_ket(label), model, cfg.dt, cfg.t_span, cfg.seed, streams,
            cfg.record_stride, _core_observe)


@functools.cache
def _core_reference(case):
    # depends on neither the window nor the block, so each case is computed once
    return _reference_sums(*_core_args(case))


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_mc_core_matches_per_row_reference(case):
    # every trajectory's jump history and state, bit for bit; the sums of
    # norms and populations up to the order of their additions
    cfg = CORE_CASES[case][2]
    got, steps, trajs = tj._mc_core(*_core_args(case))
    ref, ref_steps, ref_trajs = _core_reference(case)
    assert got.shape == ref.shape == (tj._record_times(cfg).size, 6)
    assert np.array_equal(got[:, 3:], ref[:, 3:])
    np.testing.assert_allclose(got[:, :3], ref[:, :3], rtol=1e-14)
    assert np.array_equal(_histories(steps, trajs), _histories(ref_steps, ref_trajs))
    assert 0 < steps.size


@pytest.mark.parametrize(
    "window, block", [(1, tj._BLOCK), (7, tj._BLOCK), (tj._WINDOW, tj._BLOCK), (tj._WINDOW, 50)]
)
@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_window_cannot_change_results(case, window, block, monkeypatch):
    # the number of steps a pass advances decides only when jumps and
    # records are resolved: forced down to one step, to 7 (so that the
    # windows of staggered rows end at different steps) or, through the
    # block bound, to 50 // rows, the histories and states stay bit for bit
    monkeypatch.setattr(tj, "_WINDOW", window)
    monkeypatch.setattr(tj, "_BLOCK", block)
    test_mc_core_matches_per_row_reference(case)


@pytest.mark.parametrize("window", [1, 7, tj._WINDOW])
def test_abort_names_the_earliest_step_across_staggered_rows(window, monkeypatch):
    # from |gg> the drive alone gives dt |beta|^2 = 0.05; the guard trips
    # only once excited states carry the rate above 0.1, first on a
    # trajectory that has jumped twice, so the failing row split off from
    # others whose windows began at other steps
    model = CascadeModel(1.0, 1.0, beta=1.0)
    streams = np.arange(40, dtype=np.uint64)

    def args(t_end):
        return (composite_ket("gg"), model, 0.05, (0.0, t_end), 3, streams, 1, lambda s, n2: n2[None])

    with pytest.raises(IntegrationAbort) as ref:
        _reference_mc_core(*args(3.0))
    monkeypatch.setattr(tj, "_WINDOW", window)
    with pytest.raises(IntegrationAbort) as got:
        tj._mc_core(*args(3.0))
    assert str(got.value).startswith(f"{ref.value}; reduce dt=")
    t_fail = float(re.search(r"at t = (\S+)$", str(ref.value)).group(1))
    assert t_fail == pytest.approx(0.95)
    # up to the failing step the guard holds, and the rows have split
    _, steps, trajs = tj._mc_core(*args(t_fail))
    histories = {tuple(steps[trajs == k]) for k in range(streams.size)}
    assert len(histories) > 2


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


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_evolve_trajectory_matches_per_row_reference(case, monkeypatch):
    model, label, cfg = CORE_CASES[case]
    streams = (0, 3, 11, 12345)
    got = [evolve_trajectory(composite_ket(label), model, cfg, k) for k in streams]
    monkeypatch.setattr(tj, "_mc_core", _reference_sums)
    ref = [evolve_trajectory(composite_ket(label), model, cfg, k) for k in streams]
    for g, r in zip(got, ref):
        for name in ("times", "norms", "p1", "p2", "jump_times"):
            assert np.array_equal(getattr(g, name), getattr(r, name)), name

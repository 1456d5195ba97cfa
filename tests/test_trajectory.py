import math

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
)
from qcascade.hilbert import composite_ket, density_from_ket
from qcascade.trajectory import (
    TrajectoryConfig,
    ensemble_average,
    evolve_trajectory,
    uniform_counter,
)

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


def test_step_bound_checked_against_model():
    cfg = TrajectoryConfig(dt=0.02, n_traj=4, seed=1, t_span=(0.0, 1.0))
    with pytest.raises(ValueError, match="4\\*dt"):
        ensemble_average(PSI_EG, MODEL, cfg)


def test_counter_rng_determinism_and_range():
    assert uniform_counter(42, 3, 17) == uniform_counter(42, 3, 17)
    assert uniform_counter(42, 3, 17) != uniform_counter(42, 4, 17)
    assert uniform_counter(42, 3, 17) != uniform_counter(42, 3, 18)
    assert uniform_counter(42, 3, 17) != uniform_counter(43, 3, 17)
    vals = np.array([uniform_counter(1, s, k) for s in range(40) for k in range(50)])
    assert np.all((0.0 <= vals) & (vals < 1.0))
    assert abs(vals.mean() - 0.5) < 0.02
    assert abs(np.mean(vals < 0.25) - 0.25) < 0.03


def test_dark_state_no_jumps():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=9, t_span=(0.0, 3.0))
    rec = evolve_trajectory(composite_ket("gg"), MODEL, cfg, 0)
    assert rec.jump_times.size == 0
    assert np.allclose(rec.norms, 1.0, atol=1e-12)
    assert np.all(rec.p1 == 0.0)
    assert np.all(rec.p2 == 0.0)


def test_trajectory_bit_identical_repeat():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=13, t_span=(0.0, 8.0))
    a = evolve_trajectory(PSI_EG, MODEL, cfg, 7)
    b = evolve_trajectory(PSI_EG, MODEL, cfg, 7)
    assert np.array_equal(a.norms, b.norms)
    assert np.array_equal(a.p1, b.p1)
    assert np.array_equal(a.p2, b.p2)
    assert np.array_equal(a.jump_times, b.jump_times)


def test_norm_monotone_between_jumps_and_reset():
    # stream 7 with seed 13 is known to jump once (see the repeat test)
    rec = evolve_trajectory(PSI_EG, MODEL, TrajectoryConfig(0.01, 1, 13, (0.0, 10.0)), 7)
    assert rec.jump_times.size >= 1
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
    # the batched ensemble equals the mean of singleton trajectories bit
    # for bit: per-row arithmetic and the reduction order are both fixed
    model = CascadeModel(gamma1=1.3, gamma2=0.8)
    cfg = TrajectoryConfig(dt=0.01, n_traj=5, seed=99, t_span=(0.0, 6.0))
    ens = ensemble_average(composite_ket("eg"), model, cfg)
    singles = [evolve_trajectory(composite_ket("eg"), model, cfg, k) for k in range(5)]
    assert np.array_equal(ens.p2, np.mean(np.stack([s.p2 for s in singles]), axis=0))
    assert np.array_equal(ens.p1, np.mean(np.stack([s.p1 for s in singles]), axis=0))
    pooled = np.sort(np.concatenate([s.jump_times for s in singles]))
    assert np.array_equal(np.sort(ens.jump_times), pooled)


def test_mean_jump_count_against_master_oracle():
    # expected jumps = integral of Tr(J rho J+) dt from the master equation
    dt = 0.01
    t_span = (0.0, 10.0)
    model = MODEL
    run = integrate_master(density_from_ket(PSI_EG), model, t_span, dt)
    j = build_jump_operator(model)
    rate = np.array([np.trace(j @ r @ j.conj().T).real for r in run.rhos])
    expected = float(np.trapezoid(rate, dx=dt))
    cfg = TrajectoryConfig(dt=dt, n_traj=2000, seed=71, t_span=t_span)
    ens = ensemble_average(PSI_EG, model, cfg)
    assert abs(ens.mean_jumps - expected) < 0.02
    assert abs(expected - 1.0) < 0.01  # exactly one photon leaves, minus the tail


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
    rate = np.array([np.trace(j @ r @ j.conj().T).real for r in run.rhos])
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
    recorded = []

    def sink(slot, states, norm2, cls):
        recorded.append(slot)

    with pytest.raises(IntegrationAbort, match="jump probability"):
        tj._mc_core(
            PSI_EG, MODEL, 0.2, (0.0, 2.0), 1, np.array([0], dtype=np.uint64), 1, sink
        )


def test_record_stride():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=4, t_span=(0.0, 1.0), record_stride=10)
    rec = evolve_trajectory(PSI_EG, MODEL, cfg, 0)
    assert rec.times.size == 11
    assert rec.times[1] - rec.times[0] == pytest.approx(0.1)


def test_unnormalized_psi0_rejected():
    cfg = TrajectoryConfig(dt=0.01, n_traj=1, seed=4, t_span=(0.0, 1.0))
    with pytest.raises(ValueError):
        evolve_trajectory(2.0 * PSI_EG, MODEL, cfg, 0)


def _reference_mc_core(psi0, model, dt, t_span, seed, streams, record_stride, on_record):
    # the per-trajectory step loop that propagated one state row per
    # trajectory, kept as the bit-level reference for the shared-row core
    prop = step_matrix(-1j * build_h_eff(model), dt)
    jop = build_jump_operator(model)
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_steps = int(round((t1 - t0) / dt))
    n = streams.size
    psi = np.tile(np.asarray(psi0, dtype=complex), (n, 1))
    norm2 = np.sum(np.abs(psi) ** 2, axis=1)
    keys = tj._stream_keys(seed, streams)
    jump_times: list[float] = []
    jump_counts = np.zeros(n, dtype=np.int64)
    slot = 0
    on_record(slot, psi, norm2)
    for step in range(n_steps):
        jpsi = tj._apply(jop, psi)
        jj = np.sum(np.abs(jpsi) ** 2, axis=1)
        delta_p = dt * jj / norm2
        worst = float(np.max(delta_p))
        if not math.isfinite(worst) or worst > 0.1:
            raise IntegrationAbort(
                f"jump probability per step {worst:.3g} > 0.1 at t = "
                f"{t0 + step * dt:.6g}; reduce dt={dt:g}"
            )
        u = tj._uniforms(keys, step)
        jump = u < delta_p
        psi = tj._apply(prop, psi)
        if np.any(jump):
            jp = jpsi[jump]
            jn = np.sqrt(np.sum(np.abs(jp) ** 2, axis=1))
            psi[jump] = jp / jn[:, None]
            t_jump = t0 + (step + 1) * dt
            jump_times.extend([t_jump] * int(np.count_nonzero(jump)))
            jump_counts[jump] += 1
        norm2 = np.sum(np.abs(psi) ** 2, axis=1)
        if (step + 1) % record_stride == 0:
            slot += 1
            on_record(slot, psi, norm2)
    return jump_times, jump_counts


def _reference_with_rows(psi0, model, dt, t_span, seed, streams, record_stride, on_record):
    # the reference behind the shared-row sink: trajectory i owns row i
    ident = np.arange(streams.size)

    def sink(slot, psi, norm2):
        on_record(slot, psi, norm2, ident)

    return _reference_mc_core(psi0, model, dt, t_span, seed, streams, record_stride, sink)


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
    # 500 steps: the last 3 are not followed by a record
    "beta05_ee_stride7": (
        CascadeModel(1.3, 0.8, beta=0.5),
        "ee",
        TrajectoryConfig(0.01, 300, 17, (0.0, 5.0), record_stride=7),
    ),
}


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_mc_core_matches_per_row_reference(case):
    # per-trajectory norms, populations, jump times and counts, bit for bit
    model, label, cfg = CORE_CASES[case]
    streams = np.arange(cfg.n_traj, dtype=np.uint64)
    args = (composite_ket(label), model, cfg.dt, cfg.t_span, cfg.seed, streams, cfg.record_stride)

    def recorder(out):
        def sink(slot, states, norm2, cls):
            a, b = tj._populations(states, norm2)
            out.append((np.sqrt(norm2)[cls], a[cls], b[cls]))

        return sink

    got, ref = [], []
    times, counts = tj._mc_core(*args, recorder(got))
    ref_times, ref_counts = _reference_with_rows(*args, recorder(ref))
    assert len(got) == len(ref) == tj._record_times(cfg).size
    for g, r in zip(got, ref):
        for x, y in zip(g, r):
            assert np.array_equal(x, y)
    assert times == ref_times
    assert np.array_equal(counts, ref_counts)
    assert 0 < counts.sum()


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_ensemble_average_matches_per_row_reference(case, monkeypatch):
    model, label, cfg = CORE_CASES[case]
    got = ensemble_average(composite_ket(label), model, cfg)
    monkeypatch.setattr(tj, "_mc_core", _reference_with_rows)
    ref = ensemble_average(composite_ket(label), model, cfg)
    for name in ("times", "p1", "p2", "sem_p2", "jump_times"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got.mean_jumps == ref.mean_jumps


@pytest.mark.parametrize("case", sorted(CORE_CASES))
def test_evolve_trajectory_matches_per_row_reference(case, monkeypatch):
    model, label, cfg = CORE_CASES[case]
    streams = (0, 3, 11, 12345)
    got = [evolve_trajectory(composite_ket(label), model, cfg, k) for k in streams]
    monkeypatch.setattr(tj, "_mc_core", _reference_with_rows)
    ref = [evolve_trajectory(composite_ket(label), model, cfg, k) for k in streams]
    for g, r in zip(got, ref):
        for name in ("times", "norms", "p1", "p2", "jump_times"):
            assert np.array_equal(getattr(g, name), getattr(r, name)), name

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every tolerance is pinned here; the whole suite runs at desk
scale (about a minute, dominated by the 10^4-trajectory ensemble).
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from qcascade import cli
from qcascade.cascade import (
    CascadeModel,
    build_h_eff,
    integrate_master,
    time_grid,
)
from qcascade.trajectory import TrajectoryConfig, ensemble_average
from qcascade.transfer import (
    drive_system2,
    transfer_experiment,
)
from qcascade.wavepacket import (
    Envelope,
    TransformSpec,
    apply_u_time_domain,
    gap_geometry,
    time_map,
    time_map_inverse,
    time_map_slope,
)

from oracles import (
    apply_u_frequency_domain,
    check_time_reversed_envelope,
    composite_ket,
    density_from_ket,
    envelope_to_spectrum,
    spectrum_to_envelope,
)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def grid(t0, t1, h):
    return t0 + h * np.arange(int(round((t1 - t0) / h)) + 1)


def test_criterion_1_decay_oracle(tmp_path):
    cfg_path = tmp_path / "decay.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "decay",
                "model": {"gamma1": 1.0, "gamma2": 1.0, "rotating_frame": True},
                "numerics": {"dt": 0.001, "t_span": [0.0, 10.0]},
                "output": {"directory": str(tmp_path)},
            }
        )
    )
    config = cli.load_config(cfg_path)
    assert cli.validate(config) == []
    start = time.perf_counter()
    cli.run(config)
    elapsed = time.perf_counter() - start
    rows = [
        line.split(",")
        for line in (tmp_path / "decay.csv").read_text().splitlines()
        if not line.startswith("#") and not line.startswith("t,")
    ]
    t = np.array([float(r[0]) for r in rows])
    coherence = np.array([float(r[7]) for r in rows]) + 1j * np.array(
        [float(r[8]) for r in rows]
    )
    exact = np.exp(-t / 2.0)
    rel_err = float(np.max(np.abs(coherence - exact) / exact))
    report(
        1,
        "decay run reproduces <sigma1->(t) = e^{-t/2} to 1e-6 in under 1 s",
        rel_err < 1e-6 and elapsed < 1.0,
        f"max rel err {rel_err:.2e}, runtime {elapsed:.2f} s",
    )


def test_criterion_2_h_eff_structure():
    heff = build_h_eff(CascadeModel(gamma1=1.0, gamma2=1.0))
    # composite basis |ee>=0, |eg>=1, |ge>=2, |gg>=3
    forward = heff[2, 1]
    backward = heff[1, 2]
    report(
        2,
        "H_eff couples |e,g> -> |g,e> with -i and never the reverse",
        forward == -1j and backward == 0.0,
        f"forward {forward}, backward {backward}",
    )


def test_criterion_3_trace_and_positivity():
    model = CascadeModel(gamma1=1.0, gamma2=1.0, beta=0.5)
    run = integrate_master(
        density_from_ket(composite_ket("eg")), model, (0.0, 10.0), 1e-3, min_eig=True
    )
    trace_dev = float(np.max(run.trace_deviation()))
    min_eig = float(np.min(run.min_eigenvalues()))
    report(
        3,
        "beta = 0.5 run keeps |Tr rho - 1| < 1e-9 and eigenvalues >= -1e-8",
        trace_dev < 1e-9 and min_eig >= -1e-8,
        f"trace dev {trace_dev:.2e}, min eig {min_eig:.2e}",
    )


def test_criterion_4_cascaded_peak_two_solvers():
    target = 4.0 * math.exp(-2.0)
    model = CascadeModel(gamma1=1.0, gamma2=1.0)
    h = 1e-3
    start = time.perf_counter()
    master = integrate_master(
        density_from_ket(composite_ket("eg")), model, (0.0, 10.0), h
    )
    t_master = time.perf_counter() - start
    start = time.perf_counter()
    t = grid(0.0, 10.0, h)
    amp = drive_system2([(0.0, math.inf, 1.0, -0.5)], 1.0, 0.0, 0.0, t)  # the emitted packet
    t_amp = time.perf_counter() - start
    peak_me = float(np.max(master.p2))
    peak_amp = amp.p2_max
    t_me = float(master.times[int(np.argmax(master.p2))])
    agree = float(np.max(np.abs(master.p2 - amp.p2)))
    ok = (
        abs(peak_me - target) < 1e-4
        and abs(peak_amp - target) < 1e-4
        and abs(t_me - 2.0) <= h + 1e-12
        and abs(amp.t_at_max - 2.0) <= h + 1e-12
        and agree < 1e-6
        and t_master < 1.0
        and t_amp < 1.0
    )
    report(
        4,
        "both solvers peak at P2 = 4/e^2 at t = 2/gamma and agree pointwise",
        ok,
        f"peaks {peak_me:.6f}/{peak_amp:.6f}, cross dev {agree:.2e}, "
        f"runtimes {t_master:.2f}/{t_amp:.2f} s",
    )


def test_criterion_5_trajectory_equivalence():
    model = CascadeModel(gamma1=1.0, gamma2=1.0)
    psi0 = composite_ket("eg")
    dt = 0.01
    cfg = TrajectoryConfig(dt=dt, n_traj=10_000, seed=20240901, t_span=(0.0, 10.0))
    start = time.perf_counter()
    ens = ensemble_average(psi0, model, cfg)
    elapsed = time.perf_counter() - start
    master = integrate_master(density_from_ket(psi0), model, (0.0, 10.0), dt)
    dev = float(np.max(np.abs(ens.p2 - master.p2)))
    ok = dev < 0.05 and abs(ens.mean_jumps - 1.0) < 0.03 and elapsed < 60.0
    report(
        5,
        "10^4 trajectories track the master equation and emit one photon",
        ok,
        f"max dev {dev:.3f} < 0.05, mean jumps {ens.mean_jumps:.4f}, "
        f"runtime {elapsed:.1f} s",
    )


def test_criterion_6_unitarity_and_path_equivalence():
    spec = TransformSpec(alpha=2.0, omega0=1.3, T=10.0, Delta=20.0, X=1.0)
    n = 4096
    dt = 0.02
    t = -40.0 + dt * np.arange(n)
    pulses = {
        "gaussian": np.exp(-(t**2) / 8.0) * np.exp(0.5j * t),
        "truncated-exponential": np.where(t >= 0.0, np.exp(-t / 2.0), 0.0),
    }
    worst_norm_analytic = 0.0
    worst_norm_dft = 0.0
    worst_path = 0.0
    for vals in pulses.values():
        env = Envelope(-40.0, dt, vals.astype(complex))
        out_t = apply_u_time_domain(env, spec)
        window = env.slice_window(
            (spec.T - spec.t_f) / spec.alpha, (spec.T - spec.t_s) / spec.alpha
        )
        worst_norm_analytic = max(
            worst_norm_analytic,
            abs(out_t.squared_norm() - window.squared_norm()) / window.squared_norm(),
        )
        f = envelope_to_spectrum(env)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # band-edge advisory
            fo = apply_u_frequency_domain(f, spec)
        worst_norm_dft = max(
            worst_norm_dft,
            abs(fo.squared_norm() - f.squared_norm()) / f.squared_norm(),
        )
        out_f = spectrum_to_envelope(fo, t0=out_t.t0, dt=out_t.dt, n=out_t.samples.size)
        worst_path = max(
            worst_path,
            float(
                np.linalg.norm(out_f.samples - out_t.samples)
                / np.linalg.norm(out_t.samples)
            ),
        )
    ok = worst_norm_analytic < 1e-9 and worst_norm_dft < 1e-6 and worst_path < 1e-6
    report(
        6,
        "transform preserves the L2 norm and both paths agree",
        ok,
        f"analytic norm dev {worst_norm_analytic:.2e}, DFT norm dev "
        f"{worst_norm_dft:.2e}, path dev {worst_path:.2e}",
    )


def test_criterion_7_fig2_regression():
    spec = TransformSpec(alpha=2.0, omega0=0.0, T=54.0, Delta=6.0, X=12.0)
    sched = (spec.t_i, spec.t_s, spec.t_f, spec.t_a)
    exact_schedule = sched == (
        12.0,
        18.0,
        30.0,
        18.0,
    )
    t = grid(0.0, 40.0, 1e-3)
    env = Envelope(0.0, 1e-3, np.exp(-t / 2.0).astype(complex))
    out = apply_u_time_domain(env, spec)
    rate = float(np.polyfit(out.times, np.log(np.abs(out.samples)), 1)[0])
    ok = exact_schedule and abs(rate - 0.25) < 1e-6
    report(
        7,
        "caption parameters give (t_i, t_s, t_f, t_a) = (12, 18, 30, 18) and "
        "a +0.25 rising rate",
        ok,
        f"schedule {sched}, fitted rate {rate:.8f}",
    )


def test_criterion_8_time_map_regression():
    spec = TransformSpec(alpha=2.0, omega0=0.0, T=54.0, Delta=6.0, X=12.0)
    tau = 0.8
    ts = np.linspace(-5.0, 45.0, 1001)
    finv = time_map_inverse(ts, spec, tau)
    defined = ~np.isnan(finv)
    back = time_map(finv[defined], spec, tau)
    identity_ok = bool(np.all(np.abs(back - ts[defined]) <= 1e-12))
    horizontal, vertical = gap_geometry(spec)
    f_s = time_map(spec.t_s, spec, tau)
    f_f = time_map(spec.t_f, spec, tau)
    geometry_ok = (
        horizontal == spec.Delta
        and vertical == spec.alpha * spec.Delta
        and f_f - f_s == spec.alpha * spec.Delta
        and math.isnan(time_map(0.5 * (spec.t_i + spec.t_s), spec, tau))
    )
    slope = time_map_slope(0.5 * (spec.t_s + spec.t_f), spec)
    ok = identity_ok and geometry_ok and slope == -1.0 / spec.alpha
    report(
        8,
        "f and f^-1 invert, gaps are Delta and alpha*Delta, branch slope -1/alpha",
        ok,
        f"gaps ({horizontal}, {vertical}), slope {slope}",
    )


def test_criterion_9_transfer_improvement():
    captured = 1.0 - math.exp(-8.0)
    details = []
    ok = True
    for ratio in (0.25, 0.5, 2.0, 4.0):
        # the path `qcascade transfer` runs: Delta = 8/gamma1, matched alpha/omega0
        cfg = cli.RunConfig("transfer", {"gamma1": ratio, "gamma2": 1.0},
                            {"dt": 1e-3 / max(ratio, 1)}, {})
        plan, _ = cli._resolve(cfg)
        t = time_grid(plan.numerics.t_span, plan.numerics.dt)
        comp = transfer_experiment(plan.model, plan.spec, t)
        ok = ok and comp.on.p2_max >= 0.99 * captured and comp.on.p2_max > comp.off.p2_max
        details.append(f"{ratio:g}: on {comp.on.p2_max:.4f} off {comp.off.p2_max:.4f}")
    # perfect-absorption oracle: rising exponential ending at t = 0
    t = grid(-40.0, 0.0, 1e-3)
    absorbed = drive_system2([(-40.0, 0.0, math.exp(-20.0), 0.5)], 1.0, 0.0, 0.0, t)
    oracle = abs(absorbed.p2[-1] - 1.0)
    ok = ok and oracle < 1e-6
    report(
        9,
        "transform on boosts capture past 0.99(1 - e^{-8}) for all rate ratios",
        ok,
        "; ".join(details) + f"; absorption oracle dev {oracle:.2e}",
    )


def test_criterion_10_time_reversed_envelope_signs():
    rep = check_time_reversed_envelope(2.0, 1.0, 5.0, 3.0)
    mag_err = abs(rep.magnitude_rate - 0.5)
    phase_err = abs(rep.phase_rate - (-3.0))
    ok = mag_err < 1e-6 and phase_err < 1e-6
    report(
        10,
        "reversed envelope grows at +gamma2/2 while rotating at -omega2",
        ok,
        f"magnitude rate {rep.magnitude_rate:.8f}, phase rate {rep.phase_rate:.8f}",
    )

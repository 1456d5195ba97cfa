import math
import warnings

import numpy as np
import pytest

from qcascade import cli
from qcascade.cascade import CascadeModel, IntegrationAbort, integrate_master, time_grid
from qcascade.hilbert import composite_ket, density_from_ket
from qcascade.trajectory import TrajectoryConfig
from qcascade.transfer import (
    drive_step_coefficients,
    drive_system2,
    emit_envelope,
    qubit_transfer_fidelity,
    transfer_experiment,
)
from qcascade.wavepacket import Envelope, TransformSpec, derive_transform_params, matched_timing

from oracles import check_time_reversed_envelope


def grid(t0, t1, h):
    return t0 + h * np.arange(int(round((t1 - t0) / h)) + 1)


def resolved_transfer(model, transform=None, **numerics):
    """(model, spec, time grid) of a transfer config as the CLI resolves it;
    dt defaults to 1e-3/max(gamma1, gamma2)."""
    numerics.setdefault("dt", 1e-3 / max(model["gamma1"], model["gamma2"]))
    plan, diags = cli._resolve(cli.RunConfig("transfer", model, numerics, {}, transform))
    assert not diags
    return plan.model, plan.spec, time_grid(plan.numerics.t_span, plan.numerics.dt)


def matched_spec(gamma1, gamma2):
    # rate-matched alpha, omega0 = 0, Delta = 8/gamma1, X = c Delta, production timed to t_a
    alpha, delta = gamma1 / gamma2, 8.0 / gamma1
    return TransformSpec(alpha, 0.0, matched_timing(alpha, delta, delta), delta, delta)


def drive_stagewise(xi, gamma2, omega2, h):
    # reference: RK4 stage by stage with drive samples on the half-step grid
    lam = -(gamma2 / 2.0 + 1j * omega2)
    g = math.sqrt(gamma2)
    c = 0.0j
    out = [c]
    for k in range((xi.size - 1) // 2):
        x0, xm, x1 = xi[2 * k], xi[2 * k + 1], xi[2 * k + 2]
        k1 = lam * c - g * x0
        k2 = lam * (c + 0.5 * h * k1) - g * xm
        k3 = lam * (c + 0.5 * h * k2) - g * xm
        k4 = lam * (c + h * k3) - g * x1
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(c)
    return np.array(out)


def test_emit_envelope_values():
    t = grid(0.0, 10.0, 1e-3)
    env = emit_envelope(1.0, 0.0, t)
    k = int(round(2.0 / 1e-3))
    assert abs(env.samples[k] - math.exp(-1.0)) < 1e-12


def test_emit_envelope_total_energy():
    # one photon is emitted with certainty: sum |xi|^2 dt -> 1
    t = grid(0.0, 40.0, 1e-4)
    env = emit_envelope(1.0, 0.0, t)
    assert abs(env.squared_norm() - 1.0) < 1e-3


def test_emit_envelope_lab_frame_carrier():
    t = grid(0.0, 1.0, 1e-3)
    env = emit_envelope(1.0, 5.0, t)
    k = 500
    expected = math.sqrt(1.0) * np.exp(-(0.5 + 5.0j) * t[k])
    assert abs(env.samples[k] - expected) < 1e-12


def test_drive_system2_matched_closed_form():
    h = 1e-3
    t = grid(0.0, 10.0, h)
    env = emit_envelope(1.0, 0.0, grid(0.0, 10.0, h / 2.0))
    res = drive_system2(env, 1.0, 0.0, 0.0, t)
    expected = -t * np.exp(-t / 2.0)
    assert np.max(np.abs(res.c2 - expected)) < 1e-9
    assert abs(res.p2_max - 4.0 * math.exp(-2.0)) < 1e-6
    assert abs(res.t_at_max - 2.0) <= h


def test_drive_system2_no_drive():
    h = 1e-2
    t = grid(0.0, 5.0, h)
    env = Envelope(0.0, h / 2.0, np.zeros(2 * (t.size - 1) + 1, dtype=complex))
    res = drive_system2(env, 1.0, 0.0, 0.0, t)
    assert np.all(res.p2 == 0.0)


def test_drive_system2_rising_exponential_absorption():
    # xi(t) = sqrt(g2) e^{+g2 t/2} for t < 0 is absorbed completely
    g2 = 1.0
    h = 1e-3
    t = grid(-40.0, 0.0, h)
    th = grid(-40.0, 0.0, h / 2.0)
    vals = math.sqrt(g2) * np.exp(g2 * th / 2.0)
    env = Envelope(float(th[0]), h / 2.0, vals.astype(complex))
    res = drive_system2(env, g2, 0.0, 0.0, t)
    # particular solution c2 = -e^{g2 t / 2}
    assert np.max(np.abs(res.c2[200:] + np.exp(g2 * t[200:] / 2.0))) < 1e-7
    assert abs(res.p2[-1] - 1.0) < 1e-6


def test_drive_system2_interpolated_envelope():
    # unaligned input grid goes through cubic interpolation
    h = 1e-3
    t = grid(0.0, 6.0, h)
    env = emit_envelope(1.0, 0.0, grid(0.0, 8.0, 0.00071))
    res = drive_system2(env, 1.0, 0.0, 0.0, t)
    expected = -t * np.exp(-t / 2.0)
    assert np.max(np.abs(res.c2 - expected)) < 1e-6


def test_drive_system2_takes_the_emitted_samples_of_the_transfer(monkeypatch):
    # transfer_experiment's emission grid at gamma1/gamma2 = 0.25 starts at -X/c = -32
    # on the half-step grid; its spacing, taken from the first difference, misses
    # h/2 = 5e-4 by 2.3e-12 of a step, yet the drive consumes the samples exactly
    half = 5e-4
    emitted = emit_envelope(0.25, 0.0, -32.0 + half * np.arange(228_003))
    assert abs(emitted.dt - half) > 1e-12 * half
    t = grid(0.0, 82.0, 2.0 * half)
    exact = drive_system2(Envelope(0.0, half, emitted.samples[64_000:228_001]), 1.0, 0.0, 0.0, t)
    monkeypatch.setattr(Envelope, "interp", lambda self, t: pytest.fail("interpolated"))
    res = drive_system2(emitted, 1.0, 0.0, 0.0, t)
    assert np.array_equal(res.c2, exact.c2)


def test_drive_system2_long_run_matches_closed_form():
    # the exponential drive u[k] = A q^k through c <- r c + u has the closed form
    # c[n] = A (r^n - q^n)/(r - q); over 2^20 steps the scan takes its block
    # starts from p^64, p^4096 and p^65536, which the 6000-step stagewise test
    # does not reach
    g1, g2, om1, om2, h = 2.0, 1.0, 3.0, 2.5, 2.5e-4
    n = 2**20
    env = emit_envelope(g1, om1, (h / 2.0) * np.arange(2 * n + 1))
    res = drive_system2(env, g2, om2, 0.0, h * np.arange(n + 1))
    r, w0, wm, w1 = drive_step_coefficients(g2, om2, h)
    lam1 = -(g1 / 2.0 + 1j * om1)
    a = math.sqrt(g1) * (w0 + wm * np.exp(lam1 * h / 2.0) + w1 * np.exp(lam1 * h))
    k = np.arange(n + 1)
    # r - q as (r - 1) - expm1(lam1 h): q rounded to a float would cancel to 1e-11
    exact = a * (np.exp(k * np.log(r)) - np.exp(lam1 * h * k)) / ((r - 1.0) - np.expm1(lam1 * h))
    assert np.max(np.abs(res.c2 - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_excitation_bound():
    # P2(t) never exceeds the input energy consumed so far
    h = 1e-3
    t = grid(0.0, 12.0, h)
    th = grid(0.0, 12.0, h / 2.0)
    env = emit_envelope(2.0, 0.0, th)
    res = drive_system2(env, 1.0, 0.0, 0.0, t)
    consumed = np.cumsum(np.abs(env.samples[::2]) ** 2) * h
    assert np.all(res.p2 <= consumed + 1e-6)


def test_time_translation_covariance():
    # delaying the envelope by s and advancing tau by s cancels exactly
    h = 1e-3
    t = grid(0.0, 8.0, h)
    env = emit_envelope(1.0, 0.0, grid(0.0, 9.0, h / 2.0))
    base = drive_system2(env, 1.0, 0.0, 0.0, t)
    s = 2.0
    shifted = drive_system2(env.shifted(s), 1.0, 0.0, -s, t)
    assert np.max(np.abs(base.p2 - shifted.p2)) < 1e-15


def test_off_branch_matches_master_equation():
    model = CascadeModel(gamma1=1.0, gamma2=1.0)
    h = 1e-3
    t = grid(0.0, 10.0, h)
    comp = transfer_experiment(model, matched_spec(1.0, 1.0), t)
    master = integrate_master(
        density_from_ket(composite_ket("eg")), model, (0.0, 10.0), h
    )
    assert np.max(np.abs(comp.off.p2 - master.p2)) < 1e-6


def test_transfer_experiment_matched_rates_off():
    model = CascadeModel(gamma1=1.0, gamma2=1.0)
    comp = transfer_experiment(model, matched_spec(1.0, 1.0), grid(0.0, 30.0, 1e-3))
    assert abs(comp.off.p2_max - 4.0 * math.exp(-2.0)) < 1e-4


def test_transfer_experiment_capture_bound():
    delta = 6.0 / 2.0
    model, spec, t = resolved_transfer({"gamma1": 2.0, "gamma2": 1.0}, {"Delta": delta})
    comp = transfer_experiment(model, spec, t)
    captured = 1.0 - math.exp(-model.gamma1 * delta)
    assert comp.on.p2_max >= 0.99 * captured
    assert comp.ratio > 1.0


@pytest.mark.parametrize("ratio", [0.25, 0.5, 2.0, 4.0])
def test_transfer_improvement_sweep(ratio):
    model, spec, t = resolved_transfer({"gamma1": ratio, "gamma2": 1.0})
    comp = transfer_experiment(model, spec, t)  # Delta = 8/gamma1, matched alpha, omega0
    captured = 1.0 - math.exp(-8.0)
    assert comp.on.p2_max >= 0.99 * captured
    assert comp.on.p2_max > comp.off.p2_max
    # the photon meets the device at t_i = X/c and is buffered until t_s: nothing
    # reaches system 2 before production starts
    before = comp.on.times < spec.t_s
    assert before.sum() > 1000 and np.all(comp.on.p2[before] == 0.0)


def test_smooth_driving_across_phase_boundaries():
    model, spec, t = resolved_transfer({"gamma1": 2.0, "gamma2": 1.0}, {"Delta": 3.0})
    on = transfer_experiment(model, spec, t).on
    h = on.times[1] - on.times[0]
    dc2 = np.abs(np.diff(on.c2)) / h
    xi_max = math.sqrt(model.gamma2)  # peak of the rate-matched rising exponential
    bound = model.gamma2 + math.sqrt(model.gamma2) * xi_max
    for edge in (spec.t_s, spec.t_f):
        sel = (on.times[:-1] > edge - 0.5) & (on.times[:-1] < edge + 0.5)
        assert np.max(dc2[sel]) <= bound


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_resolver_transfer_defaults(c):
    # a transfer config that gives at most c gets Delta = 8/gamma1, the device at
    # X = c Delta, production timed to the arrival and a span to t_f + 10/gamma2
    model, spec, t = resolved_transfer({"gamma1": 4.0, "gamma2": 0.5}, {"c": c}, dt=2.5e-3)
    assert (spec.alpha, spec.omega0, spec.Delta, spec.X, spec.c) == (8.0, 0.0, 2.0, c * 2.0, c)
    assert spec.T == matched_timing(8.0, 2.0, c * 2.0, c) == 9.0 * (2.0 + 2.0)
    assert spec.t_s == spec.t_a == 4.0 and spec.delay == 2.0
    assert t[0] == 0.0 and t[-1] == pytest.approx(spec.t_f + 10.0 / 0.5, abs=1e-12)


def test_amplitude_states_weight_bound():
    h = 1e-3
    t = grid(0.0, 10.0, h)
    env = emit_envelope(1.0, 0.0, grid(0.0, 10.0, h / 2.0))
    res = drive_system2(env, 1.0, 0.0, 0.0, t)
    assert res.c2.size == t.size and res.c2[0] == 0.0
    # single-excitation sector: the emitter keeps c1 = exp(-gamma1 t/2), so
    # |c1|^2 + |c2|^2 <= 1 at every sample, up to integrator round-off
    c1 = np.exp(-0.5 * res.times)
    weights = np.abs(c1) ** 2 + np.abs(res.c2) ** 2
    assert np.max(weights) <= 1.0 + 1e-9


def test_fidelity_metric():
    assert qubit_transfer_fidelity(1.0) == pytest.approx(1.0)
    assert qubit_transfer_fidelity(0.0) == pytest.approx(0.25)
    assert qubit_transfer_fidelity(1.0, excited_weight=1.0) == pytest.approx(1.0)
    assert qubit_transfer_fidelity(0.49) == pytest.approx(
        0.25 + 0.25 * 0.49 + 0.5 * 0.7
    )
    with pytest.raises(ValueError):
        qubit_transfer_fidelity(0.5, excited_weight=1.5)


def test_check_time_reversed_envelope_rates():
    rep = check_time_reversed_envelope(2.0, 1.0, 0.0, 0.0)
    assert abs(rep.magnitude_rate - 0.5) < 1e-6
    assert abs(rep.phase_rate) < 1e-6
    # omega2 keeps its sign while gamma2 flips: phase rotates at -omega2
    rep2 = check_time_reversed_envelope(2.0, 1.0, 5.0, 3.0)
    assert abs(rep2.magnitude_rate - 0.5) < 1e-6
    assert abs(rep2.phase_rate + 3.0) < 1e-6
    assert rep2.alpha == 2.0
    assert rep2.omega0 == pytest.approx(3.0 + 5.0 / 2.0)


def test_check_time_reversed_envelope_pure_reversal():
    # alpha = 1, omega = 0: the reversed coherence is exactly <s1-(-t)>
    rep = check_time_reversed_envelope(1.0, 1.0, 0.0, 0.0)
    assert abs(rep.magnitude_rate - 0.5) < 1e-9
    t = np.linspace(-4.0, 0.0, 101)
    tilde = np.exp(-0.5 * (-t))
    direct = np.exp(0.5 * t)
    assert np.max(np.abs(tilde - direct)) < 1e-12


def test_drive_system2_matches_stagewise_rk4():
    h = 2e-3
    t = grid(0.0, 12.0, h)
    half = grid(0.0, 12.0, h / 2.0)
    rng = np.random.default_rng(3)
    drive = np.exp(-0.3 * half + 2.0j * half) + 0.1 * rng.normal(size=half.size)
    env = Envelope(0.0, h / 2.0, drive)
    res = drive_system2(env, 1.3, 0.7, 0.0, t)
    ref = drive_stagewise(env.samples, 1.3, 0.7, h)
    assert np.max(np.abs(res.c2 - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_drive_system2_aborts_outside_rk4_stability():
    # real lam*h: RK4's factor is 0.879 at -2.7 and 1.022 at -2.8
    h = 1e-3
    t = grid(0.0, 0.1, h)
    env = Envelope(0.0, h / 2.0, np.ones(2 * t.size - 1, dtype=complex))
    assert np.all(np.isfinite(drive_system2(env, 5400.0, 0.0, 0.0, t).p2))
    for gamma2, omega2 in ((5600.0, 0.0), (1.0, 5000.0), (1.0, 1e300)):
        with pytest.raises(IntegrationAbort, match="RK4 step matrix"):
            drive_system2(env, gamma2, omega2, 0.0, t)


def test_transfer_grids_must_be_uniform():
    env = Envelope(0.0, 0.5, np.ones(8, dtype=complex))
    for bad in ([0.0, 1.0, 3.0], [1.0], [[0.0, 1.0], [2.0, 3.0]]):
        with pytest.raises(ValueError, match="t_grid must be a uniform 1-d grid"):
            emit_envelope(1.0, 0.0, np.array(bad))
        with pytest.raises(ValueError, match="t_grid must be a uniform 1-d grid"):
            drive_system2(env, 1.0, 0.0, 0.0, np.array(bad))


_RHO_EG = density_from_ket(composite_ket("eg"))
_PAIR = CascadeModel(gamma1=1.0, gamma2=1.0)
_ENV = Envelope(0.0, 0.05, np.ones(21, dtype=complex))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: integrate_master(_RHO_EG, _PAIR, (0.0, 1.0), math.nan),
                 "dt must be positive", id="integrate_master-dt"),
    pytest.param(lambda: integrate_master(_RHO_EG, _PAIR, (0.0, math.nan), 0.1),
                 "t_span must satisfy", id="integrate_master-t_span"),
    pytest.param(lambda: integrate_master(_RHO_EG, _PAIR, (0.0, math.inf), 0.1),
                 "t_span must have finite ends", id="integrate_master-t_span-inf"),
    pytest.param(lambda: integrate_master(_RHO_EG, _PAIR, (0.0, 1.0), 1e-300),
                 "dt = 1e-300 makes 1e\\+300 steps", id="integrate_master-dt-tiny"),
    pytest.param(lambda: TrajectoryConfig(math.nan, 10, 1, (0.0, 1.0)),
                 "dt must be positive", id="TrajectoryConfig-dt"),
    pytest.param(lambda: TrajectoryConfig(0.1, 10, 1, (0.0, math.nan)),
                 "t_span must satisfy", id="TrajectoryConfig-t_span"),
    pytest.param(lambda: drive_system2(_ENV, math.nan, 0.0, 0.0, grid(0.0, 1.0, 0.1)),
                 "gamma2 must be positive", id="drive_system2-gamma2"),
    pytest.param(lambda: drive_system2(_ENV, 1.0, math.nan, 0.0, grid(0.0, 1.0, 0.1)),
                 "omega2 must be finite and non-negative", id="drive_system2-omega2"),
    pytest.param(lambda: derive_transform_params(math.nan, 1.0, 0.0, 0.0),
                 "decay rates must be positive", id="derive_transform_params-gamma1"),
    pytest.param(lambda: transfer_experiment(_PAIR, matched_spec(1.0, 1.0), np.array([0.0])),
                 "t_grid must be a uniform 1-d grid", id="transfer_experiment-t_grid"),
    pytest.param(lambda: drive_system2(_ENV, 1.0, 0.0, 0.0, np.array([0.0, 0.1, math.nan, 0.3])),
                 "t_grid must be a uniform 1-d grid", id="drive_system2-t_grid"),
])
def test_entry_checks_name_the_field_they_reject(call, message):
    # each check is written 'not x > y', so a NaN fails it as a bad value would
    with pytest.raises(ValueError, match=message):
        call()


def test_drive_system2_aborts_when_a_stable_step_overflows_in_its_stages():
    # h*lam = -1j lies inside RK4's stability region, so the step matrix passes,
    # but the stages multiply lam = -1e308j by O(1) factors before h scales them
    h = 1e-308
    t = h * np.arange(5)
    env = Envelope(0.0, h / 2.0, np.ones(9, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationAbort, match="overflows in its stages"):
            drive_system2(env, 1.0, 1e308, 0.0, t)

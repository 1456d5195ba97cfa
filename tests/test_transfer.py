import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcascade import cli
from qcascade.cascade import CascadeModel, integrate_master, time_grid
from qcascade.trajectory import TrajectoryConfig
from qcascade.transfer import (
    _emitted,
    _on_pieces,
    _step_inputs,
    drive_system2,
    emit_envelope,
    qubit_transfer_fidelity,
    transfer_experiment,
)
from qcascade.wavepacket import TransformSpec, derive_transform_params, matched_timing

from oracles import (
    check_time_reversed_envelope,
    composite_ket,
    density_from_ket,
    device_output,
    drive_history,
    read_pieces,
    step_inputs,
)


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


# the packet that system 1 emits at gamma1 = 1 in the rotating frame, as one drive piece
PACKET = [(0.0, math.inf, 1.0, -0.5)]


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
    res = drive_system2(PACKET, 1.0, 0.0, 0.0, t)
    expected = -t * np.exp(-t / 2.0)
    assert np.max(np.abs(res.c2 - expected)) < 1e-9
    assert abs(res.p2_max - 4.0 * math.exp(-2.0)) < 1e-6
    assert abs(res.t_at_max - 2.0) <= h


def test_drive_system2_no_drive():
    t = grid(0.0, 5.0, 1e-2)
    for pieces in ([], [(0.0, math.inf, 0.0, -0.5)], [(6.0, 9.0, 1.0, -0.5)]):
        assert np.all(drive_system2(pieces, 1.0, 0.0, 0.0, t).p2 == 0.0)


def test_drive_system2_rising_exponential_absorption():
    # xi(t) = sqrt(g2) e^{+g2 t/2} for t < 0 is absorbed completely
    g2 = 1.0
    t = grid(-40.0, 0.0, 1e-3)
    res = drive_system2([(-40.0, 0.0, math.exp(-20.0), 0.5)], g2, 0.0, 0.0, t)
    # particular solution c2 = -e^{g2 t / 2}
    assert np.max(np.abs(res.c2[200:] + np.exp(g2 * t[200:] / 2.0))) < 1e-7
    assert abs(res.p2[-1] - 1.0) < 1e-6


@pytest.mark.parametrize("spacing, tau", [
    pytest.param(1e-3, 0.75, id="aligned"),  # every breakpoint of s = t - tau on a grid point
    pytest.param(1e-3, 0.75 + 3.1e-5, id="tau-off-grid"),
    pytest.param(7.1e-4, 0.75, id="spacing-off-grid"),  # breakpoints 0.71 apart, inside steps
])
def test_drive_system2_equals_the_whole_drive_bit_for_bit(spacing, tau):
    # 10,001 steps formed in slices of 4096, the last of them partial, from a
    # packet cut into pieces 1000 * spacing long: each slice reads the grid's
    # own points, so its inputs are the whole grid's, bit for bit
    h = 2e-3
    t = -0.3 + h * np.arange(10_002)
    mu = -(1.5 / 2.0 + 0.8j)
    edges = -1.0 + 1000.0 * spacing * np.arange(int(22.0 / (1000.0 * spacing)) + 1)
    pieces = [(a, b, math.sqrt(1.5) * np.exp(mu * (a + 1.0)), mu) for a, b in zip(edges, edges[1:])]
    res = drive_system2(pieces, 1.2, 0.4, tau, t)
    assert res.c2.tobytes() == drive_history(pieces, 1.2, 0.4, tau, t).tobytes()


def test_step_inputs_over_repeated_device_times():
    # t - tau can round equal neighbours to one device time: each piece's range
    # of steps then holds steps of zero width, which take no input; pieces start
    # before, on and between the device times and end past them
    s = np.array([-0.5, 0.0, 0.25, 0.25, 0.25, 0.5, 1.0, 1.0, 1.75, 2.0])
    mu, lam = -(0.6 + 0.9j), -(0.4 + 0.3j)
    for pieces in ([(-1.0, 0.25, 1.5, mu)], [(0.25, 1.0, 0.5j, mu), (1.0, math.inf, 2.0, mu)],
                   [(0.1, 0.3, 1.0, mu), (0.6, 1.9, -1.0, lam + 1e-9), (3.0, 4.0, 1.0, mu)],
                   [(-2.0, -1.0, 1.0, mu)]):
        assert _step_inputs(pieces, lam, s).tobytes() == step_inputs(pieces, lam, s).tobytes()


def test_drive_system2_long_run_matches_closed_form():
    # the emitted packet drives dc2/dt = lam c2 - sqrt(g2) sqrt(g1) e^(mu t), whose
    # solution from c2(0) = 0 is -sqrt(g1 g2) (e^(mu t) - e^(lam t))/(mu - lam);
    # over 2^20 steps the scan takes its block starts from p^64, p^4096 and p^65536
    g1, g2, om1, om2, h = 2.0, 1.0, 3.0, 2.5, 2.5e-4
    n = 2**20
    mu, lam = -(g1 / 2.0 + 1j * om1), -(g2 / 2.0 + 1j * om2)
    t = h * np.arange(n + 1)
    res = drive_system2([(0.0, math.inf, math.sqrt(g1), mu)], g2, om2, 0.0, t)
    exact = -math.sqrt(g1 * g2) * (np.exp(mu * t) - np.exp(lam * t)) / (mu - lam)
    assert np.max(np.abs(res.c2 - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_excitation_bound():
    # P2(t) never exceeds the input energy consumed so far, 1 - e^(-gamma1 t)
    t = grid(0.0, 12.0, 1e-3)
    res = drive_system2([(0.0, math.inf, math.sqrt(2.0), -1.0)], 1.0, 0.0, 0.0, t)
    consumed = -np.expm1(-2.0 * t)
    assert np.all(res.p2 <= consumed + 1e-6)


def test_time_translation_covariance():
    # delaying the drive by s and advancing tau by s cancels exactly
    t = grid(0.0, 8.0, 1e-3)
    base = drive_system2(PACKET, 1.0, 0.0, 0.0, t)
    s = 2.0
    shifted = drive_system2([(s, math.inf, 1.0, -0.5)], 1.0, 0.0, -s, t)
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


def test_long_production_window():
    # gamma1 Delta = 1600: U's output grows by e^800 over production, past the
    # range of a float, so it is split into pieces; system 2 absorbs the packet
    model, spec, t = resolved_transfer({"gamma1": 2.0, "gamma2": 1.0}, {"Delta": 800.0}, dt=0.04)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        on = transfer_experiment(model, spec, t).on
    assert len(_on_pieces(model.gamma1, 0.0, spec)) == 3
    assert abs(on.p2_max - 1.0) < 1e-12


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


def test_transfer_at_rate_ratio_4_holds_no_whole_drive_temporaries():
    # 88,001 points at dt = 2.5e-4: each drive's step inputs are formed 4096
    # steps at a time, so only the inputs and the histories are held whole,
    # about 5.6 MB at the peak
    import tracemalloc

    model, spec, t = resolved_transfer({"gamma1": 4.0, "gamma2": 1.0})
    assert t.size == 88_001
    tracemalloc.start()
    try:
        comp = transfer_experiment(model, spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.ratio > 1.0
    assert peak < 8e6


MATCHED = Path(__file__).parent.parent / "configs/transfer_matched.json"
DEVICE_BETWEEN = Path(__file__).parent.parent / ".github/ci-configs/transfer_device_between.json"
# P2 of the matched transfer: system 2 absorbs the share 1 - e^{-gamma1 Delta} of
# the packet that U produces, at gamma1 Delta = 8
P2_MATCHED = (1.0 - math.exp(-8.0)) ** 2


def shipped(path, **numerics):
    cfg = json.loads(path.read_text())
    return resolved_transfer(cfg["model"], cfg.get("transform"), **{**cfg["numerics"], **numerics})


@pytest.mark.parametrize("dt", [2e-3, 1e-3])
@pytest.mark.parametrize("ratio", [None, 0.25, 0.5, 2.0, 4.0])
def test_p2_max_on_is_the_closed_form(ratio, dt):
    # transfer_matched (ratio None) and criterion 9's rate ratios: each step takes
    # the exact integral of the on drive, so P2_on peaks at (1 - e^{-8})^2 to
    # round-off at any step
    if ratio is None:
        model, spec, t = shipped(MATCHED, dt=dt)
    else:
        model, spec, t = resolved_transfer({"gamma1": ratio, "gamma2": 1.0}, dt=dt)
    assert model.gamma1 * spec.Delta == 8.0
    assert abs(transfer_experiment(model, spec, t).on.p2_max - P2_MATCHED) < 1e-12


def test_emission_start_on_a_grid_point_starts_the_next_step():
    # at tau = 6 the emission starts on a grid point: the step ending there
    # overlaps no piece of the drive, so P2_off is the tau = 0 run's
    model, spec, t = shipped(DEVICE_BETWEEN)
    between = transfer_experiment(model, spec, t)
    assert model.tau == 6.0
    at_zero = transfer_experiment(CascadeModel(model.gamma1, model.gamma2), spec, t)
    assert abs(between.off.p2_max - at_zero.off.p2_max) < 1e-12
    assert abs(between.on.p2_max - P2_MATCHED) < 1e-12


def test_transfer_span_reaches_past_the_delay():
    # the derived span ends t_f + tau + 10/gamma2: at tau = 6, as at tau = 0,
    # system 2 has re-emitted what it absorbed when the run ends
    model, spec, t = shipped(DEVICE_BETWEEN)
    assert t[-1] == pytest.approx(spec.t_f + model.tau + 10.0 / model.gamma2, abs=1e-12)
    assert transfer_experiment(model, spec, t).on.p2[-1] < 1e-4


TRANSFER_CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("transfer*.json")) + sorted(
    (Path(__file__).parent.parent / ".github/ci-configs").glob("transfer*.json"))


@pytest.mark.parametrize("path", TRANSFER_CONFIGS, ids=lambda p: p.stem)
def test_pieces_are_the_packet(path):
    # the drive pieces equal the emitted packet's closed form, and U's output of
    # it phase by phase, at every half-step point of the run and one ulp either
    # side of each breakpoint, to 1e-15 of the peak; in the lab frame the two
    # forms round phases omega t of up to about 200 differently, so the bound
    # is 2^-52 times the largest phase
    model, spec, t = shipped(path)
    w1 = model.frame_omegas()[0]
    on = _on_pieces(model.gamma1, w1, spec)
    mu = -(model.gamma1 / 2.0 + 1j * w1)
    breaks = np.array([0.0, spec.delay, spec.t_i, spec.t_s, spec.t_f, spec.T - spec.alpha * spec.delay])
    points = t[0] - model.tau + (t[1] - t[0]) / 2.0 * np.arange(2 * t.size - 1)
    r = np.concatenate([points, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf)])
    # where the preimage reaches the emission start, inside production, the closed
    # form takes the packet's first value and the pieces, each open at its end, zero
    stop = spec.T - spec.alpha * spec.delay
    r = r[~((r == stop) & (spec.t_s < stop) & (stop < spec.t_f))]
    phase = np.abs(spec.omega0) * np.max(np.abs(r - spec.T)) + w1 * np.max(np.abs(r))
    tol = max(1e-15, 2.0**-52 * phase)
    for got, ref in ((read_pieces(on, r), device_output(model.gamma1, w1, spec, r)),
                     (read_pieces([(0.0, math.inf, math.sqrt(model.gamma1), mu)], r),
                      _emitted(model.gamma1, w1, r))):
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))
        assert np.array_equal(got == 0.0, ref == 0.0)


@pytest.mark.parametrize("path", TRANSFER_CONFIGS, ids=lambda p: p.stem)
def test_p2_is_the_same_on_a_4x_finer_grid(path):
    # the steps integrate the drive exactly, so a breakpoint inside a step costs
    # nothing: P2 on the config's grid is P2 on a grid 4x finer at the shared
    # points, to rounding; the off-grid configs put breakpoints inside steps
    model, spec, t = shipped(path)
    coarse = transfer_experiment(model, spec, t)
    fine = transfer_experiment(model, spec, time_grid((t[0], t[-1]), (t[1] - t[0]) / 4.0))
    for a, b in ((coarse.off, fine.off), (coarse.on, fine.on)):
        assert np.array_equal(a.times, b.times[::4][: a.times.size])
        assert np.max(np.abs(a.p2 - b.p2[::4][: a.p2.size])) < 1e-12


@pytest.mark.parametrize("ratio", [None, 0.25, 4.0])
def test_on_drive_never_exceeds_the_produced_peak(ratio):
    # U stretches the packet by alpha and scales it by 1/sqrt(alpha), so its
    # output peaks at sqrt(gamma1/alpha) = sqrt(gamma2) when production starts;
    # the untouched packet before t_i and after t_f stays below that.  The pieces
    # are read at every half-step point and one ulp either side of each breakpoint
    if ratio is None:
        model, spec, t = shipped(MATCHED)
    else:
        model, spec, t = resolved_transfer({"gamma1": ratio, "gamma2": 1.0})
    pieces = _on_pieces(model.gamma1, 0.0, spec)
    breaks = np.array([edge for a, b, _, _ in pieces for edge in (a, b) if edge < math.inf])
    points = t[0] + (t[1] - t[0]) / 2.0 * np.arange(2 * t.size - 1)
    bound = math.sqrt(model.gamma1 / spec.alpha) * (1.0 + 1e-12)
    for r in (points, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf)):
        assert np.max(np.abs(read_pieces(pieces, r))) <= bound


def test_device_output_closed_form():
    # FIG2's device (alpha = 2, T = 54, Delta = 6, X = 12): the packet that
    # reaches it at t - X/c passes untouched before t_i = 12 and after t_f = 30,
    # the gap [12, 18) is vacuum, and production on [18, 30) reads it at the
    # preimage (T - t)/alpha: exp(-((54 - t)/2 - 12)/2)/sqrt(2) for gamma1 = 1
    spec = TransformSpec(alpha=2.0, omega0=0.0, T=54.0, Delta=6.0, X=12.0)
    t = np.linspace(0.0, 40.0, 4001)
    out = read_pieces(_on_pieces(1.0, 0.0, spec), t)
    produced = (18.0 <= t) & (t < 30.0)
    expected = np.exp(-((54.0 - t[produced]) / 2.0 - 12.0) / 2.0) / math.sqrt(2.0)
    assert np.max(np.abs(out[produced] - expected)) < 1e-15
    assert np.all(out[(12.0 <= t) & (t < 18.0)] == 0.0)
    free = (t < 12.0) | (t >= 30.0)
    untouched = np.exp(-np.maximum(t[free] - 12.0, 0.0) / 2.0) * (t[free] >= 12.0)
    assert np.max(np.abs(out[free] - untouched)) < 1e-15


TRANSDUCTION = Path(__file__).parent.parent / ".github/ci-configs/transfer_transduction.json"


def test_transduction_between_different_frequencies():
    # U frequency-translates the packet that system 1 emits at omega1 = 3 for
    # system 2 at omega2 = 5, in the lab frame: with the derived omega0 =
    # omega2 + omega1/alpha = 6.5, P2_on peaks as in the rotating frame, and a
    # mis-set omega0 loses the transfer.  P2_off is not compared: its drive
    # still reads the emitted packet without the travel time X/c
    cfg = json.loads(TRANSDUCTION.read_text())

    def on(model, transform):
        model, spec, t = resolved_transfer(model, transform, **cfg["numerics"])
        return spec.omega0, transfer_experiment(model, spec, t).on.p2_max

    omega0, lab = on(cfg["model"], cfg["transform"])
    assert omega0 == 6.5 and lab > 0.999
    assert abs(lab - on({**cfg["model"], "rotating_frame": True}, cfg["transform"])[1]) < 1e-8
    assert on(cfg["model"], {**cfg["transform"], "omega0": 5.0})[1] < 0.5


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
    t = grid(0.0, 10.0, 1e-3)
    res = drive_system2(PACKET, 1.0, 0.0, 0.0, t)
    assert res.c2.size == t.size and res.c2[0] == 0.0
    # single-excitation sector: the emitter keeps c1 = exp(-gamma1 t/2), so
    # |c1|^2 + |c2|^2 <= 1 at every sample, up to integrator round-off
    c1 = np.exp(-0.5 * res.times)
    weights = np.abs(c1) ** 2 + np.abs(res.c2) ** 2
    assert np.max(weights) <= 1.0 + 1e-9


def test_fidelity_metric():
    assert qubit_transfer_fidelity(1.0) == pytest.approx(1.0)
    assert qubit_transfer_fidelity(0.0) == pytest.approx(0.25)
    assert qubit_transfer_fidelity(0.49) == pytest.approx(
        0.25 + 0.25 * 0.49 + 0.5 * 0.7
    )


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


def test_transfer_grids_must_be_uniform():
    for bad in ([0.0, 1.0, 3.0], [1.0], [[0.0, 1.0], [2.0, 3.0]]):
        with pytest.raises(ValueError, match="t_grid must be a uniform 1-d grid"):
            emit_envelope(1.0, 0.0, np.array(bad))
        with pytest.raises(ValueError, match="t_grid must be a uniform 1-d grid"):
            drive_system2(PACKET, 1.0, 0.0, 0.0, np.array(bad))


_RHO_EG = density_from_ket(composite_ket("eg"))
_PAIR = CascadeModel(gamma1=1.0, gamma2=1.0)


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
    pytest.param(lambda: drive_system2(PACKET, math.nan, 0.0, 0.0, grid(0.0, 1.0, 0.1)),
                 "gamma2 must be positive", id="drive_system2-gamma2"),
    pytest.param(lambda: drive_system2(PACKET, 1.0, math.nan, 0.0, grid(0.0, 1.0, 0.1)),
                 "omega2 must be finite and non-negative", id="drive_system2-omega2"),
    pytest.param(lambda: derive_transform_params(math.nan, 1.0, 0.0, 0.0),
                 "decay rates must be positive", id="derive_transform_params-gamma1"),
    pytest.param(lambda: transfer_experiment(_PAIR, matched_spec(1.0, 1.0), np.array([0.0])),
                 "t_grid must be a uniform 1-d grid", id="transfer_experiment-t_grid"),
    pytest.param(lambda: drive_system2(PACKET, 1.0, 0.0, 0.0, np.array([0.0, 0.1, math.nan, 0.3])),
                 "t_grid must be a uniform 1-d grid", id="drive_system2-t_grid"),
])
def test_entry_checks_name_the_field_they_reject(call, message):
    # each check is written 'not x > y', so a NaN fails it as a bad value would
    with pytest.raises(ValueError, match=message):
        call()

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcascade import cascade, cli
from qcascade.cascade import (
    IDENT4,
    NUMBER1,
    NUMBER2,
    SIGMA1_MINUS,
    SIGMA1_PLUS,
    SIGMA2_MINUS,
    SIGMA2_PLUS,
    CascadeModel,
    IntegrationAbort,
    build_h0,
    build_h_eff,
    build_h_ex,
    build_h_sys,
    build_jump_operator,
    integrate_master,
    liouvillian,
    step_matrix,
)
from qcascade.wavepacket import TransformSpec, time_map

from oracles import (
    composite_ket,
    density_from_ket,
    density_history,
    heisenberg_consistency,
    lindblad_rhs,
    two_level_ket,
)


SM, SP, SZ = cascade._SM, cascade._SP, cascade._SZ


def test_ladder_definitions():
    e, g = two_level_ket("e"), two_level_ket("g")
    assert np.array_equal(SM @ e, g)
    assert np.array_equal(SP, SM.conj().T)
    assert np.array_equal(SZ, np.diag([1.0 + 0j, -1.0]))
    # sigma+ sigma- projects onto the excited state
    assert np.array_equal(SP @ SM, np.outer(e, e.conj()))
    # system 1 is the left Kronecker factor of the composite basis
    assert np.array_equal(SIGMA1_MINUS @ composite_ket("eg"), composite_ket("gg"))
    assert np.array_equal(SIGMA2_MINUS @ composite_ket("ge"), composite_ket("gg"))


def test_pauli_algebra_exact():
    assert np.array_equal(SP @ SM - SM @ SP, SZ)
    assert np.array_equal(SZ @ SM - SM @ SZ, -2.0 * SM)
    assert np.array_equal(SZ @ SP - SP @ SZ, 2.0 * SP)
    assert np.array_equal(SP @ SM + SM @ SP, np.eye(2, dtype=complex))


def plus_g_density():
    plus = (two_level_ket("e") + two_level_ket("g")) / math.sqrt(2.0)
    psi = np.kron(plus, two_level_ket("g"))
    return density_from_ket(psi)


def random_density(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_model_invariants():
    with pytest.raises(ValueError):
        CascadeModel(gamma1=0.0, gamma2=1.0)
    with pytest.raises(ValueError):
        CascadeModel(gamma1=1.0, gamma2=-2.0)
    with pytest.raises(ValueError):
        CascadeModel(gamma1=1.0, gamma2=1.0, tau=-1.0)
    m = CascadeModel(gamma1=1.0, gamma2=1.0, omega1=3.0, omega2=5.0, rotating_frame=True)
    assert m.frame_omegas() == (0.0, 0.0)
    lab = CascadeModel(gamma1=1.0, gamma2=1.0, omega1=3.0, omega2=5.0, rotating_frame=False)
    assert lab.frame_omegas() == (3.0, 5.0)


@pytest.mark.parametrize("name", ["gamma1", "gamma2", "omega1", "omega2", "tau"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_nonfinite(name, value):
    # named as a bad parameter, not left to fail as a bad step size or an all-NaN clock
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        CascadeModel(**{"gamma1": 1.0, "gamma2": 1.0, name: value})


def test_integrator_knows_no_transform():
    # the transform reaches the master equation only as the lindblad experiment's clock tag
    names = []
    for node in ast.walk(ast.parse(Path(cascade.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert not [name for name in names if "wavepacket" in name.split(".")]


def test_jump_operator():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    assert np.array_equal(build_jump_operator(m), SIGMA1_MINUS + SIGMA2_MINUS)
    assert np.array_equal(build_jump_operator(m) @ composite_ket("gg"), np.zeros(4))
    mb = CascadeModel(gamma1=4.0, gamma2=1.0, beta=0.5 + 0.25j)
    assert np.allclose(
        build_jump_operator(mb),
        2.0 * SIGMA1_MINUS + SIGMA2_MINUS + (0.5 + 0.25j) * IDENT4,
    )


def test_h_ex_structure():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    expected = (-0.5j) * (SIGMA2_PLUS @ SIGMA1_MINUS - SIGMA1_PLUS @ SIGMA2_MINUS)
    assert np.array_equal(build_h_ex(m), expected)
    # coefficient of the s2+ s1- term is -i sqrt(gamma1 gamma2)/2
    m41 = CascadeModel(gamma1=1.0, gamma2=4.0)
    assert build_h_ex(m41)[2, 1] == -1j  # <g,e| H_ex |e,g>
    assert np.array_equal(build_h0(m), build_h_sys(m) + build_h_ex(m))


def test_h_ex_hermitian_random_models():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = CascadeModel(
            gamma1=float(rng.uniform(0.1, 4.0)),
            gamma2=float(rng.uniform(0.1, 4.0)),
            beta=complex(rng.normal(), rng.normal()),
        )
        hex_ = build_h_ex(m)
        assert np.max(np.abs(hex_ - hex_.conj().T)) == 0.0
        heff = build_h_eff(m)
        j = build_jump_operator(m)
        anti = (heff - heff.conj().T) / 2.0
        assert np.max(np.abs(anti - (-0.5j) * (j.conj().T @ j))) < 1e-14


def test_h_eff_explicit_form():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)  # rotating frame, H_sys = 0
    expected = (-0.5j) * (NUMBER1 + NUMBER2 + 2.0 * SIGMA1_MINUS @ SIGMA2_PLUS)
    assert np.allclose(build_h_eff(m), expected, atol=1e-15)


@pytest.mark.parametrize("g1,g2", [(1.0, 1.0), (1.0, 4.0), (2.0, 0.5)])
def test_h_eff_unidirectional_elements(g1, g2):
    m = CascadeModel(gamma1=g1, gamma2=g2)
    heff = build_h_eff(m)
    # basis |ee>=0, |eg>=1, |ge>=2, |gg>=3
    assert heff[2, 1] == pytest.approx(-1j * math.sqrt(g1 * g2), abs=1e-15)
    assert heff[1, 2] == 0.0


def test_lindblad_rhs_values():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    dark = density_from_ket(composite_ket("gg"))
    assert np.max(np.abs(lindblad_rhs(dark, m))) < 1e-15
    rho = density_from_ket(composite_ket("eg"))
    # d<P1>/dt = Tr(N1 rhs) = -gamma1 for the excited state
    assert np.trace(NUMBER1 @ lindblad_rhs(rho, m)).real == pytest.approx(-1.0, abs=1e-12)


def test_lindblad_rhs_traceless_random():
    rng = np.random.default_rng(13)
    m = CascadeModel(gamma1=1.3, gamma2=0.7, beta=0.4 - 0.2j)
    for _ in range(10):
        rho = random_density(rng)
        assert abs(np.trace(lindblad_rhs(rho, m))) < 1e-12


def test_liouvillian_matches_direct_rhs():
    rng = np.random.default_rng(17)
    m = CascadeModel(gamma1=2.0, gamma2=0.5, beta=0.3 + 0.1j)
    lmat = liouvillian(m)
    for _ in range(5):
        rho = random_density(rng)
        direct = lindblad_rhs(rho, m)
        assert np.max(np.abs(lmat @ rho.reshape(-1) - direct.reshape(-1))) < 1e-12


def test_integrate_master_decay():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    run = integrate_master(density_from_ket(composite_ket("eg")), m, (0.0, 1.0), 1e-3)
    assert abs(run.p1[-1] - math.exp(-1.0)) < 1e-6
    assert run.p2[0] == 0.0


def test_integrate_master_stationary():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    rho0 = density_from_ket(composite_ket("gg"))
    assert np.max(np.abs(density_history(rho0, m, (0.0, 2.0), 1e-2) - rho0)) < 1e-12


def test_integrate_master_peak():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    run = integrate_master(density_from_ket(composite_ket("eg")), m, (0.0, 5.0), 1e-3)
    peak = float(np.max(run.p2))
    assert abs(peak - 4.0 * math.exp(-2.0)) < 1e-4
    assert abs(run.times[int(np.argmax(run.p2))] - 2.0) <= 1e-3 + 1e-12


def test_integrate_master_state_quality():
    m = CascadeModel(gamma1=1.0, gamma2=1.0, beta=0.5)
    rho0 = density_from_ket(composite_ket("eg"))
    run = integrate_master(rho0, m, (0.0, 10.0), 1e-3, min_eig=True)
    assert float(np.max(run.trace_deviation())) < 1e-9
    assert float(np.min(run.min_eigenvalues())) >= -1e-8
    rhos = density_history(rho0, m, (0.0, 10.0), 1e-3)
    herm = np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1)))
    assert herm < 1e-12


def test_two_clock_tagging(tmp_path):
    # the time map, the transformed clock: undefined while the device buffers
    spec = TransformSpec(alpha=2.0, omega0=0.0, T=54.0, Delta=6.0, X=12.0)
    tilde = time_map(np.array([14.0, 20.0, 31.0]), spec, 1.5)
    assert tilde[1] == pytest.approx((54.0 - 20.0) / 2.0 - 1.5)
    assert math.isnan(tilde[0])  # buffering window: the system-1 clock is undefined
    assert tilde[2] == pytest.approx(31.0 - 1.5)
    # without a transform the lindblad experiment tags tilde_t = t - tau
    cfg = {"experiment": "lindblad", "model": {"gamma1": 1.0, "gamma2": 1.0, "tau": 1.5},
           "numerics": {"dt": 0.1, "t_span": [0.0, 1.0], "initial_state": "gg"},
           "output": {"directory": str(tmp_path / "out")}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["--config", str(tmp_path / "cfg.json")]) == 0
    text = (tmp_path / "out" / "lindblad.csv").read_text()
    header, *rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    assert header[:2] == ["t", "tilde_t"] and len(rows) == 11
    t, tilde = np.array([[float(row[0]), float(row[1])] for row in rows]).T
    assert np.allclose(tilde, t - 1.5)


def test_unidirectionality_system2_alone():
    # system 1 in the ground state must leave system 2's evolution untouched
    m = CascadeModel(gamma1=1.7, gamma2=0.6)
    plus = (two_level_ket("e") + two_level_ket("g")) / math.sqrt(2.0)
    rho0 = density_from_ket(np.kron(two_level_ket("g"), plus))
    run = integrate_master(rho0, m, (0.0, 4.0), 1e-3)

    # reference: lone two-level atom with the same gamma2, integrated with
    # the same superoperator, step matrix and scan on the 2-dim space
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    lone = cascade._superoperator(np.zeros((2, 2), dtype=complex), math.sqrt(0.6) * sm)
    pt = cascade.checked_step_matrix(lone, 1e-3).T
    hist = cascade.step_history(pt, density_from_ket(plus).reshape(1, -1), 4000)
    p2_alone = hist[:, 0, 0].real
    assert np.max(np.abs(run.p2 - p2_alone)) < 1e-10


def test_heisenberg_consistency_superposition():
    m = CascadeModel(gamma1=1.0, gamma2=2.0)
    report = heisenberg_consistency(m, (0.0, 10.0), 1e-3)
    assert report.max_deviation < 1e-6


def test_lab_frame_coherence_rotates():
    # without the rotating frame the coherence carries the carrier e^{-i w1 t}
    m = CascadeModel(gamma1=1.0, gamma2=1.0, omega1=3.0, omega2=5.0, rotating_frame=False)
    run = integrate_master(plus_g_density(), m, (0.0, 2.0), 1e-3)
    expected = 0.5 * np.exp(-(0.5 + 3.0j) * run.times)
    assert np.max(np.abs(run.sigma1 - expected)) < 1e-9
    report = heisenberg_consistency(m, (0.0, 5.0), 1e-3)
    assert report.max_deviation < 1e-6


def test_heisenberg_consistency_ground_trivial():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    report = heisenberg_consistency(
        m, (0.0, 2.0), 1e-2, rho0=density_from_ket(composite_ket("gg"))
    )
    assert report.max_deviation <= 1e-15


def test_heisenberg_consistency_excited_state():
    # |e,g> has no coherences, so both sides vanish identically
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    report = heisenberg_consistency(
        m, (0.0, 10.0), 1e-2, rho0=density_from_ket(composite_ket("eg"))
    )
    assert report.max_deviation < 1e-6


def test_heisenberg_consistency_weak_drive():
    # beta != 0 makes the sz -> -1 closure approximate; from the ground
    # state the bias stays at the 2 P1 sqrt(gamma) beta scale (~1e-3 here)
    m = CascadeModel(gamma1=1.0, gamma2=1.0, beta=0.05)
    report = heisenberg_consistency(
        m, (0.0, 5.0), 1e-3, rho0=density_from_ket(composite_ket("gg"))
    )
    assert report.max_deviation < 5e-3
    assert report.analytic_sigma1_deviation is None


def test_heisenberg_rk4_order():
    # Richardson check against the closed-form decay: halving dt divides the
    # integrator error by ~2^4
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    coarse = heisenberg_consistency(m, (0.0, 4.0), 0.1).analytic_sigma1_deviation
    fine = heisenberg_consistency(m, (0.0, 4.0), 0.05).analytic_sigma1_deviation
    assert coarse is not None and fine is not None
    assert coarse > 1e-12  # above round-off so the ratio is meaningful
    assert 8.0 < coarse / fine < 32.0


def test_integrate_master_abort_on_blowup():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    with pytest.raises(IntegrationAbort, match="step"):
        integrate_master(density_from_ket(composite_ket("eg")), m, (0.0, 100.0), 5.0)


def test_integrate_master_input_validation():
    m = CascadeModel(gamma1=1.0, gamma2=1.0)
    rho0 = density_from_ket(composite_ket("eg"))
    with pytest.raises(ValueError):
        integrate_master(rho0, m, (0.0, 1.0), -0.1)
    with pytest.raises(ValueError):
        integrate_master(rho0, m, (1.0, 0.0), 0.1)
    with pytest.raises(ValueError):
        integrate_master(np.eye(3) / 3.0, m, (0.0, 1.0), 0.1)


@pytest.mark.parametrize("rho0, check", [
    (2.0 * density_from_ket(composite_ket("eg")), "trace"),
    # np.eye(4, k=1) fills only the upper diagonal
    (density_from_ket(composite_ket("eg")) + 0.25 * np.eye(4, k=1), "Hermiticity"),
    (np.eye(2) / 2.0, "4x4"),
    (np.diag([0.7, 0.7, 0.0, 0.0]), "trace"),
    (np.diag([1.5, -0.5, 0.0, 0.0]), "eigenvalue"),
], ids=["trace_2", "non_hermitian", "not_4x4", "trace_1.4", "negative_eigenvalue"])
def test_integrate_master_rejects_a_bad_rho0(rho0, check):
    # a bad initial state is named as such, not reported as an integrator failure
    # that blames the step size
    with pytest.raises(ValueError, match=f"^rho0 .*{check}"):
        integrate_master(rho0, CascadeModel(1.0, 1.0), (0.0, 1.0), 1e-3)


def rk4_stages(a, y, h):
    # one classical RK4 step of y' = a y, stage by stage
    k1 = a @ y
    k2 = a @ (y + 0.5 * h * k1)
    k3 = a @ (y + 0.5 * h * k2)
    k4 = a @ (y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_step_matrix_equals_one_rk4_step():
    rng = np.random.default_rng(7)
    m = CascadeModel(gamma1=1.0, gamma2=0.7, omega1=0.3, omega2=0.4, beta=0.5, rotating_frame=False)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    g1, g2 = math.sqrt(m.gamma1), math.sqrt(m.gamma2)
    # Heisenberg amplitudes with the drive as a constant third component
    aug = np.array(
        [
            [-(m.gamma1 / 2.0 + 1j * m.omega1), 0.0, -g1 * m.beta],
            [-g1 * g2, -(m.gamma2 / 2.0 + 1j * m.omega2), -g2 * m.beta],
            [0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
    cases = [
        (liouvillian(m), random_density(rng).reshape(-1), 1e-3),
        (-1j * build_h_eff(m), psi, 0.01),
        (aug, np.array([0.3 - 0.1j, 0.2j, 1.0]), 0.01),
    ]
    for a, y, h in cases:
        assert np.max(np.abs(step_matrix(a, h) @ y - rk4_stages(a, y, h))) <= 1e-15


def step_loop(p, x0, n_steps, inputs=None):
    # reference: x[k+1] = x[k] @ p + inputs[k], one step at a time
    rows = [x0]
    for k in range(n_steps):
        rows.append(rows[-1] @ p + (0.0 if inputs is None else inputs[k]))
    return np.array(rows)


def assert_history_close(got, ref):
    # relative to the reference's largest row norm
    scale = np.max(np.linalg.norm(ref.reshape(len(ref), -1), axis=1))
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("n_steps", [0, 1, 63, 64, 65, 1000, 4097])
def test_step_history_matches_step_loop(n_steps):
    rng = np.random.default_rng(n_steps)
    # two 16-dim rows vec(rho) under one Liouvillian step matrix
    pt = step_matrix(liouvillian(CascadeModel(gamma1=1.0, gamma2=0.5, beta=0.3)), 0.01).T
    x0 = np.stack([random_density(rng).reshape(-1) for _ in range(2)])
    assert_history_close(cascade.step_history(pt, x0, n_steps), step_loop(pt, x0, n_steps))
    # a driven scalar, c <- r c + u, and three driven 4-dim rows
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    stable = step_matrix(a - (np.max(np.abs(np.linalg.eigvals(a))) + 0.5) * np.eye(4), 0.01)
    for p, m in ((np.array([[0.999 - 0.002j]]), 1), (stable, 3)):
        d = p.shape[0]
        x0 = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        u = 0.01 * (rng.normal(size=(n_steps, m, d)) + 1j * rng.normal(size=(n_steps, m, d)))
        assert_history_close(cascade.step_history(p, x0, n_steps, u), step_loop(p, x0, n_steps, u))


def test_unstable_step_aborts_before_stepping():
    # at dt = 3 the step matrix of the Liouvillian grows some mode; with
    # zero steps requested the abort can only come from the up-front check
    lmat = liouvillian(CascadeModel(gamma1=1.0, gamma2=1.0))
    rho0 = density_from_ket(composite_ket("eg"))
    for n_steps in (0, 10):
        with pytest.raises(IntegrationAbort, match="spectral radius") as info:
            cascade._rk4_readout(lmat, rho0, n_steps, 3.0)
        assert "dt=3" in str(info.value)


def test_nonfinite_step_matrix_aborts():
    lmat = liouvillian(CascadeModel(gamma1=1.0, gamma2=1.0))
    lmat[0, 0] = math.nan
    with pytest.raises(IntegrationAbort, match="not finite"):
        cascade._rk4_readout(lmat, density_from_ket(composite_ket("eg")), 10, 1e-3)


def test_min_eigenvalues_match_per_state():
    # a coherent drive, or a rho0 with a coherence between excitation
    # sectors, couples the sectors: min_eig is eigvalsh's, bit for bit
    for beta, rho0 in [(0.3, plus_g_density()), (0.0, plus_g_density()),
                       (0.5, density_from_ket(composite_ket("eg"))),
                       (-0.2 + 0.1j, density_from_ket(composite_ket("gg")))]:
        model = CascadeModel(gamma1=1.0, gamma2=0.5, beta=beta)
        run = integrate_master(rho0, model, (0.0, 2.0), 0.01, min_eig=True)
        assert not run.keeps_sectors
        rhos = density_history(rho0, model, (0.0, 2.0), 0.01)
        per_state = np.array([np.min(np.linalg.eigvalsh(r)) for r in rhos])
        assert np.array_equal(run.min_eigenvalues(), per_state)


def forbid_eigvalsh_per_row(monkeypatch):
    # rho0's own check (cascade._check_rho0) takes one 4x4 eigvalsh;
    # a batch of them is an eigensolve per row of the run
    eigvalsh = np.linalg.eigvalsh

    def one_matrix(a, *args, **kwargs):
        assert np.ndim(a) == 2, f"eigvalsh on a batch of shape {np.shape(a)}"
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", one_matrix)


@pytest.mark.parametrize("state", ["eg", "ge", "ee", "gg"])
def test_min_eigenvalues_per_sector_at_beta_0(state, monkeypatch):
    # at beta = 0 every rho is block-diagonal in {ee}, {eg, ge}, {gg}, so min_eig
    # is min(rho_ee, rho_gg, lower eigenvalue of the 2x2 block).  That and
    # eigvalsh each round to within a few eps * ||rho|| of the exact value, and
    # ||rho|| <= tr rho = 1
    rho0, model = density_from_ket(composite_ket(state)), CascadeModel(gamma1=1.0, gamma2=0.5)
    rhos = density_history(rho0, model, (0.0, 10.0), 0.01)
    excitations = np.array([2, 1, 1, 0])
    assert not np.any(rhos[:, excitations[:, None] != excitations])
    per_state = np.array([np.min(np.linalg.eigvalsh(r)) for r in rhos])

    forbid_eigvalsh_per_row(monkeypatch)
    run = integrate_master(rho0, model, (0.0, 10.0), 0.01, min_eig=True)
    assert run.keeps_sectors
    assert np.max(np.abs(run.min_eigenvalues() - per_state)) <= 4 * np.finfo(float).eps


def test_one_cross_sector_generator_entry_leaves_the_sector_path(monkeypatch):
    # the sector rule is read off the generator, not the history: one entry feeding
    # vec index (ee, gg) from (eg, eg) sends min_eig back through eigvalsh
    lmat = liouvillian(CascadeModel(gamma1=1.0, gamma2=0.5))
    assert cascade._keeps_sectors(lmat, density_from_ket(composite_ket("eg")))
    lmat[0 * 4 + 3, 1 * 4 + 1] = 0.1
    monkeypatch.setattr(cascade, "liouvillian", lambda model: lmat)
    rho0, model = density_from_ket(composite_ket("eg")), CascadeModel(gamma1=1.0, gamma2=0.5)
    run = integrate_master(rho0, model, (0.0, 2.0), 0.01, min_eig=True)
    rhos = density_history(rho0, model, (0.0, 2.0), 0.01)  # reads the patched liouvillian
    assert not run.keeps_sectors and np.all(rhos[1:, 0, 3] != 0)
    per_state = np.array([np.min(np.linalg.eigvalsh(r)) for r in rhos])
    assert np.array_equal(run.min_eigenvalues(), per_state)


@pytest.mark.parametrize("beta, rho0", [(0.5, "eg"), (0.0, "plus_g")])
def test_readout_bytes_match_einsum(beta, rho0):
    # the readout product against the per-observable einsums it replaced, kept
    # here as the reference; 10,001 rows span three of the history's blocks
    rho0 = plus_g_density() if rho0 == "plus_g" else density_from_ket(composite_ket(rho0))
    model = CascadeModel(gamma1=1.0, gamma2=1.0, beta=beta)
    run = integrate_master(rho0, model, (0.0, 10.0), 1e-3)
    r = density_history(rho0, model, (0.0, 10.0), 1e-3)
    for got, want in [
        (run.p1, np.einsum("nij,ji->n", r, NUMBER1).real),
        (run.p2, np.einsum("nij,ji->n", r, NUMBER2).real),
        (run.sigma1, np.einsum("nij,ji->n", r, SIGMA1_MINUS)),
        (run.sigma2, np.einsum("nij,ji->n", r, SIGMA2_MINUS)),
        (run.trace_deviation(), np.abs(np.einsum("nii->n", r) - 1.0)),
    ]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_steps", [10, 64, 4096, 4097, 10_000, 12_345])
@pytest.mark.parametrize("beta, state", [(0.0, "eg"), (0.3, "plus_g")])
def test_streamed_reduction_matches_the_whole_history(n_steps, beta, state):
    # the run reduces each 4096-row slice as the scan makes it; the same reduction
    # of the whole history must give the same bytes.  n <= 64 is one slice of
    # single steps, 4096 a whole number of 64-step blocks, 4097 a slice edge, and
    # 10,000 and 12,345 end on a partial block (n mod 64 = 16 and 57)
    rho0 = plus_g_density() if state == "plus_g" else density_from_ket(composite_ket(state))
    model, span = CascadeModel(gamma1=1.0, gamma2=0.5, beta=beta), (0.0, n_steps * 1e-3)
    run = integrate_master(rho0, model, span, 1e-3, min_eig=True)
    assert run.times.size == n_steps + 1 and run.keeps_sectors == (beta == 0.0)
    r = density_history(rho0, model, span, 1e-3)
    readout = r.reshape(-1, 16) @ cascade._READOUT
    least = cascade._least_eig(r, run.keeps_sectors)
    assert run.readout.tobytes() == readout.tobytes()
    assert run.min_eigenvalues().tobytes() == least.tobytes()


def test_a_40k_step_run_holds_no_density_history():
    # the 40,001 density matrices alone would take 40,001 * 256 B = 10.24 MB
    import tracemalloc

    rho0 = density_from_ket(composite_ket("eg"))
    tracemalloc.start()
    try:
        run = integrate_master(rho0, CascadeModel(gamma1=1.0, gamma2=1.0), (0.0, 40.0), 1e-3,
                               min_eig=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.times.size == 40_001
    assert peak < 40_001 * 256


def test_min_eig_is_taken_only_when_asked(monkeypatch):
    # at beta != 0 min_eig needs an eigensolve per row, which costs more than the scan
    forbid_eigvalsh_per_row(monkeypatch)
    run = integrate_master(density_from_ket(composite_ket("eg")),
                           CascadeModel(gamma1=1.0, gamma2=1.0, beta=0.5), (0.0, 10.0), 1e-3)
    assert not run.keeps_sectors and run.min_eig is None
    with pytest.raises(ValueError, match="min_eig=True"):
        run.min_eigenvalues()

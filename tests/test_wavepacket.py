import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from qcascade.transfer import _on_pieces
from qcascade.wavepacket import (
    Envelope,
    PhaseTag,
    TransformSpec,
    apply_u_time_domain,
    assemble_piecewise_field,
    derive_transform_params,
    gap_geometry,
    matched_timing,
    time_map,
    time_map_inverse,
    time_map_inverse_slope,
    time_map_slope,
)

from oracles import (
    Spectrum,
    apply_u_frequency_domain,
    envelope_to_spectrum,
    heaviside,
    spectrum_to_envelope,
)

FIG2 = TransformSpec(alpha=2.0, omega0=0.0, T=54.0, Delta=6.0, X=12.0)


def decaying_envelope(gamma=1.0, t0=0.0, t1=40.0, dt=1e-3):
    t = t0 + dt * np.arange(int(round((t1 - t0) / dt)) + 1)
    vals = np.where(t >= 0.0, np.exp(-gamma * t / 2.0), 0.0)
    return Envelope(float(t[0]), dt, vals.astype(complex))


def test_envelope_invariants():
    with pytest.raises(ValueError):
        Envelope(0.0, 0.1, np.array([1.0]))
    with pytest.raises(ValueError):
        Envelope(0.0, -0.1, np.array([1.0, 2.0]))
    env = Envelope(1.0, 0.5, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(env.times, [1.0, 1.5, 2.0, 2.5])
    assert env.squared_norm() == pytest.approx((1 + 4 + 9 + 16) * 0.5)


def test_envelope_interp():
    t = np.linspace(0.0, 10.0, 2001)
    env = Envelope(0.0, t[1] - t[0], np.exp(-0.3 * t) * np.exp(1j * t))
    # exact at nodes
    assert env.interp(t[123]) == env.samples[123]
    # cubic accuracy between nodes
    probe = np.linspace(0.2, 9.8, 101) + 0.2345 * (t[1] - t[0])
    exact = np.exp(-0.3 * probe) * np.exp(1j * probe)
    assert np.max(np.abs(env.interp(probe) - exact)) < 1e-8
    # zero outside support
    assert env.interp(-1.0) == 0.0
    assert env.interp(11.0) == 0.0


def test_envelope_interp_equals_its_formula_per_point():
    # 10,000 points, so interp takes them in three slices; about a tenth fall
    # outside the support, and some on its first and last intervals
    rng = np.random.default_rng(11)
    env = Envelope(-2.0, 0.013, rng.normal(size=700) + 1j * rng.normal(size=700))
    t = rng.uniform(env.t0 - 0.5, env.t_end + 0.5, 10_000)

    def at(point):  # the cubic Lagrange formula at one point, in float64 scalars
        n = env.samples.size
        pos = (np.float64(point) - env.t0) / env.dt
        if not -1e-9 <= pos <= (n - 1) + 1e-9:
            return 0j
        p = min(max(pos, 0.0), float(n - 1))
        base = min(max(math.floor(p) - 1, 0), n - 4)
        x = p - base
        w0 = -(x - 1.0) * (x - 2.0) * (x - 3.0) / 6.0
        w1 = x * (x - 2.0) * (x - 3.0) / 2.0
        w2 = -x * (x - 1.0) * (x - 3.0) / 2.0
        w3 = x * (x - 1.0) * (x - 2.0) / 6.0
        s0, s1, s2, s3 = env.samples[base : base + 4]
        return w0 * s0 + w1 * s1 + w2 * s2 + w3 * s3

    assert env.interp(t).tobytes() == np.array([at(point) for point in t]).tobytes()


def test_derive_transform_params():
    assert derive_transform_params(1.0, 1.0, 3.0, 3.0) == (1.0, 6.0)
    alpha, omega0 = derive_transform_params(2.0, 1.0, 10.0, 7.0)
    assert alpha == 2.0
    assert omega0 == 12.0
    for g1, g2 in [(0.5, 2.0), (3.0, 1.5)]:
        a, _ = derive_transform_params(g1, g2, 0.0, 0.0)
        assert a * g2 == pytest.approx(g1)


def test_transform_spec_invariants():
    with pytest.raises(ValueError):
        TransformSpec(alpha=0.0, omega0=0.0, T=1.0, Delta=1.0, X=1.0)
    with pytest.raises(ValueError):
        TransformSpec(alpha=1.0, omega0=0.0, T=1.0, Delta=0.0, X=1.0)
    with pytest.raises(ValueError):
        TransformSpec(alpha=1.0, omega0=0.0, T=1.0, Delta=1.0, X=-1.0)
    assert FIG2.position_ok(tau=20.0)
    assert not FIG2.position_ok(tau=10.0)


def test_phase_schedule_fig2():
    s = FIG2
    assert (s.t_i, s.t_s, s.t_f, s.t_a) == (12.0, 18.0, 30.0, 18.0)
    assert s.delay == 12.0 and s.preimage == (12.0, 18.0)
    # T = (1 + alpha) t_a reproduces the matched timing
    assert matched_timing(2.0, 6.0, 12.0) == 54.0
    # alpha -> 1 with T = 2 t_a gives t_s = t_a
    s1 = TransformSpec(alpha=1.0, omega0=0.0, T=2.0 * 18.0, Delta=6.0, X=12.0)
    assert s1.t_s == s1.t_a == 18.0
    # the geometry is derived, not configured: the spec's fields are its parameters only
    assert [f.name for f in fields(TransformSpec)] == ["alpha", "omega0", "T", "Delta", "X", "c"]


def test_apply_u_pure_reversal():
    dt = 0.01
    t = np.arange(-6.0, 0.0 + dt / 2, dt)
    env = Envelope(-6.0, dt, np.exp(-((t + 3.0) ** 2)) * (1.0 + 0.5j))
    spec = TransformSpec(alpha=1.0, omega0=0.0, T=0.0, Delta=6.0, X=1.0)
    out = apply_u_time_domain(env, spec)
    # out(t) = env(-t) on [t_s, t_f] = [0, 6]
    assert out.t0 == pytest.approx(0.0)
    assert np.max(np.abs(out.samples - env.samples[::-1])) < 1e-14


def test_apply_u_rising_exponential():
    env = decaying_envelope()
    out = apply_u_time_domain(env, FIG2)
    assert out.n_zero_filled == 0
    assert out.t0 == pytest.approx(18.0)
    assert out.t_end == pytest.approx(30.0)
    # closed form (1/sqrt(2)) e^{-(54 - t)/4}: a rising exponential
    t_probe = 24.0
    k = int(round((t_probe - out.t0) / out.dt))
    expected = math.exp(-(54.0 - t_probe) / 4.0) / math.sqrt(2.0)
    assert abs(out.samples[k] - expected) < 1e-12
    rate = np.polyfit(out.times, np.log(np.abs(out.samples)), 1)[0]
    assert abs(rate - 0.25) < 1e-6


def test_apply_u_rate_equation_property():
    # the produced envelope grows at +gamma1/(2 alpha): central differences
    env = decaying_envelope()
    out = apply_u_time_domain(env, FIG2)
    mag = np.abs(out.samples)
    deriv = (mag[2:] - mag[:-2]) / (2.0 * out.dt)
    ratio = deriv / mag[1:-1]
    assert np.max(np.abs(ratio - 0.25)) < 1e-6


def test_apply_u_norm_preservation():
    env = decaying_envelope()
    out = apply_u_time_domain(env, FIG2)
    window = env.slice_window(12.0, 18.0)
    assert abs(out.squared_norm() - window.squared_norm()) < 1e-9 * window.squared_norm()


def test_apply_u_zero_fill_and_errors():
    short = decaying_envelope(t1=15.0)  # support ends inside the preimage window
    with pytest.warns(RuntimeWarning, match="zero-filled"):
        out = apply_u_time_domain(short, FIG2)
    assert out.n_zero_filled > 0
    # preimage [12, 18] entirely outside the support -> error
    tiny = decaying_envelope(t1=5.0)
    with pytest.raises(ValueError, match="empty overlap"):
        apply_u_time_domain(tiny, FIG2)


def test_spectrum_roundtrip_and_parseval():
    env = decaying_envelope(dt=0.01, t1=40.95)
    spec = envelope_to_spectrum(env)
    back = spectrum_to_envelope(spec)
    assert back.t0 == pytest.approx(env.t0)
    assert back.dt == pytest.approx(env.dt)
    assert np.max(np.abs(back.samples - env.samples)) < 1e-12
    assert abs(spec.squared_norm() - env.squared_norm()) < 1e-9


def test_apply_u_frequency_trivial_reversal():
    dt = 0.02
    t = np.arange(-20.0, 20.0, dt)
    env = Envelope(float(t[0]), dt, np.exp(-(t**2) / 4.0).astype(complex))
    f = envelope_to_spectrum(env)
    spec = TransformSpec(alpha=1.0, omega0=0.0, T=0.0, Delta=1.0, X=1.0)
    out = apply_u_frequency_domain(f, spec)
    assert np.max(np.abs(out.samples - f.samples[::-1])) < 1e-9
    assert np.allclose(out.nus, -f.nus[::-1], atol=1e-9)


def test_apply_u_frequency_lorentzian_remap():
    # packet from system 1 (gamma1 = 2, omega1 = 10) remapped onto system 2
    g1, g2, w1, w2 = 2.0, 1.0, 10.0, 7.0
    alpha, omega0 = derive_transform_params(g1, g2, w1, w2)
    dt = 0.02
    t = np.arange(0.0, 81.92, dt)
    env = Envelope(0.0, dt, np.sqrt(g1) * np.exp(-(g1 / 2.0 + 1j * w1) * t))
    f = envelope_to_spectrum(env)
    spec = TransformSpec(alpha=alpha, omega0=omega0, T=30.0, Delta=10.0, X=1.0)
    # the sharp turn-on leaves Lorentzian tails at the band edges: advisory fires
    with pytest.warns(RuntimeWarning, match="band edges"):
        out = apply_u_frequency_domain(f, spec)
    mag = np.abs(out.samples)
    peak_nu = out.nus[int(np.argmax(mag))]
    assert abs(peak_nu - w2) < out.dnu
    # FWHM of |f|^2 for a Lorentzian of half-width g2/2 is g2
    power = mag**2
    half = 0.5 * power.max()
    above = out.nus[power >= half]
    assert abs((above[-1] - above[0]) - g2) < 0.05


def test_apply_u_frequency_custom_grid_matches_direct():
    env = decaying_envelope(dt=0.02, t1=40.0)
    f = envelope_to_spectrum(env)
    spec = TransformSpec(alpha=2.0, omega0=1.0, T=10.0, Delta=5.0, X=1.0)
    nus = np.linspace(-2.0, 2.0, 101)
    with pytest.warns(RuntimeWarning, match="band edges"):
        out = apply_u_frequency_domain(f, spec, nu_out=nus)
    u = -spec.alpha * (nus - spec.omega0)
    # reference: evaluate the forward transform at the remapped points
    ref = np.array(
        [
            (env.dt / math.sqrt(2 * math.pi)) * np.sum(env.samples * np.exp(1j * uu * env.times))
            for uu in u
        ]
    )
    expected = math.sqrt(spec.alpha) * ref * np.exp(1j * nus * spec.T)
    assert np.max(np.abs(out.samples - expected)) < 1e-10


def test_apply_u_frequency_band_error():
    env = decaying_envelope(dt=0.02, t1=40.0)
    f = envelope_to_spectrum(env)
    spec = TransformSpec(alpha=2.0, omega0=1.0, T=10.0, Delta=5.0, X=1.0)
    width = f.nu_end - f.nu0
    bad = np.linspace(f.nu0 - width, f.nu0, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # band-edge advisory
        with pytest.raises(ValueError, match="band"):
            apply_u_frequency_domain(f, spec, nu_out=bad)


def test_path_equivalence_time_vs_frequency():
    for kind in ("gaussian", "truncated"):
        dt = 0.02
        n = 4096
        t = -40.0 + dt * np.arange(n)
        if kind == "gaussian":
            vals = np.exp(-(t**2) / 8.0) * np.exp(0.5j * t)
        else:
            vals = np.where(t >= 0.0, np.exp(-t / 2.0), 0.0)
        env = Envelope(-40.0, dt, vals.astype(complex))
        spec = TransformSpec(alpha=2.0, omega0=1.3, T=10.0, Delta=20.0, X=1.0)
        out_t = apply_u_time_domain(env, spec)
        f = envelope_to_spectrum(env)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # band-edge advisory
            fo = apply_u_frequency_domain(f, spec)
        out_f = spectrum_to_envelope(fo, t0=out_t.t0, dt=out_t.dt, n=out_t.samples.size)
        rel = np.linalg.norm(out_f.samples - out_t.samples) / np.linalg.norm(out_t.samples)
        assert rel < 1e-6


def test_heaviside_convention():
    assert heaviside(-1.0) == 0.0
    assert heaviside(0.0) == 0.5
    assert heaviside(2.0) == 1.0


def _field_at(x, t, env, transformed):
    """(amplitude, PhaseTag) at one position, through the array form."""
    amps, codes = assemble_piecewise_field(np.array([x]), t, env, transformed, FIG2)
    return complex(amps[0]), list(PhaseTag)[codes[0]]


def test_assemble_piecewise_field_fig2():
    env = decaying_envelope()
    transformed = apply_u_time_domain(env, FIG2)
    # inside the buffering gap at the device: vacuum
    amp, tag = _field_at(12.0, 15.0, env, transformed)
    assert tag is PhaseTag.VACUUM and amp == 0.0
    # during production: the rising exponential
    amp, tag = _field_at(12.0, 24.0, env, transformed)
    assert tag is PhaseTag.TRANSFORMED
    assert abs(amp - math.exp(-(54.0 - 24.0) / 4.0) / math.sqrt(2.0)) < 1e-10
    # the transformed packet propagates at speed c
    amp2, tag2 = _field_at(15.0, 27.0, env, transformed)
    assert tag2 is PhaseTag.TRANSFORMED
    assert amp2 == pytest.approx(amp)
    # upstream of the device: freely propagated initial field
    amp, tag = _field_at(5.0, 8.0, env, transformed)
    assert tag is PhaseTag.INITIAL
    assert abs(amp - math.exp(-(8.0 - 5.0) / 2.0)) < 1e-10
    # x < 0: Heaviside cutoff
    amp, tag = _field_at(-1.0, 8.0, env, transformed)
    assert tag is PhaseTag.INITIAL and amp == 0.0
    # u(0) = 1/2 at the emitter
    amp, tag = _field_at(0.0, 8.0, env, transformed)
    assert abs(amp - 0.5 * math.exp(-4.0)) < 1e-10
    # after production ends the initial field passes again
    amp, tag = _field_at(12.0, 31.0, env, transformed)
    assert tag is PhaseTag.INITIAL
    assert abs(amp - math.exp(-(31.0 - 12.0) / 2.0)) < 1e-10


def test_assemble_piecewise_field_at_the_phase_boundaries():
    env = decaying_envelope()
    transformed = apply_u_time_domain(env, FIG2)
    # x = 14 is 2 past the device: retarded time t_i = 12 at t = 14, t_s = 18 at t = 20
    assert _field_at(14.0, 14.0, env, transformed) == (0.0, PhaseTag.VACUUM)
    amp, tag = _field_at(14.0, 20.0, env, transformed)
    assert tag is PhaseTag.TRANSFORMED and amp == transformed.interp(18.0)


def test_field_and_drive_share_the_device_phase():
    # at x = X the retarded time is t itself, so the field's tags are the phases of
    # the transfer's on drive at its half-step points, the boundaries 12, 18 and 30
    # included: TRANSFORMED where a piece of U's rate covers t, INITIAL where a
    # piece of the packet's rate does or before the packet arrives, VACUUM elsewhere
    h = 0.5
    t_half = (h / 2.0) * np.arange(2 * 80 + 1)
    env = decaying_envelope()
    transformed = apply_u_time_domain(env, FIG2)
    codes = [list(PhaseTag).index(_field_at(FIG2.X, float(t), env, transformed)[1])
             for t in t_half]
    pieces, mu = _on_pieces(1.0, 0.0, FIG2), -0.5

    def covered(rate):
        return np.any([(a <= t_half) & (t_half < b) for a, b, _, m in pieces if m == rate], axis=0)

    produced = covered(-1j * FIG2.omega0 - mu / FIG2.alpha)
    drive = np.where(produced, 2, np.where(covered(mu) | (t_half < FIG2.delay), 0, 1))
    assert codes == drive.tolist()
    assert [drive[t_half.tolist().index(edge)] for edge in (12.0, 18.0, 30.0)] == [1, 2, 0]


def _scalar_field_reference(x, t, initial, transformed, spec):
    """Point-by-point field assembly, buffering on [t_i, t_s) and producing on [t_s, t_f)."""
    if x >= spec.X:
        retarded = t - (x - spec.X) / spec.c
        if spec.t_i <= retarded < spec.t_s:
            return 0.0j, PhaseTag.VACUUM
        if spec.t_s <= retarded < spec.t_f:
            return complex(transformed.interp(retarded)), PhaseTag.TRANSFORMED
    u = heaviside(x)
    if u == 0.0:
        return 0.0j, PhaseTag.INITIAL
    return u * complex(initial.interp(t - x / spec.c)), PhaseTag.INITIAL


def _bits(values):
    # raw float64 bits of the real and imaginary parts: equal bits means equal signs of zero
    return np.asarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("lab_frame", [False, True])
def test_assemble_piecewise_field_array_matches_scalar(lab_frame):
    env = decaying_envelope()
    if lab_frame:  # real and imaginary parts change sign along the packet
        env = Envelope(env.t0, env.dt, env.samples * np.exp(-3j * env.times))
    transformed = apply_u_time_domain(env, FIG2)
    # unit steps: x < 0, x = 0 and x = X = 12 are on the grid, and for t = 36 the
    # retarded time t - (x - X) is exactly t_f, t_s and t_i at x = 18, 30 and 36
    xs = np.linspace(-4.0, 48.0, 105)
    assert {-1.0, 0.0, 12.0, 18.0, 30.0, 36.0} <= set(xs.tolist())
    for t in (6.0, 15.0, 18.0, 24.0, 30.0, 36.0, 48.0):
        amps, codes = assemble_piecewise_field(xs, t, env, transformed, FIG2)
        ref = [_scalar_field_reference(x, t, env, transformed, FIG2) for x in xs.tolist()]
        assert amps.shape == xs.shape and codes.shape == xs.shape and codes.dtype == np.int8
        assert np.array_equal(_bits(amps), _bits([a for a, _ in ref]))
        tags = [list(PhaseTag)[code] for code in codes]
        assert tags == [tag for _, tag in ref]
        # one position at a time gives the same bits and tags
        single = [_field_at(x, t, env, transformed) for x in xs.tolist()]
        assert np.array_equal(_bits([a for a, _ in single]), _bits(amps))
        assert [tag for _, tag in single] == tags
    # every branch was reached, including the boundaries of the production window:
    # a phase starts at its boundary, so r = t_s produces, r = t_i buffers and r = t_f
    # passes the initial field again
    amps, codes = assemble_piecewise_field(xs, 36.0, env, transformed, FIG2)
    at = dict(zip(xs.tolist(), (list(PhaseTag)[code] for code in codes)))
    assert at[18.0] is PhaseTag.INITIAL
    assert at[24.0] is at[30.0] is PhaseTag.TRANSFORMED
    assert at[33.0] is at[36.0] is PhaseTag.VACUUM
    assert amps[xs.tolist().index(-1.0)] == 0.0


def test_time_map_values():
    assert time_map(20.0, FIG2, 0.0) == pytest.approx(17.0)
    assert math.isnan(time_map(14.0, FIG2, 0.0))
    assert time_map(5.0, FIG2, 0.0) == 5.0
    assert time_map(35.0, FIG2, 1.0) == 34.0
    # boundary convention: continuous branch values
    assert time_map(18.0, FIG2, 0.0) == 18.0
    assert time_map(30.0, FIG2, 0.0) == 30.0


def test_time_map_slopes_and_monotone_branch():
    assert time_map_slope(20.0, FIG2) == -0.5
    assert time_map_slope(5.0, FIG2) == 1.0
    assert math.isnan(time_map_slope(14.0, FIG2))
    assert time_map_inverse_slope(13.0, FIG2, 0.0) == -2.0
    # the fictitious clock runs backwards on the production window
    vals = time_map(np.linspace(18.001, 29.999, 50), FIG2, 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_time_map_inverse_and_identity():
    tau = 0.7
    assert time_map_inverse(13.0 - tau, FIG2, tau) == pytest.approx(54.0 - 2.0 * 13.0)
    assert math.isnan(time_map_inverse(20.0 - tau, FIG2, tau))
    ts = np.linspace(-5.0, 45.0, 401)
    finv = time_map_inverse(ts, FIG2, tau)
    defined = ~np.isnan(finv)
    assert defined.sum() > 300
    assert np.allclose(time_map(finv[defined], FIG2, tau), ts[defined], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("tau", [0.0, 0.75])
def test_time_maps_on_arrays_equal_the_scalar_maps(tau):
    # quarter steps: t and t + tau hit t_i = 12, t_s = 18 and t_f = 30 exactly
    ts = 0.25 * np.arange(-8, 177)
    maps = {
        "f": lambda t: time_map(t, FIG2, tau),
        "f_inv": lambda t: time_map_inverse(t, FIG2, tau),
        "f_slope": lambda t: time_map_slope(t, FIG2),
        "f_inv_slope": lambda t: time_map_inverse_slope(t, FIG2, tau),
    }
    for name, f in maps.items():
        # one time at a time: an array shaped like t, 0-d here
        single = [f(float(t)) for t in ts]
        assert all(v.shape == () and v.dtype == np.float64 for v in single), name
        got = f(ts)
        assert got.shape == ts.shape and got.dtype == np.float64, name
        assert np.array_equal(_bits(got), _bits(single)), name
    # every branch is reached; the boundary points take the identity branch
    f = dict(zip(ts.tolist(), maps["f"](ts).tolist()))
    assert [f[t] for t in (12.0, 18.0, 30.0)] == [12.0 - tau, 18.0 - tau, 30.0 - tau]
    assert math.isnan(f[12.25]) and f[18.25] == (54.0 - 18.25) / 2.0 - tau
    inv = dict(zip((ts + tau).tolist(), maps["f_inv"](ts).tolist()))
    assert [inv[s] for s in (12.0, 18.0, 30.0)] == [12.0, 18.0, 30.0]
    assert inv[13.0] == 54.0 - 2.0 * 13.0 and math.isnan(inv[20.0])
    slopes = set(maps["f_slope"](ts).tolist()) | set(maps["f_inv_slope"](ts).tolist())
    assert {-2.0, -0.5, 1.0} <= slopes and any(map(math.isnan, slopes))


def test_transform_grids_must_be_uniform():
    # one grid rule, shared with the frequency-domain route and the transfer drive grid
    env = Envelope(10.0, 0.5, np.ones(20))
    spectrum = envelope_to_spectrum(env)
    for bad in ([20.0, 21.0, 23.0], [20.0], [[20.0, 21.0], [22.0, 23.0]]):
        with pytest.raises(ValueError, match="nu_out must be a uniform 1-d grid"):
            apply_u_frequency_domain(spectrum, FIG2, nu_out=np.array(bad))


def test_gap_geometry():
    horizontal, vertical = gap_geometry(FIG2)
    assert horizontal == 6.0
    assert vertical == 12.0
    # measured from the map itself: the undefined window and the skipped band
    f_at = lambda t: time_map(t, FIG2, 0.0)
    assert f_at(FIG2.t_f) - f_at(FIG2.t_s) == vertical
    assert math.isnan(f_at(12.0 + 1e-9)) and math.isnan(f_at(18.0 - 1e-9))

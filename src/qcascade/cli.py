"""Command-line front end: run named experiments from a JSON config.

Usage: qcascade [EXPERIMENT] --config cfg.json [--out DIR] [--svg]
       [--seed N] [--validate-only]

The config is a single JSON file with nested sections (model, transform,
numerics, output); the optional positional argument overrides the
experiment named in the config.  Each experiment is one entry of
EXPERIMENTS: a function of (config, model, numerics) that returns its
tables and its plot, and `run` does all the writing.  Each table becomes
<stem>.csv (comma-separated, '#'-prefixed header comments embedding the
resolved config, undefined values encoded as empty fields); every
experiment writes <experiment>.csv, and trajectories also writes
trajectories_jumps.csv.  The plot optionally becomes a self-contained
<experiment>.svg.  All outputs are in the natural units of the problem
(time in 1/gamma1, length in c/gamma1) and are byte-identical for
identical configs, seed included.

Exit status: 0 on success, 2 for an invalid config (the message names
the offending field), 3 when an integrator aborts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cascade, trajectory, transfer, wavepacket
from .cascade import CascadeModel, IntegrationAbort
from .hilbert import composite_ket, density_from_ket, kron, two_level_ket
from .svgplot import line_plot
from .wavepacket import TransformSpec, matched_timing, phase_schedule

__all__ = ["RunConfig", "ConfigError", "load_config", "validate", "run", "main"]

INITIAL_STATES = ("eg", "ge", "ee", "gg", "plus_g")

_SPAN_REQUIRED = {"decay", "lindblad", "trajectories", "transform", "phases"}


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


@dataclass
class RunConfig:
    """Parsed but not yet materialized run configuration."""

    experiment: str
    model: dict
    numerics: dict
    output: dict
    transform: dict | None = None

    def resolved(self) -> dict:
        out = {
            "experiment": self.experiment,
            "model": dict(self.model),
            "numerics": dict(self.numerics),
            "output": dict(self.output),
        }
        if self.transform is not None:
            out["transform"] = dict(self.transform)
        return out


def _expect_mapping(raw: dict, key: str, required: bool) -> dict | None:
    if key not in raw:
        if required:
            raise ConfigError(f"{key}: section missing")
        return None
    if not isinstance(raw[key], dict):
        raise ConfigError(f"{key}: expected an object")
    return dict(raw[key])


def load_config(path) -> RunConfig:
    """Parse the JSON config; structural problems raise ConfigError."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    if "experiment" not in raw or not isinstance(raw["experiment"], str):
        raise ConfigError("experiment: required string field")
    model = _expect_mapping(raw, "model", required=True)
    numerics = _expect_mapping(raw, "numerics", required=True)
    output = _expect_mapping(raw, "output", required=False) or {}
    transform = _expect_mapping(raw, "transform", required=False)
    return RunConfig(
        experiment=raw["experiment"],
        model=model,
        numerics=numerics,
        output=output,
        transform=transform,
    )


def _finite(v) -> bool:
    # a number (not a bool) that fits a finite float; json.loads accepts NaN and Infinity
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number(section: dict, section_name: str, key: str, default=None) -> float:
    if key not in section:
        if default is None:
            raise ConfigError(f"{section_name}.{key}: required number")
        return float(default)
    v = section[key]
    if not _finite(v):
        raise ConfigError(f"{section_name}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _beta(model: dict) -> complex:
    v = model.get("beta", 0.0)
    if _finite(v):
        beta = complex(v)
    elif isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite, v)):
        beta = complex(float(v[0]), float(v[1]))
    else:
        raise ConfigError("model.beta: expected a finite number or a [re, im] pair")
    # |beta|^2 sets the rate bound; hypot and * overflow to inf where ** raises
    mag = math.hypot(beta.real, beta.imag)
    if not math.isfinite(mag * mag):
        raise ConfigError(f"model.beta: |beta|^2 of {v!r} overflows a float")
    return beta


def build_model(cfg: RunConfig) -> CascadeModel:
    m = cfg.model
    rotating = m.get("rotating_frame", True)
    if not isinstance(rotating, bool):
        raise ConfigError("model.rotating_frame: expected a boolean")
    try:
        return CascadeModel(
            gamma1=_number(m, "model", "gamma1"),
            gamma2=_number(m, "model", "gamma2"),
            omega1=_number(m, "model", "omega1", 0.0),
            omega2=_number(m, "model", "omega2", 0.0),
            tau=_number(m, "model", "tau", 0.0),
            beta=_beta(m),
            rotating_frame=rotating,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _auto_or_number(section: dict, name: str, key: str) -> float | None:
    if key not in section or section[key] == "auto":
        return None
    v = section[key]
    if not _finite(v):
        raise ConfigError(f"{name}.{key}: expected a finite number or 'auto', got {v!r}")
    return float(v)


def build_transform_spec(cfg: RunConfig, model: CascadeModel) -> TransformSpec:
    """Resolve the transform section; alpha/omega0/T may be 'auto'."""
    section = cfg.transform
    if section is None:
        if cfg.experiment != "transfer":
            raise ConfigError("transform: section required for this experiment")
        section = {}
    name = "transform"
    w1, w2 = model.frame_omegas()
    auto_alpha, auto_omega0 = wavepacket.derive_transform_params(
        model.gamma1, model.gamma2, w1, w2
    )
    delta = _number(section, name, "Delta", 8.0 / model.gamma1 if cfg.experiment == "transfer" else None)
    c = _number(section, name, "c", 1.0)
    x = _number(section, name, "X", c * delta if cfg.experiment == "transfer" else None)
    alpha = _auto_or_number(section, name, "alpha")
    if alpha is None:
        alpha = auto_alpha
    omega0 = _auto_or_number(section, name, "omega0")
    if omega0 is None:
        omega0 = auto_omega0
    timing = _auto_or_number(section, name, "T")
    if timing is None:
        timing = matched_timing(alpha, delta, x, c)
    try:
        return TransformSpec(alpha=alpha, omega0=omega0, T=timing, Delta=delta, X=x, c=c)
    except ValueError as exc:
        raise ConfigError(f"transform: {exc}") from exc


def _numerics(cfg: RunConfig) -> dict:
    n = cfg.numerics
    out: dict = {}
    out["dt"] = _number(n, "numerics", "dt", 0.0) if "dt" in n else None
    if "t_span" in n:
        span = n["t_span"]
        if not isinstance(span, (list, tuple)) or len(span) != 2 or not all(map(_finite, span)):
            raise ConfigError(f"numerics.t_span: expected [t0, t1] of finite numbers, got {span!r}")
        out["t_span"] = (float(span[0]), float(span[1]))
    else:
        out["t_span"] = None
    n_traj = n.get("n_traj", 1000)
    if isinstance(n_traj, bool) or not isinstance(n_traj, int):
        raise ConfigError("numerics.n_traj: expected an integer")
    out["n_traj"] = n_traj
    seed = n.get("seed", 12345)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("numerics.seed: expected an integer")
    out["seed"] = seed
    stride = n.get("record_stride", 1)
    if isinstance(stride, bool) or not isinstance(stride, int):
        raise ConfigError("numerics.record_stride: expected an integer")
    out["record_stride"] = stride
    initial = n.get("initial_state", "eg")
    if not isinstance(initial, str):
        raise ConfigError("numerics.initial_state: expected a string")
    out["initial_state"] = initial
    snaps = n.get("snapshot_times")
    if snaps is not None:
        if not isinstance(snaps, (list, tuple)) or not all(map(_finite, snaps)):
            raise ConfigError("numerics.snapshot_times: expected a list of finite numbers")
        snaps = [float(v) for v in snaps]
    out["snapshot_times"] = snaps
    out["x_max"] = _number(n, "numerics", "x_max", 0.0) if "x_max" in n else None
    nx = n.get("nx", 961)
    if isinstance(nx, bool) or not isinstance(nx, int):
        raise ConfigError("numerics.nx: expected an integer")
    out["nx"] = nx
    return out


def validate(cfg: RunConfig) -> list[str]:
    """Return every violated precondition without running anything."""
    diags: list[str] = []
    if cfg.experiment not in EXPERIMENTS:
        diags.append(
            f"experiment: unknown {cfg.experiment!r}, expected one of {', '.join(EXPERIMENTS)}"
        )
    model = None
    try:
        model = build_model(cfg)
    except ConfigError as exc:
        diags.append(str(exc))
    try:
        num = _numerics(cfg)
    except ConfigError as exc:
        diags.append(str(exc))
        return diags
    dt = num["dt"]
    span = num["t_span"]
    needs_dt = cfg.experiment in _SPAN_REQUIRED | {"transfer"}
    if dt is None:
        if needs_dt:
            diags.append("numerics.dt: required for this experiment")
    elif dt <= 0.0:
        diags.append("numerics.dt: must be positive")
    if span is None:
        if cfg.experiment in _SPAN_REQUIRED:
            diags.append("numerics.t_span: required for this experiment")
    elif span[1] <= span[0]:
        diags.append("numerics.t_span: must satisfy t1 > t0")
    elif dt is not None and dt > 0.0 and (span[1] - span[0]) / dt <= 0.5:
        # cascade.time_grid rounds (t1 - t0)/dt, half to even, to the step count
        diags.append(
            f"numerics.t_span: [{span[0]:.6g}, {span[1]:.6g}] is at most half a step "
            f"dt = {dt:.6g} long, so it holds no step"
        )
    if model is not None and dt is not None and dt > 0.0:
        scale = max(model.gamma1, model.gamma2, abs(model.beta) ** 2)
        if dt * scale > 0.1:
            diags.append(
                f"numerics.dt: dt*max(gamma1, gamma2, |beta|^2) = {dt * scale:.3g} "
                "exceeds the bound 0.1"
            )
    if cfg.experiment == "trajectories":
        if num["n_traj"] < 1:
            diags.append("numerics.n_traj: must be at least 1")
        if not 0 <= num["seed"] < 2**64:
            diags.append("numerics.seed: must fit in an unsigned 64-bit integer")
        if num["record_stride"] < 1:
            diags.append("numerics.record_stride: must be at least 1")
    if cfg.experiment == "phases" and num["nx"] < 2:
        diags.append("numerics.nx: must be at least 2")
    if cfg.experiment == "phases" and num["snapshot_times"] == []:
        diags.append("numerics.snapshot_times: must list at least one time")
    if num["initial_state"] not in INITIAL_STATES:
        diags.append(
            f"numerics.initial_state: unknown {num['initial_state']!r}, "
            f"expected one of {', '.join(INITIAL_STATES)}"
        )
    spec = None
    if cfg.experiment in ("transform", "phases", "timemap", "transfer") and model is not None:
        try:
            spec = build_transform_spec(cfg, model)
        except ConfigError as exc:
            diags.append(str(exc))
    if spec is not None and model is not None:
        if model.tau > 0.0 and not spec.position_ok(model.tau):
            diags.append(
                f"transform.X: device position {spec.X} must satisfy 0 < X < c*tau = "
                f"{spec.c * model.tau}"
            )
        if cfg.experiment in ("transform", "phases") and dt is not None and dt > 0.5 * spec.Delta:
            # the production window's preimage is Delta long: two samples need dt <= Delta/2
            diags.append(
                f"numerics.dt: {dt:.6g} exceeds transform.Delta/2 = {0.5 * spec.Delta:.6g}, "
                "so the production window can hold fewer than two samples"
            )
        if cfg.experiment in ("transform", "phases") and span is not None:
            pre_lo, pre_hi = _preimage(spec)
            shift = spec.X / spec.c
            if span[0] + shift > pre_lo + 1e-9 or span[1] + shift < pre_hi - 1e-9:
                diags.append(
                    "numerics.t_span: envelope window does not cover the "
                    f"transformation preimage [{pre_lo - shift:.6g}, {pre_hi - shift:.6g}] "
                    "(band coverage)"
                )
        if cfg.experiment == "transfer" and span is not None:
            sched = phase_schedule(spec)
            if span[1] < sched.t_f:
                diags.append(
                    f"numerics.t_span: ends at {span[1]:.6g} before the transformed "
                    f"packet is fully produced (t_f = {sched.t_f:.6g})"
                )
    out_dir = cfg.output.get("directory", ".")
    if not isinstance(out_dir, str):
        diags.append("output.directory: expected a string path")
    elif any(p.exists() and not p.is_dir() for p in (Path(out_dir), *Path(out_dir).parents)):
        diags.append(f"output.directory: {out_dir!r} is or lies under an existing file")
    if not isinstance(cfg.output.get("emit_svg", False), bool):
        diags.append("output.emit_svg: expected a boolean")
    return diags


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return repr(f)


_CSV_BLOCK = 4096  # rows formatted per write


def _cells(col) -> list[str]:
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return ["" if v != v else repr(v) for v in col.tolist()]  # NaN as an empty field
    return list(map(_cell, col.tolist() if isinstance(col, np.ndarray) else col))


def _write_csv(path: Path, comments: list[str], header: list[str], columns) -> None:
    """Write equal-length columns under '#' comments, streamed in blocks of rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = [_cells(col[lo : lo + _CSV_BLOCK]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _provenance(cfg: RunConfig) -> str:
    return "config " + json.dumps(cfg.resolved(), sort_keys=True, separators=(",", ":"))


def _units_comment(model: CascadeModel) -> str:
    return (
        "units: time in 1/gamma1, length in c/gamma1, field amplitude in "
        f"sqrt(gamma1)*<sigma1-(0)>; gamma1 = {model.gamma1!r}"
    )


def _initial_ket(name: str) -> np.ndarray:
    if name == "plus_g":
        plus = (two_level_ket("e") + two_level_ket("g")) / math.sqrt(2.0)
        return kron(plus, two_level_ket("g"))
    return composite_ket(name)


def _decay(cfg: RunConfig, model: CascadeModel, num: dict):
    times = cascade.time_grid(num["t_span"], num["dt"])
    rho0 = np.stack([density_from_ket(_initial_ket(name)) for name in ("eg", "plus_g")])
    hist = cascade._rk4_density_history(cascade.liouvillian(model), rho0, times.size - 1, num["dt"])
    eg = hist[:, 0]
    p1 = np.einsum("nij,ji->n", eg, cascade.NUMBER1).real
    p2 = np.einsum("nij,ji->n", eg, cascade.NUMBER2).real
    s1 = np.einsum("nij,ji->n", eg, cascade.SIGMA1_MINUS)
    s2 = np.einsum("nij,ji->n", eg, cascade.SIGMA2_MINUS)
    coh = np.einsum("nij,ji->n", hist[:, 1], cascade.SIGMA1_MINUS)
    ratio = coh / coh[0]
    table = (
        "decay",
        [
            _units_comment(model),
            "free decay: P columns from |e,g>, decay_* = <sigma1->(t)/<sigma1->(0) "
            "from ((|e>+|g>)/sqrt2) (x) |g>",
        ],
        ["t", "P1", "P2", "re_sigma1", "im_sigma1", "re_sigma2", "im_sigma2",
         "decay_re", "decay_im"],
        [times, p1, p2, s1.real, s1.imag, s2.real, s2.imag, ratio.real, ratio.imag],
    )
    series = [(times, p1, "P1"), (times, p2, "P2"), (times, np.abs(ratio), "|decay|")]
    return [table], (series, "free decay", "t (1/gamma1)", "probability / amplitude")


def _lindblad(cfg: RunConfig, model: CascadeModel, num: dict):
    rho0 = density_from_ket(_initial_ket(num["initial_state"]))
    spec = build_transform_spec(cfg, model) if cfg.transform is not None else None
    run_ = cascade.integrate_master(rho0, model, num["t_span"], num["dt"], transform=spec)
    table = (
        "lindblad",
        [_units_comment(model), f"initial state {num['initial_state']}"],
        ["t", "tilde_t", "P1", "P2", "re_sigma1", "im_sigma1", "re_sigma2",
         "im_sigma2", "trace_dev", "min_eig"],
        [run_.times, run_.tilde_t, run_.p1, run_.p2, run_.sigma1.real, run_.sigma1.imag,
         run_.sigma2.real, run_.sigma2.imag, run_.trace_deviation(), run_.min_eigenvalues()],
    )
    series = [(run_.times, run_.p1, "P1"), (run_.times, run_.p2, "P2")]
    return [table], (series, "master equation", "t (1/gamma1)", "excitation probability")


def _trajectories(cfg: RunConfig, model: CascadeModel, num: dict):
    tcfg = trajectory.TrajectoryConfig(
        dt=num["dt"],
        n_traj=num["n_traj"],
        seed=num["seed"],
        t_span=num["t_span"],
        record_stride=num["record_stride"],
    )
    psi0 = _initial_ket(num["initial_state"])
    ens = trajectory.ensemble_average(psi0, model, tcfg)
    master = cascade.integrate_master(
        density_from_ket(psi0), model, num["t_span"], num["dt"]
    )
    p2_me = master.p2[:: num["record_stride"]][: ens.times.size]
    dev = np.abs(ens.p2 - p2_me)
    edges = np.linspace(num["t_span"][0], num["t_span"][1], 51)
    counts, _ = np.histogram(ens.jump_times, bins=edges)
    tables = [
        (
            "trajectories",
            [
                _units_comment(model),
                f"n_traj = {ens.n_traj}, seed = {num['seed']}",
                f"mean_jumps = {ens.mean_jumps!r}",
                f"max_abs_dev = {float(np.max(dev))!r}",
            ],
            ["t", "P1", "P2", "sem_P2", "P2_master", "abs_dev"],
            [ens.times, ens.p1, ens.p2, ens.sem_p2, p2_me, dev],
        ),
        (
            "trajectories_jumps",
            ["jump-time histogram"],
            ["bin_lo", "bin_hi", "count"],
            [edges[:-1], edges[1:], counts],
        ),
    ]
    series = [(ens.times, ens.p2, "P2 ensemble"), (ens.times, p2_me, "P2 master")]
    return tables, (series, f"quantum trajectories (n = {ens.n_traj})", "t (1/gamma1)", "P2")


def _emitted(model: CascadeModel, num: dict):
    """Envelope system 1 emits, sampled on the numerics time grid."""
    w1, _ = model.frame_omegas()
    return transfer.emit_envelope(
        model.gamma1, w1, 1.0, cascade.time_grid(num["t_span"], num["dt"]),
        rotating_frame=model.rotating_frame,
    )


def _preimage(spec: TransformSpec) -> tuple[float, float]:
    """Device-time window (T - t_f)/alpha .. (T - t_s)/alpha that production consumes."""
    sched = phase_schedule(spec)
    return (spec.T - sched.t_f) / spec.alpha, (spec.T - sched.t_s) / spec.alpha


def _transform(cfg: RunConfig, model: CascadeModel, num: dict):
    spec = build_transform_spec(cfg, model)
    sched = phase_schedule(spec)
    at_device = _emitted(model, num).shifted(spec.X / spec.c)
    out_env = wavepacket.apply_u_time_domain(at_device, spec)
    window = at_device.slice_window(*_preimage(spec))
    samples = np.concatenate([at_device.samples, out_env.samples])
    table = (
        "transform",
        [
            _units_comment(model),
            f"alpha = {spec.alpha!r}, omega0 = {spec.omega0!r}, T = {spec.T!r}",
            f"schedule.t_i = {sched.t_i!r}",
            f"schedule.t_s = {sched.t_s!r}",
            f"schedule.t_f = {sched.t_f!r}",
            f"schedule.t_a = {sched.t_a!r}",
            f"norm_in_window = {window.squared_norm()!r}",
            f"norm_out = {out_env.squared_norm()!r}",
            f"n_zero_filled = {out_env.n_zero_filled}",
        ],
        ["segment", "t", "re", "im", "abs"],
        [
            ["in"] * at_device.samples.size + ["out"] * out_env.samples.size,
            np.concatenate([at_device.times, out_env.times]),
            samples.real,
            samples.imag,
            np.hypot(samples.real, samples.imag),  # abs() per element, as in phases
        ],
    )
    series = [
        (at_device.times, np.abs(at_device.samples), "|in| at device"),
        (out_env.times, np.abs(out_env.samples), "|out|"),
    ]
    return [table], (series, "wave-packet transformation", "t (1/gamma1)", "|A|")


def _phases(cfg: RunConfig, model: CascadeModel, num: dict):
    spec = build_transform_spec(cfg, model)
    sched = phase_schedule(spec)
    emitted = _emitted(model, num)
    transformed = wavepacket.apply_u_time_domain(emitted.shifted(spec.X / spec.c), spec)
    snaps = num["snapshot_times"]
    if snaps is None:
        snaps = [
            0.5 * sched.t_i,
            0.5 * (sched.t_i + sched.t_s),
            0.5 * (sched.t_s + sched.t_f),
            sched.t_f + 0.5 * (sched.t_f - sched.t_s),
        ]
    x_max = num["x_max"]
    if x_max is None or x_max <= 0.0:
        x_max = spec.c * (sched.t_f + 2.0 * spec.Delta)
    xs = np.linspace(0.0, x_max, num["nx"])
    fields = [
        wavepacket.assemble_piecewise_field(xs, float(t_snap), emitted, transformed, spec, sched)
        for t_snap in snaps
    ]
    amps = np.concatenate([np.zeros(0, dtype=complex), *(amp for amp, _ in fields)])
    # abs() per element: np.hypot equals it, np.abs may differ in the last bit
    mags = np.hypot(amps.real, amps.imag)
    table = (
        "phases",
        [
            _units_comment(model),
            f"schedule.t_i = {sched.t_i!r}",
            f"schedule.t_s = {sched.t_s!r}",
            f"schedule.t_f = {sched.t_f!r}",
            f"schedule.t_a = {sched.t_a!r}",
            "snapshot_times = " + ",".join(repr(float(s)) for s in snaps),
        ],
        ["snapshot", "t", "x", "abs", "re", "im", "tag"],
        [
            np.repeat(np.arange(len(snaps)), xs.size),
            np.repeat(np.asarray(snaps, dtype=float), xs.size),
            np.tile(xs, len(snaps)),
            mags,
            amps.real,
            amps.imag,
            [tag.value for _, tags in fields for tag in tags],
        ],
    )
    series = [
        (xs, mags[k * xs.size : (k + 1) * xs.size], f"t = {t_snap:.6g}")
        for k, t_snap in enumerate(snaps)
    ]
    return [table], (series, "transformation phases", "x (c/gamma1)", "|A|")


def _timemap(cfg: RunConfig, model: CascadeModel, num: dict):
    spec = build_transform_spec(cfg, model)
    sched = phase_schedule(spec)
    span = num["t_span"]
    if span is None:
        span = (sched.t_i - spec.Delta, sched.t_f + spec.Delta)
    dt = num["dt"]
    if dt is None or dt <= 0.0:
        dt = (span[1] - span[0]) / 600.0
    ts = cascade.time_grid(span, dt)
    f = [wavepacket.time_map(float(t), spec, sched, model.tau) for t in ts]
    f_slope = [wavepacket.time_map_slope(float(t), spec, sched) for t in ts]
    f_inv = [wavepacket.time_map_inverse(float(t), spec, sched, model.tau) for t in ts]
    f_inv_slope = [wavepacket.time_map_inverse_slope(float(t), spec, sched, model.tau) for t in ts]
    table = (
        "timemap",
        [
            _units_comment(model),
            f"schedule.t_i = {sched.t_i!r}",
            f"schedule.t_s = {sched.t_s!r}",
            f"schedule.t_f = {sched.t_f!r}",
            "horizontal_gap = " + repr(sched.t_s - sched.t_i),
            "vertical_gap = " + repr(sched.t_f - sched.t_s),
        ],
        ["t", "f", "f_slope", "f_inv", "f_inv_slope"],
        [ts, f, f_slope, f_inv, f_inv_slope],
    )
    series = [
        (ts, np.array([np.nan if v is None else v for v in vals]), label)
        for vals, label in ((f, "f(t)"), (f_inv, "f_inv(t)"))
    ]
    return [table], (series, "system-1 clock maps", "t (1/gamma1)", "mapped time")


def _transfer(cfg: RunConfig, model: CascadeModel, num: dict):
    spec = build_transform_spec(cfg, model)
    span = num["t_span"]
    if span is None:
        span = (0.0, phase_schedule(spec).t_f + 10.0 / model.gamma2)
    comparison = transfer.transfer_experiment(
        model, spec=spec, t_grid=cascade.time_grid(span, num["dt"])
    )
    off, on = comparison.off, comparison.on
    table = (
        "transfer",
        [
            _units_comment(model),
            f"alpha = {spec.alpha!r}, omega0 = {spec.omega0!r}, T = {spec.T!r}, "
            f"Delta = {spec.Delta!r}, X = {spec.X!r}",
            f"p2_max_off = {off.p2_max!r} at t = {off.t_at_max!r}",
            f"p2_max_on = {on.p2_max!r} at t = {on.t_at_max!r}",
            f"ratio_on_off = {comparison.ratio!r}",
            f"fidelity_off = {off.fidelity!r} (equal superposition |a|^2 = |b|^2 = 1/2)",
            f"fidelity_on = {on.fidelity!r} (equal superposition |a|^2 = |b|^2 = 1/2)",
        ],
        ["t", "P2_off", "P2_on"],
        [off.times, off.p2, on.p2],
    )
    series = [(off.times, off.p2, "transform off"), (on.times, on.p2, "transform on")]
    return [table], (series, "state transfer", "t (1/gamma1)", "P2")


# Each experiment maps (cfg, model, numerics) to (tables, plot): tables is a
# list of (stem, comments, header, columns) written as <stem>.csv, plot is
# (series, title, xlabel, ylabel) drawn as <experiment>.svg.
EXPERIMENTS = {
    "decay": _decay,
    "lindblad": _lindblad,
    "trajectories": _trajectories,
    "transform": _transform,
    "phases": _phases,
    "timemap": _timemap,
    "transfer": _transfer,
}


def run(cfg: RunConfig) -> list[Path]:
    """Run the configured experiment; returns the artifact paths.

    Each table goes to <stem>.csv under the provenance comment, then the
    plot to <experiment>.svg when SVG output is on.  Assumes the config
    already passed validate().
    """
    out_dir = Path(cfg.output.get("directory", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    experiment = EXPERIMENTS[cfg.experiment]
    tables, (series, title, xlabel, ylabel) = experiment(cfg, build_model(cfg), _numerics(cfg))
    paths = []
    for stem, comments, header, columns in tables:
        paths.append(out_dir / f"{stem}.csv")
        _write_csv(paths[-1], [_provenance(cfg), *comments], header, columns)
    if cfg.output.get("emit_svg", False):
        paths.append(out_dir / f"{cfg.experiment}.svg")
        line_plot(paths[-1], series, title=title, xlabel=xlabel, ylabel=ylabel)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcascade",
        description="cascaded-pair experiments with wave-packet transformation",
    )
    parser.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                        help="override the experiment named in the config")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--svg", action="store_true", help="emit SVG plots")
    parser.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    parser.add_argument("--validate-only", action="store_true",
                        help="report diagnostics without running")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.experiment:
        cfg.experiment = args.experiment
    if args.out is not None:
        cfg.output["directory"] = args.out
    if args.svg:
        cfg.output["emit_svg"] = True
    if args.seed is not None:
        cfg.numerics["seed"] = args.seed
    diagnostics = validate(cfg)
    if args.validate_only:
        for d in diagnostics:
            print(d)
        if not diagnostics:
            print("config ok")
        return 2 if diagnostics else 0
    if diagnostics:
        for d in diagnostics:
            print(d, file=sys.stderr)
        return 2
    try:
        paths = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntegrationAbort as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())

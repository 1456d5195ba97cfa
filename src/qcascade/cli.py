"""Command-line front end: run named experiments from a JSON config.

Usage: qcascade [EXPERIMENT] --config cfg.json [--out DIR] [--svg]
       [--seed N] [--validate-only]

The config is a single JSON file with nested sections (model, transform,
numerics, output); the optional positional argument overrides the
experiment named in the config.  `_resolve` builds a config's typed parts
once, every default filled in, and lists each violated precondition;
`validate` returns that list, and `run` resolves once and runs on the
parts.  Each
experiment is one entry of EXPERIMENTS, returning its tables and plot.
Each table becomes <stem>.csv ('#'-prefixed header comments embed the
config as given, after CLI overrides; undefined values are empty fields):
every experiment writes <experiment>.csv, trajectories also
trajectories_jumps.csv.  The plot optionally becomes <experiment>.svg.
All outputs are in the natural units of the problem (time in 1/gamma1,
length in c/gamma1) and are byte-identical for identical configs, seed
included.

Exit status: 0 on success, 2 for an invalid config (the message names
the offending field), 3 when an integrator aborts.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import cascade, trajectory, transfer, wavepacket
from .cascade import CascadeModel, IntegrationAbort
from .floatrepr import repr_bytes
from .svgplot import line_plot
from .wavepacket import TransformSpec, matched_timing

__all__ = ["RunConfig", "ConfigError", "load_config", "validate", "run", "main"]

INITIAL_STATES = ("eg", "ge", "ee", "gg", "plus_g")

# Each count a run sizes its arrays by must stay below this, checked before
# the run starts: time samples at dt, phases field points nx *
# len(snapshot_times), and trajectories.  A master-equation run holds no
# density history, only its (n, 5) complex readout, 80 bytes a time sample.
# The most memory per count goes to decay, whose two runs peak at about 210
# bytes a time sample with the CSV writer's (transfer, whose step inputs are formed
# in 4096-step slices, 100 to 110), so no single array reaches 512 MiB; every
# shipped and benchmark config is 18x or more below.
MAX_SAMPLES = 2**21
# trajectories * steps must stay below this: about 4.5 min at 0.25 us per
# trajectory-step, over 100x the 10^7 of every shipped and benchmark config
MAX_TRAJECTORY_STEPS = 2**30


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


@dataclass(frozen=True)
class Numerics:
    """The numerics section, checked; each message starts with the field it names."""

    dt: float | None = None
    t_span: tuple[float, float] | None = None
    n_traj: int = 1000
    seed: int = 12345
    record_stride: int = 1
    initial_state: str = "eg"
    snapshot_times: tuple[float, ...] | None = None
    x_max: float | None = None
    nx: int = 961

    def __post_init__(self) -> None:
        # t_span first: timemap derives a missing dt from it
        if self.t_span is not None and not self.t_span[1] > self.t_span[0]:
            raise ValueError("t_span must satisfy t1 > t0")
        if self.dt is not None and not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_span is not None and self.dt is not None:
            t0, t1 = self.t_span
            if (t1 - t0) / self.dt <= 0.5:
                # cascade.time_grid rounds (t1 - t0)/dt, half to even, to the step count
                raise ValueError(
                    f"t_span [{t0:.6g}, {t1:.6g}] is at most half a step "
                    f"dt = {self.dt:.6g} long, so it holds no step"
                )
        if self.initial_state not in INITIAL_STATES:
            raise ValueError(f"initial_state must be one of {', '.join(INITIAL_STATES)}")
        if self.snapshot_times == ():
            raise ValueError("snapshot_times must list at least one time")
        if self.x_max is not None and not self.x_max > 0.0:
            raise ValueError("x_max must be positive")
        if self.nx < 2:
            raise ValueError("nx must be at least 2")


@dataclass(frozen=True)
class Output:
    """The output section: where run writes, and whether it draws the plot."""

    directory: str = "."
    emit_svg: bool = False

    def __post_init__(self) -> None:
        try:
            os.fsencode(self.directory)
        except UnicodeEncodeError as exc:  # such as a lone surrogate, which Path.exists() hides
            raise ValueError(f"directory is not a usable path ({exc})") from exc
        d = Path(self.directory)
        try:
            blocked = any(p.exists() and not p.is_dir() for p in (d, *d.parents))
        except OSError as exc:  # such as a name too long for the file system
            raise ValueError(f"directory is not a usable path ({exc})") from exc
        if blocked:
            raise ValueError(f"directory {self.directory!r} is or lies under an existing file")


# experiments that run the transformation, so need a transform section (transfer defaults it)
_TRANSFORMED = ("transform", "phases", "timemap", "transfer")

# each section's keys are the fields of the part it builds
_SECTION_KEYS = {name: [f.name for f in fields(cls)] for name, cls in (
    ("model", CascadeModel), ("transform", TransformSpec),
    ("numerics", Numerics), ("output", Output))}


def load_config(path) -> RunConfig:
    """Parse the JSON config; structural problems raise ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: not valid UTF-8 ({exc})") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    top = [f.name for f in fields(RunConfig)]
    unknown = sorted(raw.keys() - set(top))
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key, expected one of {', '.join(top)}")
    if not isinstance(raw.get("experiment"), str):
        raise ConfigError("experiment: required string field")
    for key in ("model", "numerics", "output", "transform"):
        if key in ("model", "numerics") and key not in raw:
            raise ConfigError(f"{key}: section missing")
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"{key}: expected an object")
    return RunConfig(raw["experiment"], dict(raw["model"]), dict(raw["numerics"]),
                     dict(raw.get("output", {})), raw.get("transform") and dict(raw["transform"]))


def _finite(v) -> bool:
    # a number (not a bool) that fits a finite float; json.loads accepts NaN and Infinity
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _finite_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_finite, v))


# field type -> (accepts a JSON value, what it expects, conversion)
_JSON_TYPES = {
    "float": (_finite, "a finite number", float),
    "float | None": (_finite, "a finite number", float),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer", int),
    "str": (lambda v: isinstance(v, str) and "\0" not in v, "a string without NUL", str),
    "bool": (lambda v: isinstance(v, bool), "a boolean", bool),
    "complex": (lambda v: _finite(v) or (_finite_list(v) and len(v) == 2),
                "a finite number or a [re, im] pair",
                lambda v: complex(*map(float, v)) if isinstance(v, (list, tuple)) else complex(v)),
    "tuple[float, float] | None": (lambda v: _finite_list(v) and len(v) == 2,
                                   "[t0, t1] of finite numbers", lambda v: tuple(map(float, v))),
    "tuple[float, ...] | None": (_finite_list, "a list of finite numbers",
                                 lambda v: tuple(map(float, v))),
}


def _construct(section: str, make, *args, **kwargs):
    """Call make; its ValueError '<field> <why>' becomes ConfigError '<section>.<field>: <why>'."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        field, _, why = str(exc).partition(" ")
        raise ConfigError(f"{section}.{field}: {why}") from exc


def _values(cls, name: str, section: dict) -> dict:
    """cls's fields from a config section, each checked against its type; absent ones default."""
    values = {}
    for f in fields(cls):
        if f.name in section:
            accepts, expected, convert = _JSON_TYPES[f.type]
            if not accepts(section[f.name]):
                raise ConfigError(f"{name}.{f.name}: expected {expected}, got {section[f.name]!r}")
            values[f.name] = convert(section[f.name])
        elif f.default is MISSING:
            raise ConfigError(f"{name}.{f.name}: required")
        else:
            values[f.name] = f.default
    return values


def _typed(cls, name: str, section: dict):
    return _construct(name, cls, **_values(cls, name, section))


def _transform_spec(cfg: RunConfig, model: CascadeModel) -> TransformSpec:
    """The transform section; alpha, omega0 and T may be 'auto' or left out,
    and transfer defaults Delta to 8/gamma1 and X to c*Delta."""
    given = {k: v for k, v in (cfg.transform or {}).items()
             if not (k in ("alpha", "omega0", "T") and v == "auto")}
    alpha, omega0 = wavepacket.derive_transform_params(model.gamma1, model.gamma2,
                                                       *model.frame_omegas())
    # T = 1 (and X = 1 on transfer) stand in until Delta, X and c are checked
    defaults = {"alpha": alpha, "omega0": omega0, "T": 1.0}
    if cfg.experiment == "transfer":
        defaults.update(Delta=8.0 / model.gamma1, X=1.0)
    values = _values(TransformSpec, "transform", {**defaults, **given})
    if "X" not in given and cfg.experiment == "transfer":
        values["X"] = values["c"] * values["Delta"]
    if "T" not in given and values["c"] != 0.0:  # TransformSpec reports c = 0
        values["T"] = matched_timing(values["alpha"], values["Delta"], values["X"], values["c"])
    return _construct("transform", TransformSpec, **values)


@dataclass(frozen=True)
class _Plan:
    """Typed parts with every default filled in, and the work counts: field -> (count, what)."""

    model: CascadeModel
    spec: TransformSpec | None
    numerics: Numerics
    output: Output
    trajectories: trajectory.TrajectoryConfig | None
    work: dict


def _experiment_defaults(exp: str, model: CascadeModel, spec, given: dict) -> dict:
    """The numerics left out that an experiment derives from the model and the transform."""
    if spec is None:
        return {}
    span = given["t_span"] or (spec.t_i - spec.Delta, spec.t_f + spec.Delta)
    derived = {
        "transfer": {"t_span": (0.0, spec.t_f + model.tau + 10.0 / model.gamma2)},
        "timemap": {"t_span": span, "dt": (span[1] - span[0]) / 600.0},
        "phases": {"snapshot_times": (0.5 * spec.t_i, 0.5 * (spec.t_i + spec.t_s),
                                      0.5 * (spec.t_s + spec.t_f),
                                      spec.t_f + 0.5 * (spec.t_f - spec.t_s)),
                   "x_max": spec.c * (spec.t_f + 2.0 * spec.Delta)},
    }.get(exp, {})
    return {key: value for key, value in derived.items() if given[key] is None}


def _resolve(cfg: RunConfig) -> tuple[_Plan | None, list[str]]:
    """Build the typed parts of cfg once; (None, diagnostics) if any precondition fails."""
    diags = [f"{name}.{key}: unknown key, expected one of {', '.join(keys)}"
             for name, keys in _SECTION_KEYS.items() for key in (getattr(cfg, name) or {})
             if key not in keys]
    exp = cfg.experiment
    if exp not in EXPERIMENTS:
        diags.append(f"experiment: unknown {exp!r}, expected one of {', '.join(EXPERIMENTS)}")

    def attempt(build, *args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ConfigError as exc:
            diags.append(str(exc))

    model = attempt(_typed, CascadeModel, "model", cfg.model)
    given = attempt(_values, Numerics, "numerics", cfg.numerics)
    output = attempt(_typed, Output, "output", cfg.output)
    spec = num = None
    if model is not None and (cfg.transform is not None or exp in _TRANSFORMED):
        spec = attempt(_transform_spec, cfg, model)
    if given is not None:
        num = attempt(_construct, "numerics", Numerics,
                      **{**given, **_experiment_defaults(exp, model, spec, given)})
    # every experiment that integrates or samples the emitted packet at dt takes the
    # rate bound; timemap only samples the piecewise-linear clock maps
    if num is not None and model is not None and given["dt"] is not None and exp != "timemap":
        scale = max(model.gamma1, model.gamma2, abs(model.beta) ** 2)
        if num.dt * scale > 0.1:
            diags.append(f"numerics.dt: dt*max(gamma1, gamma2, |beta|^2) = {num.dt * scale:.3g} "
                         "exceeds the bound 0.1")
    diags += [f"numerics.{key}: required for this experiment"
              for key in ("dt", "t_span") if num is not None and getattr(num, key) is None]
    if diags:
        return None, diags
    dt, (t0, t1) = num.dt, num.t_span
    work = {"numerics.dt": ((t1 - t0) / dt + 1.0, f"time samples over t_span [{t0:.6g}, {t1:.6g}]")}
    if spec is not None:
        (pre_lo, pre_hi), shift = spec.preimage, spec.delay
        if model.tau > 0.0 and not spec.position_ok(model.tau):
            diags.append(f"transform.X: device position {spec.X} must satisfy 0 < X < c*tau = "
                         f"{spec.c * model.tau}")
        # the production window must hold two samples: transform and phases sample its
        # Delta-long preimage at dt (the transfer integrates its drive exactly at any dt)
        if exp in ("transform", "phases") and dt > 0.5 * spec.Delta:
            diags.append(f"numerics.dt: {dt:.6g} exceeds {0.5 * spec.Delta:.6g}, so the "
                         "production window can hold fewer than two samples")
        covered = t0 + shift <= pre_lo + 1e-9 and t1 + shift >= pre_hi - 1e-9
        if exp in ("transform", "phases") and not covered:
            diags.append(
                "numerics.t_span: envelope window does not cover the "
                f"transformation preimage [{pre_lo - shift:.6g}, {pre_hi - shift:.6g}] "
                "(band coverage)"
            )
        # each phase omega*t that emission, drive and production evaluate must keep
        # digits: from 2^52 on, a float's spacing is a radian or more
        far = 4.0 * max(abs(t0), abs(t1), model.tau, shift, abs(spec.T), abs(spec.t_f))
        diags += [f"{field}: {w:.3g} times the run's times, up to {far:.3g}, reaches 2^52, "
                  "where a phase keeps no digits"
                  for field, w in zip(("model.omega1", "model.omega2", "transform.omega0"),
                                      (*model.frame_omegas(), abs(spec.omega0)))
                  if not w * far < 2.0**52]
        if exp == "transfer":
            if not pre_hi > shift:
                diags.append(
                    f"transform.T: {spec.T:.6g} ends the production window's preimage "
                    f"[{pre_lo:.6g}, {pre_hi:.6g}] by the packet's arrival at X/c = {shift:.6g}"
                )
            if not t0 <= spec.t_s <= spec.t_f <= t1:
                diags.append(
                    f"numerics.t_span: [{t0:.6g}, {t1:.6g}] does not cover the production "
                    f"window [{spec.t_s:.6g}, {spec.t_f:.6g}]"
                )
    # every step matrix is exact at any dt; the trajectories' jump probability per
    # step stays under 0.1, as _mc_core checks
    if exp == "trajectories":
        try:
            trajectory.checked_jump_operator(model, dt)
        except IntegrationAbort as exc:
            diags.append(f"numerics.dt: trajectory {exc}")
    if exp == "phases":
        work["numerics.nx"] = (num.nx * len(num.snapshot_times),
                               "field points nx * len(snapshot_times)")
    tcfg = None
    if exp == "trajectories":
        work["numerics.n_traj"] = (num.n_traj, "trajectories")
        steps = (t1 - t0) / dt
        if not num.n_traj < MAX_TRAJECTORY_STEPS / steps:
            diags.append(f"numerics.n_traj: {num.n_traj} trajectories of {steps:.6g} steps "
                         f"reach the work bound MAX_TRAJECTORY_STEPS = {MAX_TRAJECTORY_STEPS}")
        tcfg = attempt(_construct, "numerics", trajectory.TrajectoryConfig, dt=dt,
                       n_traj=num.n_traj, seed=num.seed, t_span=num.t_span,
                       record_stride=num.record_stride)
    diags += [f"{field}: {what} reach the work bound MAX_SAMPLES = {MAX_SAMPLES}"
              for field, (n, what) in work.items() if not n < MAX_SAMPLES]
    if diags:
        return None, diags
    return _Plan(model, spec, num, output, tcfg, work), []


def validate(cfg: RunConfig) -> list[str]:
    """The resolver's diagnostics, each naming its field; empty when the config can run."""
    return _resolve(cfg)[1]


_CSV_BLOCK = 4096  # rows per part of a forked table are a multiple of this
_FLOATS_PER_CALL = 2**14  # float64 values formatted per repr_bytes call


@dataclass(frozen=True, eq=False)
class Categorical:
    """A CSV column of integer codes into a short tuple of label texts: row k is labels[codes[k]]."""

    codes: np.ndarray
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.codes)


def _integer_column(values) -> Categorical:
    """An integer column as a Categorical labelled by the decimal text of each distinct value."""
    distinct, codes = np.unique(values, return_inverse=True)
    return Categorical(codes, tuple(map(str, distinct.tolist())))


def _format_rows(columns, lo: int, hi: int, fh) -> None:
    """Write rows [lo, hi) of the columns to the binary file fh, one block of rows per write.

    A column is a float64 array or a Categorical.  The float columns of a
    block go through one repr_bytes call, which writes exactly repr's
    bytes, so a block holds at most _FLOATS_PER_CALL of their values; a
    categorical column is one take from its table of encoded labels.  Each
    block is one (rows, columns, w + 1) byte matrix, w the widest text:
    a slot per field, its text followed by ',' or the newline.  A length
    mask keeps each field's own bytes and its separator.
    """
    floats = [j for j, col in enumerate(columns) if not isinstance(col, Categorical)]
    tables = {}  # column index -> (label bytes (labels, width), label lengths)
    for j, col in enumerate(columns):
        if isinstance(col, Categorical):
            texts = [label.encode() for label in col.labels]
            table = np.array(texts, dtype=bytes)
            tables[j] = (table.view(np.uint8).reshape(len(texts), table.itemsize),
                         np.array(list(map(len, texts)), dtype=np.intp))
    step = _FLOATS_PER_CALL // max(len(floats), 1)
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        rows = stop - start
        # (column indices, chars (rows, c, width), lengths (rows, c)) of the float
        # columns together and of each categorical column
        pieces = []
        if floats:
            # in column order, so a time grid's runs reach repr_bytes' sort whole
            chars, sizes = repr_bytes(np.concatenate([columns[j][start:stop] for j in floats]))
            pieces.append((floats, chars.reshape(len(floats), rows, -1).swapaxes(0, 1),
                           sizes.reshape(len(floats), rows).T))
        for j, (text, size) in tables.items():
            codes = columns[j].codes[start:stop]
            pieces.append(([j], text.take(codes, axis=0)[:, None], size.take(codes)[:, None]))
        w = max(chars.shape[2] for _, chars, _ in pieces)
        matrix = np.empty((rows, len(columns), w + 1), dtype=np.uint8)
        lengths = np.empty((rows, len(columns)), dtype=np.intp)
        for j, chars, sizes in pieces:
            matrix[:, j, : chars.shape[2]] = chars
            lengths[:, j] = sizes
        matrix[:, :, w] = ord(",")
        matrix[:, -1, w] = ord("\n")
        # mask[m] keeps the first m bytes of a slot and its separator
        mask = np.arange(w + 1) < np.arange(w + 1)[:, None]
        mask[:, w] = True
        fh.write(matrix[mask.take(lengths, axis=0)])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_part(columns, lo: int, hi: int):
    """(pid, file): a child formats rows [lo, hi) into an unlinked temporary file.

    (0, None) when the file or the fork cannot be made.  The child only
    formats rows and leaves by os._exit, so it never returns into the
    caller's stack or flushes a buffer it inherited.
    """
    try:
        tmp = tempfile.TemporaryFile()
    except OSError:
        return 0, None
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork once an idle BLAS pool has made the process
            # multi-threaded; the child runs only _format_rows, which calls no BLAS
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        tmp.close()
        return 0, None
    if pid == 0:
        code = 1
        try:
            # no collection in the child: it would write to every inherited object's
            # header, copying their pages, and could finalize a file of the parent's
            gc.disable()
            with open(tmp.fileno(), "wb", closefd=False) as out:
                _format_rows(columns, lo, hi, out)
            code = 0
        finally:
            os._exit(code)
    return pid, tmp


def _write_csv(path: Path, comments: list[str], table: dict) -> None:
    """Write a table {header: column} of equal-length columns under '#' comments.

    The header row is the table's keys; _format_rows formats the rows.

    A table of at least 2 * _CSV_BLOCK rows is split into contiguous
    parts on multiples of _CSV_BLOCK rows, one per usable CPU.  This
    process formats the first part; each later part is formatted by a
    forked child, running the same _format_rows, into a temporary file
    and appended in order.  A part whose fork or child fails is formatted
    here, so the bytes never depend on the CPU count or on a failure.
    Formatting still dominates a large table even with each distinct value
    formatted once, so the split still shortens the transfer and phases
    tables on two CPUs; on lindblad's tables it gains or loses with the
    load on the second CPU.
    """
    columns = list(table.values())
    n = len(columns[0])
    parts = min(_usable_cpus(), n // _CSV_BLOCK) if hasattr(os, "fork") else 1
    with open(path, "wb") as fh:
        fh.writelines(f"# {c}\n".encode() for c in comments)
        fh.write((",".join(table) + "\n").encode())
        if parts < 2:
            _format_rows(columns, 0, n, fh)
            return
        blocks = -(-n // _CSV_BLOCK)
        bounds = [min(n, k * blocks // parts * _CSV_BLOCK) for k in range(parts + 1)]
        forked, reaped = [], 0  # (lo, hi, pid, file) per later part; pid 0 if not forked
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                forked.append((lo, hi, *_fork_part(columns, lo, hi)))
            _format_rows(columns, 0, bounds[1], fh)
            for lo, hi, pid, tmp in forked:
                ok = pid != 0 and os.waitpid(pid, 0)[1] == 0
                reaped += 1
                if ok:
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh)
                else:
                    _format_rows(columns, lo, hi, fh)
        finally:
            # reap the children not yet waited for, so that none is left a zombie
            for _, _, pid, _ in forked[reaped:]:
                if pid:
                    os.waitpid(pid, 0)
            for _, _, _, tmp in forked:
                if tmp is not None:
                    tmp.close()


def _provenance(cfg: RunConfig) -> str:
    given = {key: value for key, value in vars(cfg).items() if value is not None}
    return "config " + json.dumps(given, sort_keys=True, separators=(",", ":"))


def _units_comment(model: CascadeModel) -> str:
    return (
        "units: time in 1/gamma1, length in c/gamma1, field amplitude in "
        f"sqrt(gamma1)*<sigma1-(0)>; gamma1 = {model.gamma1!r}"
    )


def _schedule_comments(spec: TransformSpec, names=("t_i", "t_s", "t_f", "t_a")) -> list[str]:
    return [f"schedule.{name} = {getattr(spec, name)!r}" for name in names]


def _initial_ket(name: str) -> np.ndarray:
    """The named state in cascade's basis |ee>, |eg>, |ge>, |gg>; plus_g is (|e> + |g>)|g>/sqrt2."""
    if name == "plus_g":
        return np.array([0.0, 1.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.eye(4, dtype=complex)[("ee", "eg", "ge", "gg").index(name)]


def _density(psi: np.ndarray) -> np.ndarray:  # |psi><psi| / <psi|psi>
    return np.outer(psi, psi.conj()) / float(np.real(psi.conj() @ psi))


def _complex(name: str, values: np.ndarray) -> dict:  # columns re_<name>, im_<name>
    return {f"re_{name}": values.real, f"im_{name}": values.imag}


def _decay(p: _Plan):
    model, num = p.model, p.numerics
    eg, plus = (cascade.integrate_master(_density(_initial_ket(name)), model,
                                         num.t_span, num.dt) for name in ("eg", "plus_g"))
    times = eg.times
    ratio = plus.sigma1 / plus.sigma1[0]
    table = (
        "decay",
        [
            _units_comment(model),
            "free decay: P columns from |e,g>, decay_* = <sigma1->(t)/<sigma1->(0) "
            "from ((|e>+|g>)/sqrt2) (x) |g>",
        ],
        {"t": times, "P1": eg.p1, "P2": eg.p2, **_complex("sigma1", eg.sigma1),
         **_complex("sigma2", eg.sigma2), "decay_re": ratio.real, "decay_im": ratio.imag},
    )
    series = [(times, eg.p1, "P1"), (times, eg.p2, "P2"), (times, np.abs(ratio), "|decay|")]
    return [table], (series, "free decay", "t (1/gamma1)", "probability / amplitude")


def _lindblad(p: _Plan):
    model, num = p.model, p.numerics
    rho0 = _density(_initial_ket(num.initial_state))
    run_ = cascade.integrate_master(rho0, model, num.t_span, num.dt, min_eig=True)
    comments = [_units_comment(model), f"initial state {num.initial_state}"]
    if p.spec is None:
        tilde = run_.times - model.tau
    else:
        tilde = wavepacket.time_map(run_.times, p.spec, model.tau)
        comments.append("P1, P2 and the sigma columns are the transform-off master equation; "
                        "tilde_t only relabels system 1's clock")
    table = (
        "lindblad",
        comments,
        {"t": run_.times, "tilde_t": tilde, "P1": run_.p1, "P2": run_.p2,
         **_complex("sigma1", run_.sigma1), **_complex("sigma2", run_.sigma2),
         "trace_dev": run_.trace_deviation(), "min_eig": run_.min_eigenvalues()},
    )
    series = [(run_.times, run_.p1, "P1"), (run_.times, run_.p2, "P2")]
    return [table], (series, "master equation", "t (1/gamma1)", "excitation probability")


def _trajectories(p: _Plan):
    model, tcfg = p.model, p.trajectories
    psi0 = _initial_ket(p.numerics.initial_state)
    ens = trajectory.ensemble_average(psi0, model, tcfg)
    master = cascade.integrate_master(_density(psi0), model, tcfg.t_span, tcfg.dt)
    p2_me = master.p2[:: tcfg.record_stride][: ens.times.size]
    dev = np.abs(ens.p2 - p2_me)
    edges = np.linspace(tcfg.t_span[0], tcfg.t_span[1], 51)
    counts, _ = np.histogram(ens.jump_times, bins=edges)
    tables = [
        (
            "trajectories",
            [
                _units_comment(model),
                f"n_traj = {ens.n_traj}, seed = {tcfg.seed}",
                f"mean_jumps = {ens.mean_jumps!r}",
                f"max_abs_dev = {float(np.max(dev))!r}",
            ],
            {"t": ens.times, "P1": ens.p1, "P2": ens.p2, "sem_P2": ens.sem_p2,
             "P2_master": p2_me, "abs_dev": dev},
        ),
        (
            "trajectories_jumps",
            ["jump-time histogram"],
            {"bin_lo": edges[:-1], "bin_hi": edges[1:], "count": _integer_column(counts)},
        ),
    ]
    series = [(ens.times, ens.p2, "P2 ensemble"), (ens.times, p2_me, "P2 master")]
    return tables, (series, f"quantum trajectories (n = {ens.n_traj})", "t (1/gamma1)", "P2")


def _packets(p: _Plan):
    """(emitted, at_device, transformed): the envelope system 1 emits,
    sampled on the numerics time grid, that envelope at the device, and
    the device's output."""
    w1, _ = p.model.frame_omegas()
    emitted = transfer.emit_envelope(
        p.model.gamma1, w1, cascade.time_grid(p.numerics.t_span, p.numerics.dt))
    at_device = emitted.shifted(p.spec.delay)
    return emitted, at_device, wavepacket.apply_u_time_domain(at_device, p.spec)


def _transform(p: _Plan):
    model, spec = p.model, p.spec
    _, at_device, out_env = _packets(p)
    window = at_device.slice_window(*spec.preimage)
    samples = np.concatenate([at_device.samples, out_env.samples])
    table = (
        "transform",
        [
            _units_comment(model),
            f"alpha = {spec.alpha!r}, omega0 = {spec.omega0!r}, T = {spec.T!r}",
            *_schedule_comments(spec),
            f"norm_in_window = {window.squared_norm()!r}",
            f"norm_out = {out_env.squared_norm()!r}",
            f"n_zero_filled = {out_env.n_zero_filled}",
        ],
        {"segment": Categorical(np.repeat([0, 1], [at_device.samples.size, out_env.samples.size]),
                                ("in", "out")),
         "t": np.concatenate([at_device.times, out_env.times]),
         "re": samples.real, "im": samples.imag,
         "abs": np.hypot(samples.real, samples.imag)},  # abs() per element, as in phases
    )
    series = [
        (at_device.times, np.abs(at_device.samples), "|in| at device"),
        (out_env.times, np.abs(out_env.samples), "|out|"),
    ]
    return [table], (series, "wave-packet transformation", "t (1/gamma1)", "|A|")


def _phases(p: _Plan):
    model, spec, num = p.model, p.spec, p.numerics
    emitted, _, transformed = _packets(p)
    snaps = num.snapshot_times
    xs = np.linspace(0.0, num.x_max, num.nx)
    fields = [
        wavepacket.assemble_piecewise_field(xs, float(t_snap), emitted, transformed, spec)
        for t_snap in snaps
    ]
    amps = np.concatenate([np.zeros(0, dtype=complex), *(amp for amp, _ in fields)])
    # abs() per element: np.hypot equals it, np.abs may differ in the last bit
    mags = np.hypot(amps.real, amps.imag)
    table = (
        "phases",
        [
            _units_comment(model),
            *_schedule_comments(spec),
            "snapshot_times = " + ",".join(repr(float(s)) for s in snaps),
        ],
        {"snapshot": _integer_column(np.repeat(np.arange(len(snaps)), xs.size)),
         "t": np.repeat(np.asarray(snaps, dtype=float), xs.size),
         "x": np.tile(xs, len(snaps)),
         "abs": mags, "re": amps.real, "im": amps.imag,
         "tag": Categorical(np.concatenate([tags for _, tags in fields]),
                            tuple(tag.value for tag in wavepacket.PhaseTag))},
    )
    series = [
        (xs, mags[k * xs.size : (k + 1) * xs.size], f"t = {t_snap:.6g}")
        for k, t_snap in enumerate(snaps)
    ]
    return [table], (series, "transformation phases", "x (c/gamma1)", "|A|")


def _timemap(p: _Plan):
    model, spec = p.model, p.spec
    ts = cascade.time_grid(p.numerics.t_span, p.numerics.dt)
    f = wavepacket.time_map(ts, spec, model.tau)
    f_slope = wavepacket.time_map_slope(ts, spec)
    f_inv = wavepacket.time_map_inverse(ts, spec, model.tau)
    f_inv_slope = wavepacket.time_map_inverse_slope(ts, spec, model.tau)
    horizontal, vertical = wavepacket.gap_geometry(spec)
    table = (
        "timemap",
        [
            _units_comment(model),
            *_schedule_comments(spec, ("t_i", "t_s", "t_f")),
            "horizontal_gap = " + repr(horizontal),
            "vertical_gap = " + repr(vertical),
        ],
        {"t": ts, "f": f, "f_slope": f_slope, "f_inv": f_inv, "f_inv_slope": f_inv_slope},
    )
    series = [(ts, f, "f(t)"), (ts, f_inv, "f_inv(t)")]
    return [table], (series, "system-1 clock maps", "t (1/gamma1)", "mapped time")


def _transfer(p: _Plan):
    model, spec = p.model, p.spec
    comparison = transfer.transfer_experiment(
        model, spec, cascade.time_grid(p.numerics.t_span, p.numerics.dt)
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
        {"t": off.times, "P2_off": off.p2, "P2_on": on.p2},
    )
    series = [(off.times, off.p2, "transform off"), (on.times, on.p2, "transform on")]
    return [table], (series, "state transfer", "t (1/gamma1)", "P2")


# Each experiment maps the resolved plan to (tables, plot): tables is a
# list of (stem, comments, {header: column}) written as <stem>.csv, each
# column a float64 array or a Categorical (integer codes into label texts:
# phase tags, segments, counts); plot is (series, title, xlabel, ylabel)
# drawn as <experiment>.svg.
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

    The config is resolved once, here.  Each table goes to <stem>.csv
    under the provenance comment, then the plot to <experiment>.svg when
    SVG output is on.  A config that fails to resolve raises ConfigError
    with its diagnostics, one per line.
    """
    plan, diags = _resolve(cfg)
    if diags:
        raise ConfigError("\n".join(diags))
    tables, (series, title, xlabel, ylabel) = EXPERIMENTS[cfg.experiment](plan)
    # made only now, so that a run that aborts leaves no empty directory
    out_dir = Path(plan.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, comments, table in tables:
        paths.append(out_dir / f"{stem}.csv")
        _write_csv(paths[-1], [_provenance(cfg), *comments], table)
    if plan.output.emit_svg:
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
    if args.validate_only:
        diagnostics = validate(cfg)
        for d in diagnostics:
            print(d)
        if not diagnostics:
            print("config ok")
        return 2 if diagnostics else 0
    try:
        paths = run(cfg)
    except ConfigError as exc:  # the diagnostics, one per line, each naming its field
        print(exc, file=sys.stderr)
        return 2
    except IntegrationAbort as exc:
        print(f"integration aborted: {exc}", file=sys.stderr)
        return 3
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: the configs each one runs and the checks on their outputs.

Every workload is a list of experiment runs, each a JSON config driven
through ``qcascade.cli.main`` with ``--svg``.  The configs are generated
here from the workload seed rather than read from ``configs/``: they copy
the shipped configs as they stood when the benchmark was defined, so an
edit there cannot change what is measured.  The seed enters
``numerics.seed`` only and never changes a problem size.

Each check reads what a run wrote and returns the problems it found; an
empty list means the run passed.  Tolerances are those of the acceptance
criteria in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("ensemble", "ensemble_wide", "master", "packet")

# Workloads whose run_s is corrected for the speed at which the host serves
# the interpreter (run.typical_pass_seconds).  Their time is spent in
# Python-level loops and small-array NumPy calls and tracks the speed probe;
# the ensembles' time is spent in NumPy loops over long arrays, hardly moves
# with it, and is reported as measured.
SPEED_CORRECTED = ("master", "packet")

_PAIR = {"omega1": 0.0, "omega2": 0.0, "tau": 0.0, "beta": 0.0, "rotating_frame": True}

# configs/phases_four_stage.json: caption parameters of the four-phase figure
_PHASES_MODEL = {"gamma1": 1.0, "gamma2": 0.5, **_PAIR}
_PHASES_TRANSFORM = {"alpha": 2.0, "omega0": 0.0, "T": 54.0, "Delta": 6.0, "X": 12.0, "c": 1.0}
_PHASES_SCHEDULE = (12.0, 18.0, 30.0, 18.0)
# many frames, so that field assembly is a third to a half of the packet pass
_PHASES_FRAMES = [float(k) for k in range(1, 41)]

# configs/timemap_backwards_clock.json
_TIMEMAP_TRANSFORM = {"alpha": 2.0, "omega0": 0.0, "T": 18.0, "Delta": 3.0, "X": 2.0}

# acceptance criterion 9's sweep of gamma1/gamma2
TRANSFER_RATIOS = (0.25, 0.5, 2.0, 4.0)

# lindblad run tagged through the time map: t_s = T/(1 + alpha) = 8, t_i = t_s - Delta = 4
_LINDBLAD_TRANSFORM = {"alpha": 1.0, "omega0": 0.0, "T": 16.0, "Delta": 4.0, "X": 4.0}


@dataclass(frozen=True)
class Run:
    """One experiment run of a workload pass."""

    name: str
    config: dict
    check: Callable[[Path, dict], list[str]]


def _config(experiment: str, model: dict, numerics: dict, transform: dict | None = None) -> dict:
    cfg = {
        "experiment": experiment,
        "model": dict(model),
        "numerics": dict(numerics),
        "output": {"directory": "out", "emit_svg": True},
    }
    if transform is not None:
        cfg["transform"] = dict(transform)
    return cfg


def runs_for(workload: str, seed: int) -> list[Run]:
    """The runs of one pass of `workload`; `seed` goes into numerics.seed."""
    seed = seed % 2**64
    if workload in ("ensemble", "ensemble_wide"):
        # configs/trajectories_single_photon.json; the wide variant keeps the
        # trajectory-step count but holds ten times the trajectories at once
        n_traj, t_end = (10_000, 10.0) if workload == "ensemble" else (100_000, 1.0)
        numerics = {"dt": 0.01, "t_span": [0.0, t_end], "n_traj": n_traj, "seed": seed,
                    "initial_state": "eg"}
        model = {"gamma1": 1.0, "gamma2": 1.0, **_PAIR}
        return [Run("trajectories", _config("trajectories", model, numerics), check_trajectories)]
    if workload == "master":
        pair = {"gamma1": 1.0, "gamma2": 1.0, **_PAIR}
        return [
            Run("lindblad_peak",
                _config("lindblad", pair,
                        {"dt": 1e-3, "t_span": [0.0, 40.0], "initial_state": "eg", "seed": seed},
                        _LINDBLAD_TRANSFORM),
                check_lindblad_peak),
            Run("lindblad_beta",
                _config("lindblad", {**pair, "beta": 0.5},
                        {"dt": 1e-3, "t_span": [0.0, 10.0], "initial_state": "eg", "seed": seed}),
                check_lindblad_beta),
        ]
    if workload == "packet":
        runs = [
            Run(f"transfer_{ratio:g}",
                _config("transfer", {**_PAIR, "gamma1": ratio, "gamma2": 1.0},
                        {"dt": 1e-3 / max(ratio, 1.0), "seed": seed}),
                check_transfer)
            for ratio in TRANSFER_RATIOS
        ]
        span = {"dt": 0.001, "t_span": [0.0, 40.0], "seed": seed}
        runs += [
            Run("transform", _config("transform", _PHASES_MODEL, span, _PHASES_TRANSFORM),
                check_transform),
            Run("timemap",
                _config("timemap", {"gamma1": 1.0, "gamma2": 0.5, "rotating_frame": True},
                        {"dt": 0.05, "t_span": [0.0, 18.0], "seed": seed}, _TIMEMAP_TRANSFORM),
                check_timemap),
            Run("phases",
                _config("phases", _PHASES_MODEL, {**span, "snapshot_times": _PHASES_FRAMES},
                        _PHASES_TRANSFORM),
                check_phases),
        ]
        return runs
    raise ValueError(f"unknown workload {workload!r}, expected one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------- output checks


def read_csv(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """(comments as key -> value for 'key = value' lines, header, rows) of a qcascade CSV."""
    comments: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, sep, value = line[2:].partition(" = ")
                if sep:
                    comments[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"{path.name}: no header line")
    return comments, header, rows


def column(header: list[str], rows: list[list[str]], name: str) -> list[float | None]:
    """Column `name` as floats; an empty field (undefined value) reads as None."""
    k = header.index(name)
    return [float(r[k]) if r[k] else None for r in rows]


def _leading_float(text: str) -> float:
    return float(text.split()[0])


def check_svg(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    text = path.read_text(encoding="utf-8")
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>") and "<polyline" in text):
        return [f"{path.name}: not a complete SVG line plot"]
    return []


def check_trajectories(out: Path, cfg: dict) -> list[str]:
    comments, header, rows = read_csv(out / "trajectories.csv")
    problems = check_svg(out / "trajectories.svg")
    if not (out / "trajectories_jumps.csv").is_file():
        problems.append("trajectories_jumps.csv: missing")
    max_dev = float(comments["max_abs_dev"])
    if not max_dev < 0.05:
        problems.append(f"max_abs_dev = {max_dev!r} is not below 0.05")
    # at beta = 0 a trajectory jumps at most once, so the jumped share is 1 - P1 - P2
    mean_jumps = float(comments["mean_jumps"])
    p1, p2 = column(header, rows[-1:], "P1")[0], column(header, rows[-1:], "P2")[0]
    if not abs(mean_jumps - (1.0 - p1 - p2)) <= 1e-9:
        problems.append(f"mean_jumps = {mean_jumps!r} differs from 1 - P1 - P2 = {1.0 - p1 - p2!r}")
    return problems


def check_lindblad_peak(out: Path, cfg: dict) -> list[str]:
    _, header, rows = read_csv(out / "lindblad.csv")
    problems = check_svg(out / "lindblad.svg")
    t = column(header, rows, "t")
    p2 = column(header, rows, "P2")
    k = max(range(len(p2)), key=p2.__getitem__)
    dt = cfg["numerics"]["dt"]
    if not (abs(p2[k] - 4.0 * math.exp(-2.0)) < 1e-4 and abs(t[k] - 2.0) <= dt + 1e-12):
        problems.append(f"P2 peak {p2[k]!r} at t = {t[k]!r}, expected 4/e^2 at t = 2")
    tr = cfg["transform"]
    t_s = tr["T"] / (1.0 + tr["alpha"])
    t_i = t_s - tr["Delta"]
    tilde = column(header, rows, "tilde_t")
    wrong = [ti for ti, v in zip(t, tilde) if (v is None) != (t_i < ti < t_s)]
    if wrong:
        problems.append(f"tilde_t empty off (t_i, t_s) or set inside it at {len(wrong)} times")
    return problems


def check_lindblad_beta(out: Path, cfg: dict) -> list[str]:
    _, header, rows = read_csv(out / "lindblad.csv")
    problems = check_svg(out / "lindblad.svg")
    trace_dev = max(column(header, rows, "trace_dev"))
    min_eig = min(column(header, rows, "min_eig"))
    if not (trace_dev < 1e-9 and min_eig >= -1e-8):
        problems.append(f"trace_dev {trace_dev!r} or min_eig {min_eig!r} out of tolerance")
    return problems


def check_transfer(out: Path, cfg: dict) -> list[str]:
    comments, _, _ = read_csv(out / "transfer.csv")
    problems = check_svg(out / "transfer.svg")
    on = _leading_float(comments["p2_max_on"])
    off = _leading_float(comments["p2_max_off"])
    if not (on >= 0.99 * (1.0 - math.exp(-8.0)) and on > off):
        problems.append(f"p2_max_on = {on!r} against p2_max_off = {off!r}")
    return problems


def check_transform(out: Path, cfg: dict) -> list[str]:
    comments, _, _ = read_csv(out / "transform.csv")
    problems = check_svg(out / "transform.svg")
    n_in = float(comments["norm_in_window"])
    n_out = float(comments["norm_out"])
    if not abs(n_out - n_in) / n_in < 1e-9:
        problems.append(f"norm_out = {n_out!r} differs from norm_in_window = {n_in!r}")
    return problems


def check_phases(out: Path, cfg: dict) -> list[str]:
    comments, _, rows = read_csv(out / "phases.csv")
    problems = check_svg(out / "phases.svg")
    schedule = tuple(float(comments[f"schedule.{k}"]) for k in ("t_i", "t_s", "t_f", "t_a"))
    if schedule != _PHASES_SCHEDULE:
        problems.append(f"schedule {schedule} is not {_PHASES_SCHEDULE}")
    expected_rows = len(cfg["numerics"]["snapshot_times"]) * 961
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} field rows, expected {expected_rows}")
    return problems


def check_timemap(out: Path, cfg: dict) -> list[str]:
    comments, _, _ = read_csv(out / "timemap.csv")
    problems = check_svg(out / "timemap.svg")
    tr = cfg["transform"]
    gaps = (float(comments["horizontal_gap"]), float(comments["vertical_gap"]))
    if gaps != (tr["Delta"], tr["alpha"] * tr["Delta"]):
        problems.append(f"gaps {gaps} are not (Delta, alpha*Delta)")
    return problems


def check_run(run: Run, out: Path) -> list[str]:
    """Problems with what `run` wrote under `out`; a parse failure is a problem too."""
    try:
        return run.check(out, run.config)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{run.name}: unreadable output ({type(exc).__name__}: {exc})"]

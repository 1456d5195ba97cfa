import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcascade import cli
from qcascade.cascade import IntegrationAbort


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "experiment": "decay",
        "model": {"gamma1": 1.0, "gamma2": 1.0, "beta": 0.0, "rotating_frame": True},
        "numerics": {"dt": 0.001, "t_span": [0.0, 10.0]},
        "output": {"directory": str(tmp_path / "out"), "emit_svg": False},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
            for sub in [k for k, v in cfg[key].items() if v is None]:
                del cfg[key][sub]
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def column(header, rows, name, convert=float):
    k = header.index(name)
    return [convert(r[k]) if r[k] != "" else None for r in rows]


FIG2_TRANSFORM = {"alpha": 2.0, "omega0": 0.0, "T": 54.0, "Delta": 6.0, "X": 12.0, "c": 1.0}


def test_validate_dt_bound(tmp_path):
    path = write_config(tmp_path, numerics={"dt": 0.5, "t_span": [0.0, 10.0]})
    cfg = cli.load_config(path)
    diags = cli.validate(cfg)
    assert any("dt" in d and "0.1" in d for d in diags)


def test_validate_alpha_positive(tmp_path):
    path = write_config(
        tmp_path,
        experiment="transform",
        transform=dict(FIG2_TRANSFORM, alpha=-2.0),
        numerics={"dt": 0.001, "t_span": [0.0, 40.0]},
    )
    diags = cli.validate(cli.load_config(path))
    assert any("alpha" in d for d in diags)


def test_validate_fig2_clean(tmp_path):
    path = write_config(
        tmp_path,
        experiment="phases",
        transform=dict(FIG2_TRANSFORM),
        numerics={"dt": 0.001, "t_span": [0.0, 40.0]},
    )
    assert cli.validate(cli.load_config(path)) == []


def test_validate_unknown_experiment_and_band(tmp_path):
    path = write_config(tmp_path, experiment="warp")
    diags = cli.validate(cli.load_config(path))
    assert any("experiment" in d for d in diags)
    # transform experiment whose envelope window misses the preimage
    path2 = write_config(
        tmp_path,
        name="band.json",
        experiment="transform",
        transform=dict(FIG2_TRANSFORM),
        numerics={"dt": 0.001, "t_span": [0.0, 4.0]},
    )
    diags2 = cli.validate(cli.load_config(path2))
    assert any("band coverage" in d for d in diags2)


def test_validate_device_position(tmp_path):
    path = write_config(
        tmp_path,
        experiment="timemap",
        model={"gamma1": 1.0, "gamma2": 1.0, "tau": 5.0},
        transform=dict(FIG2_TRANSFORM),
    )
    diags = cli.validate(cli.load_config(path))
    assert any("X" in d and "c*tau" in d for d in diags)


def test_decay_run_matches_analytics(tmp_path):
    path = write_config(tmp_path)
    assert cli.main(["--config", str(path)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "decay.csv")
    assert any(c.startswith("config ") for c in comments)
    t = column(header, rows, "t")
    p1 = column(header, rows, "P1")
    k = t.index(1.0)
    assert abs(p1[k] - math.exp(-1.0)) < 1e-6
    decay_re = column(header, rows, "decay_re")
    assert abs(decay_re[k] - math.exp(-0.5)) < 1e-6


_FIG2_RUN = {"transform": dict(FIG2_TRANSFORM), "numerics": {"dt": 0.01, "t_span": [0.0, 40.0]}}
DETERMINISM_CONFIGS = {
    "decay": {"numerics": {"dt": 0.01, "t_span": [0.0, 2.0]}},
    # the FIG2 buffering window leaves tilde_t empty for 12 < t < 18
    "lindblad": _FIG2_RUN,
    "phases": dict(_FIG2_RUN, numerics={"dt": 0.01, "t_span": [0.0, 40.0], "nx": 97}),
    "transform": _FIG2_RUN,
    "timemap": _FIG2_RUN,
    "transfer": {"model": {"gamma1": 2.0, "gamma2": 1.0}, "numerics": {"dt": 0.01, "t_span": None}},
    "trajectories": {"numerics": {"dt": 0.01, "t_span": [0.0, 3.0], "n_traj": 200}},
}


@pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
def test_csv_byte_determinism(tmp_path, capsys, experiment):
    # every experiment re-run on the same config writes exactly the same
    # files, byte for byte, and main prints exactly their paths
    path = write_config(tmp_path, experiment=experiment, **DETERMINISM_CONFIGS[experiment])
    out = tmp_path / "out"
    stems = [experiment, "trajectories_jumps"] if experiment == "trajectories" else [experiment]
    printed = [str(out / f"{stem}.csv") for stem in stems] + [str(out / f"{experiment}.svg")]
    assert cli.main(["--config", str(path), "--svg"]) == 0
    assert capsys.readouterr().out.splitlines() == printed
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first.keys() == {Path(p).name for p in printed}
    assert cli.main(["--config", str(path), "--svg"]) == 0
    assert capsys.readouterr().out.splitlines() == printed
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def _reference_write_csv(path, comments, header, rows):
    """The row-at-a-time writer the column writer replaced, kept as the byte reference."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(cli._cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("n", [0, 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1])
def test_write_csv_matches_row_writer(tmp_path, n):
    specials = [math.nan, -0.0, 5e-324, 1e300, -1.0 / 3.0, math.inf, 0.0, 2.5e-310]
    floats = np.resize(np.array(specials), n)
    pairs = np.column_stack((floats[::-1], floats))
    columns = [
        floats,
        np.arange(n, dtype=np.int64) * 7,  # histogram counts
        [("in", "out", "")[k % 3] for k in range(n)],
        [None if k % 4 == 0 else (k if k % 4 == 1 else 0.5 * k) for k in range(n)],
        pairs[:, 0],  # strided float64 view
        tuple(np.float64(v) for v in floats[::-1]),  # what zip(*rows) hands over
        np.arange(n) % 2 == 0,
    ]
    header = ["f", "count", "tag", "maybe", "strided", "f_rev", "flag"]
    cli._write_csv(tmp_path / "new.csv", ["config {}", "units"], header, columns)
    _reference_write_csv(tmp_path / "ref.csv", ["config {}", "units"], header, zip(*columns))
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\n") == 3 + n


@pytest.mark.parametrize("experiment", ["phases", "transform"])
def test_abs_column_is_abs_of_re_im(tmp_path, experiment):
    # re and im are written exactly (repr), so abs must equal Python's abs() of them bit for bit
    path = write_config(
        tmp_path,
        experiment=experiment,
        model={"gamma1": 1.0, "gamma2": 0.5, "omega1": 3.0, "rotating_frame": False},
        **dict(DETERMINISM_CONFIGS["phases"], transform=dict(FIG2_TRANSFORM, omega0=1.5)),
    )
    assert cli.main(["--config", str(path)]) == 0
    _, header, rows = read_csv(tmp_path / "out" / f"{experiment}.csv")
    re, im, mag = (column(header, rows, name) for name in ("re", "im", "abs"))
    assert sum(v != 0.0 for v in im) > len(rows) // 4
    assert mag == [abs(complex(a, b)) for a, b in zip(re, im)]


@pytest.mark.parametrize(
    "experiment, key, value",
    [("phases", "nx", 0), ("phases", "nx", -5),
     ("trajectories", "record_stride", 0), ("trajectories", "record_stride", -1)],
)
def test_exit_2_on_bad_grid_sizes(tmp_path, capsys, experiment, key, value):
    numerics = {"dt": 0.01, "t_span": [0.0, 40.0], "n_traj": 10, key: value}
    path = write_config(tmp_path, experiment=experiment, transform=dict(FIG2_TRANSFORM),
                        numerics=numerics)
    assert cli.main(["--config", str(path)]) == 2
    assert f"numerics.{key}: must be at least" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_2_on_empty_snapshot_times(tmp_path, capsys):
    numerics = {"dt": 0.01, "t_span": [0.0, 40.0], "snapshot_times": []}
    path = write_config(tmp_path, experiment="phases", transform=dict(FIG2_TRANSFORM),
                        numerics=numerics)
    assert cli.main(["--config", str(path), "--svg"]) == 2
    assert "numerics.snapshot_times: must list at least one time" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_exit_2_on_output_directory_at_a_file(tmp_path, capsys, sub):
    # the directory is an existing file, or would lie under one
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    path = write_config(tmp_path, output={"directory": str(blocker / sub)})
    assert cli.main(["--config", str(path)]) == 2
    assert "output.directory" in capsys.readouterr().err
    assert cli.main(["--config", str(path), "--validate-only"]) == 2
    assert "output.directory" in capsys.readouterr().out
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("experiment", ["transform", "phases"])
def test_exit_2_when_production_window_can_hold_one_sample(tmp_path, capsys, experiment):
    # slow rates keep dt*gamma small; the window's preimage is Delta = 6 long
    setup = {"experiment": experiment, "model": {"gamma1": 0.001, "gamma2": 0.001},
             "transform": dict(FIG2_TRANSFORM)}
    path = write_config(tmp_path, numerics={"dt": 20.0, "t_span": [0.0, 40.0]}, **setup)
    assert cli.main(["--config", str(path)]) == 2
    assert "numerics.dt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    edge = write_config(tmp_path, name="edge.json", numerics={"dt": 3.0, "t_span": [0.0, 40.0]}, **setup)
    assert cli.main(["--config", str(edge)]) == 0


@pytest.mark.parametrize("experiment", ["decay", "lindblad", "trajectories"])
def test_exit_2_on_zero_step_span(tmp_path, capsys, experiment):
    # 0.4 steps round to none; 0.6 round to one
    short = write_config(tmp_path, experiment=experiment,
                         numerics={"dt": 0.01, "t_span": [0.0, 0.004], "n_traj": 10})
    assert cli.main(["--config", str(short)]) == 2
    assert "numerics.t_span" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    one = write_config(tmp_path, name="one.json", experiment=experiment,
                       numerics={"dt": 0.01, "t_span": [0.0, 0.006], "n_traj": 10})
    assert cli.main(["--config", str(one)]) == 0
    _, _, rows = read_csv(tmp_path / "out" / f"{experiment}.csv")
    assert len(rows) == 2


@pytest.mark.parametrize("beta", [1e300, [0.0, -1e300], [1.7e308, 1.7e308]])
@pytest.mark.parametrize("experiment", ["decay", "trajectories"])
def test_exit_2_on_overflowing_beta(tmp_path, capsys, experiment, beta):
    path = write_config(tmp_path, experiment=experiment,
                        model={"beta": beta}, numerics={"dt": 0.01, "t_span": [0.0, 1.0]})
    assert cli.main(["--config", str(path)]) == 2
    assert "model.beta" in capsys.readouterr().err
    assert cli.main(["--config", str(path), "--validate-only"]) == 2
    assert "model.beta" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_lindblad_run_quality_columns(tmp_path):
    path = write_config(
        tmp_path,
        experiment="lindblad",
        model={"gamma1": 1.0, "gamma2": 1.0, "beta": 0.5},
        numerics={"dt": 0.001, "t_span": [0.0, 5.0], "initial_state": "eg"},
    )
    assert cli.main(["--config", str(path)]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "lindblad.csv")
    trace_dev = column(header, rows, "trace_dev")
    min_eig = column(header, rows, "min_eig")
    assert max(trace_dev) < 1e-9
    assert min(min_eig) >= -1e-8


def test_lindblad_transform_tags_tilde_clock(tmp_path):
    path = write_config(
        tmp_path,
        experiment="lindblad",
        transform=dict(FIG2_TRANSFORM),
        numerics={"dt": 0.01, "t_span": [10.0, 32.0], "initial_state": "gg"},
    )
    assert cli.main(["--config", str(path)]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "lindblad.csv")
    t = column(header, rows, "t")
    tilde = column(header, rows, "tilde_t")
    by_t = dict(zip(t, tilde))
    assert by_t[20.0] == pytest.approx((54.0 - 20.0) / 2.0)
    assert by_t[14.0] is None  # buffering window encoded as an empty field
    assert by_t[31.0] == pytest.approx(31.0)


def test_trajectories_run_and_seed_override(tmp_path):
    path = write_config(
        tmp_path,
        experiment="trajectories",
        numerics={"dt": 0.01, "t_span": [0.0, 4.0], "n_traj": 200, "seed": 5},
    )
    assert cli.main(["--config", str(path)]) == 0
    base = (tmp_path / "out" / "trajectories.csv").read_bytes()
    assert (tmp_path / "out" / "trajectories_jumps.csv").exists()
    cli.main(["--config", str(path)])
    assert (tmp_path / "out" / "trajectories.csv").read_bytes() == base
    cli.main(["--config", str(path), "--seed", "6"])
    assert (tmp_path / "out" / "trajectories.csv").read_bytes() != base
    _, header, rows = read_csv(tmp_path / "out" / "trajectories_jumps.csv")
    counts = column(header, rows, "count", convert=int)
    assert sum(counts) > 0


def test_trajectories_dev_column(tmp_path):
    path = write_config(
        tmp_path,
        experiment="trajectories",
        numerics={"dt": 0.01, "t_span": [0.0, 6.0], "n_traj": 400, "seed": 11},
    )
    cli.main(["--config", str(path)])
    _, header, rows = read_csv(tmp_path / "out" / "trajectories.csv")
    dev = column(header, rows, "abs_dev")
    assert max(dev) < 5.0 / math.sqrt(400)


def test_phases_schedule_block(tmp_path):
    path = write_config(
        tmp_path,
        experiment="phases",
        transform=dict(FIG2_TRANSFORM),
        numerics={"dt": 0.001, "t_span": [0.0, 40.0], "nx": 201},
    )
    assert cli.main(["--config", str(path)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "phases.csv")
    sched = {c.split(" = ")[0]: float(c.split(" = ")[1]) for c in comments if c.startswith("schedule.")}
    assert sched["schedule.t_i"] == 12.0
    assert sched["schedule.t_s"] == 18.0
    assert sched["schedule.t_f"] == 30.0
    assert sched["schedule.t_a"] == 18.0
    tags = set(column(header, rows, "tag", convert=str))
    assert {"initial", "vacuum", "transformed"} <= tags


def test_timemap_slopes_and_undefined(tmp_path):
    # Fig-3 setup: T = 6 Delta, alpha = 2 (t_s = 2 Delta)
    delta = 3.0
    path = write_config(
        tmp_path,
        experiment="timemap",
        transform={"alpha": 2.0, "omega0": 0.0, "T": 6.0 * delta, "Delta": delta, "X": 2.0},
        numerics={"dt": 0.05, "t_span": [0.0, 15.0]},
    )
    assert cli.main(["--config", str(path)]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "timemap.csv")
    t = column(header, rows, "t")
    f = column(header, rows, "f")
    slope = column(header, rows, "f_slope")
    t_s, t_f = 6.0, 12.0
    for tv, fv, sv in zip(t, f, slope):
        if t_s + 0.1 < tv < t_f - 0.1:
            assert sv == -0.5
            assert fv == pytest.approx((6.0 * delta - tv) / 2.0)
        if 3.1 < tv < 5.9:
            assert fv is None and sv is None  # undefined encoded as empty fields


def test_transform_run_norms(tmp_path):
    path = write_config(
        tmp_path,
        experiment="transform",
        transform=dict(FIG2_TRANSFORM),
        numerics={"dt": 0.001, "t_span": [0.0, 40.0]},
    )
    assert cli.main(["--config", str(path)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "transform.csv")
    norms = {c.split(" = ")[0]: float(c.split(" = ")[1]) for c in comments if c.startswith("norm")}
    assert norms["norm_out"] == pytest.approx(norms["norm_in_window"], rel=1e-9)
    segments = set(column(header, rows, "segment", convert=str))
    assert segments == {"in", "out"}


def test_transfer_run_improvement(tmp_path):
    path = write_config(
        tmp_path,
        experiment="transfer",
        model={"gamma1": 2.0, "gamma2": 1.0},
        numerics={"dt": 0.001, "t_span": None},
    )
    assert cli.main(["--config", str(path)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "transfer.csv")
    vals = {}
    for c in comments:
        if c.startswith("p2_max_"):
            vals[c.split(" = ")[0]] = float(c.split(" = ")[1].split(" at ")[0])
    assert vals["p2_max_on"] > vals["p2_max_off"]
    assert vals["p2_max_on"] >= 0.99 * (1.0 - math.exp(-8.0))


def test_svg_emission(tmp_path):
    path = write_config(tmp_path, numerics={"dt": 0.01, "t_span": [0.0, 2.0]})
    assert cli.main(["--config", str(path), "--svg"]) == 0
    svg = (tmp_path / "out" / "decay.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg and "<polyline" in svg


def test_out_override_and_experiment_positional(tmp_path):
    path = write_config(
        tmp_path,
        experiment="decay",
        transform=dict(FIG2_TRANSFORM),
        numerics={"dt": 0.05, "t_span": [0.0, 30.0]},
    )
    other = tmp_path / "elsewhere"
    assert cli.main(["timemap", "--config", str(path), "--out", str(other)]) == 0
    assert (other / "timemap.csv").exists()


def test_exit_2_on_invalid_config(tmp_path, capsys):
    path = write_config(tmp_path, model={"gamma1": -1.0, "gamma2": 1.0})
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "gamma1" in err or "model" in err
    missing = tmp_path / "missing.json"
    assert cli.main(["--config", str(missing)]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert cli.main(["--config", str(bad_json)]) == 2


def test_exit_2_on_nonfinite_numbers(tmp_path, capsys):
    # json accepts NaN and Infinity; they must be reported as bad input
    nan_rate = write_config(tmp_path, model={"gamma1": math.nan})
    assert cli.main(["--config", str(nan_rate)]) == 2
    assert "model.gamma1" in capsys.readouterr().err
    inf_span = write_config(
        tmp_path, name="inf.json", experiment="lindblad", numerics={"t_span": [0.0, math.inf]}
    )
    assert "Infinity" in inf_span.read_text()
    assert cli.main(["--config", str(inf_span)]) == 2
    assert "numerics.t_span" in capsys.readouterr().err


def test_validate_only(tmp_path, capsys):
    good = write_config(tmp_path)
    assert cli.main(["--config", str(good), "--validate-only"]) == 0
    assert "config ok" in capsys.readouterr().out
    bad = write_config(tmp_path, name="bad.json", numerics={"dt": 0.5, "t_span": [0.0, 1.0]})
    assert cli.main(["--config", str(bad), "--validate-only"]) == 2
    assert "dt" in capsys.readouterr().out


def test_exit_3_on_integrator_abort(tmp_path, monkeypatch):
    path = write_config(tmp_path)

    def boom(*args, **kwargs):
        raise IntegrationAbort("trace deviation 1e+00 > 1e-06 at step 1; reduce the step size")

    monkeypatch.setattr(cli.cascade, "_rk4_density_history", boom)
    assert cli.main(["--config", str(path)]) == 3


def test_shipped_configs_validate_and_run(tmp_path):
    import pathlib

    configs = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.json"))
    assert configs, "shipped example configs are missing"
    for path in configs:
        cfg = cli.load_config(path)
        assert cli.validate(cfg) == [], f"{path.name} has diagnostics"
    # run the cheapest one end to end
    quick = next(p for p in configs if p.name.startswith("timemap"))
    assert cli.main(["--config", str(quick), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "timemap.csv").exists()


def test_beta_pair_parsing(tmp_path):
    path = write_config(
        tmp_path,
        experiment="lindblad",
        model={"gamma1": 1.0, "gamma2": 1.0, "beta": [0.3, -0.2]},
        numerics={"dt": 0.001, "t_span": [0.0, 1.0]},
    )
    cfg = cli.load_config(path)
    assert cli.validate(cfg) == []
    model = cli.build_model(cfg)
    assert model.beta == 0.3 - 0.2j


SHIPPED = Path(__file__).parent.parent / "configs"


def shipped_config(tmp_path, name, section=None, key=None, value=None):
    """A shipped config written under tmp_path, with section[key] set to value."""
    cfg = json.loads((SHIPPED / f"{name}.json").read_text())
    if section is not None:
        cfg.setdefault(section, {})[key] = value
    cfg["output"] = {"directory": str(tmp_path / "out"), "emit_svg": False}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "section, key",
    [(None, "experimnt"), ("model", "rotating_fram"), ("transform", "delta"),
     ("numerics", "n_trajs"), ("output", "svg")],
)
def test_exit_2_on_unknown_key(tmp_path, capsys, section, key):
    # a misspelt key used to pass and run on the default it meant to override
    cfg = json.loads((SHIPPED / "transfer_matched.json").read_text())
    (cfg if section is None else cfg[section])[key] = False
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    named = key if section is None else f"{section}.{key}"
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{named}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, section, key, value, field",
    [
        ("decay", "numerics", "dt", 1e-300, "numerics.dt"),
        ("timemap_backwards_clock", "numerics", "dt", 1e-300, "numerics.dt"),
        ("decay", "numerics", "t_span", [0.0, 1e300], "numerics.dt"),
        ("phases_four_stage", "numerics", "nx", 2**70, "numerics.nx"),
        ("trajectories_single_photon", "numerics", "n_traj", 2**70, "numerics.n_traj"),
        # transfer derives its span from t_f + 10/gamma2, and its emission grid reaches back by tau
        ("transfer_matched", "model", "gamma2", 1e-300, "numerics.dt"),
        ("transfer_matched", "model", "tau", 1e300, "numerics.dt"),
        ("transfer_matched", "transform", "Delta", 1e300, "numerics.dt"),
    ],
)
def test_exit_2_past_the_work_bound(tmp_path, capsys, name, section, key, value, field):
    if name == "decay":
        path = write_config(tmp_path, **{section: {key: value}})
    else:
        path = shipped_config(tmp_path, name, section, key, value)
    assert cli.main(["--config", str(path)]) == 2
    assert f"reach the work bound MAX_SAMPLES = {cli.MAX_SAMPLES}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_shipped_configs_sit_10x_below_the_work_bound():
    for path in sorted(SHIPPED.glob("*.json")):
        plan, diags = cli._resolve(cli.load_config(path))
        assert diags == []
        assert all(10 * n < cli.MAX_SAMPLES for n, _ in plan.work.values()), path.name


@pytest.mark.parametrize(
    "key, valid, invalid, field",
    [
        # the production window's preimage [t_i, t_s] must end after the packet
        # reaches the device at X/c = 4: t_s = T/3 > 4
        ("T", 12.03, 12.0, "transform.T"),
        # the drive samples the alpha*Delta-long window at dt/2 = 0.0005: two samples
        # need alpha*Delta = 2*Delta >= dt
        ("Delta", 0.0005, 0.00049, "numerics.dt"),
    ],
)
def test_transfer_production_window_edges(tmp_path, capsys, key, valid, invalid, field):
    bad = shipped_config(tmp_path, "transfer_matched", "transform", key, invalid)
    assert cli.main(["--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"{field}: ")
    assert not (tmp_path / "out").exists()
    good = shipped_config(tmp_path, "transfer_matched", "transform", key, valid)
    assert cli.main(["--config", str(good)]) == 0
    assert (tmp_path / "out" / "transfer.csv").exists()


@pytest.mark.parametrize("timing", [0.0, -1.0])
def test_exit_2_when_transfer_production_precedes_the_packet(tmp_path, capsys, timing):
    path = shipped_config(tmp_path, "transfer_matched", "transform", "T", timing)
    assert cli.main(["--config", str(path)]) == 2
    assert "transform.T: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x_max", [0.0, -1.0])
def test_exit_2_on_nonpositive_x_max(tmp_path, capsys, x_max):
    # phases used to swap a non-positive x_max for its default without a word
    path = shipped_config(tmp_path, "phases_four_stage", "numerics", "x_max", x_max)
    assert cli.main(["--config", str(path)]) == 2
    assert "numerics.x_max: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["transfer_matched", "phases_four_stage"])
@pytest.mark.parametrize("section, key", [("transform", "omega0"), ("model", "omega1")])
def test_exit_2_when_a_phase_overflows(tmp_path, capsys, name, section, key):
    # omega * t past the largest float used to end in 'envelope samples must be finite'
    path = shipped_config(tmp_path, name, section, key, 1.7976931348623157e308)
    cfg = json.loads(path.read_text())
    cfg["model"]["rotating_frame"] = False
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path)]) == 2
    assert f"{section}.{key}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("directory", ["x\0y", "d" * 300])
def test_exit_2_on_unusable_output_directory(tmp_path, capsys, directory):
    # a NUL byte or a name too long for the file system used to end in a traceback
    path = write_config(tmp_path, output={"directory": str(tmp_path / directory)})
    assert cli.main(["--config", str(path)]) == 2
    assert "output.directory: " in capsys.readouterr().err

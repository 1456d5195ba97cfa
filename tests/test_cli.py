import json
import math
import os
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qcascade import cli, trajectory
from qcascade.cascade import CascadeModel, IntegrationAbort

from oracles import composite_ket, density_from_ket, density_history, two_level_ket


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


def read_columns(path):
    """The CSV's non-comment rows as {header: float column}."""
    _, header, rows = read_csv(path)
    return {name: np.array(column(header, rows, name)) for name in header}


FIG2_TRANSFORM = {"alpha": 2.0, "omega0": 0.0, "T": 54.0, "Delta": 6.0, "X": 12.0, "c": 1.0}


def test_validate_dt_bound(tmp_path):
    path = write_config(tmp_path, numerics={"dt": 0.5, "t_span": [0.0, 10.0]})
    cfg = cli.load_config(path)
    diags = cli.validate(cfg)
    assert any("dt" in d and "0.1" in d for d in diags)


def test_validate_trajectory_dt_bound(tmp_path, capsys):
    # <J+J> in |ee> is gamma1 + gamma2 = 2, so dt 0.1 passes the general bound but would
    # trip the trajectory guard at t = 0
    shipped = Path(__file__).parent.parent / "configs" / "trajectories_single_photon.json"
    cfg = json.loads(shipped.read_text())
    cfg["numerics"].update(dt=0.1, initial_state="ee", n_traj=100)
    cfg["output"]["directory"] = str(tmp_path / "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--validate-only"]) == 2
    assert ("numerics.dt: trajectory jump probability per step dt*max(<J+J>/<psi|psi>) = 0.2 "
            "exceeds 0.1") in capsys.readouterr().out


@pytest.mark.parametrize("factor", [1.0 + 1e-4, 1.0 - 1e-4])
def test_one_jump_bound_for_cli_and_core(tmp_path, capsys, monkeypatch, factor):
    # lambda_max(J+J) = 2 at gamma1 = gamma2 = 1: just above dt = 0.05 the config is
    # refused naming numerics.dt, and the core raises before it applies any step;
    # just below, both run
    dt = 0.05 * factor
    path = write_config(tmp_path, experiment="trajectories",
                        numerics={"dt": dt, "t_span": [0.0, 1.0], "n_traj": 20})
    above = factor > 1.0
    assert cli.main(["--config", str(path), "--validate-only"]) == (2 if above else 0)
    out = capsys.readouterr().out
    assert out.startswith("numerics.dt: trajectory jump probability per step "
                          "dt*max(<J+J>/<psi|psi>) = 0.10001 exceeds 0.1" if above else "config ok")
    args = (composite_ket("eg"), CascadeModel(1.0, 1.0),
            trajectory.TrajectoryConfig(dt, 20, 1, (0.0, 1.0)), np.arange(20, dtype=np.uint64))
    if above:
        def no_step(*_):
            raise AssertionError("the core stepped")

        monkeypatch.setattr(trajectory, "_apply", no_step)
        with pytest.raises(IntegrationAbort, match="jump probability per step"):
            trajectory._mc_core(*args)
    else:
        assert trajectory._mc_core(*args)[0].shape == (21, 4)
        assert cli.main(["--config", str(path)]) == 0


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


@pytest.mark.parametrize("name", cli.INITIAL_STATES)
def test_initial_states_equal_their_kronecker_construction(name):
    # the literal kets, and their densities, bit for bit against kets built from labels
    if name == "plus_g":
        want = np.kron((two_level_ket("e") + two_level_ket("g")) / math.sqrt(2.0),
                       two_level_ket("g"))
    else:
        want = composite_ket(name)
    got = cli._initial_ket(name)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert cli._density(got).tobytes() == density_from_ket(want).tobytes()


def test_decay_columns_match_einsum_readout(tmp_path):
    # every decay column against the per-observable einsums of the histories
    # of its two master-equation runs; beta = 0.3 couples the sectors
    path = write_config(tmp_path, model={"beta": 0.3, "gamma2": 0.5})
    assert cli.main(["--config", str(path)]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "decay.csv")
    model = cli.CascadeModel(gamma1=1.0, gamma2=0.5, beta=0.3)
    eg, plus = (density_history(density_from_ket(cli._initial_ket(s)), model,
                                (0.0, 10.0), 0.001) for s in ("eg", "plus_g"))
    s1 = np.einsum("nij,ji->n", eg, cli.cascade.SIGMA1_MINUS)
    s2 = np.einsum("nij,ji->n", eg, cli.cascade.SIGMA2_MINUS)
    coh = np.einsum("nij,ji->n", plus, cli.cascade.SIGMA1_MINUS)
    ratio = coh / coh[0]
    want = {
        "P1": np.einsum("nij,ji->n", eg, cli.cascade.NUMBER1).real,
        "P2": np.einsum("nij,ji->n", eg, cli.cascade.NUMBER2).real,
        "re_sigma1": s1.real, "im_sigma1": s1.imag, "re_sigma2": s2.real, "im_sigma2": s2.imag,
        "decay_re": ratio.real, "decay_im": ratio.imag,
    }
    for name, values in want.items():
        assert column(header, rows, name, str) == [repr(float(v)) for v in values], name


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


def _cell(v) -> str:
    """The CSV text of one value, built one value at a time."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return repr(f)


def _reference_write_csv(path, comments, header, rows):
    """The row-at-a-time writer the column writer replaced, kept as the byte reference."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_columns(n):
    """(table, values): the writer's table {header: column}, and each column's values for _cell."""
    specials = [math.nan, -0.0, 5e-324, 1e300, -1.0 / 3.0, math.inf, 0.0, 2.5e-310]
    floats = np.resize(np.array(specials), n)
    pairs = np.column_stack((floats[::-1], floats))
    counts = (np.arange(n, dtype=np.int64) * 7) % 1001 - 500  # integers, some negative
    labels = ("in", "", "transformed")
    # the run of "" on rows 4000-4199 crosses the first 4096-row block's end
    codes = np.searchsorted([4000, 4200], np.arange(n), side="right")
    codes = np.where(np.arange(n) % 7 == 3, 2, codes)
    values = [floats, counts, [labels[k] for k in codes.tolist()], pairs[:, 0]]
    table = {
        "f": floats,
        "count": cli._integer_column(counts),
        "tag": cli.Categorical(codes, labels),
        "strided": pairs[:, 0],  # strided float64 view
    }
    return table, values


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


B = cli._CSV_BLOCK


@pytest.mark.parametrize("n", [0, 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 5 * B + 7])
def test_write_csv_matches_row_writer(tmp_path, monkeypatch, n):
    table, values = _csv_columns(n)
    _reference_write_csv(tmp_path / "ref.csv", ["config {}", "units"], table, zip(*values))
    ref = (tmp_path / "ref.csv").read_bytes()
    assert ref.count(b"\n") == 3 + n
    forks = []
    real_fork_part = cli._fork_part
    monkeypatch.setattr(cli, "_fork_part", lambda *a: forks.append(a) or real_fork_part(*a))
    for cpus in (1, 2, 3):  # the split into row parts must not change a byte
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        forks.clear()
        cli._write_csv(tmp_path / "new.csv", ["config {}", "units"], table)
        assert (tmp_path / "new.csv").read_bytes() == ref, cpus
        assert len(forks) == max(min(cpus, n // B) - 1, 0)
        _assert_no_child_left()


def _fail_fork():
    raise OSError("fork refused")


@pytest.mark.parametrize("failure", ["fork", "child"])
def test_write_csv_failed_part_is_formatted_in_process(tmp_path, monkeypatch, failure):
    table, values = _csv_columns(3 * B)
    _reference_write_csv(tmp_path / "ref.csv", ["c"], table, zip(*values))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    if failure == "fork":
        monkeypatch.setattr(cli.os, "fork", _fail_fork)
    else:  # the child raises, so it exits 1 and the parent formats its part
        parent, real = os.getpid(), cli._format_rows

        def format_rows(*args):
            if os.getpid() != parent:
                raise RuntimeError("child failure")
            real(*args)

        monkeypatch.setattr(cli, "_format_rows", format_rows)
    out = tmp_path / "out"
    out.mkdir()
    cli._write_csv(out / "t.csv", ["c"], table)
    assert (out / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    _assert_no_child_left()
    assert [p.name for p in out.iterdir()] == ["t.csv"]


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


@pytest.mark.parametrize("validate_only", [True, False])
def test_record_stride_must_fit_int64(tmp_path, capsys, validate_only):
    flag = ["--validate-only"] if validate_only else []
    numerics = {"dt": 0.01, "t_span": [0.0, 4.0], "n_traj": 10, "record_stride": 2**63}
    path = write_config(tmp_path, experiment="trajectories", numerics=numerics)
    assert cli.main(["--config", str(path), *flag]) == 2
    out = capsys.readouterr()
    assert "numerics.record_stride: must fit in a signed 64-bit integer" in out.out + out.err
    assert not (tmp_path / "out").exists()
    # a stride past the step count records the initial state only
    path = write_config(tmp_path, experiment="trajectories",
                        numerics=dict(numerics, record_stride=2**63 - 1))
    assert cli.main(["--config", str(path), *flag]) == 0
    if not validate_only:
        _, _, rows = read_csv(tmp_path / "out" / "trajectories.csv")
        assert [r[0] for r in rows] == ["0.0"]


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


def test_transformed_lindblad_p2_is_transfer_p2_off(tmp_path):
    # under a transform lindblad's P columns are the transform-off master equation,
    # and say so: on transfer_matched's model, spec and grid, from eg, its P2 is
    # the transfer's P2_off
    shipped = Path(__file__).parent.parent / "configs" / "transfer_matched.json"
    cfg = cli.load_config(shipped)
    plan, diags = cli._resolve(cfg)
    assert not diags
    assert cli.main(["--config", str(shipped), "--out", str(tmp_path / "transfer")]) == 0
    path = write_config(
        tmp_path,
        experiment="lindblad",
        model=cfg.model,
        transform={f.name: getattr(plan.spec, f.name) for f in fields(plan.spec)},
        numerics={"dt": plan.numerics.dt, "t_span": list(plan.numerics.t_span),
                  "initial_state": "eg"},
    )
    assert cli.main(["--config", str(path)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "lindblad.csv")
    assert any("transform-off master equation" in c for c in comments)
    _, t_header, t_rows = read_csv(tmp_path / "transfer" / "transfer.csv")
    assert column(header, rows, "t") == column(t_header, t_rows, "t")
    p2 = np.array(column(header, rows, "P2"))
    p2_off = np.array(column(t_header, t_rows, "P2_off"))
    assert np.max(np.abs(p2 - p2_off)) < 1e-12


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


def test_timemap_takes_a_given_dt_as_it_derives_one(tmp_path):
    # timemap integrates nothing, so the integrators' rate bound does not hold it:
    # dt = 0.5 is what it derives from t_span [0, 300], five times that bound
    tables = []
    for name, dt in (("derived", None), ("given", 0.5)):
        path = write_config(tmp_path, name=f"{name}.json", experiment="timemap",
                            transform=dict(FIG2_TRANSFORM),
                            numerics={"dt": dt, "t_span": [0.0, 300.0]},
                            output={"directory": str(tmp_path / name)})
        assert cli.main(["--config", str(path), "--validate-only"]) == 0
        assert cli.main(["--config", str(path)]) == 0
        lines = (tmp_path / name / "timemap.csv").read_text().splitlines()
        assert lines[0].startswith("# config ")
        tables.append(lines[1:])
    assert tables[0] == tables[1] and len(tables[0]) > 600


def test_transfer_preimage_before_the_device_input(tmp_path):
    # the production window's preimage [t_i, t_s] = [-6.75, 1.25] reaches back past
    # the device input, which starts at t0 = 0: the on drive reads the packet's closed
    # form there, zero before the emission starts, and warns of nothing (an error here)
    path = write_config(tmp_path, experiment="transfer",
                        transform={"Delta": 8.0, "X": 1.0, "T": 2.5},
                        numerics={"dt": 0.01, "t_span": None})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", str(path)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "transfer.csv")
    assert header == ["t", "P2_off", "P2_on"] and len(rows) == 1926


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
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert cli.main(["--config", str(not_utf8), "--validate-only"]) == 2
    assert "config: not valid UTF-8" in capsys.readouterr().err


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

    monkeypatch.setattr(cli.cascade, "_readout", boom)
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
    model = cli._resolve(cfg)[0].model
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
        # transfer derives its span from t_f + tau + 10/gamma2
        ("transfer_matched", "model", "gamma2", 1e-300, "numerics.dt"),
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


def transfer_csv(path):
    """The transfer table written for the config at path, run with every warning
    an error: its p2_max comments and its columns, each checked finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", str(path), "--validate-only"]) == 0
        assert cli.main(["--config", str(path)]) == 0
    out = Path(json.loads(path.read_text())["output"]["directory"])
    comments = read_csv(out / "transfer.csv")[0]
    summary = {c.split(" = ")[0]: float(c.split(" = ")[1].split(" ")[0])
               for c in comments if c.startswith("p2_max")}
    columns = read_columns(out / "transfer.csv")
    assert all(np.all(np.isfinite(v)) for v in [*summary.values(), *columns.values()])
    return summary, columns


def test_transfer_production_window_inside_one_step(tmp_path):
    # alpha*Delta = 0.00098 < dt = 0.001: the production window lies inside one
    # step, whose input is the drive's exact integral, so the run agrees with
    # one on a grid 4x finer at every shared point
    runs = []
    for dt in (1e-3, 2.5e-4):
        path = shipped_config(tmp_path, "transfer_matched", "transform", "Delta", 0.00049)
        cfg = json.loads(path.read_text())
        cfg["numerics"]["dt"] = dt
        path.write_text(json.dumps(cfg))
        runs.append(transfer_csv(path)[1])
    coarse, fine = runs
    for name in ("P2_off", "P2_on"):
        assert np.max(np.abs(coarse[name] - fine[name][::4])) < 1e-12


@pytest.mark.parametrize("timing", [0.0, -1.0])
def test_exit_2_when_transfer_production_precedes_the_packet(tmp_path, capsys, timing):
    path = shipped_config(tmp_path, "transfer_matched", "transform", "T", timing)
    assert cli.main(["--config", str(path)]) == 2
    assert "transform.T: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_2_on_unstable_transfer_drive(tmp_path, capsys):
    # |lam*dt| = 5 at omega2 = 5000 lay outside RK4's stability region, so the
    # resolver rejected these lab-frame configs (exit 2) while the transfer took
    # RK4 steps.  Each step now multiplies by e^(lam dt) and adds the drive's
    # exact integral, so 5000 runs, with finite outputs and no warning: the
    # device moves the packet from omega1 = 0 to omega2 and P2_on peaks as in
    # the rotating frame.  At 1e300 the phases omega*t pass 2^52 and keep no
    # digits, so the resolver rejects omega2 and writes nothing
    for omega2 in (1e300, 5000.0):
        path = shipped_config(tmp_path, "transfer_matched", "model", "omega2", omega2)
        cfg = json.loads(path.read_text())
        cfg["model"]["rotating_frame"] = False
        path.write_text(json.dumps(cfg))
        if omega2 == 5000.0:
            summary, _ = transfer_csv(path)
            assert abs(summary["p2_max_on"] - (1.0 - math.exp(-8.0)) ** 2) < 1e-9
        else:
            assert cli.main(["--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith("model.omega2: ")
            assert not (tmp_path / "out").exists()


def test_exit_2_when_the_transfer_drive_overflows_in_its_stages(tmp_path):
    # h*lam = -0.005 - 1j with lam = -(5e305 + 1e308 i): RK4's stages multiplied
    # lam by O(1) factors before h scaled them and overflowed, so the resolver
    # rejected the config (exit 2).  The exact step takes e^(h lam) and the
    # drive's integral over each step, both finite, so the run completes and
    # P2_on peaks at the rate-matched (1 - e^-8)^2, as at dt = 1e-3 with rates 1
    cfg = json.loads((SHIPPED / "transfer_matched.json").read_text())
    cfg["model"].update(gamma1=1e306, gamma2=1e306, omega2=1e308, rotating_frame=False)
    cfg["transform"] = {key: "auto" for key in ("alpha", "omega0", "T")}
    cfg["numerics"]["dt"] = 1e-308
    cfg["output"] = {"directory": str(tmp_path / "out"), "emit_svg": True}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    summary, _ = transfer_csv(path)
    assert abs(summary["p2_max_on"] - (1.0 - math.exp(-8.0)) ** 2) < 1e-9
    assert (tmp_path / "out" / "transfer.svg").exists()


def test_main_resolves_a_config_once(tmp_path, monkeypatch):
    calls = []

    def counted(cfg):
        calls.append(cfg.experiment)
        return resolve(cfg)

    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", counted)
    good = shipped_config(tmp_path, "timemap_backwards_clock")
    (tmp_path / "bad").mkdir()
    bad = shipped_config(tmp_path / "bad", "timemap_backwards_clock", "numerics", "dt", -1.0)
    for path, status in ((good, 0), (bad, 2)):
        for argv in (["--validate-only"], []):
            calls.clear()
            assert cli.main(["--config", str(path), *argv]) == status
            assert len(calls) == 1, (path, argv)


def test_trajectory_work_bound_names_n_traj(tmp_path, capsys):
    # 2**20 trajectories of 2000 steps: each factor is below MAX_SAMPLES, their
    # product is 2x the bound on trajectory-steps
    path = shipped_config(tmp_path, "trajectories_single_photon", "numerics", "n_traj", 2**20)
    cfg = json.loads(path.read_text())
    cfg["numerics"].update(dt=0.01, t_span=[0.0, 20.0])
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--validate-only"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"numerics.n_traj: 1048576 trajectories of 2000 steps reach the work "
                     f"bound MAX_TRAJECTORY_STEPS = {cli.MAX_TRAJECTORY_STEPS}"]
    # just below the bound the config is valid
    cfg["numerics"]["n_traj"] = cli.MAX_TRAJECTORY_STEPS // 2000
    path.write_text(json.dumps(cfg))
    assert cli.validate(cli.load_config(path)) == []
    for shipped in sorted(SHIPPED.glob("trajectories*.json")):
        plan, _ = cli._resolve(cli.load_config(shipped))
        steps = plan.work["numerics.dt"][0] - 1
        assert 100 * plan.numerics.n_traj * steps < cli.MAX_TRAJECTORY_STEPS


@pytest.mark.parametrize("validate_only", [False, True])
def test_lab_frame_trajectories_match_the_rotating_frame(tmp_path, capsys, validate_only):
    # at omega = 200 and dt = 0.05 each carrier turns 10 radians a step, past
    # RK4's stability bound.  The exact steps differ from the rotating
    # frame's only by a phase on each excitation sector, which no column
    # reads: the same jumps, and the same columns to rounding.  Under
    # --validate-only the lab-frame config is accepted and writes nothing
    runs = {}
    for frame in ("rotating", "lab"):
        out = tmp_path / frame
        out.mkdir()
        path = shipped_config(out, "trajectories_single_photon", "numerics", "dt", 0.05)
        cfg = json.loads(path.read_text())
        if frame == "lab":
            cfg["model"].update(rotating_frame=False, omega1=200.0, omega2=200.0)
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if validate_only:
                capsys.readouterr()
                assert cli.main(["--config", str(path), "--validate-only"]) == 0
                assert capsys.readouterr() == ("config ok\n", "")
                assert not (out / "out").exists()
            assert cli.main(["--config", str(path)]) == 0
        # the jump histogram's header and rows, without the comments that name the frame
        runs[frame] = (read_columns(out / "out" / "trajectories.csv"),
                       read_csv(out / "out" / "trajectories_jumps.csv")[1:])
    (rot, rot_jumps), (lab, lab_jumps) = runs["rotating"], runs["lab"]
    assert lab_jumps == rot_jumps
    assert np.array_equal(lab["t"], rot["t"])
    for name, tol in (("P1", 1e-15), ("P2", 1e-15), ("P2_master", 1e-13)):
        assert np.max(np.abs(lab[name] - rot[name])) <= tol, name


LAB_FRAME = {"gamma1": 1.0, "gamma2": 1.0, "rotating_frame": False}


@pytest.mark.parametrize("cfg", [
    # the carrier turns 1.4 radians a step: the coherence ratio is the closed
    # form to rounding, where RK4 left |decay| at t = 10 at 1.1e-20 against 6.7e-3
    {"experiment": "decay", "model": {**LAB_FRAME, "omega1": 140.0, "omega2": 100.0},
     "numerics": {"dt": 0.01, "t_span": [0.0, 10.0]}},
    # |gg> turns in place and keeps its norm (under RK4 it fell to 0 near t = 90)
    {"experiment": "trajectories", "model": {**LAB_FRAME, "omega1": 140.0, "omega2": 140.0},
     "numerics": {"dt": 0.01, "t_span": [0.0, 100.0], "n_traj": 10, "initial_state": "gg"}},
    # the transfer steps exactly, and P2_on peaks as in the rotating frame
    {"experiment": "transfer", "model": {**LAB_FRAME, "gamma1": 2.0, "omega2": 100.0},
     "numerics": {"dt": 0.01}},
], ids=["decay", "trajectories", "transfer"])
def test_lab_frame_configs_with_fast_carriers_run(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "output": {"directory": str(tmp_path / "out")}}))
    if cfg["experiment"] == "transfer":
        summary, _ = transfer_csv(path)
        assert abs(summary["p2_max_on"] - (1.0 - math.exp(-8.0)) ** 2) < 1e-9
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", str(path)]) == 0
    if cfg["experiment"] == "decay":
        got = read_columns(tmp_path / "out" / "decay.csv")
        exact = np.exp(-(0.5 + 140.0j) * got["t"])
        assert np.max(np.abs(got["decay_re"] + 1j * got["decay_im"] - exact)) <= 1e-10
    else:
        got = read_columns(tmp_path / "out" / "trajectories.csv")
        assert not got["P1"].any() and not got["P2"].any()
        _, header, rows = read_csv(tmp_path / "out" / "trajectories_jumps.csv")
        assert sum(column(header, rows, "count", convert=int)) == 0


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


@pytest.mark.parametrize("directory", ["x\0y", "d" * 300, "\ud800"])
def test_exit_2_on_unusable_output_directory(tmp_path, capsys, directory):
    # a NUL byte, a name too long for the file system or a lone surrogate (JSON
    # "\ud800", which no file name can encode) used to end in a traceback
    path = write_config(tmp_path, output={"directory": str(tmp_path / directory)})
    assert cli.main(["--config", str(path), "--validate-only"]) == 2
    assert "output.directory: " in capsys.readouterr().out
    assert cli.main(["--config", str(path)]) == 2
    assert "output.directory: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

"""Self-tests of the benchmark: span bookkeeping, patch restoration, pass timing, output checks.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
The output-check tests run one pass of three workloads (about 25 s).
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_patched_restores_every_name():
    targets = worker.layer_targets()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    rec = tracer.Recorder()
    with pytest.raises(RuntimeError):
        with rec.patched(targets):
            for owner, attr, original in originals:
                assert vars(owner)[attr] is not original
            raise RuntimeError("leave the block by an exception")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"


def test_patched_restores_when_a_target_is_missing():
    from qcascade import cli

    original = vars(cli)["validate"]
    with pytest.raises(AttributeError):
        with tracer.Recorder().patched([(cli, "validate", "cli.validate", None),
                                        (cli, "no_such_name", "x", None)]):
            pass
    assert vars(cli)["validate"] is original


def test_self_times_of_nested_spans_add_up_to_the_parent():
    ticks = iter(range(1000))
    rec = tracer.Recorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap("leaf", lambda: None)

    def middle_body():
        leaf()
        leaf()

    middle = rec.wrap("middle", middle_body)

    def outer_body():
        middle()
        leaf()

    outer = rec.wrap("outer", outer_body)
    outer()
    outer()
    totals = rec.layer_totals()
    assert [totals[n]["calls"] for n in ("leaf", "middle", "outer")] == [6, 2, 2]
    root_time = sum(end - start for _, start, end, parent in rec.spans if parent < 0)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root_time)
    # one clock tick between nested start/end events: a leaf lasts 1, middle 5, outer 9
    assert totals["leaf"]["self_s"] == 6.0
    assert totals["middle"]["self_s"] == 2 * (5.0 - 2.0)
    assert totals["outer"]["self_s"] == 2 * (9.0 - 5.0 - 1.0)
    assert rec.child_calls("middle", "leaf") == 4
    assert rec.child_calls("outer", "leaf") == 2


def test_typical_pass_leaves_out_a_slow_run_and_scales_by_the_probe():
    from run import PROBE_REF_S, typical_pass_seconds

    def passes(probe_s):
        times = [{"a": 1.0, "b": 2.0}, {"a": 9.0, "b": 2.2}, {"a": 1.2, "b": 1.8}, {"a": 1.1}]
        return [{"runs": [{"name": n, "seconds": t, "probe_s": probe_s} for n, t in p.items()]}
                for p in times]

    # medians 1.15 of a (the 9.0 is left out) and 2.0 of b; the last pass ended after a
    assert typical_pass_seconds(passes(PROBE_REF_S)) == pytest.approx(3.15)
    assert typical_pass_seconds(passes(4.0 * PROBE_REF_S), corrected=True) == pytest.approx(3.15 / 2)
    assert typical_pass_seconds(passes(4.0 * PROBE_REF_S)) == pytest.approx(3.15)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One pass of the ensemble, master and packet workloads: run name -> (Run, output dir)."""
    from qcascade import cli

    base = tmp_path_factory.mktemp("pass")
    found = {}
    for workload in ("ensemble", "master", "packet"):
        runs = workloads.runs_for(workload, 7)
        work = base / workload
        (work / "configs").mkdir(parents=True)
        for run in runs:
            (work / "configs" / f"{run.name}.json").write_text(json.dumps(run.config))
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(work)
            result = worker.run_pass(cli, runs, work / "configs")
        assert all(r["status"] == 0 for r in result["runs"]), result
        found.update({run.name: (run, work / run.name) for run in runs})
    return found


# (run name, file, pattern, replacement): each puts one checked quantity out of tolerance
CORRUPTIONS = [
    ("trajectories", "trajectories.csv", r"^# max_abs_dev = .*$", "# max_abs_dev = 0.07"),
    ("trajectories", "trajectories.csv", r"^# mean_jumps = .*$", "# mean_jumps = 0.5"),
    ("trajectories", "trajectories.svg", r"</svg>", ""),
    ("lindblad_peak", "lindblad.csv", r"^(2\.0,(?:[^,]*,){2})[^,]*", r"\g<1>0.6"),
    ("lindblad_peak", "lindblad.csv", r"^5\.0,,", "5.0,5.0,"),
    ("lindblad_peak", "lindblad.csv", r"^20\.0,20\.0,", "20.0,,"),
    ("lindblad_beta", "lindblad.csv", r"^(5\.0,(?:[^,]*,){7})[^,]*", r"\g<1>1e-06"),
    ("lindblad_beta", "lindblad.csv", r"^(5\.0,(?:[^,]*,){8})[^,]*$", r"\g<1>-1e-06"),
    ("transfer_0.25", "transfer.csv", r"^# p2_max_on = \S+", "# p2_max_on = 0.9"),
    ("transfer_4", "transfer.csv", r"^# p2_max_off = \S+", "# p2_max_off = 1.5"),
    ("transform", "transform.csv", r"^# norm_out = .*$", "# norm_out = 0.1"),
    ("phases", "phases.csv", r"^# schedule\.t_f = .*$", "# schedule.t_f = 31.0"),
    ("phases", "phases.csv", r"^39,.*\n", ""),
    ("timemap", "timemap.csv", r"^# vertical_gap = .*$", "# vertical_gap = 3.0"),
]


def test_every_check_passes_on_the_real_outputs(outputs):
    for name, (run, out) in outputs.items():
        assert workloads.check_run(run, out) == [], name


@pytest.mark.parametrize("name,filename,pattern,replacement", CORRUPTIONS)
def test_each_check_fails_on_a_corrupted_copy(outputs, tmp_path, name, filename, pattern, replacement):
    run, out = outputs[name]
    copy = tmp_path / name
    shutil.copytree(out, copy)
    path = copy / filename
    text, n = re.subn(pattern, replacement, path.read_text(), count=1, flags=re.MULTILINE)
    assert n == 1, f"pattern {pattern!r} not found in {filename}"
    path.write_text(text)
    assert workloads.check_run(run, copy), f"{name}: corrupted {filename} passed its check"

"""Benchmark worker: runs passes of one workload through ``qcascade.cli.main`` in this process.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON names the workload, seed, config and output directories, how
many seconds to keep running passes, and whether to add a traced pass.
The first pass is the reference pass: its outputs are copied to the
spec's "reference" directory for the output checks, and the process's
peak resident set right after it, the peak of a fresh process doing one
pass, is recorded.  Passes go on until the next run would end past the
measuring time, which the first pass counts towards; the last pass may
stop part way.  The worker writes its result to the spec's "result"
path; its standard output (the artifact paths the CLI prints) is not
used.

A pass runs every config of the workload once, as a closed loop with one
client: each run starts when the previous one has returned.  A run that
exits non-zero or raises is recorded and the pass goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

import tracer
import workloads
from run import THREAD_VARS, typical_pass_seconds


def file_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under `directory`, keyed by relative path."""
    if not directory.is_dir():
        return {}
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def speed_probe() -> float:
    """Median of three timings of a fixed interpreter-bound task of about 3 ms.

    Python-level loops and small-array NumPy calls, the kind of work that
    dominates the workloads in ``workloads.SPEED_CORRECTED``.  Timed next
    to each run, it tracks how fast the host serves this process then.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        a = numpy.zeros(16)
        for i in range(3000):
            acc += math.sin(i * 1e-3)
            a = a + acc * 1e-9
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_pass(cli, runs, config_dir: Path, deadline: float = math.inf,
             expected: dict[str, float] | None = None) -> dict:
    """Run each config once; returns the pass time and per-run status and digests.

    Outputs go to a subdirectory per run, named relative to the working
    directory: the CSV embeds the output directory, so every pass must
    write to the same relative path to write the same bytes.  The pass
    ends early, before a run that would end past `deadline` (a
    ``time.perf_counter`` reading) if it took its `expected` seconds.
    """
    for run in runs:
        shutil.rmtree(run.name, ignore_errors=True)
    records = []
    seconds = 0.0
    probe = speed_probe()
    for run in runs:
        if expected and time.perf_counter() + expected[run.name] > deadline:
            break
        argv = ["--config", str(config_dir / f"{run.name}.json"), "--out", run.name, "--svg"]
        t0 = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a raising run is a failed run; the pass goes on
            traceback.print_exc()
            status = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        seconds += elapsed
        after = speed_probe()
        records.append({"name": run.name, "seconds": elapsed, "status": status,
                        "probe_s": (probe + after) / 2.0})
        probe = after
    for rec in records:
        rec["files"] = file_digests(Path(rec["name"]))
    return {"seconds": seconds, "runs": records}


def output_stats(out_dir: Path) -> dict[str, float]:
    """Data rows and bytes of the CSVs, bytes of the SVGs written by a pass."""
    rows = csv_bytes = svg_bytes = 0
    for p in out_dir.rglob("*.csv"):
        with open(p, encoding="utf-8") as fh:
            rows += sum(1 for line in fh if not line.startswith("#")) - 1
        csv_bytes += p.stat().st_size
    for p in out_dir.rglob("*.svg"):
        svg_bytes += p.stat().st_size
    return {"csv_rows": rows, "csv_mb": csv_bytes / 1e6, "svg_mb": svg_bytes / 1e6}


# ------------------------------------------------------------------ tracing


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_master(counts, args, kwargs, result):
    counts["cascade.steps"] += result.times.size - 1


def _count_ensemble(counts, args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    t0, t1 = cfg.t_span
    counts["trajectory.traj_steps"] += cfg.n_traj * round((t1 - t0) / cfg.dt)
    counts["trajectory.jumps"] += result.jump_times.size
    # psi of the whole ensemble: n_traj x 4 complex128 amplitudes
    counts["trajectory.state_mb"] = max(counts["trajectory.state_mb"], cfg.n_traj * 4 * 16 / 1e6)


def _count_drive(counts, args, kwargs, result):
    counts["transfer.drive_steps"] += result.times.size - 1


def _count_plot(counts, args, kwargs, result):
    counts["svgplot.points"] += sum(len(s[0]) for s in _arg(args, kwargs, 1, "series"))


def layer_targets():
    """(owner, attribute, span name, count) for every lookup site of each layer function."""
    from qcascade import cascade, cli, svgplot, trajectory, transfer, wavepacket

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "validate", "cli.validate", None),
        (cli, "run", "cli.run", None),
        (cli, "line_plot", "svgplot.line_plot", _count_plot),
        (svgplot, "line_plot", "svgplot.line_plot", _count_plot),
        (cascade, "integrate_master", "cascade.integrate_master", _count_master),
        (cascade.MasterRun, "min_eigenvalues", "cascade.min_eigenvalues", None),
        (trajectory, "ensemble_average", "trajectory.ensemble_average", _count_ensemble),
        (transfer, "transfer_experiment", "transfer.transfer_experiment", None),
        (transfer, "drive_system2", "transfer.drive_system2", _count_drive),
        (transfer, "emit_envelope", "transfer.emit_envelope", None),
        (transfer, "apply_u_time_domain", "wavepacket.apply_u_time_domain", None),
        (wavepacket, "apply_u_time_domain", "wavepacket.apply_u_time_domain", None),
        (wavepacket, "assemble_piecewise_field", "wavepacket.assemble_piecewise_field", None),
        (wavepacket.Envelope, "interp", "wavepacket.interp", None),
    ]
    for fn in ("time_map", "time_map_inverse", "time_map_slope", "time_map_inverse_slope"):
        targets.append((wavepacket, fn, "wavepacket.time_map", None))
    return targets


def layer_metrics(rec: tracer.Recorder, stats: dict, overhead_s: float) -> dict[str, list]:
    """Per-layer metrics of a traced pass: name -> [value, unit]."""
    totals = rec.layer_totals()
    counts = rec.counts

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    field_points = calls("wavepacket.assemble_piecewise_field")
    field_interps = rec.child_calls("wavepacket.assemble_piecewise_field", "wavepacket.interp")
    return {
        "cascade.integrate_master.calls": [calls("cascade.integrate_master"), "count"],
        "cascade.integrate_master.self_s": [self_s("cascade.integrate_master"), "s"],
        "cascade.steps": [counts["cascade.steps"], "count"],
        "cascade.steps_per_s": [rate(counts["cascade.steps"], self_s("cascade.integrate_master")), "1/s"],
        "cascade.min_eigenvalues.calls": [calls("cascade.min_eigenvalues"), "count"],
        "cascade.min_eigenvalues.self_s": [self_s("cascade.min_eigenvalues"), "s"],
        "trajectory.ensemble_average.calls": [calls("trajectory.ensemble_average"), "count"],
        "trajectory.ensemble_average.self_s": [self_s("trajectory.ensemble_average"), "s"],
        "trajectory.traj_steps": [counts["trajectory.traj_steps"], "count"],
        "trajectory.traj_steps_per_s": [
            rate(counts["trajectory.traj_steps"], self_s("trajectory.ensemble_average")), "1/s"],
        "trajectory.jumps": [counts["trajectory.jumps"], "count"],
        "trajectory.state_mb": [counts["trajectory.state_mb"], "MB-computed"],
        "transfer.transfer_experiment.self_s": [self_s("transfer.transfer_experiment"), "s"],
        "transfer.drive_system2.calls": [calls("transfer.drive_system2"), "count"],
        "transfer.drive_system2.self_s": [self_s("transfer.drive_system2"), "s"],
        "transfer.drive_steps_per_s": [
            rate(counts["transfer.drive_steps"], self_s("transfer.drive_system2")), "1/s"],
        "transfer.emit_envelope.self_s": [self_s("transfer.emit_envelope"), "s"],
        "wavepacket.assemble_piecewise_field.calls": [field_points, "count"],
        "wavepacket.assemble_piecewise_field.self_s": [
            self_s("wavepacket.assemble_piecewise_field"), "s"],
        "wavepacket.interp.calls": [calls("wavepacket.interp"), "count"],
        "wavepacket.interp.self_s": [self_s("wavepacket.interp"), "s"],
        "wavepacket.field_points": [field_points, "count"],
        "wavepacket.interp.calls_per_point": [
            field_interps / field_points if field_points else 0.0, "calls/point"],
        "wavepacket.apply_u_time_domain.calls": [calls("wavepacket.apply_u_time_domain"), "count"],
        "wavepacket.apply_u_time_domain.self_s": [self_s("wavepacket.apply_u_time_domain"), "s"],
        "wavepacket.time_map.calls": [calls("wavepacket.time_map"), "count"],
        "wavepacket.time_map.self_s": [self_s("wavepacket.time_map"), "s"],
        "cli.validate.self_s": [self_s("cli.validate"), "s"],
        "cli.run.self_s": [self_s("cli.run"), "s"],
        "cli.csv_rows": [stats["csv_rows"], "count"],
        "cli.csv_mb": [stats["csv_mb"], "MB"],
        "cli.csv_rows_per_s": [rate(stats["csv_rows"], self_s("cli.run")), "1/s"],
        "svgplot.line_plot.calls": [calls("svgplot.line_plot"), "count"],
        "svgplot.line_plot.self_s": [self_s("svgplot.line_plot"), "s"],
        "svgplot.points": [counts["svgplot.points"], "count"],
        "svgplot.svg_mb": [stats["svg_mb"], "MB"],
        "trace.spans": [len(rec.spans), "count"],
        "trace.overhead_s": [overhead_s, "s"],
    }


# ------------------------------------------------------------------ entry


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from qcascade import cli

    runs = workloads.runs_for(spec["workload"], spec["seed"])
    config_dir = Path(spec["configs"]).resolve()
    out_dir = Path(spec["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    result: dict = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "passes": [],
    }
    begin = time.perf_counter()
    result["passes"].append(run_pass(cli, runs, config_dir))
    # so far this process has imported the package and run one pass
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = Path(spec["reference"])
    for run in runs:
        if Path(run.name).is_dir():
            shutil.copytree(run.name, reference / run.name)
    # the last pass may end early, so that the runs fill the measuring time
    deadline = begin + spec["seconds"]
    expected = {r["name"]: r["seconds"] for r in result["passes"][0]["runs"]}
    while True:
        p = run_pass(cli, runs, config_dir, deadline, expected)
        if p["runs"]:
            result["passes"].append(p)
        if len(p["runs"]) < len(runs):
            break
    if spec["trace"]:
        rec = tracer.Recorder()
        with rec.patched(layer_targets()):
            traced = run_pass(cli, runs, config_dir)
        untraced = typical_pass_seconds(result["passes"])
        result["traced_pass"] = traced
        result["layers"] = layer_metrics(rec, output_stats(Path(".")), traced["seconds"] - untraced)
        rec.write(Path(spec["spans"]))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

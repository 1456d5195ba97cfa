"""qcascade benchmark: CLI experiments from config to CSV + SVG, checked and timed.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  For each workload (see workloads.py) one run does, in order:

1. set-up probes, fresh processes that import ``qcascade.cli`` and load
   and validate the workload's configs; their median wall time is
   ``setup_s``.  Half run before the passes and half after;
2. passes in one fresh worker process for about S seconds.  The first is
   the reference pass: its outputs are checked for correctness, and the
   worker's peak resident set right after it is ``peak_rss_mb``.  Every
   later pass must write the same bytes as the reference pass.  With
   ``--trace 1`` the worker adds one pass with the layers wrapped in
   spans, and the per-layer metrics are printed instead of the
   end-to-end ones.

``wall_s`` is the time of a typical pass: for each config, the median of
its run times over all passes, summed over the configs.  A burst of load
from elsewhere on the machine slows one config of one pass, and the
per-config medians leave it out.  Each pass is timed after its process
has imported the package, so none pays the import; set-up is
``setup_s``.  ``run_s`` is ``wall_s``, except on the workloads named in
``workloads.SPEED_CORRECTED``: there each run time is first scaled by
the square root of PROBE_REF_S over the time of a fixed interpreter-bound
task (the speed probe in worker.py) timed just before and after it.  On a
shared host the speed at which the interpreter is served drifts by up to
a factor of two over minutes.  These workloads' times drift with it, by
about the square root of the probe's drift, since part of their time is
spent in NumPy loops that hardly drift.  The scaled time estimates the
run time at the speed where the probe takes PROBE_REF_S.

``ok_frac`` is the share of experiment runs that exited 0, raised nothing
and passed their output and determinism checks.  BLAS and OpenMP run one
thread each.  Human-readable lines come first; the last line of standard
output is the result as one JSON object.  Results, spans, the resolved
configs and an environment record are saved under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_SLACK_S = 60.0
# speed probe time of a typical moment on the machine where the benchmark was defined
PROBE_REF_S = 0.0035
PROBE_TIMEOUT_S = 10.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def typical_pass_seconds(passes: list[dict], corrected: bool = False) -> float:
    """Sum over configs of the median run time of each config over `passes`.

    With `corrected`, each run time is first scaled by the square root of
    PROBE_REF_S over the speed probe timed around it.
    """
    def seconds(r):
        return r["seconds"] * math.sqrt(PROBE_REF_S / r["probe_s"]) if corrected else r["seconds"]

    names = [r["name"] for r in passes[0]["runs"]]
    return sum(statistics.median(seconds(r) for p in passes for r in p["runs"] if r["name"] == n)
               for n in names)


def run_worker(spec: dict, spec_path: Path, timeout: float) -> dict | None:
    """Run worker.py on `spec`; its result, or None if it failed or timed out."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              env=child_env(), stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def setup_times(config_paths: list[Path], probes: int) -> list[float]:
    """Wall time of `probes` fresh set-up probe processes, interpreter start to exit."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), *map(str, config_paths)],
                                env=child_env(), stdout=subprocess.DEVNULL)
        # wait() with a timeout polls at up to 50 ms intervals, which would round
        # the time up; a blocking wait() returns at exit, and a timer kills a hung probe
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            status = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if status != 0:
            raise RuntimeError(f"set-up probe exited with {status}")
    return times


def count_failures(runs, reference: dict | None, passes: list[dict], ref_out: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the reference pass and every later pass.

    Reference runs must pass their output checks; a later run must write
    the same bytes as its reference run.
    """
    problems: list[str] = []
    ref_runs = {r["name"]: r for r in reference["runs"]} if reference else {}
    attempted = failed = 0
    for run in runs:
        r = ref_runs.get(run.name)
        if r is None or r["status"] != 0:
            found = [f"exit status {r and r['status']}"]
        else:
            found = workloads.check_run(run, ref_out / run.name)
        attempted += 1
        failed += bool(found)
        problems += [f"reference pass, {run.name}: {p}" for p in found]
    for k, p in enumerate(passes, start=1):
        for r in p["runs"]:
            ref = ref_runs.get(r["name"])
            if r["status"] != 0:
                found = f"exit status {r['status']}"
            elif ref is None or r["files"] != ref["files"]:
                found = "outputs differ from the reference pass"
            else:
                found = None
            attempted += 1
            if found:
                failed += 1
                problems.append(f"pass {k}, {r['name']}: {found}")
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run of `workload`; returns the result record."""
    run_dir = ROOT / ".perfbench_out" / workload / f"seed{seed}-trace{int(trace)}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    config_dir = run_dir / "configs"
    config_dir.mkdir(parents=True)
    runs = workloads.runs_for(workload, seed)
    for run in runs:
        (config_dir / f"{run.name}.json").write_text(json.dumps(run.config, indent=1), encoding="utf-8")
    spec = {"workload": workload, "seed": seed, "configs": str(config_dir), "trace": trace,
            "seconds": seconds, "out": str(run_dir / "pass"), "reference": str(run_dir / "reference"),
            "result": str(run_dir / "timed.json"), "spans": str(run_dir / "spans.csv")}

    # set-up probes, half before and half after the passes, because the machine's
    # speed drifts over seconds
    config_paths = [config_dir / f"{run.name}.json" for run in runs]
    setup = setup_times(config_paths, SETUP_PROBES // 2)
    timed = run_worker(spec, run_dir / "spec.json", seconds + WORKER_SLACK_S)
    setup += setup_times(config_paths, SETUP_PROBES - SETUP_PROBES // 2)

    passes = timed["passes"] if timed else []
    later = passes[1:] + ([timed["traced_pass"]] if timed and trace else [])
    attempted, failed, problems = count_failures(
        runs, passes[0] if passes else None, later, run_dir / "reference")
    if not timed:
        problems.append("worker failed")
    for p in problems:
        print(f"FAIL {workload}: {p}", file=sys.stderr)

    end_to_end = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "run_s": (typical_pass_seconds(passes, workload in workloads.SPEED_CORRECTED)
                  if passes else None, "s", len(passes)),
        "peak_rss_mb": (timed["peak_rss_mb"] if timed else None, "MiB", 1),
        "ok_frac": ((attempted - failed) / attempted, "fraction", attempted),
    }
    layers = {name: (v, unit, 1) for name, (v, unit) in timed["layers"].items()} if timed and trace else {}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "problems": problems,
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in layers.items()},
        "wall_s": typical_pass_seconds(passes) if passes else None,
        "pass_seconds": [p["seconds"] for p in passes if len(p["runs"]) == len(runs)],
        "setup_seconds": setup,
        "run_seconds_by_config": [{r["name"]: r["seconds"] for r in p["runs"]} for p in passes],
    }
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": (timed or {}).get("python"),
        "numpy": (timed or {}).get("numpy"),
        "threads": (timed or {}).get("threads"),
        "configs": {run.name: run.config for run in runs},
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    (run_dir / "env.json").write_text(json.dumps(env, indent=1), encoding="utf-8")
    for d in ("reference", "pass"):
        shutil.rmtree(run_dir / d, ignore_errors=True)
    return record


def print_table(record: dict) -> None:
    wl = record["workload"]
    for section in ("end_to_end", "per_layer"):
        for name, m in record[section].items():
            print(f"{wl:14s} {name:45s} {m['value']!r:>24} {m['unit']:12s} n={m['samples']}")
    print(f"{wl:14s} {'fail_frac':45s} {record['fail_frac']!r:>24} {'fraction':12s} "
          f"n={record['attempted']}")
    print(f"{wl:14s} {'wall_s':45s} {record['wall_s']!r:>24} {'s':12s} "
          f"n={record['end_to_end']['run_s']['samples']}")
    if record["trace"]:
        print(f"{wl:14s} tracing overhead: traced pass minus untraced wall_s = "
              f"{record['per_layer']['trace.overhead_s']['value']:.4f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcascade" / "cli.py").is_file():
        print(f"no qcascade sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(record)
    metrics = record["per_layer" if args.trace else "end_to_end"]
    if not metrics or any(m["value"] is None for m in metrics.values()):
        print("no timed or traced pass completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own run.py process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {w} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0

if __name__ == "__main__":
    sys.exit(main())

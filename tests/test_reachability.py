"""Every function and method of the package runs in an experiment.

A definition that only a test calls belongs in `tests/oracles.py`, not in
the shipped package.  A fresh interpreter records every Python call from
before `import qcascade.cli` (the import itself runs code), runs each of
the seven experiments once on a small config, plus `--validate-only`,
and the test then asserts that each top-level function and each method
of a top-level class in the package's source ran.  The one exception is
`cli._fork_part` on a host with one usable CPU, where no CSV is forked.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import qcascade

TRANSFORM = {"Delta": 2.0, "X": 4.0}
CONFIGS = {
    "decay": {"experiment": "decay", "model": {"gamma1": 1.0, "gamma2": 1.0},
              "numerics": {"dt": 0.01, "t_span": [0.0, 2.0]}},
    # 10,001 rows: a table that _write_csv splits into forked parts on two CPUs;
    # tau > 0 makes validate place the device between the systems
    "lindblad": {"experiment": "lindblad",
                 "model": {"gamma1": 1.0, "gamma2": 0.5, "tau": 20.0, "beta": 0.5},
                 "transform": TRANSFORM,
                 "numerics": {"dt": 0.001, "t_span": [0.0, 10.0], "initial_state": "plus_g"}},
    "trajectories": {"experiment": "trajectories", "model": {"gamma1": 1.0, "gamma2": 1.0},
                     "numerics": {"dt": 0.01, "t_span": [0.0, 2.0], "n_traj": 50, "seed": 7}},
    "transform": {"experiment": "transform", "model": {"gamma1": 1.0, "gamma2": 0.5},
                  "transform": TRANSFORM, "numerics": {"dt": 0.05, "t_span": [0.0, 4.0]}},
    "phases": {"experiment": "phases", "model": {"gamma1": 1.0, "gamma2": 0.5},
               "transform": TRANSFORM,
               "numerics": {"dt": 0.05, "t_span": [0.0, 30.0], "nx": 50}},
    "timemap": {"experiment": "timemap", "model": {"gamma1": 1.0, "gamma2": 0.5},
                "transform": TRANSFORM, "numerics": {}},
    "transfer": {"experiment": "transfer", "model": {"gamma1": 2.0, "gamma2": 1.0},
                 "numerics": {"dt": 0.01}},
}

SCRIPT = """
import json, os, sys

ran = set()

def record(frame, event, arg):
    if event == "call":
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(record)
from qcascade import cli

work, configs = sys.argv[1], json.loads(sys.argv[2])
for name, cfg in configs.items():
    path = os.path.join(work, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(work, name)
    for extra in (["--validate-only"], ["--svg"]):
        if cli.main(["--config", path, "--out", out, *extra]) != 0:
            raise SystemExit(f"{name} {extra} failed")
sys.setprofile(None)
with open(os.path.join(work, "ran.json"), "w") as fh:
    json.dump({"cpus": cli._usable_cpus(), "ran": sorted(ran)}, fh)
"""


def _definitions(package: Path) -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> 'module.name' or 'module.Class.name'."""
    found = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            members = [(node, module)]
            if isinstance(node, ast.ClassDef):
                members = [(item, f"{module}.{node.name}") for item in node.body]
            for item, owner in members:
                if isinstance(item, ast.FunctionDef):
                    # a decorated function's code object starts at its first decorator
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    found[(str(path), first)] = f"{owner}.{item.name}"
    return found


def test_every_definition_runs_in_an_experiment(tmp_path):
    # the child imports the package this suite imports, installed or not
    package = Path(qcascade.__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(CONFIGS)],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads((tmp_path / "ran.json").read_text())
    definitions = _definitions(package)
    assert len(definitions) > 100  # the walk found the package
    ran = {(Path(f).resolve(), line) for f, line in result["ran"]}
    # one CPU formats every CSV in this process
    allowed = {"cli._fork_part"} if result["cpus"] < 2 else set()
    missed = sorted(name for (path, line), name in definitions.items()
                    if (Path(path).resolve(), line) not in ran and name not in allowed)
    assert missed == []

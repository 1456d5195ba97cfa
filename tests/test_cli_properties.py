"""Property test of the CLI on mutated shipped configs.

Every mutation of a shipped config either validates (exit 0) or is
reported (exit 2) with each line naming the field at fault, never a
traceback; a mutation that validates and stays under a small work cap
also runs, and ends in success (0) or an integrator abort (3).
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

from qcascade import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SHIPPED = {
    p.stem: json.loads(p.read_text())
    for p in sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
}
KEYS = cli._SECTION_KEYS

# the largest run the test starts: time samples (times trajectories) plus field points
RUN_CAP = 50_000

finite = st.floats(allow_nan=False, allow_infinity=False)
values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2**70, -(2**70), 10**400]),
    st.floats(),  # NaN, infinities, subnormals and the largest floats included
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, 1.7976931348623157e308, 1e-3, 0.5, 2.0, 40.0]),
    st.sampled_from(["auto", "eg", "gg", "plus_g", "x", ""]),
    st.lists(finite, max_size=3),
    st.lists(st.sampled_from([-1.0, 0.0, 1.0, 10.0, 1e300]), min_size=2, max_size=2),
)


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(KEYS)))
        kind = draw(st.sampled_from(["set", "set", "set", "delete", "section", "experiment"]))
        if kind == "experiment":
            cfg["experiment"] = draw(st.sampled_from([*cli.EXPERIMENTS, "warp"]))
        elif kind == "section":
            cfg[section] = draw(st.sampled_from([None, 1, [], {}]))
        elif isinstance(cfg.get(section, {}), dict):
            key = draw(st.sampled_from([*KEYS[section], "unknown_key"]))
            if kind == "delete":
                cfg.get(section, {}).pop(key, None)
            else:
                cfg.setdefault(section, {})[key] = draw(values)
    return cfg


def named_field(line: str, cfg: dict) -> str:
    """The field a diagnostic line names, if it is one the config has or may have."""
    name = line.removeprefix("config error: ").split(": ", 1)[0]
    known = set(cfg) | set(KEYS) | {f.name for f in fields(cli.RunConfig)}
    known |= {f"{s}.{k}" for s, keys in KEYS.items() for k in keys}
    known |= {f"{s}.{k}" for s, sec in cfg.items() if isinstance(sec, dict) for k in sec}
    return name if name in known else ""


def main(argv: list[str]) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return status, (out.getvalue() + err.getvalue()).splitlines()


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(cfg=mutated_configs())
def test_mutated_configs_validate_or_name_a_field_and_small_ones_run(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["--config", str(path), "--out", str(Path(tmp) / "out")]
        status, lines = main([*argv, "--validate-only"])
        assert status in (0, 2)
        if status == 2:
            assert lines and all(named_field(line, cfg) for line in lines), lines
            return
        loaded = cli.load_config(path)
        loaded.output["directory"] = str(Path(tmp) / "out")
        plan, diags = cli._resolve(loaded)
        assert diags == []
        work = {field: n for field, (n, _) in plan.work.items()}
        cost = work["numerics.dt"] * work.get("numerics.n_traj", 1) + work.get("numerics.nx", 0)
        if cost > RUN_CAP:
            return
        status, lines = main(argv)
        assert status in (0, 3), lines

"""Config fuzz: every leaf of the run config, set to each hostile value,
either runs or exits 2 naming the leaf, and never raises. Building a config
section directly with NaN in a float field is rejected naming the field."""

import math
from dataclasses import fields, is_dataclass, replace
from typing import get_args

import pytest

from spec_funnel.backends.synthetic import SyntheticConfig, Uniform
from spec_funnel.cli import main
from spec_funnel.config import (
    AblationSettings,
    BackendSettings,
    CalibrationSettings,
    QuotaSettings,
    RunConfig,
    WorkloadSettings,
)
from spec_funnel.errors import ValidationError
from spec_funnel.funnel import ScheduleConfig
from spec_funnel.gate import GateConfig
from spec_funnel.recordio import _hints

HOSTILE = ["NaN", "Infinity", "-Infinity", "9" * 401, "-1", "0", '""', "true", "[]", "{}", '"0.5"']

# a leaf whose section cannot be built without its partner gets a valid one
PARTNERS = {
    "synthetic.tool_cost.low": ["--set", "synthetic.tool_cost.high=0.9"],
    "synthetic.tool_cost.high": ["--set", "synthetic.tool_cost.low=0.4"],
    "workload.quota.beta": ["--set", "workload.quota.alpha=0.5"],
    "workload.quota.alpha": ["--set", "workload.quota.beta=0.5"],
}


def _leaves(cls=RunConfig, prefix=""):
    """Dotted path of every leaf of the run config, read from the
    dataclasses; synthetic.seed is the run seed and cannot be set."""
    for name, hint in _hints(cls).items():
        path = prefix + name
        nested = [a for a in (hint, *get_args(hint)) if is_dataclass(a)]
        if nested:
            yield from _leaves(nested[0], path + ".")
        elif path != "synthetic.seed":
            yield path


LEAVES = list(_leaves())

# the commands that read each section beyond building it
COMMANDS = {
    "calibration": ["calibrate"],
    "gate": ["calibrate", "ablate --axis threshold", "ablate --axis top_k"],
    "ablation": ["ablate --axis threshold", "ablate --axis top_k"],
}
CASES = [
    (command, path)
    for path in LEAVES
    for command in ["run", *COMMANDS.get(path.split(".")[0], [])]
]


def test_leaves_cover_every_section():
    assert {path.split(".")[0] for path in LEAVES} == {f.name for f in fields(RunConfig)}
    assert {"synthetic.depth_weights", "synthetic.tool_cost.high", "workload.quota.alpha"} <= set(LEAVES)


@pytest.mark.parametrize("value", HOSTILE, ids=lambda v: v if len(v) < 10 else "int_too_large")
@pytest.mark.parametrize("command, path", CASES)
def test_hostile_value_runs_or_exits_2_naming_the_leaf(tmp_path, capsys, command, path, value):
    argv = [*command.split(), "--out", str(tmp_path / "o"), "--set", "workload.n_queries=3"]
    rc = main([*argv, *PARTNERS.get(path, []), "--set", f"{path}={value}"])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc == 2:
        section, _, name = path.rpartition(".")
        assert err.startswith("config error: ") and name in err and section in err, err


@pytest.mark.parametrize(
    "value, path",
    [
        ('{"1": "0.5", "2": 1}', "synthetic.depth_weights.1"),
        ('{"1": true, "2": 1}', "synthetic.depth_weights.1"),
        ('{"1.5": 1, "2": 1}', "synthetic.depth_weights.1.5"),
        ('{"x": 1, "2": 1}', "synthetic.depth_weights.x"),
        ("abc", "synthetic.depth_weights"),
        ("[1, 2]", "synthetic.depth_weights"),
    ],
)
def test_weight_map_exits_2_naming_the_entry(tmp_path, capsys, value, path):
    assert main(["run", "--out", str(tmp_path / "o"), "--set", f"synthetic.depth_weights={value}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


DEFAULTS = [
    BackendSettings(),
    QuotaSettings(0.5, 0.5),
    WorkloadSettings(),
    CalibrationSettings(),
    AblationSettings(),
    ScheduleConfig(),
    GateConfig(),
    SyntheticConfig(),
    Uniform(0.4, 0.9),
]


@pytest.mark.parametrize(
    "default, name",
    [
        (default, name)
        for default in DEFAULTS
        for name, hint in _hints(type(default)).items()
        if hint in (float, float | None)
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_nan_float_field_is_rejected_naming_it(default, name):
    with pytest.raises(ValidationError, match=name):
        replace(default, **{name: math.nan})

"""The config schema is derived from the dataclasses: digests of fixed
configs, unknown-key rejection at every level, and enum/nested coercion."""

import pytest

from spec_funnel.backends.synthetic import Uniform
from spec_funnel.config import RunConfig, build_config, load_config
from spec_funnel.errors import ConfigError
from spec_funnel.funnel import ScheduleMode
from spec_funnel.gate import Scoring

REMOTE = "http://127.0.0.1:9"
TOO_LARGE = int("9" * 401)  # float() of it raises OverflowError

# (overrides, load_config keywords, SHA-256 digest recorded from the
# hand-written schema that the derived one replaced)
DIGESTS = {
    "default": ([], {}, "3bb09b5755b68adeed7fb5a941d1be842b46345b05f836daab70dbb922033861"),
    "seed": ([], {"seed": 7}, "c01bb9c186eced8f26c1e3cbb87d75c7dc03e7349166fb559958fcd8bcd6a920"),
    "gate": (
        ["gate.tau=0.97", "gate.aggregation=mean", "gate.k=16", "gate.bottom_ratio=0.3", "gate.epsilon=1e-4"],
        {},
        "94526a7980b8a8f9e8320a53f50c0dc98476af4f2d827d4f557c08820c56ae46",
    ),
    "synthetic": (
        [
            'synthetic.tool_cost={"low": 0.1, "high": 0.2}',
            'synthetic.depth_weights={"3": 2, "1": 1}',
            "synthetic.vocab_k=32",
            "synthetic.p_tool_required=0.5",
        ],
        {},
        "5850f198588456d94d85e64ebe4f02e5c8d8c205c240b1d4ea003f9f4071647a",
    ),
    "quota": (
        ['workload.quota={"beta": 0.5, "alpha": 0.8}', "workload.n_queries=100"],
        {},
        "f60549b74dd39fd80a2c6442c1d48871086f30f78783bb2e779e520d5587e1af",
    ),
    "sweeps": (
        [
            "calibration.taus=[0.5, 0.9]",
            "ablation.thresholds=[0.1, 0.2]",
            "ablation.top_k=[4, 8]",
            "ablation.batch_sizes=[2]",
            "calibration.n_taus=5",
            "calibration.bandwidth=0.05",
        ],
        {},
        "915f5046366bd99015e1727df75457e629319d5d91ab200fb7a3834948cb840c",
    ),
    "schedule": (
        ["schedule.mode=measured", "schedule.agentic_workers=3", "schedule.frontend_workers=2"],
        {},
        "f6679404d266fc96cdb23dcbd3b10644430ec0a2562ef169495b9c87a1e1e811",
    ),
    "remote": (
        [
            "backend.kind=remote",
            f"backend.endpoint={REMOTE}",
            "backend.timeout_s=5",
            "backend.top_logprobs=8",
            "backend.exchange_log=x.jsonl",
            "backend.judge_prompt=hi",
        ],
        {},
        "06db7ccc58300d01d373dd9be0bb0e2544df33e04db7e59fad098a2aab2e9938",
    ),
    "bypass_off": ([], {"bypass": False}, "41da3e0f915661c5a314a2cd92f541d188d0fa40a4c0d7b32eb8699198dd634e"),
    "endpoint_flag": (
        [],
        {"endpoint": REMOTE, "seed": 2},
        "3a70b47b5500209dac8ebe34fdf99bc5917289415efac9a88615c0cdcec4a0df",
    ),
    "int_values": (
        ["gate.tau=0.5", "synthetic.judge_cost_s=1"],
        {},
        "8b5af04544d1a4d55d519d5928d3d2d4ce405299393f9195ba31ac8653be88cf",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest_is_stable(name):
    overrides, keywords, digest = DIGESTS[name]
    assert load_config(None, overrides, **keywords).digest() == digest


@pytest.mark.parametrize("override", ["calibration.taus=[]", "ablation.thresholds=[]"])
def test_empty_grid_digests_as_the_default(override):
    config = load_config(None, [override])
    assert config == load_config()
    assert config.digest() == DIGESTS["default"][2]


def test_to_dict_shape():
    data = RunConfig().to_dict()
    assert "seed" not in data["synthetic"]
    assert data["gate"]["aggregation"] == "min"
    assert data["schedule"]["mode"] == "simulated"
    assert data["synthetic"]["tool_cost"] == {"low": 0.4, "high": 0.9}
    assert list(data["synthetic"]["depth_weights"]) == ["1", "2", "3", "4", "5"]
    assert data["ablation"]["top_k"] == [8, 16, 32, 64, 128]
    assert data["calibration"]["taus"] is None
    assert data["workload"]["quota"] is None


@pytest.mark.parametrize(
    "raw, path",
    [
        ({"bogus": 1}, "<root>"),
        ({"backend": {"bogus": 1}}, "backend"),
        ({"synthetic": {"bogus": 1}}, "synthetic"),
        ({"gate": {"bogus": 1}}, "gate"),
        ({"schedule": {"bogus": 1}}, "schedule"),
        ({"workload": {"bogus": 1}}, "workload"),
        ({"calibration": {"bogus": 1}}, "calibration"),
        ({"ablation": {"bogus": 1}}, "ablation"),
        ({"synthetic": {"tool_cost": {"low": 0.1, "high": 0.2, "bogus": 1}}}, "synthetic.tool_cost"),
        ({"workload": {"quota": {"beta": 0.5, "alpha": 0.5, "bogus": 1}}}, "workload.quota"),
        ({"synthetic": {"seed": 4}}, "synthetic"),
    ],
)
def test_unknown_key_rejected(raw, path):
    with pytest.raises(ConfigError, match="unknown key") as info:
        build_config(raw)
    assert info.value.field == path
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "raw, path",
    [
        ({"gate": {"aggregation": "nope"}}, "gate.aggregation"),
        ({"schedule": {"mode": "nope"}}, "schedule.mode"),
        ({"gate": {"tau": 2}}, "gate"),
        ({"synthetic": {"tool_cost": {"low": 1}}}, "synthetic.tool_cost"),
        ({"workload": {"quota": {"beta": 2, "alpha": 0.5}}}, "workload.quota"),
        ({"gate": "x"}, "gate"),
        ({"seed": [1]}, "seed"),
        ({"seed": "x"}, "seed"),
        ({"gate": {"tau": "0.5"}}, "gate.tau"),
        ({"calibration": {"taus": [0.5, True]}}, "calibration.taus[1]"),
        ({"gate": {"epsilon": TOO_LARGE}}, "gate.epsilon"),
        ({"backend": {"timeout_s": TOO_LARGE}}, "backend.timeout_s"),
        ({"synthetic": {"sep_sigma": TOO_LARGE}}, "synthetic.sep_sigma"),
        ({"synthetic": {"judge_cost_s": TOO_LARGE}}, "synthetic.judge_cost_s"),
        ({"calibration": {"taus": [0.5, -TOO_LARGE]}}, "calibration.taus[1]"),
        ({"synthetic": {"vocab_k": TOO_LARGE}}, "synthetic.vocab_k"),
        ({"calibration": {"n_taus": TOO_LARGE}}, "calibration.n_taus"),
        ({"schedule": {"agentic_workers": TOO_LARGE}}, "schedule.agentic_workers"),
        ({"workload": {"n_queries": TOO_LARGE}}, "workload.n_queries"),
        ({"seed": 2**63}, "seed"),
        ({"backend": {"endpoint": 5}}, "backend.endpoint"),
        ({"backend": {"judge_prompt": ["hi"]}}, "backend.judge_prompt"),
    ],
)
def test_invalid_value_names_its_field(raw, path):
    with pytest.raises(ConfigError) as info:
        build_config(raw)
    assert info.value.field == path


def test_nested_and_enum_fields_are_built():
    config = build_config(
        {
            "seed": 4,
            "gate": {"aggregation": "bottom_r"},
            "schedule": {"mode": "measured"},
            "synthetic": {"tool_cost": {"low": 0.1, "high": 0.3}},
            "workload": {"quota": {"beta": 0.5, "alpha": 0.25}},
        }
    )
    assert config.gate.aggregation is Scoring.BOTTOM_R
    assert config.schedule.mode is ScheduleMode.MEASURED
    assert config.synthetic.tool_cost == Uniform(0.1, 0.3)
    assert config.synthetic.seed == 4
    assert (config.workload.quota.beta, config.workload.quota.alpha) == (0.5, 0.25)
    assert build_config({"workload": {"quota": None}}).workload.quota is None
    assert build_config({"gate": None}) == RunConfig()

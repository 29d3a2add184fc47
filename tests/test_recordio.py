"""Round-trip tests for the on-disk record formats."""

import math

import pytest

from spec_funnel.backends.synthetic import SyntheticBackend, make_workload
from spec_funnel.errors import ConfigError
from spec_funnel.funnel import ScheduleConfig, serve_batch
from spec_funnel.gate import GateDecision, Verdict
from spec_funnel.recordio import (
    from_plain,
    outcome_from_dict,
    outcome_to_dict,
    read_jsonl,
    stats_from_dict,
    stats_to_dict,
    to_plain,
    write_jsonl,
)


def test_outcome_round_trip(synthetic_config, gate_config, tmp_path):
    backend = SyntheticBackend(synthetic_config)
    queries = make_workload(synthetic_config, 40)
    outcomes, stats = serve_batch(queries, gate_config, ScheduleConfig(), backend)

    path = tmp_path / "outcomes.jsonl"
    write_jsonl(path, (outcome_to_dict(o) for o in outcomes))
    restored = [outcome_from_dict(d) for d in read_jsonl(path)]
    assert restored == outcomes

    assert stats_from_dict(stats_to_dict(stats)) == stats


def test_jsonl_is_sorted_key_stable(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}])
    assert path.read_text(encoding="utf-8") == '{"a":2,"b":1}\n'


def test_stats_from_dict_coerces_counts_and_defaults_optionals(synthetic_config, gate_config):
    backend = SyntheticBackend(synthetic_config)
    _, stats = serve_batch(make_workload(synthetic_config, 20), gate_config, ScheduleConfig(), backend)
    data = stats_to_dict(stats)
    assert list(data) == list(stats.__dataclass_fields__)
    data["batch_size"] = float(data["batch_size"])
    for optional in ("throughput_qps", "baseline_makespan_s", "speedup"):
        del data[optional]
    restored = stats_from_dict({**data, "batch_makespan_s": 0.0})
    assert type(restored.batch_size) is int and restored.batch_size == stats.batch_size
    assert restored.throughput_qps is restored.baseline_makespan_s is restored.speedup is None


# The typed rules of the one schema walker, shared by the config and the records.


@pytest.mark.parametrize("value, expected", [(20, 20), (20.0, 20), (-3.0, -3)])
def test_int_takes_an_integral_number(value, expected):
    built = from_plain(int, value, "n")
    assert built == expected and type(built) is int


@pytest.mark.parametrize("value", [2.5, True, False, "3", None, [1], math.inf, math.nan])
def test_int_rejects_anything_else(value):
    with pytest.raises(ConfigError) as info:
        from_plain(int, value, "section.n")
    assert info.value.field == "section.n"


@pytest.mark.parametrize("value", [True, False])
def test_bool_takes_true_or_false(value):
    assert from_plain(bool, value, "flag") is value


@pytest.mark.parametrize("value", ["off", "true", 0, 1, None, 1.0])
def test_bool_rejects_anything_else(value):
    with pytest.raises(ConfigError) as info:
        from_plain(bool, value, "flag")
    assert info.value.field == "flag"


def test_tuple_is_built_from_a_list_and_its_items_follow_their_rule():
    assert from_plain(tuple[int, ...], [1, 2.0], "xs") == (1, 2)
    assert type(from_plain(tuple[int, ...], [2.0], "xs")[0]) is int
    assert from_plain(tuple[float, ...] | None, None, "xs") is None
    with pytest.raises(ConfigError) as info:
        from_plain(tuple[int, ...], [1, 2.5], "xs")
    assert info.value.field == "xs[1]"
    with pytest.raises(ConfigError) as info:
        from_plain(tuple[int, ...], "12", "xs")
    assert info.value.field == "xs"


def test_to_plain_and_from_plain_are_inverse_on_a_decision():
    decision = GateDecision(Verdict.ACCEPT, 0.97, (1.5, 2.25), ("top_k_clamped",))
    plain = to_plain(decision)
    assert plain == {
        "verdict": "accept",
        "score": 0.97,
        "token_scores": [1.5, 2.25],
        "diagnostics": ["top_k_clamped"],
    }
    assert from_plain(GateDecision, plain) == decision


def test_outcome_record_keeps_its_on_disk_keys(synthetic_config, gate_config):
    backend = SyntheticBackend(synthetic_config)
    outcomes, _ = serve_batch(make_workload(synthetic_config, 10), gate_config, ScheduleConfig(), backend)
    record = outcome_to_dict(outcomes[0])
    assert sorted(record) == [
        "answer", "correct", "error", "gate", "latency_breakdown", "path", "query_id", "total_latency_s",
    ]
    assert sorted(record["latency_breakdown"]) == ["agentic_s", "judge_s", "speculate_s"]


def test_outcome_record_with_an_unknown_key_is_rejected(synthetic_config, gate_config):
    backend = SyntheticBackend(synthetic_config)
    outcomes, _ = serve_batch(make_workload(synthetic_config, 5), gate_config, ScheduleConfig(), backend)
    record = outcome_to_dict(outcomes[0])
    with pytest.raises(ConfigError, match="unknown key"):
        outcome_from_dict({**record, "bogus": 1})
    with pytest.raises(ConfigError, match="unknown key"):
        outcome_from_dict({**record, "latency_breakdown": {**record["latency_breakdown"], "x_s": 0.0}})


def test_stats_record_with_a_fractional_count_is_rejected(synthetic_config, gate_config):
    backend = SyntheticBackend(synthetic_config)
    _, stats = serve_batch(make_workload(synthetic_config, 5), gate_config, ScheduleConfig(), backend)
    with pytest.raises(ConfigError) as info:
        stats_from_dict({**stats_to_dict(stats), "n_accepted": 2.5})
    assert info.value.field == "n_accepted"

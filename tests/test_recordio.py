"""Round-trip tests for the on-disk record formats."""

from spec_funnel.backends.synthetic import SyntheticBackend, make_workload
from spec_funnel.funnel import ScheduleConfig, serve_batch
from spec_funnel.recordio import (
    outcome_from_dict,
    outcome_to_dict,
    read_jsonl,
    stats_from_dict,
    stats_to_dict,
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

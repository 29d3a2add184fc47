"""End-to-end CLI tests: config handling, command outputs, byte
reproducibility, exit codes, and pinned CSV headers."""

import json
import math
import operator
import shutil
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

from spec_funnel import cli
from spec_funnel.backends.synthetic import SyntheticBackend
from spec_funnel.cli import main
from spec_funnel.config import RunConfig, apply_override, load_config
from spec_funnel.errors import ConfigError
from spec_funnel.recordio import (
    ABLATE_AGGREGATION_HEADER,
    ABLATE_BATCH_HEADER,
    ABLATE_TOPK_HEADER,
    OPERATING_POINTS_HEADER,
    REPLAY_HEADER,
    SCORES_HEADER,
    SUMMARY_HEADER,
    read_jsonl,
)

TOO_LARGE = "9" * 401  # a JSON integer float() cannot convert

SMALL = [
    "--set", "workload.n_queries=60",
    "--set", "schedule.frontend_workers=12",
]


def read_csv_rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestConfig:
    def test_defaults_round_trip(self):
        config = load_config()
        assert config.seed == 0
        assert config.gate.tau == 0.94
        assert config.digest() == load_config().digest()

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "gate": {"tau": 0.9}}), encoding="utf-8")
        config = load_config(path, ["gate.tau=0.97", "workload.n_queries=10"])
        assert config.seed == 5
        assert config.gate.tau == 0.97
        assert config.workload.n_queries == 10

    def test_digest_tracks_any_field(self):
        base = load_config()
        assert base.digest() != load_config(None, ["gate.tau=0.5"]).digest()
        assert base.digest() != load_config(None, ["synthetic.depth_cap=4"]).digest()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"gate": {"bogus": 1}}), encoding="utf-8")
        with pytest.raises(ConfigError, match="gate"):
            load_config(path)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--set", "gate.tau"], "gate.tau: --set expects path=value"),
            (["--set", " . =0.5"], " . =0.5: --set expects a non-empty dotted path"),
            (["--set", "=0.5"], "=0.5: --set expects a non-empty dotted path"),
            (["--config", "LIST"], "config file must hold a JSON object"),
        ],
        ids=["no_equals", "dots_only", "empty_path", "config_list"],
    )
    def test_malformed_override_or_config_file_exits_2(self, tmp_path, capsys, args, message):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        args = [str(path) if a == "LIST" else a for a in args]
        assert main(["run", "--out", str(tmp_path / "o"), *args]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content, args, message",
        [
            ({}, ["--set", "synthetic.tool_cost.high=1.2"], "synthetic.tool_cost: missing key(s): low"),
            ({}, ["--set", "workload.quota.beta=0.6"], "workload.quota: missing key(s): alpha"),
            ({"synthetic": {"tool_cost": {"low": 0.1}}}, [], "synthetic.tool_cost: missing key(s): high"),
            ({"synthetic": {"tool_cost": {}}}, [], "synthetic.tool_cost: missing key(s): low, high"),
        ],
        ids=["set_high", "set_beta", "file_low", "file_empty"],
    )
    def test_partial_nested_value_names_its_missing_fields(self, tmp_path, capsys, content, args, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *args]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_override_parses_json_then_string(self):
        raw = {"workload": {"quota": None}}  # a path descends into a missing or null key
        apply_override(raw, "gate.tau=0.5")
        apply_override(raw, "backend.kind=remote")
        apply_override(raw, "workload.quota.beta=0.8")
        assert raw == {
            "gate": {"tau": 0.5},
            "backend": {"kind": "remote"},
            "workload": {"quota": {"beta": 0.8}},
        }

    @pytest.mark.parametrize(
        "content, args, message",
        [
            ({"gate": 5}, ["--set", "gate.tau=0.9"], "gate: must be an object"),
            ({}, ["--set", "gate=5", "--set", "gate.tau=0.9"], "gate: must be an object"),
            ({"gate": {"tau": [1]}}, ["--set", "gate.tau.x=1"], "gate.tau: must be an object"),
            ({"backend": 5}, ["--endpoint", "http://127.0.0.1:9"], "backend: must be an object"),
        ],
        ids=["file_value", "set_value", "nested_value", "endpoint_flag"],
    )
    def test_override_never_replaces_a_value_that_is_not_an_object(self, tmp_path, capsys, content, args, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(content), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *args]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args, field, value",
        [
            (["--seed", "3", "--set", "seed=9"], "seed", 3),
            (["--set", "bypass=true", "--bypass", "off"], "bypass", False),
            (["--set", "backend.kind=synthetic", "--endpoint", "http://127.0.0.1:9"], "backend.kind", "remote"),
        ],
        ids=["seed", "bypass", "endpoint"],
    )
    def test_dedicated_flags_win_over_set(self, args, field, value):
        config = cli._config_from_args(cli.build_parser().parse_args(["run", *args]))
        assert operator.attrgetter(field)(config) == value

    def test_remote_without_endpoint_fails(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPEC_FUNNEL_ENDPOINT", raising=False)
        rc = main(["run", "--out", str(tmp_path / "o"), "--set", "backend.kind=remote"])
        assert rc == 2

    def test_endpoint_env_var_selects_remote(self, tmp_path, monkeypatch):
        # unreachable endpoint: every query fails, so the run exits with the
        # backend error code
        monkeypatch.setenv("SPEC_FUNNEL_ENDPOINT", "http://127.0.0.1:9")
        rc = main(
            [
                "run", "--out", str(tmp_path / "o"),
                "--set", "backend.kind=remote",
                "--set", "backend.timeout_s=0.2",
                "--set", "workload.n_queries=2",
                "--set", "schedule.mode=measured",
            ]
        )
        assert rc == 3


class TestRunCommand:
    def test_outputs_and_reproducibility(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--out", str(first), "--seed", "3", *SMALL]) == 0
        assert main(["run", "--out", str(second), "--seed", "3", *SMALL]) == 0
        for name in ("outcomes.jsonl", "funnel_stats.json", "summary.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        header, rows = read_csv_rows(first / "summary.csv")
        assert header == SUMMARY_HEADER
        assert len(rows) == 1
        manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 3
        assert "outcomes.jsonl" in manifest["outputs"]

    def test_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--out", str(a), "--seed", "3", *SMALL])
        main(["run", "--out", str(b), "--seed", "4", *SMALL])
        assert (a / "outcomes.jsonl").read_bytes() != (b / "outcomes.jsonl").read_bytes()

    def test_bypass_off_is_the_baseline(self, tmp_path):
        on_dir, off_dir = tmp_path / "on", tmp_path / "off"
        main(["run", "--out", str(on_dir), "--seed", "5", *SMALL])
        main(["run", "--out", str(off_dir), "--seed", "5", "--bypass", "off", *SMALL])
        on_stats = json.loads((on_dir / "funnel_stats.json").read_text(encoding="utf-8"))
        off_stats = json.loads((off_dir / "funnel_stats.json").read_text(encoding="utf-8"))
        assert off_stats["batch_makespan_s"] == on_stats["baseline_makespan_s"]
        assert off_stats["speedup"] == 1.0
        assert on_stats["speedup"] == pytest.approx(
            off_stats["batch_makespan_s"] / on_stats["batch_makespan_s"], rel=1e-12
        )

    def test_quota_run_reports_exact_fractions(self, tmp_path):
        out = tmp_path / "q"
        rc = main(
            [
                "run", "--out", str(out), "--seed", "2",
                "--set", "workload.n_queries=200",
                "--set", "workload.quota={\"beta\": 0.8, \"alpha\": 0.71}",
                "--set", "gate.tau=0.9",
                "--set", "schedule.frontend_workers=200",
            ]
        )
        assert rc == 0
        stats = json.loads((out / "funnel_stats.json").read_text(encoding="utf-8"))
        assert stats["n_toolfree"] == 160
        assert stats["n_accepted"] == 113  # floor(0.71 * 160)

    def test_invalid_config_exit_code(self, tmp_path):
        rc = main(["run", "--out", str(tmp_path / "o"), "--set", "gate.tau=1.5"])
        assert rc == 2

    def test_step_costs_whose_sum_overflows_exit_2_and_write_no_data(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--out", str(out), "--set", "synthetic.llm_step_cost_s=1e308", *SMALL]) == 2
        assert capsys.readouterr().err == "config error: step costs must be finite\n"
        assert not any((out / n).exists() for n in ("outcomes.jsonl", "funnel_stats.json", "summary.csv"))

    @pytest.mark.parametrize("mode", ["simulated", "measured"])
    def test_foreign_backend_error_propagates_and_writes_no_data(self, tmp_path, monkeypatch, mode):
        class Buggy(SyntheticBackend):
            def agentic_run(self, query):
                raise KeyError(query.id)

        monkeypatch.setattr(cli, "_build_backend", lambda config, queries=(): Buggy(config.synthetic, queries))
        out = tmp_path / "run"
        with pytest.raises(KeyError):
            main(["run", "--out", str(out), "--set", f"schedule.mode={mode}", *SMALL])
        assert not any((out / n).exists() for n in ("outcomes.jsonl", "funnel_stats.json", "summary.csv"))


class TestCalibrateCommand:
    @pytest.mark.parametrize(
        "command, override, name",
        [
            ("calibrate", "calibration.bandwidth=-1", "bandwidth"),
            ("calibrate", "calibration.bandwidth=0", "bandwidth"),
            ("calibrate", "calibration.bandwidth=NaN", "bandwidth"),
            ("calibrate", "calibration.bandwidth=Infinity", "bandwidth"),
            ("calibrate", "calibration.taus=[NaN, 0.5]", "taus"),
            ("calibrate", "calibration.taus=[1.5, 2]", "taus"),
            ("ablate --axis threshold", "ablation.thresholds=[0.5, Infinity]", "thresholds"),
            ("ablate --axis top_k", "ablation.top_k=[]", "top_k"),
            ("ablate --axis batch_size", "ablation.batch_sizes=[]", "batch_sizes"),
        ],
    )
    def test_unusable_sweep_setting_exits_2_naming_the_field(self, tmp_path, capsys, command, override, name):
        assert main([*command.split(), "--out", str(tmp_path / "o"), "--set", override, *SMALL]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err
        assert not (tmp_path / "o").exists()

    def test_outputs(self, tmp_path):
        out = tmp_path / "cal"
        rc = main(["calibrate", "--out", str(out), "--seed", "3", "--set", "workload.n_queries=200"])
        assert rc == 0
        header, rows = read_csv_rows(out / "operating_points.csv")
        assert header == OPERATING_POINTS_HEADER
        assert len(rows) == 33
        header, _ = read_csv_rows(out / "scores.csv")
        assert header == SCORES_HEADER
        artifact = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        assert 0.0 < artifact["chosen_tau"] < 1.0
        assert (out / "kde_correct.csv").exists()
        assert (out / "union_bound.csv").exists()
        acceptance = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(acceptance, acceptance[1:]))

    def test_chosen_tau_feeds_run(self, tmp_path):
        cal_dir, run_dir = tmp_path / "cal", tmp_path / "run"
        main(["calibrate", "--out", str(cal_dir), "--seed", "3", "--set", "workload.n_queries=200"])
        rc = main(
            [
                "run", "--out", str(run_dir), "--seed", "3",
                "--calibration", str(cal_dir / "calibration.json"),
                "--set", "workload.n_queries=200",
            ]
        )
        assert rc == 0
        artifact = json.loads((cal_dir / "calibration.json").read_text(encoding="utf-8"))
        records = read_jsonl(run_dir / "outcomes.jsonl")
        accepted_scores = [
            r["gate"]["score"]
            for r in records
            if r["path"] == "speculation_accepted"
        ]
        assert all(s >= artifact["chosen_tau"] for s in accepted_scores)

    def test_all_correct_workload_never_flags(self, tmp_path):
        out = tmp_path / "cal"
        rc = main(
            [
                "calibrate", "--out", str(out), "--seed", "3",
                "--set", "workload.n_queries=120",
                "--set", "synthetic.draft_accuracy_toolfree=1.0",
                "--set", "synthetic.draft_accuracy_toolreq=1.0",
                "--set", "synthetic.sep_sigma=0.2",
            ]
        )
        assert rc == 0
        artifact = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        assert artifact["no_safe_point"] is False
        _, rows = read_csv_rows(out / "operating_points.csv")
        assert artifact["chosen_tau"] == pytest.approx(float(rows[0][0]), abs=1e-12)


class TestAblateCommand:
    def test_threshold_axis(self, tmp_path):
        out = tmp_path / "abl"
        rc = main(
            ["ablate", "--axis", "threshold", "--out", str(out), "--seed", "3",
             "--set", "workload.n_queries=150"]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "ablate_threshold.csv")
        assert header == OPERATING_POINTS_HEADER
        acceptance = [float(r[1]) for r in rows]
        assert all(b <= a for a, b in zip(acceptance, acceptance[1:]))

    def test_batch_size_axis(self, tmp_path):
        out = tmp_path / "abl"
        rc = main(
            [
                "ablate", "--axis", "batch_size", "--out", str(out), "--seed", "3",
                "--set", "ablation.batch_sizes=[8, 32, 128]",
                "--set", "workload.quota={\"beta\": 0.8, \"alpha\": 0.71}",
                "--set", "gate.tau=0.9",
                "--set", "synthetic.judge_cost_s=0.02",
                "--set", "synthetic.speculate_cost_s=0.03",
                "--set", "synthetic.depth_weights={\"3\": 1.0}",
                "--set", "synthetic.tool_cost={\"low\": 0.65, \"high\": 0.65}",
            ]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "ablate_batch_size.csv")
        assert header == ABLATE_BATCH_HEADER
        speedups = [float(r[2]) for r in rows]
        assert all(b >= a for a, b in zip(speedups, speedups[1:]))

    def test_top_k_axis(self, tmp_path):
        out = tmp_path / "abl"
        rc = main(
            ["ablate", "--axis", "top_k", "--out", str(out), "--seed", "3",
             "--set", "workload.n_queries=100",
             "--set", "ablation.top_k=[8, 16, 32, 64, 128]"]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "ablate_top_k.csv")
        assert header == ABLATE_TOPK_HEADER
        assert [int(r[0]) for r in rows] == [8, 16, 32, 64, 128]

    def test_speedup_curve_recipe(self, tmp_path):
        """The README's speedup-vs-batch-size recipe, pinned at full precision."""
        out = tmp_path / "abl"
        rc = main(
            [
                "ablate", "--axis", "batch_size", "--out", str(out), "--seed", "7",
                "--set", "workload.quota={\"beta\":0.8,\"alpha\":0.71}",
                "--set", "synthetic.judge_cost_s=0.02",
                "--set", "synthetic.speculate_cost_s=0.03",
                "--set", "synthetic.depth_weights={\"3\":1.0}",
                "--set", "synthetic.tool_cost={\"low\":0.65,\"high\":0.65}",
                "--set", "gate.tau=0.9",
                "--set", "ablation.batch_sizes=[1,8,64,256]",
            ]
        )
        assert rc == 0
        assert (out / "ablate_batch_size.csv").read_text(encoding="utf-8").splitlines()[1:] == [
            "1,1.0,0.9916666666666667,1.0,6.0,5.95",
            "8,1.0,1.9958071278825997,2.0,23.85,47.60000000000001",
            "64,1.0,2.285028502850283,2.2857142857142856,166.64999999999998,380.79999999999956",
            "256,0.94921875,2.3061317183951644,2.3063063063063063,660.5000000000003,1523.2000000000069",
        ]

    def test_aggregation_axis(self, tmp_path):
        """One chosen operating point per scoring strategy, rounded as the
        strategy comparison has always printed them."""
        out = tmp_path / "abl"
        rc = main(
            ["ablate", "--axis", "aggregation", "--out", str(out), "--seed", "3",
             "--set", "workload.n_queries=2000"]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "ablate_aggregation.csv")
        assert header == ABLATE_AGGREGATION_HEADER
        assert [r[6] for r in rows] == ["false"] * 4
        digits = (4, 4, 3, 4, 3)
        rounded = {r[0]: tuple(round(float(v), d) for v, d in zip(r[1:6], digits)) for r in rows}
        assert rounded == {
            "log_conf": (0.8474, 0.0485, 0.858, 0.9508, 2.345),
            "mean": (0.3953, 0.6298, 0.932, 0.9061, 2.653),
            "bottom_r": (0.4031, 0.5904, 0.887, 0.9332, 2.457),
            "min": (0.4031, 0.5904, 0.887, 0.9332, 2.457),
        }


class TestReportAndReplay:
    def test_report_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--out", str(out), "--seed", "3", *SMALL])
        assert main(["report", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "queries: 60" in printed
        assert "accuracy" in printed

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == 2

    def test_replay_rescores_log(self, tmp_path):
        log = tmp_path / "exchanges.jsonl"
        entries = []
        for i, margin in enumerate((-0.05, -0.8)):
            entries.append(
                {
                    "route": "/speculate",
                    "request": {"id": f"q{i}", "top_logprobs": 4},
                    "response": {
                        "answer": "A",
                        "tokens": [
                            {
                                "text": "A",
                                "top_logprobs": [
                                    {"token": "A", "logprob": 0.0},
                                    {"token": "B", "logprob": margin},
                                    {"token": "C", "logprob": margin - 0.1},
                                    {"token": "D", "logprob": margin - 0.2},
                                ],
                            }
                        ],
                        "latency_s": 0.2,
                    },
                }
            )
        log.write_text("\n".join(json.dumps(e) for e in entries) + "\n", encoding="utf-8")
        out = tmp_path / "replay"
        rc = main(["replay", str(log), "--out", str(out), "--set", "gate.k=4"])
        assert rc == 0
        header, rows = read_csv_rows(out / "replay_scores.csv")
        assert header == REPLAY_HEADER
        assert len(rows) == 2

    def test_replay_empty_log_fails(self, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("", encoding="utf-8")
        assert main(["replay", str(log), "--out", str(tmp_path / "o")]) == 2


class TestMalformedInputs:
    def test_report_on_empty_outcomes(self, tmp_path, capsys):
        (tmp_path / "outcomes.jsonl").write_text("", encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_report_on_malformed_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--out", str(out), "--seed", "3", *SMALL])
        with open(out / "outcomes.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"query_id": "q9", "path":\n')
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_report_on_record_without_path(self, tmp_path, capsys):
        (tmp_path / "outcomes.jsonl").write_text('{"query_id": "q1"}\n', encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_report_on_outcomes_that_cannot_be_read(self, tmp_path, capsys):
        (tmp_path / "outcomes.jsonl").mkdir()
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_report_on_stats_that_are_not_json(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--out", str(out), "--seed", "3", *SMALL])
        (out / "funnel_stats.json").write_text("{", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "artifact",
        [
            {"chosen_tau": None},
            [0.9],
            "0.9",
            {"chosen_tau": "0.5"},
            {"chosen_tau": True},
            # a number that is no threshold: the gate config refuses it
            {"chosen_tau": 0.0},
            {"chosen_tau": 1.0},
            {"chosen_tau": math.nan},
        ],
    )
    def test_run_with_unusable_calibration(self, tmp_path, capsys, artifact):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(artifact), encoding="utf-8")
        rc = main(["run", "--out", str(tmp_path / "o"), "--calibration", str(path), *SMALL])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: --calibration: ")

    @pytest.mark.parametrize(
        "make", [Path.mkdir, lambda path: path.write_bytes(b"\xff\xfe{}")], ids=["directory", "not_utf8"]
    )
    def test_run_with_unreadable_config(self, tmp_path, capsys, make):
        path = tmp_path / "config.json"
        make(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *SMALL]) == 2
        assert capsys.readouterr().err.startswith(f"config error: unreadable config file {path}")

    def test_run_with_missing_config_keeps_its_message(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *SMALL]) == 2
        assert capsys.readouterr().err.strip() == f"config error: config file not found: {path}"

    @pytest.mark.parametrize(
        "content", [b"[]\n", b'"x"\n', b"\xff\xfe{}\n", None], ids=["list_line", "string_line", "not_utf8", "missing"]
    )
    def test_replay_with_unusable_log(self, tmp_path, capsys, content):
        log = tmp_path / "log.jsonl"
        if content is not None:
            log.write_bytes(content)
        assert main(["replay", str(log), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(log) in err


def _int_fields(cls=RunConfig, prefix=""):
    """Dotted path of every int field of every config section, read from the
    dataclasses; synthetic.seed is the run seed and cannot be set."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        path = prefix + f.name
        if hints[f.name] is int and path != "synthetic.seed":
            yield path
        elif is_dataclass(hints[f.name]):
            yield from _int_fields(hints[f.name], path + ".")


INT_FIELDS = sorted(_int_fields())


class TestTypedOverrides:
    def test_every_section_has_its_int_fields_listed(self):
        sections = {path.split(".")[0] for path in INT_FIELDS if "." in path}
        assert sections == {"backend", "synthetic", "gate", "schedule", "workload", "calibration"}
        assert "seed" in INT_FIELDS

    @pytest.mark.parametrize("path", INT_FIELDS)
    @pytest.mark.parametrize("value", ["2.5", "true"])
    def test_non_integer_exits_2_naming_the_field(self, tmp_path, capsys, path, value):
        assert main(["run", "--out", str(tmp_path / "o"), "--set", f"{path}={value}"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override, path",
        [
            ("bypass=off", "bypass"),
            ("bypass=1", "bypass"),
            ("seed=1.5", "seed"),
            ("ablation.batch_sizes=[2.5]", "ablation.batch_sizes[0]"),
            ("ablation.top_k=[8, true]", "ablation.top_k[1]"),
            ("ablation.top_k=8", "ablation.top_k"),
        ],
    )
    def test_mistyped_value_exits_2_naming_the_field(self, tmp_path, capsys, override, path):
        assert main(["run", "--out", str(tmp_path / "o"), "--set", override]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: ")

    @pytest.mark.parametrize(
        "override, name",
        [
            ("backend.timeout_s=NaN", "timeout_s"),
            ("backend.timeout_s=Infinity", "timeout_s"),
            ("synthetic.sep_sigma=Infinity", "sep_sigma"),
            ("synthetic.sep_sigma=NaN", "sep_sigma"),
            ("synthetic.sep_mu_correct=Infinity", "sep_mu_correct"),
            ("synthetic.sep_mu_incorrect=-Infinity", "sep_mu_incorrect"),
            ("synthetic.judge_cost_s=NaN", "judge_cost_s"),
            ("synthetic.speculate_cost_s=Infinity", "speculate_cost_s"),
            ("synthetic.llm_step_cost_s=Infinity", "llm_step_cost_s"),
            pytest.param(f"gate.epsilon={TOO_LARGE}", "gate.epsilon", id="epsilon-int_too_large"),
            pytest.param(f"backend.timeout_s={TOO_LARGE}", "backend.timeout_s", id="timeout_s-int_too_large"),
            pytest.param(f"synthetic.sep_sigma={TOO_LARGE}", "synthetic.sep_sigma", id="sep_sigma-int_too_large"),
            pytest.param(
                f"synthetic.judge_cost_s={TOO_LARGE}", "synthetic.judge_cost_s", id="judge_cost_s-int_too_large"
            ),
            *(
                (f'synthetic.{name}={{"1": {value}, "2": 1}}', name)
                for name in ("depth_weights", "answer_len_weights")
                for value in ("NaN", "Infinity", "-Infinity")
            ),
            ('synthetic.depth_weights={"1": 1e308, "2": 1e308}', "depth_weights"),
            ('synthetic.answer_len_weights={"1": 1e308, "2": 1e308}', "answer_len_weights"),
        ],
    )
    def test_non_finite_setting_exits_2_naming_the_field(self, tmp_path, capsys, override, name):
        assert main(["run", "--out", str(tmp_path / "o"), "--set", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err

    def test_integral_float_is_an_integer(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--out", str(out), "--set", "workload.n_queries=20.0", "--set", "gate.k=8.0"]) == 0
        assert len(read_jsonl(out / "outcomes.jsonl")) == 20
        assert load_config(None, ["workload.n_queries=20.0"]) == load_config(None, ["workload.n_queries=20"])

    def test_quota_with_ungateable_tau_exits_2(self, tmp_path, capsys):
        # at tau=0.99 the pinned correct drafts no longer pass the gate
        quota = 'workload.quota={"beta": 0.8, "alpha": 0.7}'
        assert main(["run", "--out", str(tmp_path / "o"), "--set", quota, "--set", "gate.tau=0.99", *SMALL]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: workload.quota: quota mode needs")

    def test_bypass_false_runs_the_baseline(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--out", str(out), "--set", "bypass=false", *SMALL]) == 0
        paths = {r["path"] for r in read_jsonl(out / "outcomes.jsonl")}
        assert paths == {"judged_tool_required_fallback"}


def _deep_json(depth=100_000):
    return "[" * depth + "]" * depth


class TestDeeplyNestedInput:
    def test_report_on_deep_outcome_line(self, tmp_path, capsys):
        (tmp_path / "outcomes.jsonl").write_text(_deep_json() + "\n", encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_deep_config_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(_deep_json(), encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_deep_calibration_artifact(self, tmp_path, capsys):
        path = tmp_path / "calibration.json"
        path.write_text(_deep_json(), encoding="utf-8")
        assert main(["run", "--out", str(tmp_path / "o"), "--calibration", str(path), *SMALL]) == 2
        assert capsys.readouterr().err.startswith("config error: --calibration: ")

    def test_deep_replay_log_line(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text(_deep_json() + "\n", encoding="utf-8")
        assert main(["replay", str(log), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "run"
    assert main(["run", "--out", str(out), "--seed", "3", *SMALL]) == 0
    return out


ACCEPTED, TOOL_REQUIRED = "speculation_accepted", "judged_tool_required_fallback"


def _first(records, path):
    return next(r for r in records if r["path"] == path)


def _add_latency(record, phase, seconds):
    record["latency_breakdown"][phase] += seconds
    record["total_latency_s"] += seconds


# the FunnelStats identity each edit breaks; residual = batch - accepted
# follows from the three counting identities, so it has no check of its own
BROKEN_STATS = {
    "screen counts must partition the batch": lambda s: s.update(n_toolreq=s["n_toolreq"] + 1),
    "gate counts must partition the tool-free set": lambda s: s.update(n_rejected=s["n_rejected"] + 1),
    "residual must equal rejected plus tool-required": lambda s: s.update(n_residual=s["n_residual"] + 1),
    "beta_hat must equal n_toolfree / batch_size": lambda s: s.update(beta_hat=0.5),
    "alpha_hat must equal n_accepted / n_toolfree": lambda s: s.update(alpha_hat=0.5),
    "throughput must equal batch_size / batch_makespan": lambda s: s.update(throughput_qps=s["throughput_qps"] * 2),
    "throughput is undefined for a zero makespan": lambda s: s.update(batch_makespan_s=0.0),
    "speedup must equal baseline / batch makespan": lambda s: s.update(speedup=s["speedup"] * 2),
    # counts and makespans out of range, checked before the identities above
    "batch_size must lie in [1, inf)": lambda s: s.update({k: 0 for k in s if k == "batch_size" or k.startswith("n_")}),
    "n_toolfree must lie in [0, inf)": lambda s: s.update(n_toolfree=-1, n_toolreq=s["n_toolreq"] + 1),
    "n_toolreq must lie in [0, inf)": lambda s: s.update(n_toolreq=-1),
    "n_accepted must lie in [0, inf)": lambda s: s.update(n_accepted=-1, n_rejected=s["n_rejected"] + 1),
    "n_rejected must lie in [0, inf)": lambda s: s.update(n_rejected=-1),
    "n_residual must lie in [0, inf)": lambda s: s.update(n_residual=-1),
    "frontend_makespan_s must lie in [0, inf)": lambda s: s.update(frontend_makespan_s=-1.0),
    "fallback_makespan_s must lie in [0, inf)": lambda s: s.update(fallback_makespan_s=math.nan),
    "batch_makespan_s must lie in [0, inf)": lambda s: s.update(batch_makespan_s=-s["batch_makespan_s"]),
}

# the QueryOutcome invariant each edit of the outcome records breaks
BROKEN_OUTCOMES = {
    "total latency must equal the phase sum": lambda rs: rs[0].update(total_latency_s=rs[0]["total_latency_s"] + 1),
    "accepted path requires an accepting gate decision": lambda rs: _first(rs, ACCEPTED).update(gate=None),
    "accepted path must not carry agentic latency": lambda rs: _add_latency(_first(rs, ACCEPTED), "agentic_s", 1.0),
    "tool-required path never reaches the gate": lambda rs: _first(rs, TOOL_REQUIRED).update(
        gate=_first(rs, ACCEPTED)["gate"]
    ),
    "tool-required path never speculates": lambda rs: _add_latency(_first(rs, TOOL_REQUIRED), "speculate_s", 0.25),
}


class TestReportRecords:
    @pytest.mark.parametrize("message", BROKEN_STATS)
    def test_report_refuses_stats_that_break_an_identity(self, run_dir, tmp_path, capsys, message):
        out = shutil.copytree(run_dir, tmp_path / "run")
        stats = json.loads((out / "funnel_stats.json").read_text(encoding="utf-8"))
        BROKEN_STATS[message](stats)
        (out / "funnel_stats.json").write_text(json.dumps(stats), encoding="utf-8")
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unreadable record in {out / 'funnel_stats.json'}: ") and message in err

    @pytest.mark.parametrize("message", BROKEN_OUTCOMES)
    def test_report_refuses_an_outcome_that_breaks_an_invariant(self, run_dir, tmp_path, capsys, message):
        out = shutil.copytree(run_dir, tmp_path / "run")
        records = read_jsonl(out / "outcomes.jsonl")
        BROKEN_OUTCOMES[message](records)
        (out / "outcomes.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unreadable record in {out / 'outcomes.jsonl'}: ") and message in err

    def test_report_on_outcome_with_unknown_key(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--out", str(out), "--seed", "3", *SMALL])
        record = read_jsonl(out / "outcomes.jsonl")[0]
        with open(out / "outcomes.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**record, "bogus": 1}) + "\n")
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "unknown key(s): bogus" in err

    def test_report_on_fractional_batch_size(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--out", str(out), "--seed", "3", *SMALL])
        stats = json.loads((out / "funnel_stats.json").read_text(encoding="utf-8"))
        (out / "funnel_stats.json").write_text(json.dumps({**stats, "batch_size": 60.5}), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "batch_size" in err

    def test_report_on_outcome_with_a_string_score(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["run", "--out", str(out), "--seed", "3", *SMALL])
        record = next(r for r in read_jsonl(out / "outcomes.jsonl") if r["gate"] is not None)
        with open(out / "outcomes.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**record, "gate": {**record["gate"], "score": "x"}}) + "\n")
        capsys.readouterr()
        assert main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "gate.score: must be a number" in err

    def test_calibrate_fits_each_class_density_once(self, tmp_path, monkeypatch):
        calls = []
        real_kde = cli.cal.kde
        monkeypatch.setattr(cli.cal, "kde", lambda *a, **k: calls.append(1) or real_kde(*a, **k))
        assert main(["calibrate", "--out", str(tmp_path / "cal"), *SMALL]) == 0
        assert len(calls) == 2
        artifact = json.loads((tmp_path / "cal" / "calibration.json").read_text(encoding="utf-8"))
        assert artifact["delta_peak"] is not None

"""End-to-end CLI tests: config handling, command outputs, byte
reproducibility, exit codes, and pinned CSV headers."""

import json
from pathlib import Path

import pytest

from spec_funnel.cli import main
from spec_funnel.config import apply_override, load_config
from spec_funnel.errors import ConfigError
from spec_funnel.recordio import (
    ABLATE_BATCH_HEADER,
    ABLATE_TOPK_HEADER,
    OPERATING_POINTS_HEADER,
    REPLAY_HEADER,
    SCORES_HEADER,
    SUMMARY_HEADER,
    read_jsonl,
)

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

    def test_override_parses_json_then_string(self):
        raw = {}
        apply_override(raw, "gate.tau=0.5")
        apply_override(raw, "backend.kind=remote")
        apply_override(raw, "workload.quota.beta=0.8")
        assert raw == {
            "gate": {"tau": 0.5},
            "backend": {"kind": "remote"},
            "workload": {"quota": {"beta": 0.8}},
        }

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


class TestCalibrateCommand:
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

    @pytest.mark.parametrize("artifact", [{"chosen_tau": None}, [0.9], "0.9"])
    def test_run_with_unusable_calibration(self, tmp_path, capsys, artifact):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(artifact), encoding="utf-8")
        rc = main(["run", "--out", str(tmp_path / "o"), "--calibration", str(path), *SMALL])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: --calibration: ")

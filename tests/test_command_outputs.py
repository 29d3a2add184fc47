"""Every command's run directory: `ablate` on each axis and `replay` of a
logged batch reproduce pinned digests, and `manifest.json` lists exactly the
data files the command wrote."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.cli import main
from spec_funnel.funnel import ScheduleConfig, serve_batch
from spec_funnel.gate import GateConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 3
SMALL = ["--seed", str(SEED), "--set", "workload.n_queries=150", "--set", "ablation.batch_sizes=[1,8,64]"]

# sha256 of each output at SEED and SMALL, recorded before the commands
# shared one run-directory writer
ABLATE_DIGESTS = {
    "threshold": "324b3e3c0de1b1d249b24753e75af981cb78230701d1c21a6d127b9d2434d465",
    "top_k": "dc3ea7aeeb865a670e722ea7bcf3002fc9f0b1a043132070372d6c7d0b5d8963",
    "batch_size": "3c65d7dc38f8b61659677975c2d8cace089a89b1b65d927eb33981a88c115dad",
    "aggregation": "dc5bb263c3d3aba9d759a16237a717e5b50cdf36f184b175b321ef3ef82cb62e",
}
REPLAY_DIGEST = "8ea605bb58916cad247da91cd774afbecd9b98c2e7b126575b4dd01322fc8daa"


def _exchange_log(path, n_queries=150):
    """The exchange log of a remote `run` of n_queries against a synthetic
    server, written by perfbench/exchange_log.py's WireRecorder."""
    spec = importlib.util.spec_from_file_location("perfbench_exchange_log", PERFBENCH / "exchange_log.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    config = SyntheticConfig(seed=SEED)
    with open(path, "w", encoding="utf-8") as log:
        recorder = module.WireRecorder(SyntheticBackend(config), log)
        serve_batch(make_workload(config, n_queries), GateConfig(), ScheduleConfig(), recorder)
    return path


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("axis", sorted(ABLATE_DIGESTS))
def test_ablate_matches_pinned_digest(tmp_path, axis):
    assert main(["ablate", "--axis", axis, "--out", str(tmp_path), *SMALL]) == 0
    assert _sha(tmp_path / f"ablate_{axis}.csv") == ABLATE_DIGESTS[axis]


def test_replay_matches_pinned_digest(tmp_path):
    log = _exchange_log(tmp_path / "exchanges.jsonl")
    assert main(["replay", str(log), "--out", str(tmp_path / "replay"), "--seed", str(SEED)]) == 0
    assert _sha(tmp_path / "replay" / "replay_scores.csv") == REPLAY_DIGEST


COMMANDS = {
    "run": ["run"],
    "run-baseline": ["run", "--bypass", "off"],
    "calibrate": ["calibrate"],
    **{f"ablate-{axis}": ["ablate", "--axis", axis] for axis in ABLATE_DIGESTS},
    "replay": ["replay", "{log}"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_manifest_lists_exactly_the_data_files(tmp_path, name):
    log = _exchange_log(tmp_path / "exchanges.jsonl", n_queries=20) if name == "replay" else None
    out = tmp_path / "out"
    argv = [a.format(log=log) for a in COMMANDS[name]]
    assert main([*argv, "--out", str(out), *SMALL]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["command"] == name.replace("-baseline", "")

"""Every command's run directory: `ablate` on each axis and `replay` of a
logged batch reproduce pinned digests, and `manifest.json` lists exactly the
data files the command wrote."""

import hashlib
import importlib.util
import json
import math
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

# sha256 of `run`'s outcomes.jsonl at SEED and SMALL under each set of
# overrides, and of `replay_scores.csv` for the ragged log below, recorded
# before the gate scored packed per-answer logits. vocab_k=5 leaves every
# token with fewer logits than k, so each scored record carries top_k_clamped.
# Equal digests are expected: LOG_CONF ignores k, and at bottom_ratio=0.2 an
# answer of at most five tokens averages only its lowest score, as MIN does.
# The quota spec pins every query's screening and draft, and depth_cap=2
# truncates every loop deeper than two steps; both were recorded before the
# synthetic backend ran the tool loops of a whole workload together.
RUN_DIGESTS = {
    "gate.aggregation=log_conf": "f94eef91b358a1908ecdb30039867c12a7a431a6cd300cf264d46767d1cc63cb",
    "gate.aggregation=mean": "46faf7f4982a292fcba1a63d9a8af5c263430fe8ac82a67b4ee409fc44802898",
    "gate.aggregation=bottom_r": "76787412fb57616f16277517b9898dff8bb03ffae9633bceb5908a384f3c3b64",
    "gate.k=8": "385e533e4869d66a07585389233cab35726932e2a6d6d8093b920288154ade05",
    "gate.k=8 gate.aggregation=log_conf": "f94eef91b358a1908ecdb30039867c12a7a431a6cd300cf264d46767d1cc63cb",
    "gate.k=8 gate.aggregation=mean": "6433f471bd403af2eca6024642d5229540bee4fae9af98a0e239a3e01c85268b",
    "gate.k=8 gate.aggregation=bottom_r": "385e533e4869d66a07585389233cab35726932e2a6d6d8093b920288154ade05",
    "synthetic.vocab_k=5": "5aa4913243b40207fb5f0b7bd1f6047f02b42b5dc98418e749c005d159506695",
    "synthetic.vocab_k=5 gate.aggregation=log_conf": "203e97628c90272a7dc8d714a1a37d74fa60a83ff63f3f4a2631505e62f37225",
    "synthetic.vocab_k=5 gate.aggregation=mean": "f918dddc8f02f23a4936f3ee4e5da9f1168b339ec26751a6858f39e35be045dc",
    "synthetic.vocab_k=5 gate.aggregation=bottom_r": "5aa4913243b40207fb5f0b7bd1f6047f02b42b5dc98418e749c005d159506695",
    "workload.quota.beta=0.6 workload.quota.alpha=0.5": "165c3228bd5a9aa624ddfeb8ea03c77427fa4ea9b05935d6558e3f54fd040d63",
    "synthetic.depth_cap=2": "c611d05d8397acdc00cedbaf6fbe1964122f388481920bf33fd3051778e90f7c",
}
RAGGED_REPLAY_DIGESTS = {
    "gate.aggregation=min": "2c0d1f1ccf4b2b002ead244ab26be1ca2ef270991e579c08bc55d0bd4a9e2cde",
    "gate.aggregation=log_conf": "2ac298d4540e10b52d47bf618da19e3a3b957c386a1401c5677f365012d81d82",
    "gate.k=8 gate.aggregation=mean": "bb9457fcc383006ecef157d636305e48a73e76f7ba1513c4d848883a137a34df",
}


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


def _ragged_log(path):
    """Rewrite each logged /speculate token so that a varying number of its
    trailing logprobs are -Infinity (masked) and its entries arrive in
    reverse order: the parsed rows have lengths from 1 to 64."""
    entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for e, entry in enumerate(entries):
        if entry["route"] != "/speculate":
            continue
        for t, token in enumerate(entry["response"]["tokens"]):
            logprobs = token["top_logprobs"]
            for masked in logprobs[1 + (7 * e + 3 * t) % len(logprobs) :]:
                masked["logprob"] = -math.inf
            logprobs.reverse()
    path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in entries), encoding="utf-8")
    return path


def _overrides(spec):
    return [arg for assignment in spec.split() for arg in ("--set", assignment)]


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


@pytest.mark.parametrize("spec", sorted(RUN_DIGESTS))
def test_run_outcomes_match_pinned_digest(tmp_path, spec):
    assert main(["run", "--out", str(tmp_path), *SMALL, *_overrides(spec)]) == 0
    assert _sha(tmp_path / "outcomes.jsonl") == RUN_DIGESTS[spec]


def test_vocab_below_k_clamps_every_scored_record(tmp_path):
    assert main(["run", "--out", str(tmp_path), *SMALL, "--set", "synthetic.vocab_k=5"]) == 0
    records = [json.loads(line) for line in (tmp_path / "outcomes.jsonl").read_text().splitlines()]
    scored = [r["gate"] for r in records if r["gate"] is not None]
    assert len(scored) == 99
    assert all(g["diagnostics"] == ["top_k_clamped"] for g in scored)


@pytest.mark.parametrize("spec", sorted(RAGGED_REPLAY_DIGESTS))
def test_ragged_replay_matches_pinned_digest(tmp_path, spec):
    log = _ragged_log(_exchange_log(tmp_path / "exchanges.jsonl"))
    out = tmp_path / "replay"
    assert main(["replay", str(log), "--out", str(out), "--seed", str(SEED), *_overrides(spec)]) == 0
    assert _sha(out / "replay_scores.csv") == RAGGED_REPLAY_DIGESTS[spec]


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

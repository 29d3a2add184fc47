"""calibrate and both offline ablate sweeps share one collection-and-sweep
path: one judge, one draft and one agentic call per query, and `ablate
top_k` rows equal to gating each draft at each window directly."""

import csv
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from spec_funnel import cli
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.calibration import collect_score_sets, collect_scores
from spec_funnel.config import load_config
from spec_funnel.errors import BackendUnavailable, InfiniteSpeedup
from spec_funnel.funnel import speedup_model
from spec_funnel.gate import gate
from spec_funnel.pipeline import answers_match
from spec_funnel.recordio import csv_cell

N_QUERIES = 150
SEED = 3


class CountingBackend:
    """Counts each method's calls per query id; fails chosen ids."""

    def __init__(self, inner, fail=None):
        self.inner = inner
        self.fail = fail or {}
        self.calls = {"judge": Counter(), "speculate": Counter(), "agentic_run": Counter()}

    def _call(self, method, query):
        self.calls[method][query.id] += 1
        if query.id in self.fail.get(method, ()):
            raise BackendUnavailable(f"{method} down for {query.id}")
        return getattr(self.inner, method)(query)

    def judge(self, query):
        return self._call("judge", query)

    def speculate(self, query):
        return self._call("speculate", query)

    def agentic_run(self, query):
        return self._call("agentic_run", query)


def _counting(fail):
    """A stand-in for the CLI's SyntheticBackend that wraps it in a CountingBackend."""
    return lambda config, queries=(): CountingBackend(SyntheticBackend(config, queries), fail)


def _queries():
    config = SyntheticConfig(seed=SEED)
    return SyntheticBackend(config), make_workload(config, N_QUERIES)


def _failures(inner, queries):
    toolfree = [q.id for q in queries if inner.judge(q).g == 0]
    return {
        "judge": {toolfree[0]},
        "speculate": set(toolfree[1:6]),
        "agentic_run": {q.id for q in queries[::7]},
    }


def _run_cli(monkeypatch, tmp_path, fail, *command):
    made = []

    def build(config, queries=()):
        made.append(CountingBackend(SyntheticBackend(config, queries), fail))
        return made[-1]

    monkeypatch.setattr(cli, "SyntheticBackend", build)
    argv = [*command, "--out", str(tmp_path), "--seed", str(SEED), "--set", f"workload.n_queries={N_QUERIES}"]
    assert cli.main(argv) == cli.EXIT_OK
    (backend,) = made
    return backend


@pytest.mark.parametrize(
    "command",
    [("calibrate",), ("ablate", "--axis", "threshold"), ("ablate", "--axis", "top_k")],
)
def test_one_call_per_query_and_route(tmp_path, monkeypatch, command):
    inner, queries = _queries()
    backend = _run_cli(monkeypatch, tmp_path, None, *command)
    ids = [q.id for q in queries]
    toolfree = [q.id for q in queries if inner.judge(q).g == 0]
    assert backend.calls["judge"] == Counter(ids)
    assert backend.calls["speculate"] == Counter(toolfree)
    assert backend.calls["agentic_run"] == Counter(ids)


def test_collect_score_sets_matches_one_config_at_a_time(gate_config):
    inner, queries = _queries()
    configs = [replace(gate_config, k=k) for k in (4, 16, 64)]
    backend = CountingBackend(inner)
    together = collect_score_sets(queries, configs, backend)
    assert together == tuple(collect_scores(queries, c, inner) for c in configs)
    assert max(backend.calls["speculate"].values()) == 1


def _old_top_k_rows(config, backend):
    """The loop `ablate top_k` ran before it shared the calibrate path:
    keep every draft's token logits, then re-gate them at each window."""
    workload = make_workload(config.synthetic, config.workload.n_queries)
    fallback_accuracy, _, _ = cli._agentic_reference(workload, backend)
    dumps = {}
    labels = {}
    n_toolfree = 0
    for query in workload:
        try:
            if backend.judge(query).g == 1:
                continue
            draft = backend.speculate(query)
        except BackendUnavailable:
            continue
        n_toolfree += 1
        dumps[query.id] = draft.token_logits
        labels[query.id] = answers_match(draft.answer, query.ground_truth)
    beta_hat = n_toolfree / len(workload)
    rows = []
    for k in config.ablation.top_k:
        rescoring = replace(config.gate, k=k)
        decisions = {qid: gate(logits, rescoring) for qid, logits in dumps.items()}
        accepted = [qid for qid, d in decisions.items() if d.accepted]
        acceptance = len(accepted) / len(decisions)
        accepted_accuracy = float(np.mean([labels[qid] for qid in accepted])) if accepted else 0.0
        toolfree_accuracy = acceptance * accepted_accuracy + (1.0 - acceptance) * fallback_accuracy
        accuracy = beta_hat * toolfree_accuracy + (1.0 - beta_hat) * fallback_accuracy
        try:
            speedup = speedup_model(beta_hat, acceptance)
        except InfiniteSpeedup:
            speedup = float("inf")
        rows.append([csv_cell(v) for v in (k, acceptance, accuracy, speedup)])
    return rows


@pytest.mark.parametrize("with_failures", [False, True])
@pytest.mark.parametrize("tau", [0.9, 0.97])
def test_top_k_matches_direct_rescoring(tmp_path, monkeypatch, with_failures, tau):
    inner, queries = _queries()
    fail = _failures(inner, queries) if with_failures else None
    monkeypatch.setattr(cli, "SyntheticBackend", _counting(fail))
    argv = ["--seed", str(SEED), "--set", f"workload.n_queries={N_QUERIES}", "--set", f"gate.tau={tau}"]
    assert cli.main(["ablate", "--axis", "top_k", "--out", str(tmp_path), *argv]) == cli.EXIT_OK
    with open(tmp_path / "ablate_top_k.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    config = load_config(None, [f"workload.n_queries={N_QUERIES}", f"gate.tau={tau}", f"seed={SEED}"])
    expected = _old_top_k_rows(config, CountingBackend(SyntheticBackend(config.synthetic), fail))
    assert rows == expected
    assert len({row[1] for row in rows}) > 1  # the window size matters


def test_top_k_without_tool_free_queries_is_degenerate_before_agentic(tmp_path, monkeypatch):
    inner, queries = _queries()
    fail = {"speculate": {q.id for q in queries}, "agentic_run": {q.id for q in queries}}
    monkeypatch.setattr(cli, "SyntheticBackend", _counting(fail))
    argv = ["ablate", "--axis", "top_k", "--out", str(tmp_path), "--seed", str(SEED)]
    assert cli.main([*argv, "--set", f"workload.n_queries={N_QUERIES}"]) == cli.EXIT_DEGENERATE

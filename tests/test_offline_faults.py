"""calibrate and ablate under backend failures: a failed call is left out
and counted, as `run` degrades, instead of aborting the command; and the
offline collection and the served batch read the same phase results."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spec_funnel import cli
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.calibration import collect_scores
from spec_funnel.errors import BackendUnavailable
from spec_funnel.funnel import ScheduleConfig, serve_batch
from spec_funnel.gate import GateConfig
from spec_funnel.pipeline import QueryPath, answers_match

N_QUERIES = 120
SEED = 3
FAULT_QUERIES = 40


class FailingBackend:
    """Wraps a backend; each method raises BackendUnavailable on chosen query ids."""

    def __init__(self, inner, fail):
        self.inner = inner
        self.fail = fail

    def _call(self, method, query):
        if query.id in self.fail.get(method, ()):
            raise BackendUnavailable(f"{method} down for {query.id}")
        return getattr(self.inner, method)(query)

    def judge(self, query):
        return self._call("judge", query)

    def speculate(self, query):
        return self._call("speculate", query)

    def agentic_run(self, query):
        return self._call("agentic_run", query)


@pytest.fixture
def workload():
    config = SyntheticConfig(seed=SEED)
    inner = SyntheticBackend(config)
    queries = make_workload(config, N_QUERIES)
    toolfree = [q.id for q in queries if inner.judge(q).g == 0]
    fail = {
        "judge": {toolfree[0]},
        "speculate": set(toolfree[1:6]),
        "agentic_run": {q.id for q in queries[::7]},
    }
    return inner, queries, fail


def test_collect_scores_skips_failed_drafts(workload, gate_config):
    inner, queries, fail = workload
    clean = collect_scores(queries, gate_config, inner)
    collection = collect_scores(queries, gate_config, FailingBackend(inner, fail))
    assert collection.n_failed == len(fail["speculate"])
    assert collection.n_tool_required == clean.n_tool_required + len(fail["judge"])
    assert len(collection.samples) + collection.n_tool_required + collection.n_failed == N_QUERIES
    assert collection.n_total == N_QUERIES
    skipped = fail["judge"] | fail["speculate"]
    assert collection.samples == tuple(s for s in clean.samples if s.query_id not in skipped)
    assert collection.n_judge_failed == len(fail["judge"])
    assert clean.n_failed == clean.n_judge_failed == 0


def _fail_in_cli(monkeypatch, fail):
    def build(config, queries=()):
        return FailingBackend(SyntheticBackend(config, queries), fail)

    monkeypatch.setattr(cli, "SyntheticBackend", build)


@pytest.fixture
def failing_cli(monkeypatch, workload):
    _fail_in_cli(monkeypatch, workload[2])


def _main(*command, out):
    size = f"workload.n_queries={N_QUERIES}"
    return cli.main([*command, "--out", str(out), "--seed", str(SEED), "--set", size])


def test_calibrate_completes_and_counts_add_up(tmp_path, capsys, workload, failing_cli):
    inner, queries, fail = workload
    assert _main("calibrate", out=tmp_path) == cli.EXIT_OK
    artifact = json.loads((tmp_path / "calibration.json").read_text(encoding="utf-8"))
    n_failed = len(fail["speculate"])
    assert artifact["n_samples"] + artifact["n_tool_required"] + n_failed == N_QUERIES
    assert artifact["beta_hat"] == artifact["n_samples"] / N_QUERIES
    kept = [q for q in queries if q.id not in fail["agentic_run"]]
    outputs = [inner.agentic_run(q) for q in kept]
    assert artifact["costs"]["agentic_mean_s"] == pytest.approx(
        sum(o.latency_s for o in outputs) / len(kept), rel=1e-12
    )
    assert artifact["fallback_accuracy"] == pytest.approx(
        sum(answers_match(o.answer, q.ground_truth) for o, q in zip(outputs, kept)) / len(kept),
        rel=1e-12,
    )
    warnings = capsys.readouterr().err.strip().splitlines()
    assert len(warnings) == 1
    n_calls_failed = n_failed + len(fail["judge"]) + len(fail["agentic_run"])
    assert f"{n_calls_failed} backend calls failed" in warnings[0]


@pytest.mark.parametrize("command", [("calibrate",), ("ablate", "--axis", "threshold")])
def test_failed_judge_calls_are_counted_in_the_warning(tmp_path, capsys, monkeypatch, workload, command):
    _, queries, _ = workload
    _fail_in_cli(monkeypatch, {"judge": {q.id for q in queries[:3]}})
    assert _main(*command, out=tmp_path) == cli.EXIT_OK
    assert "3 backend calls failed" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["threshold", "top_k"])
def test_ablate_completes_with_a_warning(tmp_path, capsys, failing_cli, axis):
    assert _main("ablate", "--axis", axis, out=tmp_path) == cli.EXIT_OK
    assert (tmp_path / f"ablate_{axis}.csv").exists()
    assert "backend calls failed" in capsys.readouterr().err


def test_calibrate_without_any_agentic_result_is_a_backend_error(tmp_path, monkeypatch, workload):
    _, queries, _ = workload
    _fail_in_cli(monkeypatch, {"agentic_run": {q.id for q in queries}})
    assert _main("calibrate", out=tmp_path) == cli.EXIT_BACKEND


def test_clean_calibrate_prints_no_warning(tmp_path, capsys):
    assert _main("calibrate", out=tmp_path) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    judge_faults=st.sets(st.integers(0, FAULT_QUERIES - 1), max_size=FAULT_QUERIES),
    speculate_faults=st.sets(st.integers(0, FAULT_QUERIES - 1), max_size=FAULT_QUERIES),
)
def test_collect_scores_degrades_as_serve_batch_does(seed, judge_faults, speculate_faults):
    config = SyntheticConfig(seed=seed)
    queries = make_workload(config, FAULT_QUERIES)
    fail = {
        "judge": {queries[i].id for i in judge_faults},
        "speculate": {queries[i].id for i in speculate_faults},
    }
    gate_config = GateConfig(tau=0.9)
    collection = collect_scores(queries, gate_config, FailingBackend(SyntheticBackend(config), fail))
    outcomes, _ = serve_batch(
        queries, gate_config, ScheduleConfig(), FailingBackend(SyntheticBackend(config), fail)
    )
    gated = {o.query_id: o.gate.score for o in outcomes if o.gate is not None}
    assert [s.query_id for s in collection.samples] == [q.id for q in queries if q.id in gated]
    assert {s.query_id: s.score for s in collection.samples} == gated
    paths = [o.path for o in outcomes]
    assert collection.n_tool_required == paths.count(QueryPath.TOOL_REQUIRED_FALLBACK)
    assert collection.n_failed == sum(
        1 for o in outcomes if o.path is QueryPath.SPECULATION_REJECTED_FALLBACK and o.gate is None
    )
    assert collection.n_judge_failed == len(fail["judge"])

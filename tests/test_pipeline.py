"""Routing, latency accounting, and answer matching for the per-query
pipeline."""

import math

import numpy as np
import pytest

from spec_funnel.backends.base import Query, SpeculativeAnswer
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.errors import BackendUnavailable, ValidationError
from spec_funnel.gate import GateConfig
from spec_funnel.pipeline import (
    LatencyBreakdown,
    QueryPath,
    answers_match,
    expected_latency,
    process_query,
)


class FlakyBackend:
    """Wraps a synthetic backend, failing selected phases."""

    def __init__(self, inner, fail=()):
        self.inner = inner
        self.fail = set(fail)

    def judge(self, query):
        if "judge" in self.fail:
            raise BackendUnavailable("judge down")
        return self.inner.judge(query)

    def speculate(self, query):
        if "speculate" in self.fail:
            raise BackendUnavailable("speculate down")
        return self.inner.speculate(query)

    def agentic_run(self, query):
        if "agentic" in self.fail:
            raise BackendUnavailable("agentic down")
        return self.inner.agentic_run(query)


def perfect_config(**overrides):
    defaults = dict(
        seed=21,
        judge_accuracy=1.0,
        draft_accuracy_toolfree=1.0,
        sep_sigma=0.0,
        judge_cost_s=0.1,
        speculate_cost_s=0.5,
    )
    defaults.update(overrides)
    return SyntheticConfig(**defaults)


class TestRouting:
    def test_happy_path_accepts(self):
        backend = SyntheticBackend(perfect_config())
        query = Query(id="q", ground_truth="A", true_requires_tools=False)
        outcome = process_query(query, GateConfig(tau=0.9), backend)
        assert outcome.path is QueryPath.SPECULATION_ACCEPTED
        assert outcome.latency.agentic_s == 0.0
        assert outcome.gate is not None and outcome.gate.accepted
        assert outcome.correct is True

    def test_tool_required_skips_speculation(self):
        backend = SyntheticBackend(perfect_config())
        query = Query(id="q", ground_truth="A", true_requires_tools=True)
        outcome = process_query(query, GateConfig(tau=0.9), backend)
        assert outcome.path is QueryPath.TOOL_REQUIRED_FALLBACK
        assert outcome.latency.speculate_s == 0.0
        assert outcome.gate is None

    def test_rejected_pays_all_three_phases(self):
        config = perfect_config(draft_accuracy_toolfree=0.0)  # low-margin drafts
        backend = SyntheticBackend(config)
        query = Query(id="q", ground_truth="A", true_requires_tools=False, true_depth=2)
        outcome = process_query(query, GateConfig(tau=0.99), backend)
        assert outcome.path is QueryPath.SPECULATION_REJECTED_FALLBACK
        assert outcome.latency.judge_s == 0.1
        assert outcome.latency.speculate_s == 0.5
        assert outcome.latency.agentic_s > 0.0
        assert outcome.total_latency_s == pytest.approx(
            0.1 + 0.5 + outcome.latency.agentic_s, abs=1e-12
        )

    def test_accepted_answer_is_unmodified_draft(self):
        backend = SyntheticBackend(perfect_config())
        query = Query(id="q", ground_truth="B", true_requires_tools=False)
        outcome = process_query(query, GateConfig(tau=0.9), backend)
        assert outcome.answer == backend.speculate(query).answer

    def test_judge_failure_routes_to_fallback(self, gate_config):
        backend = FlakyBackend(SyntheticBackend(perfect_config()), fail={"judge"})
        query = Query(id="q", ground_truth="A", true_requires_tools=False)
        outcome = process_query(query, gate_config, backend)
        assert outcome.path is QueryPath.TOOL_REQUIRED_FALLBACK
        assert outcome.latency.judge_s == 0.0
        assert outcome.error is None

    def test_speculate_failure_routes_to_fallback_without_gate(self, gate_config):
        backend = FlakyBackend(SyntheticBackend(perfect_config()), fail={"speculate"})
        query = Query(id="q", ground_truth="A", true_requires_tools=False)
        outcome = process_query(query, gate_config, backend)
        assert outcome.path is QueryPath.SPECULATION_REJECTED_FALLBACK
        assert outcome.gate is None
        assert outcome.error is None

    def test_agentic_failure_surfaces_error(self, gate_config):
        backend = FlakyBackend(SyntheticBackend(perfect_config()), fail={"agentic"})
        query = Query(id="q", ground_truth="A", true_requires_tools=True)
        outcome = process_query(query, gate_config, backend)
        assert outcome.error == "agentic down"
        assert outcome.answer == ""
        assert outcome.correct is None

    def test_empty_draft_falls_back(self, gate_config):
        class EmptyDraftBackend(FlakyBackend):
            def speculate(self, query):
                return SpeculativeAnswer(answer="", token_logits=(), latency_s=0.2)

        backend = EmptyDraftBackend(SyntheticBackend(perfect_config()))
        query = Query(id="q", ground_truth="A", true_requires_tools=False)
        outcome = process_query(query, gate_config, backend)
        assert outcome.path is QueryPath.SPECULATION_REJECTED_FALLBACK
        assert outcome.gate is not None and not outcome.gate.accepted
        assert "empty_answer" in outcome.gate.diagnostics


class TestLatencyBreakdown:
    @pytest.mark.parametrize("latency", [math.nan, math.inf, -0.5])
    def test_rejects_non_finite_or_negative_phase(self, latency):
        for phase in ("judge_s", "speculate_s", "agentic_s"):
            with pytest.raises(ValidationError):
                LatencyBreakdown(**{phase: latency})


class TestMonteCarloConsistency:
    def test_mean_latency_matches_analytic_model(self, synthetic_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 4000)
        gate_config = GateConfig(tau=0.9)
        outcomes = [process_query(q, gate_config, backend) for q in queries]
        beta = sum(
            1 for o in outcomes if o.path is not QueryPath.TOOL_REQUIRED_FALLBACK
        ) / len(outcomes)
        accepted = sum(1 for o in outcomes if o.path is QueryPath.SPECULATION_ACCEPTED)
        alpha = accepted / max(1, round(beta * len(outcomes)))
        fallback_costs = [
            o.latency.agentic_s for o in outcomes if o.path is not QueryPath.SPECULATION_ACCEPTED
        ]
        predicted = expected_latency(
            beta,
            alpha,
            synthetic_config.judge_cost_s,
            synthetic_config.speculate_cost_s,
            float(np.mean(fallback_costs)),
        )
        observed = float(np.mean([o.total_latency_s for o in outcomes]))
        assert observed == pytest.approx(predicted, rel=0.02)

    def test_accuracy_decomposition_identity(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 500)
        outcomes = [process_query(q, gate_config, backend) for q in queries]
        accepted = [o for o in outcomes if o.path is QueryPath.SPECULATION_ACCEPTED]
        fallback = [o for o in outcomes if o.path is not QueryPath.SPECULATION_ACCEPTED]
        total_correct = sum(1 for o in outcomes if o.correct)
        assert total_correct == sum(1 for o in accepted if o.correct) + sum(
            1 for o in fallback if o.correct
        )

    def test_tau_near_one_reduces_to_agentic_accuracy(self, synthetic_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 400)
        strict = GateConfig(tau=1.0 - 1e-12)
        outcomes = [process_query(q, strict, backend) for q in queries]
        assert all(o.path is not QueryPath.SPECULATION_ACCEPTED for o in outcomes)
        agentic_answers = {q.id: backend.agentic_run(q).answer for q in queries}
        assert all(o.answer == agentic_answers[o.query_id] for o in outcomes)


class TestExpectedLatency:
    def test_worked_value(self):
        assert expected_latency(0.8, 0.71, 0.1, 0.5, 10.0) == pytest.approx(4.82, abs=1e-12)

    def test_no_speculation_branch(self):
        assert expected_latency(0.0, 0.5, 0.1, 0.5, 10.0) == pytest.approx(10.1, abs=1e-12)

    def test_full_bypass(self):
        assert expected_latency(1.0, 1.0, 0.1, 0.5, 10.0) == pytest.approx(0.6, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            expected_latency(1.1, 0.5, 0.1, 0.5, 10.0)
        with pytest.raises(ValidationError):
            expected_latency(0.5, 0.5, -0.1, 0.5, 10.0)


class TestAnswerMatching:
    def test_whitespace_and_case(self):
        assert answers_match("  Yes  ", "yes")
        assert answers_match("two  words", "Two Words")
        assert not answers_match("yes", "no")

    def test_letter_choice_first_token(self):
        assert answers_match("A.", "a")
        assert answers_match("B) because", "B")
        assert not answers_match("C", "B")

    def test_empty_prediction(self):
        assert not answers_match("", "A")

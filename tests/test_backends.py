"""Contract tests for the synthetic backend: determinism, statelessness of
the draft path, statefulness of the tool loop, and latency accounting."""

import math

import numpy as np
import pytest

from spec_funnel.backends.base import (
    AgenticOutput,
    JudgeOutput,
    Query,
    SpeculativeAnswer,
    substream,
)
from spec_funnel.backends.synthetic import (
    SyntheticBackend,
    SyntheticConfig,
    Uniform,
    make_quota_workload,
    make_workload,
    margin_vector,
    validate_quota_gate,
)
from spec_funnel.errors import ValidationError
from spec_funnel.gate import GateConfig, gate

from oracles import agentic_step_stream, separability_floor, token_separability


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, "q1", "judge").random(4)
        b = substream(7, "q1", "judge").random(4)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = substream(7, "q1", "judge").random(4)
        b = substream(7, "q2", "judge").random(4)
        c = substream(8, "q1", "judge").random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestJudge:
    def test_perfect_judge(self):
        backend = SyntheticBackend(SyntheticConfig(seed=1, judge_accuracy=1.0))
        toolfree = Query(id="a", true_requires_tools=False)
        toolreq = Query(id="b", true_requires_tools=True)
        assert backend.judge(toolfree).g == 0
        assert backend.judge(toolreq).g == 1

    def test_judge_flip_rate(self):
        backend = SyntheticBackend(SyntheticConfig(seed=3, judge_accuracy=0.9))
        flags = [
            backend.judge(Query(id=f"q{i}", true_requires_tools=False)).g for i in range(10_000)
        ]
        rate = flags.count(0) / len(flags)
        assert 0.89 <= rate <= 0.91

    def test_judge_latency(self):
        backend = SyntheticBackend(SyntheticConfig(seed=1, judge_cost_s=0.125))
        assert backend.judge(Query(id="a")).latency_s == 0.125


class TestSpeculate:
    def test_stateless_determinism(self, backend):
        query = Query(id="q7", ground_truth="A", true_requires_tools=False)
        first = backend.speculate(query)
        backend.speculate(Query(id="other", ground_truth="B"))  # interleaved call
        second = backend.speculate(query)
        assert first == second

    def test_margin_round_trip(self):
        config = SyntheticConfig(
            seed=5, sep_mu_correct=4.0, sep_mu_incorrect=0.5, sep_sigma=0.0,
            draft_accuracy_toolfree=1.0,
        )
        backend = SyntheticBackend(config)
        query = Query(id="q", ground_truth="A", true_requires_tools=False)
        draft = backend.speculate(query)
        for token in draft.token_logits:
            sep = token_separability(token, config.vocab_k, 1e-6)
            assert sep == pytest.approx(4.0, abs=1e-4)

    def test_packed_rows_are_margin_vectors(self):
        config = SyntheticConfig(
            seed=5, vocab_k=16, answer_len_weights={4: 1.0}, draft_accuracy_toolfree=1.0
        )
        draft = SyntheticBackend(config).speculate(Query(id="q", true_requires_tools=False))
        # the speculate stream: correctness, answer length, then the margins
        rng = substream(5, "q", "speculate")
        rng.random()
        rng.random()
        margins = np.maximum(rng.normal(config.sep_mu_correct, config.sep_sigma, size=4), 0.0)
        assert draft.token_logits == tuple(margin_vector(m, config.vocab_k) for m in margins)
        assert draft.token_logits.lengths.tolist() == [16] * 4

    def test_answer_length_point_mass(self):
        config = SyntheticConfig(seed=5, answer_len_weights={3: 1.0})
        backend = SyntheticBackend(config)
        draft = backend.speculate(Query(id="q", true_requires_tools=False))
        assert len(draft.token_logits) == 3

    def test_correct_draft_matches_truth(self):
        config = SyntheticConfig(seed=5, draft_accuracy_toolfree=1.0)
        backend = SyntheticBackend(config)
        query = Query(id="q", ground_truth="C", true_requires_tools=False)
        assert backend.speculate(query).answer == "C"

    def test_incorrect_draft_differs(self):
        config = SyntheticConfig(seed=5, draft_accuracy_toolfree=0.0)
        backend = SyntheticBackend(config)
        query = Query(id="q", ground_truth="C", true_requires_tools=False)
        assert backend.speculate(query).answer != "C"

    def test_incorrect_free_text_draft(self):
        backend = SyntheticBackend(SyntheticConfig(seed=5, draft_accuracy_toolfree=0.0))
        query = Query(id="q", ground_truth="yes", true_requires_tools=False)
        assert backend.speculate(query).answer == "not-yes"


class TestAgenticRun:
    def test_latency_is_step_sum(self):
        output = AgenticOutput("A", [(1.0, 0.5), (1.0, 0.7), (1.0, 0.0)])
        assert output.latency_s == pytest.approx(4.2, abs=1e-12)
        assert output.depth == 2

    def test_worked_cost_example(self):
        config = SyntheticConfig(seed=2, llm_step_cost_s=1.0, tool_cost=Uniform(0.6, 0.6))
        backend = SyntheticBackend(config)
        output = backend.agentic_run(Query(id="q", true_depth=2))
        # (1 + 0.6) + (1 + 0.6) + 1, the final answer step carries no tool
        assert output.latency_s == pytest.approx(4.2, abs=1e-9)
        assert output.step_costs[-1][1] == 0.0

    def test_depth_cap_truncates(self):
        backend = SyntheticBackend(SyntheticConfig(seed=2, depth_cap=5))
        output = backend.agentic_run(Query(id="q", true_depth=7))
        assert output.depth == 5
        assert output.truncated

    def test_zero_depth_single_step(self):
        config = SyntheticConfig(seed=2, llm_step_cost_s=1.25)
        backend = SyntheticBackend(config)
        output = backend.agentic_run(Query(id="q", true_depth=0))
        assert output.depth == 0
        assert output.latency_s == pytest.approx(1.25, abs=1e-12)

    def test_latency_sum_invariant(self, backend):
        for i in range(50):
            output = backend.agentic_run(Query(id=f"q{i}"))
            total = math.fsum(c for pair in output.step_costs for c in pair)
            assert output.latency_s == pytest.approx(total, abs=1e-9)

    def test_step_streams_depend_on_previous_observation(self):
        a = agentic_step_stream(1, "q", 1, "observation-a").random(4)
        b = agentic_step_stream(1, "q", 1, "observation-b").random(4)
        assert not np.array_equal(a, b)

    def test_deterministic_per_query(self, backend):
        query = Query(id="q42")
        assert backend.agentic_run(query) == backend.agentic_run(query)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestRecordGuards:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Query(id=""), "query id must be non-empty"),
            (lambda: Query(id="q", true_depth=-1), "true_depth must be >= 0"),
            (lambda: JudgeOutput(g=2, latency_s=0.0), "judge flag must be 0 or 1"),
            (lambda: SpeculativeAnswer(answer="A", token_logits=(), latency_s=0.0), "non-empty answer requires"),
        ],
        ids=["empty-id", "negative-true-depth", "judge-flag-2", "answer-without-logits"],
    )
    def test_inconsistent_record_rejected(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()


class TestNonFiniteLatencyRejected:
    @pytest.mark.parametrize("latency", NON_FINITE)
    def test_judge_output(self, latency):
        with pytest.raises(ValidationError):
            JudgeOutput(g=0, latency_s=latency)

    @pytest.mark.parametrize("latency", NON_FINITE)
    def test_speculative_answer(self, latency):
        with pytest.raises(ValidationError):
            SpeculativeAnswer(answer="", token_logits=(), latency_s=latency)

    @pytest.mark.parametrize("cost", NON_FINITE)
    def test_agentic_output(self, cost):
        with pytest.raises(ValidationError):
            AgenticOutput("A", [(1.0, cost), (1.0, 0.0)])

    def test_agentic_output_whose_finite_costs_sum_past_the_largest_float(self):
        with pytest.raises(ValidationError, match="step costs must be finite"):
            AgenticOutput("A", [(1e308, 1e308)])


class TestWorkloads:
    def test_bernoulli_beta_convergence(self):
        config = SyntheticConfig(seed=9, p_tool_required=0.3, judge_accuracy=0.92)
        backend = SyntheticBackend(config)
        queries = make_workload(config, 10_000)
        g0 = sum(1 for q in queries if backend.judge(q).g == 0)
        expected = 0.7 * 0.92 + 0.3 * 0.08
        assert abs(g0 / len(queries) - expected) <= 0.02

    @pytest.mark.parametrize("n_queries", [0, math.nan])
    def test_empty_workload_rejected(self, synthetic_config, n_queries):
        with pytest.raises(ValidationError, match="n_queries"):
            make_workload(synthetic_config, n_queries)
        with pytest.raises(ValidationError, match="n_queries"):
            make_quota_workload(synthetic_config, n_queries, 0.8, 0.71)

    def test_workload_reproducible(self, synthetic_config):
        assert make_workload(synthetic_config, 50) == make_workload(synthetic_config, 50)

    def test_quota_counts_exact(self, synthetic_config):
        queries = make_quota_workload(synthetic_config, 1000, 0.8, 0.71)
        toolfree = [q for q in queries if not q.true_requires_tools]
        accept = [q for q in toolfree if q.true_draft_correct]
        assert len(toolfree) == 800
        assert len(accept) == 568

    def test_quota_gating_is_exact(self):
        config = SyntheticConfig(seed=4)
        backend = SyntheticBackend(config)
        gate_config = GateConfig(tau=0.9)
        validate_quota_gate(config, gate_config)
        queries = make_quota_workload(config, 200, 0.75, 0.6)
        accepted = 0
        for query in queries:
            if backend.judge(query).g == 1:
                continue
            draft = backend.speculate(query)
            if gate(draft.token_logits, gate_config).accepted:
                accepted += 1
        assert accepted == math.floor(0.6 * round(0.75 * 200))

    def test_quota_validation_rejects_bad_threshold(self):
        config = SyntheticConfig(seed=4, sep_mu_incorrect=3.0, sep_mu_correct=4.0)
        with pytest.raises(ValidationError):
            validate_quota_gate(config, GateConfig(tau=0.9))


class TestMarginGenerator:
    def test_floor_below_default_incorrect_mean(self):
        assert separability_floor(64) < 0.5

    def test_inverse_construction_exact(self):
        for margin in (0.5, 1.0, 2.5, 4.0, 6.0):
            logits = margin_vector(margin, 64)
            assert token_separability(logits, 64, 0.0) == pytest.approx(margin, abs=1e-9)

    def test_clamps_to_representable_range(self):
        ceiling = math.sqrt(63)
        high = token_separability(margin_vector(50.0, 64), 64, 0.0)
        assert high <= ceiling
        low = token_separability(margin_vector(0.0, 64), 64, 0.0)
        assert low == pytest.approx(separability_floor(64), abs=1e-9)

    @pytest.mark.parametrize("width", [1, math.nan])
    def test_width_below_two_rejected(self, width):
        with pytest.raises(ValidationError, match=r"width must lie in \[2, inf\)"):
            margin_vector(1.0, width)
        with pytest.raises(ValidationError, match=r"tail_width must lie in \[1, inf\)"):
            separability_floor(width)

    def test_vectors_sorted_descending(self):
        for margin in (0.0, 0.3, 5.0):
            values = margin_vector(margin, 32).values
            assert np.all(np.diff(values) <= 0.0)


class TestConfigValidation:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(p_tool_required=1.5)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("sep_mu_correct", math.inf),
            ("sep_mu_incorrect", -math.inf),
            ("sep_sigma", math.inf),
            ("sep_sigma", math.nan),
        ],
    )
    def test_rejects_non_finite_margin_parameter(self, name, value):
        with pytest.raises(ValidationError, match=name):
            SyntheticConfig(**{name: value})

    @pytest.mark.parametrize("name", ["judge_cost_s", "speculate_cost_s", "llm_step_cost_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_cost(self, name, value):
        with pytest.raises(ValidationError, match=name):
            SyntheticConfig(**{name: value})

    def test_rejects_negative_depth_key(self):
        with pytest.raises(ValidationError, match="depth_weights keys must be >= 0"):
            SyntheticConfig(depth_weights={-1: 1.0})

    def test_rejects_inverted_margins(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(sep_mu_correct=0.5, sep_mu_incorrect=1.0)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(judge_cost_s=-0.1)
        with pytest.raises(ValidationError):
            Uniform(0.5, 0.2)

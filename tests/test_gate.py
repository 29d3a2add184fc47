"""Worked-example tests for the gating math, frozen against hand
computations and closed forms."""

import math

import numpy as np
import pytest

from spec_funnel.backends.synthetic import margin_vector
from spec_funnel.errors import EmptyAnswerError, ValidationError
from spec_funnel.gate import (
    AnswerLogits,
    GateConfig,
    Scoring,
    TokenLogits,
    Verdict,
    aggregate,
    gate,
    normalize,
)

from oracles import from_raw, log_confidence, logit, max_softmax_prob, token_separability


def tl(*values):
    return TokenLogits(np.asarray(values, dtype=np.float64))


class TestTokenLogits:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TokenLogits(np.array([]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            tl(1.0, 2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            tl(np.inf, 0.0)
        with pytest.raises(ValidationError):
            tl(1.0, np.nan)

    def test_from_raw_sorts(self):
        logits = from_raw([0.5, 2.0, -1.0])
        assert list(logits.values) == [2.0, 0.5, -1.0]

    def test_ties_allowed(self):
        assert len(tl(2.0, 2.0, 1.0)) == 3

    def test_never_equals_a_value_that_is_not_logits(self):
        assert tl(1.0, 0.0) != (1.0, 0.0) and tl(1.0) != 1.0 and tl(1.0) != "A"


NEG = -np.inf

# (values, lengths) pairs that each break one AnswerLogits invariant; the
# valid answer they start from is [[3, 1, -inf], [2, 2, 0]] with lengths [2, 3]
BROKEN_ANSWERS = {
    "nan": ([[3.0, np.nan, NEG], [2.0, 2.0, 0.0]], [2, 3]),
    "positive_inf": ([[np.inf, 1.0, NEG], [2.0, 2.0, 0.0]], [2, 3]),
    "unsorted_row": ([[3.0, 1.0, NEG], [2.0, 0.0, 2.0]], [2, 3]),
    "zero_length": ([[NEG, NEG, NEG], [2.0, 2.0, 0.0]], [0, 3]),
    "finite_padding": ([[3.0, 1.0, 0.5], [2.0, 2.0, 0.0]], [2, 3]),
    "nan_padding": ([[3.0, 1.0, np.nan], [2.0, 2.0, 0.0]], [2, 3]),
    "neg_inf_inside": ([[3.0, NEG, NEG], [2.0, 2.0, 0.0]], [2, 3]),
    "length_past_width": ([[3.0, 1.0, NEG], [2.0, 2.0, 0.0]], [2, 4]),
    "too_few_lengths": ([[3.0, 1.0, NEG], [2.0, 2.0, 0.0]], [2]),
    "too_many_lengths": ([[3.0, 1.0, NEG], [2.0, 2.0, 0.0]], [2, 3, 1]),
    "flat_array": ([3.0, 1.0], [2]),
    "fractional_lengths": ([[3.0, 1.0, NEG], [2.0, 2.0, 0.0]], [2.0, 3.0]),
}


class TestAnswerLogits:
    def test_valid_answer_unpacks_to_its_tokens(self):
        answer = AnswerLogits(np.array([[3.0, 1.0, NEG], [2.0, 2.0, 0.0]]), np.array([2, 3]))
        assert len(answer) == 2
        assert answer == (tl(3.0, 1.0), tl(2.0, 2.0, 0.0))
        assert answer[1] == tl(2.0, 2.0, 0.0) and answer[-2] == tl(3.0, 1.0)
        assert answer != (tl(3.0, 1.0),) and answer != (tl(3.0, 1.0), tl(2.0, 2.0))
        assert answer != "A" and answer != 3.0 and answer != {0: tl(3.0, 1.0)}

    @pytest.mark.parametrize("name", sorted(BROKEN_ANSWERS))
    def test_each_broken_invariant_raises(self, name):
        values, lengths = BROKEN_ANSWERS[name]
        with pytest.raises(ValidationError):
            AnswerLogits(np.array(values), np.array(lengths))

    def test_empty_answer(self):
        empty = AnswerLogits.from_tokens(())
        assert len(empty) == 0 and empty == () and list(empty) == []
        assert gate(empty, GateConfig()).diagnostics == ("empty_answer",)

    def test_from_tokens_pads_with_neg_inf(self):
        answer = AnswerLogits.from_tokens([tl(1.0), tl(3.0, 2.0, -1.0)])
        assert answer.values.tolist() == [[1.0, NEG, NEG], [3.0, 2.0, -1.0]]
        assert answer.lengths.tolist() == [1, 3]


class TestTokenSeparability:
    def test_two_point_margin(self):
        # mean 2, population std 1
        assert token_separability(tl(3.0, 1.0), k=2, epsilon=0.0) == 1.0

    def test_flat_window_scores_zero(self):
        assert token_separability(tl(5.0, 5.0, 5.0, 5.0), k=4, epsilon=1e-6) == 0.0

    def test_scale_invariance_at_zero_epsilon(self):
        assert token_separability(tl(6.0, 2.0), k=2, epsilon=0.0) == 1.0

    def test_clamps_k_to_available(self):
        short = tl(3.0, 1.0)
        assert token_separability(short, k=64, epsilon=0.0) == token_separability(
            short, k=2, epsilon=0.0
        )

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            logits = from_raw(rng.normal(0, 3, size=8))
            assert token_separability(logits, k=8) >= 0.0

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            token_separability(tl(1.0, 0.0), k=0)
        with pytest.raises(ValidationError):
            token_separability(tl(1.0, 0.0), k=2, epsilon=-1.0)

    @pytest.mark.parametrize("kwargs", [{"k": math.nan}, {"epsilon": math.nan}, {"epsilon": math.inf}])
    def test_non_finite_args_rejected(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            token_separability(tl(1.0, 0.0), **kwargs)


class TestMaxSoftmaxProb:
    def test_symmetric_pair(self):
        assert max_softmax_prob(tl(0.0, 0.0)) == pytest.approx(0.5, abs=1e-15)

    def test_closed_form(self):
        expected = math.e / (math.e + 1.0)
        assert max_softmax_prob(tl(1.0, 0.0)) == pytest.approx(expected, abs=1e-12)

    def test_single_support(self):
        assert max_softmax_prob(tl(10.0)) == 1.0


class TestLogConfidence:
    def test_geometric_mean_of_two(self):
        # logits [0, log(1/9)] -> p_max 0.9; [0, log(0.75), log(0.75)] ->
        # p_max 1/2.5 = 0.4; geometric mean sqrt(0.36) = 0.6
        a9 = from_raw([0.0, math.log(1 / 9)])
        b4 = from_raw([0.0, math.log(0.75), math.log(0.75)])
        assert max_softmax_prob(a9) == pytest.approx(0.9, abs=1e-12)
        assert max_softmax_prob(b4) == pytest.approx(0.4, abs=1e-12)
        assert log_confidence([a9, b4]) == pytest.approx(0.6, abs=1e-12)

    def test_single_token_identity(self):
        a = from_raw([0.0, math.log(3.0 / 7.0)])  # p_max = 0.7
        assert log_confidence([a]) == pytest.approx(0.7, abs=1e-12)

    def test_all_certain_tokens(self):
        certain = tl(50.0)
        assert log_confidence([certain, certain, certain]) == 1.0

    def test_empty_answer_raises(self):
        with pytest.raises(EmptyAnswerError):
            log_confidence([])


class TestAggregate:
    def test_three_strategies(self):
        scores = [2.0, 5.0, 3.0]
        assert aggregate(scores, Scoring.MEAN) == pytest.approx(10.0 / 3.0, abs=1e-15)
        assert aggregate(scores, Scoring.MIN) == 2.0
        # ceil(0.2 * 3) = 1 smallest score
        assert aggregate(scores, Scoring.BOTTOM_R, 0.2) == 2.0

    def test_singleton_collapse(self):
        for strategy in (Scoring.MEAN, Scoring.MIN, Scoring.BOTTOM_R):
            assert aggregate([4.2], strategy, 0.2) == 4.2

    def test_constant_list(self):
        for strategy in (Scoring.MEAN, Scoring.MIN, Scoring.BOTTOM_R):
            assert aggregate([1.0, 1.0, 1.0, 1.0], strategy, 0.5) == 1.0

    def test_bottom_ties_break_on_earlier_index(self):
        # two tied minima; ceil(0.5 * 4) = 2 -> both 1.0 entries
        assert aggregate([1.0, 3.0, 1.0, 2.0], Scoring.BOTTOM_R, 0.5) == 1.0

    def test_empty_raises(self):
        with pytest.raises(EmptyAnswerError):
            aggregate([], Scoring.MEAN)

    def test_log_conf_is_not_an_aggregation(self):
        with pytest.raises(ValidationError):
            aggregate([1.0], Scoring.LOG_CONF)

    @pytest.mark.parametrize("score", [math.nan, math.inf])
    def test_non_finite_score_rejected(self, score):
        with pytest.raises(ValidationError, match="token scores must all be finite"):
            aggregate([1.0, score], Scoring.MEAN)

    def test_bottom_ratio_outside_unit_rejected(self):
        with pytest.raises(ValidationError, match="bottom_ratio must lie strictly inside"):
            aggregate([1.0, 2.0], Scoring.BOTTOM_R, 1.5)


class TestNormalize:
    def test_midpoint(self):
        assert normalize(0.0) == 0.5

    def test_saturation(self):
        assert normalize(50.0) > 1.0 - 1e-15
        assert normalize(-50.0) < 1e-15
        assert normalize(1e9) == 1.0

    def test_inverse_round_trip(self):
        assert normalize(logit(0.94)) == pytest.approx(0.94, abs=1e-9)
        assert logit(0.94) == pytest.approx(2.7515353, abs=1e-6)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            normalize(float("nan"))


class TestGate:
    def test_threshold_comparison(self):
        answer = [margin_vector(4.0, 64)]
        config = GateConfig(tau=0.94, aggregation=Scoring.MIN)
        decision = gate(answer, config)
        assert decision.accepted and decision.score >= 0.94
        stricter = GateConfig(tau=decision.score + 1e-6, aggregation=Scoring.MIN)
        assert not gate(answer, stricter).accepted

    def test_min_is_stricter_than_mean(self):
        # raw separabilities {3, 0}: min -> sigmoid(0) = 0.5, mean -> sigmoid(1.5)
        answer = [margin_vector(3.0, 16), tl(*([1.0] * 16))]
        min_decision = gate(answer, GateConfig(k=16, epsilon=1e-12, tau=0.6, aggregation=Scoring.MIN))
        assert min_decision.score == pytest.approx(0.5, abs=1e-9)
        assert not min_decision.accepted
        mean_decision = gate(answer, GateConfig(k=16, epsilon=1e-12, tau=0.6, aggregation=Scoring.MEAN))
        assert mean_decision.score == pytest.approx(1.0 / (1.0 + math.exp(-1.5)), abs=1e-9)
        assert mean_decision.accepted

    def test_empty_answer_falls_back(self):
        decision = gate([], GateConfig(tau=0.9))
        assert decision.verdict is Verdict.FALLBACK
        assert decision.score == 0.0
        assert "empty_answer" in decision.diagnostics

    def test_clamp_diagnostic(self):
        decision = gate([tl(2.0, 1.0)], GateConfig(k=64, tau=0.9))
        assert "top_k_clamped" in decision.diagnostics

    def test_log_conf_mode_scores_probability(self):
        a9 = from_raw([0.0, math.log(1 / 9)])
        decision = gate([a9, a9], GateConfig(aggregation=Scoring.LOG_CONF, tau=0.85))
        assert decision.score == pytest.approx(0.9, abs=1e-12)
        assert decision.accepted
        assert decision.token_scores == pytest.approx((0.9, 0.9), abs=1e-12)

    def test_decision_trace_length(self):
        answer = [margin_vector(m, 32) for m in (1.0, 2.0, 3.0)]
        decision = gate(answer, GateConfig(k=32, tau=0.5))
        assert len(decision.token_scores) == 3


class TestGateConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GateConfig(k=1)
        with pytest.raises(ValidationError):
            GateConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            GateConfig(bottom_ratio=1.0)
        with pytest.raises(ValidationError):
            GateConfig(tau=1.0)

    def test_string_aggregation_coerced(self):
        assert GateConfig(aggregation="min").aggregation is Scoring.MIN

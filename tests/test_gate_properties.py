"""Property tests for the gating math: ordering, invariances, the min-guard
biconditional, agreement with extended-precision re-implementations, and
the packed gate against the one-token reference functions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spec_funnel.gate import (
    AnswerLogits,
    GateConfig,
    GateDecision,
    Scoring,
    TokenLogits,
    Verdict,
    aggregate,
    gate,
    log_confidence,
    logit,
    max_softmax_prob,
    normalize,
    token_separability,
)

finite_floats = st.floats(min_value=-25.0, max_value=25.0, allow_nan=False)
score_lists = st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=60)
ratios = st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)


def sorted_logits(values) -> TokenLogits:
    return TokenLogits.from_raw(values)


def longdouble_separability(values, k, epsilon):
    window = np.asarray(values, dtype=np.longdouble)[: min(k, len(values))]
    mean = window.mean()
    margin = window[0] - mean
    if margin <= 0:
        return 0.0
    sd = np.sqrt(np.mean((window - mean) ** 2))
    return float(margin / (sd + np.longdouble(epsilon)))


def longdouble_log_confidence(answers):
    logs = []
    for values in answers:
        arr = np.asarray(values, dtype=np.longdouble)
        logs.append(-np.log(np.exp(arr - arr[0]).sum()))
    return float(np.exp(np.mean(np.asarray(logs, dtype=np.longdouble))))


class TestAggregationOrdering:
    @settings(max_examples=300, deadline=None)
    @given(scores=score_lists, ratio=ratios)
    def test_min_bottom_mean_ordering(self, scores, ratio):
        low = aggregate(scores, Scoring.MIN)
        bottom = aggregate(scores, Scoring.BOTTOM_R, ratio)
        mean = aggregate(scores, Scoring.MEAN)
        assert low <= bottom <= mean

    @settings(max_examples=200, deadline=None)
    @given(scores=score_lists)
    def test_mean_within_range(self, scores):
        mean = aggregate(scores, Scoring.MEAN)
        assert min(scores) <= mean <= max(scores)


class TestInvariances:
    @settings(max_examples=250, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=2, max_size=40),
        shift=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_shift_invariance(self, values, shift):
        logits = sorted_logits(values)
        # ulp-scale spreads are not representable under a large shift; the
        # 1e-9 agreement is stated for windows with real spread
        assume(float(logits.values.std()) >= 1e-3)
        k = len(values)
        base = token_separability(logits, k, 1e-6)
        shifted = sorted_logits([v + shift for v in values])
        assert token_separability(shifted, k, 1e-6) == pytest.approx(base, abs=1e-9)

    @settings(max_examples=250, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=2, max_size=40),
        shift=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_shift_invariance_of_max_softmax(self, values, shift):
        logits = sorted_logits(values)
        shifted = sorted_logits([v + shift for v in values])
        assert max_softmax_prob(shifted) == pytest.approx(max_softmax_prob(logits), abs=1e-12)

    @settings(max_examples=250, deadline=None)
    @given(
        values=st.lists(finite_floats, min_size=2, max_size=40),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance_at_zero_epsilon(self, values, scale):
        logits = sorted_logits(values)
        assume(float(logits.values.std()) >= 1e-3)
        k = len(values)
        base = token_separability(logits, k, 0.0)
        scaled = sorted_logits([v * scale for v in values])
        assert token_separability(scaled, k, 0.0) == pytest.approx(base, abs=1e-9)

    @settings(max_examples=250, deadline=None)
    @given(values=st.lists(finite_floats, min_size=2, max_size=40))
    def test_epsilon_perturbation_bound(self, values):
        logits = sorted_logits(values)
        k = len(values)
        sd = float(logits.values.std())
        if sd < 0.01:
            return  # the bound is stated for well-spread windows
        exact = token_separability(logits, k, 0.0)
        stabilized = token_separability(logits, k, 1e-6)
        bound = 1e-6 * exact / sd
        assert abs(stabilized - exact) <= bound * 1.01 + 1e-12
        assert abs(stabilized - exact) < 1e-3

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(finite_floats, min_size=1, max_size=40), k=st.integers(1, 64))
    def test_non_negative(self, values, k):
        assert token_separability(sorted_logits(values), k, 1e-6) >= 0.0


class TestMonotoneGating:
    @settings(max_examples=150, deadline=None)
    @given(
        margins=st.lists(st.floats(min_value=0.0, max_value=7.0), min_size=1, max_size=6),
        tau_low=st.floats(min_value=0.05, max_value=0.9),
        bump=st.floats(min_value=1e-6, max_value=0.09),
    )
    def test_raising_tau_never_flips_to_accept(self, margins, tau_low, bump):
        from spec_funnel.backends.synthetic import margin_vector

        answer = [margin_vector(m, 32) for m in margins]
        relaxed = gate(answer, GateConfig(k=32, tau=tau_low))
        strict = gate(answer, GateConfig(k=32, tau=tau_low + bump))
        if strict.accepted:
            assert relaxed.accepted


class TestMinGuard:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(
            st.lists(finite_floats, min_size=4, max_size=12), min_size=1, max_size=5
        ),
        tau=st.floats(min_value=0.05, max_value=0.99),
    )
    def test_accept_iff_every_token_clears_logit_tau(self, data, tau):
        answer = [sorted_logits(values) for values in data]
        config = GateConfig(k=4, tau=tau, aggregation=Scoring.MIN)
        decision = gate(answer, config)
        raw = [token_separability(t, 4, config.epsilon) for t in answer]
        threshold = logit(tau)
        assert decision.accepted == all(s >= threshold for s in raw)


class TestPrecisionOracles:
    def test_separability_matches_longdouble(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            k = int(rng.integers(2, 64))
            values = np.sort(rng.normal(0.0, 4.0, size=k))[::-1]
            ours = token_separability(TokenLogits(values), k, 1e-6)
            reference = longdouble_separability(values, k, 1e-6)
            assert ours == pytest.approx(reference, abs=1e-9)

    def test_log_confidence_matches_longdouble(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            answer = [
                np.sort(rng.normal(0.0, 3.0, size=int(rng.integers(2, 32))))[::-1]
                for _ in range(int(rng.integers(1, 6)))
            ]
            ours = log_confidence([TokenLogits(a) for a in answer])
            assert ours == pytest.approx(longdouble_log_confidence(answer), abs=1e-12)

    def test_separability_matches_mpmath_spot_checks(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(10)
        for _ in range(50):
            k = int(rng.integers(2, 16))
            values = np.sort(rng.normal(0.0, 4.0, size=k))[::-1]
            xs = [mpmath.mpf(float(v)) for v in values]
            mean = sum(xs) / k
            var = sum((x - mean) ** 2 for x in xs) / k
            margin = xs[0] - mean
            expected = 0.0 if margin <= 0 else float(margin / (mpmath.sqrt(var) + mpmath.mpf("1e-6")))
            assert token_separability(TokenLogits(values), k, 1e-6) == pytest.approx(
                expected, abs=1e-9
            )

    def test_normalize_matches_longdouble(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(-30, 30, size=2000)
        for value in raw:
            reference = float(1.0 / (1.0 + np.exp(-np.longdouble(value))))
            assert normalize(float(value)) == pytest.approx(reference, abs=1e-9)


def reference_gate(tokens, config) -> GateDecision:
    """gate() computed one token at a time by the one-token functions."""
    if not tokens:
        return GateDecision(Verdict.FALLBACK, 0.0, (), ("empty_answer",))
    diagnostics = ()
    if config.aggregation is Scoring.LOG_CONF:
        token_scores = tuple(max_softmax_prob(t) for t in tokens)
        score = log_confidence(tokens)
    else:
        if any(len(t) < config.k for t in tokens):
            diagnostics = ("top_k_clamped",)
        token_scores = tuple(token_separability(t, config.k, config.epsilon) for t in tokens)
        score = normalize(aggregate(token_scores, config.aggregation, config.bottom_ratio))
    verdict = Verdict.ACCEPT if score >= config.tau else Verdict.FALLBACK
    return GateDecision(verdict, score, token_scores, diagnostics)


def ragged_row(rng, length, kind, scale, offset):
    """One token's logits, descending: spread, flat, or tied on a coarse grid."""
    if kind == "flat":
        values = np.full(length, offset)
    elif kind == "ties":
        values = np.round(rng.normal(0.0, 2.0, size=length)) * scale + offset
    else:
        values = rng.normal(0.0, 3.0, size=length) * scale + offset
    return np.sort(values)[::-1].copy()


@st.composite
def packed_answers(draw):
    """(tokens, packed, k): 1-300 rows of 1-80 logits each, the same answer
    as a tuple of TokenLogits and as an AnswerLogits with -inf padding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 300))
    longest = draw(st.integers(1, 80))
    if draw(st.booleans()):
        lengths = rng.integers(1, longest + 1, size=n_rows)
    else:
        lengths = np.full(n_rows, longest)
    kinds = rng.choice(["spread", "flat", "ties"], size=n_rows, p=[0.6, 0.2, 0.2])
    scale = draw(st.floats(min_value=1e-6, max_value=1e3))
    offset = draw(st.floats(min_value=-30.0, max_value=0.0))
    tokens = tuple(
        TokenLogits(ragged_row(rng, n, kind, scale, offset)) for n, kind in zip(lengths.tolist(), kinds)
    )
    width = longest + draw(st.integers(0, 2))
    values = np.full((n_rows, width), -np.inf)
    for row, token in zip(values, tokens):
        row[: len(token)] = token.values
    k = draw(st.integers(min_value=2, max_value=width + 3))
    return tokens, AnswerLogits(values, lengths), k


class TestPackedGate:
    @settings(max_examples=120, deadline=None)
    @given(answer=packed_answers(), ratio=st.floats(min_value=0.01, max_value=0.99))
    def test_packed_gate_equals_the_one_token_reference(self, answer, ratio):
        tokens, packed, k = answer
        assert packed == tokens and AnswerLogits.from_tokens(tokens) == packed
        for mode in Scoring:
            config = GateConfig(k=k, aggregation=mode, bottom_ratio=ratio)
            expected = reference_gate(tokens, config)
            # repr tells every float apart, -0.0 from 0.0 included
            assert repr(gate(packed, config)) == repr(expected)
            assert repr(gate(tokens, config)) == repr(expected)

    def test_rows_of_one_window_sum_as_one_row(self):
        # a group of rows reduced along axis 1, padded columns sliced off,
        # gives each row's own 1-D sums: the packed gate relies on it
        rng = np.random.default_rng(12)
        for _ in range(200):
            width = int(rng.integers(1, 90))
            rows = rng.normal(0.0, 5.0, size=(int(rng.integers(1, 40)), width + 5))
            window = int(rng.integers(1, width + 1))
            packed = rows[:, :window].sum(axis=1)
            one_by_one = np.array([row[:window].sum() for row in rows])
            assert packed.tobytes() == one_by_one.tobytes()


# a window of these can overflow a sum or a gap between two of its logits
full_range_answers = st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6), min_size=1, max_size=4
)


class TestFullRangeLogits:
    @settings(max_examples=3000, deadline=None)
    @given(data=full_range_answers, k=st.integers(2, 7), ratio=st.floats(min_value=0.01, max_value=0.99))
    def test_gate_is_finite_and_equals_the_one_token_reference(self, data, k, ratio):
        # a score past the float range is 0, never NaN, and warns of nothing
        tokens = tuple(sorted_logits(values) for values in data)
        packed = AnswerLogits.from_tokens(tokens)
        for mode in Scoring:
            config = GateConfig(k=k, aggregation=mode, bottom_ratio=ratio)
            decision = gate(packed, config)
            assert math.isfinite(decision.score)
            assert all(map(math.isfinite, decision.token_scores))
            assert repr(decision) == repr(reference_gate(tokens, config))

    def test_row_sum_past_the_float_range_scores_zero(self):
        logits = TokenLogits(np.array([1e300, -1e308, -1e308]))
        assert token_separability(logits) == 0.0
        decision = gate([logits], GateConfig())
        assert decision.token_scores == (0.0,) and decision.verdict is Verdict.FALLBACK

"""Confidence gating for speculative answers from per-token logit margins.

Scores a generated answer using only the top-K logits retained per token:
the leading logit of each token is standardized against the mean and spread
of its nearest competitors, the per-token scores are aggregated over the
answer, and the sigmoid-normalized result is thresholded to either accept
the draft answer or fall back to the slow path. A probability-based scorer
(geometric mean of per-token max-softmax probabilities) is available as a
baseline mode.

An answer's logits travel packed as one AnswerLogits array, validated once,
and gate_batch() scores many answers' tokens in one pass of row reductions.
The tests hold it to one-token reference forms, token_separability,
max_softmax_prob and log_confidence, in tests/oracles.py.
"""

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Sequence

import numpy as np

from .bounds import Range, check_bounds
from .errors import EmptyAnswerError, ValidationError

__all__ = [
    "Scoring",
    "Verdict",
    "TokenLogits",
    "AnswerLogits",
    "GateConfig",
    "GateDecision",
    "aggregate",
    "normalize",
    "gate",
    "gate_batch",
]


class Scoring(str, Enum):
    """Answer scoring mode: one probability baseline, three margin aggregations."""

    LOG_CONF = "log_conf"
    MEAN = "mean"
    MIN = "min"
    BOTTOM_R = "bottom_r"


class Verdict(str, Enum):
    ACCEPT = "accept"
    FALLBACK = "fallback"


@dataclass(frozen=True)
class TokenLogits:
    """Top logit values retained for one generated token, sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValidationError("token logits must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(values)):
            raise ValidationError("token logits must all be finite")
        if (values[1:] > values[:-1]).any():  # np.diff overflows between far-apart finite values
            raise ValidationError("token logits must be sorted in descending order")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other):
        if not isinstance(other, TokenLogits):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )


@dataclass(frozen=True, eq=False)
class AnswerLogits:
    """Top logit values retained for every generated token of one answer.

    values is an (n_tokens, width) float64 array whose row i holds token i's
    lengths[i] retained logits, finite and sorted descending, then -inf up
    to width. Both are validated once, here. Iterating or indexing yields
    each token's TokenLogits of its true length, and an AnswerLogits
    compares equal to any equal sequence of TokenLogits.
    """

    values: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        lengths = np.asarray(self.lengths)
        if values.ndim != 2 or lengths.shape != values.shape[:1]:
            raise ValidationError("answer logits need an (n_tokens, width) array and n_tokens lengths")
        if lengths.size:
            if lengths.dtype.kind not in "iu":
                raise ValidationError("token lengths must be integers")
            width, counts = values.shape[1], lengths.tolist()
            if min(counts) < 1 or max(counts) > width:
                raise ValidationError("every token keeps between 1 and width logits")
            inside = np.arange(width) < lengths[:, None]
            if not np.where(inside, np.isfinite(values), values == -np.inf).all():
                raise ValidationError("token logits must be finite, and -inf past each token's length")
            if (values[:, 1:] > values[:, :-1]).any():
                raise ValidationError("token logits must be sorted in descending order")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def from_tokens(cls, tokens) -> "AnswerLogits":
        """Pack a sequence of TokenLogits."""
        tokens = tuple(tokens)
        lengths = [len(t) for t in tokens]
        values = np.full((len(tokens), max(lengths, default=0)), -np.inf)
        for row, token in zip(values, tokens):
            row[: len(token)] = token.values
        return cls(values, np.array(lengths, dtype=np.intp))

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> TokenLogits:
        return TokenLogits(self.values[i, : self.lengths[i]])

    def __iter__(self):
        for row, n in zip(self.values, self.lengths.tolist()):
            yield TokenLogits(row[:n])

    def __eq__(self, other):
        if not isinstance(other, (AnswerLogits, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass(frozen=True)
class GateConfig:
    """Gate hyperparameters.

    k is the top-logit window for the margin score; epsilon stabilizes the
    window spread; aggregation picks the token-to-answer scoring mode;
    bottom_ratio is the fraction used by BOTTOM_R; tau is the accept
    threshold applied to the normalized (0, 1) score.
    """

    k: Annotated[int, Range(2)] = 64  # a margin needs a competitor
    epsilon: Annotated[float, Range(0, open=True)] = 1e-6
    aggregation: Scoring = Scoring.MIN
    bottom_ratio: Annotated[float, Range(0, 1, open=True)] = 0.2
    tau: Annotated[float, Range(0, 1, open=True)] = 0.94

    def __post_init__(self):
        if not isinstance(self.aggregation, Scoring):
            object.__setattr__(self, "aggregation", Scoring(self.aggregation))
        check_bounds(self)


@dataclass(frozen=True)
class GateDecision:
    """Accept/fallback verdict plus the score trace that produced it."""

    verdict: Verdict
    score: float
    token_scores: tuple[float, ...]
    diagnostics: tuple[str, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT


def aggregate(token_scores: Sequence[float], strategy: Scoring, bottom_ratio: float = 0.2) -> float:
    """Collapse per-token scores into one answer-level score.

    MEAN averages all tokens, MIN takes the worst token, and BOTTOM_R
    averages the ceil(bottom_ratio * n) smallest scores with ties broken by
    earlier token index. Computed means are clamped into the range of their
    inputs so the MIN <= BOTTOM_R <= MEAN ordering survives float rounding
    (np.mean([0.7] * 3) rounds below 0.7 otherwise).
    """
    scores = np.asarray(token_scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyAnswerError("cannot aggregate zero token scores")
    if not np.isfinite(scores).all():
        raise ValidationError("token scores must all be finite")
    if strategy is Scoring.MIN:
        return float(scores.min())
    if strategy is Scoring.MEAN:
        return _clamped_mean(scores)
    if strategy is Scoring.BOTTOM_R:
        if not 0.0 < bottom_ratio < 1.0:
            raise ValidationError("bottom_ratio must lie strictly inside (0, 1)")
        m = math.ceil(bottom_ratio * scores.size)
        if m >= scores.size:
            return _clamped_mean(scores)
        order = np.argsort(scores, kind="stable")
        return _clamped_mean(scores[order[:m]])
    raise ValidationError(f"{strategy!r} is not a token aggregation strategy")


def _clamped_mean(scores: np.ndarray) -> float:
    mean = math.fsum(scores) / scores.size
    return float(min(max(mean, scores.min()), scores.max()))


def normalize(raw_score: float) -> float:
    """Map a raw aggregated score into (0, 1) with the standard logistic.

    Strictly increasing, so thresholding the normalized score at tau is
    equivalent to thresholding the raw score at logit(tau). Saturates to
    exactly 0.0 / 1.0 beyond roughly |raw| > 37 in double precision.
    """
    if math.isnan(raw_score):
        raise ValidationError("raw score must not be NaN")
    if raw_score >= 0.0:
        return 1.0 / (1.0 + math.exp(-min(raw_score, 745.0)))
    z = math.exp(max(raw_score, -745.0))
    return z / (1.0 + z)


def gate(answer: AnswerLogits | Sequence[TokenLogits], config: GateConfig) -> GateDecision:
    """Score an answer and decide accept vs fallback: gate_batch's batch of one."""
    return gate_batch([answer], config)[0]


def gate_batch(answers: Sequence[AnswerLogits | Sequence[TokenLogits]], config: GateConfig) -> list[GateDecision]:
    """Score each answer and decide accept vs fallback at config.tau.

    Empty answers never pass: they yield a FALLBACK decision with score 0
    and an "empty_answer" diagnostic rather than raising, so callers can
    always fall through to the slow path. For margin-based modes the
    token_scores trace holds raw separabilities; for LOG_CONF it holds the
    per-token max-softmax probabilities and the score is the geometric mean
    itself (already inside (0, 1]), with no extra sigmoid. Every answer's
    rows, a sequence of TokenLogits packed first, are stacked with -inf
    padding (one answer's are used as they are) and scored by one pass of
    row reductions, with the floats that tests/oracles.py's one-token forms
    give.
    """
    answers = [a if isinstance(a, AnswerLogits) else AnswerLogits.from_tokens(a) for a in answers]
    lengths = [a.lengths.tolist() for a in answers]
    flat = [n for counts in lengths for n in counts]
    if len(answers) == 1:  # measured mode's batch of one: no copy
        values = answers[0].values
    else:
        values = np.full((len(flat), max((a.values.shape[1] for a in answers), default=0)), -np.inf)
        for a, end in zip(answers, itertools.accumulate(map(len, answers))):
            values[end - len(a) : end, : a.values.shape[1]] = a.values
    if config.aggregation is Scoring.LOG_CONF:
        scores = iter(_by_window(values, flat, _softmax_sums))
    else:
        windows = [min(n, config.k) for n in flat]
        scores = iter(_by_window(values, windows, lambda rows: _separabilities(rows, config.epsilon)))
    return [_decision([next(scores) for _ in counts], counts, config) for counts in lengths]


def _decision(scores: list[float], lengths: list[int], config: GateConfig) -> GateDecision:
    """One answer's decision from its tokens' separabilities, or softmax sums for LOG_CONF."""
    if not lengths:
        return GateDecision(Verdict.FALLBACK, 0.0, (), ("empty_answer",))
    clamped = config.aggregation is not Scoring.LOG_CONF and min(lengths) < config.k
    if config.aggregation is Scoring.LOG_CONF:
        score = math.exp(math.fsum([-math.log(s) for s in scores]) / len(scores))
        scores = [1.0 / s for s in scores]
    else:
        score = normalize(aggregate(scores, config.aggregation, config.bottom_ratio))
    verdict = Verdict.ACCEPT if score >= config.tau else Verdict.FALLBACK
    return GateDecision(verdict, float(score), tuple(scores), ("top_k_clamped",) if clamped else ())


def _by_window(values: np.ndarray, windows: list[int], score_rows) -> list[float]:
    """score_rows over the first w columns of each group of rows whose
    window is w, in row order.

    Rows are reduced in groups of one window, never as one padded array: a
    padded row would change numpy's pairwise summation order, and with it
    the last bit of the row's sum.
    """
    scores = [0.0] * len(windows)
    with np.errstate(over="ignore", invalid="ignore"):  # far-apart finite logits overflow a sum or a gap
        for w in set(windows):
            rows = [i for i, n in enumerate(windows) if n == w]
            for i, score in zip(rows, score_rows(values[rows, :w])):
                scores[i] = score
    return scores


def _separabilities(rows: np.ndarray, epsilon: float) -> list[float]:
    """Separability of each row, which is its whole window: the row sums
    np.mean and np.std take, then each row's margin in floats."""
    width = rows.shape[1]
    means = np.add.reduce(rows, axis=1, keepdims=True) / width
    square_sums = np.add.reduce(np.square(rows - means), axis=1)
    scores = []
    for top, last, mean, square_sum in zip(
        rows[:, 0].tolist(), rows[:, -1].tolist(), means[:, 0].tolist(), square_sums.tolist()
    ):
        margin = top - mean
        # a flat window (equal ends) scores exactly 0, as does a margin <= 0 or past the float range
        if top == last or not 0.0 < margin < math.inf:
            scores.append(0.0)
        else:
            scores.append(margin / (math.sqrt(square_sum / width) + epsilon))
    return scores


def _softmax_sums(rows: np.ndarray) -> list[float]:
    """Softmax denominator of each row, shifted by its leading logit."""
    return np.add.reduce(np.exp(rows - rows[:, :1]), axis=1).tolist()

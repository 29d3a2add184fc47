"""Deterministic synthetic model backend for desk-scale experiments.

Simulates the three model roles (tool-necessity judge, stateless draft
answerer, stateful tool loop) with per-query RNG streams keyed on
(seed, query id, phase, step). Outputs are bitwise reproducible and
independent of batch composition or scheduling order; the tool loop is
genuinely stateful because each step's stream is keyed on the previous
step's observation.
"""

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from ..errors import ValidationError
from ..gate import TokenLogits
from .base import AgenticOutput, JudgeOutput, Query, SpeculativeAnswer, substream

__all__ = [
    "Uniform",
    "SyntheticConfig",
    "SyntheticBackend",
    "make_workload",
    "make_quota_workload",
    "margin_vector",
    "separability_floor",
    "agentic_step_stream",
    "sample_weighted",
    "wrong_answer",
    "CHOICES",
]

CHOICES = "ABCD"

# Fixed competitor tail behind the top logit: a geometric decay toward
# -TAIL_SCALE keeps the top-K spread well defined while leaving most of the
# tail near the runner-up, so low margins stay representable.
TAIL_SCALE = 8.0
TAIL_DECAY = 0.7

_TAIL_CACHE: dict[int, tuple[np.ndarray, float, float]] = {}


@dataclass(frozen=True)
class Uniform:
    """Closed-interval uniform distribution; low == high is a point mass."""

    low: float
    high: float

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValidationError("uniform bounds must be finite")
        if self.low < 0.0 or self.high < self.low:
            raise ValidationError("uniform bounds must satisfy 0 <= low <= high")

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


def _default_depth_weights() -> dict[int, float]:
    return {1: 0.25, 2: 0.30, 3: 0.25, 4: 0.15, 5: 0.05}


def _default_answer_len_weights() -> dict[int, float]:
    return {1: 0.30, 2: 0.25, 3: 0.20, 4: 0.15, 5: 0.10}


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs of the synthetic workload and backend.

    Accuracy fields are Bernoulli success probabilities; sep_mu_* and
    sep_sigma parametrize the per-token margin generator (correct drafts
    draw larger margins than incorrect ones by construction); the *_cost_s
    fields and tool_cost are virtual-clock timings in seconds.
    """

    seed: int = 0
    vocab_k: int = 64
    p_tool_required: float = 0.3
    depth_weights: Mapping[int, float] = field(default_factory=_default_depth_weights)
    draft_accuracy_toolfree: float = 0.85
    draft_accuracy_toolreq: float = 0.30
    agentic_accuracy: float = 0.90
    judge_accuracy: float = 0.92
    sep_mu_correct: float = 4.0
    sep_mu_incorrect: float = 0.5
    sep_sigma: float = 0.6
    answer_len_weights: Mapping[int, float] = field(default_factory=_default_answer_len_weights)
    judge_cost_s: float = 0.05
    speculate_cost_s: float = 0.25
    llm_step_cost_s: float = 1.0
    tool_cost: Uniform = Uniform(0.4, 0.9)
    depth_cap: int = 5

    def __post_init__(self):
        object.__setattr__(self, "depth_weights", _int_weights(self.depth_weights, "depth_weights"))
        object.__setattr__(
            self, "answer_len_weights", _int_weights(self.answer_len_weights, "answer_len_weights")
        )
        if self.vocab_k < 2:
            raise ValidationError("vocab_k must be at least 2")
        if self.depth_cap < 1:
            raise ValidationError("depth_cap must be at least 1")
        for name in (
            "p_tool_required",
            "draft_accuracy_toolfree",
            "draft_accuracy_toolreq",
            "agentic_accuracy",
            "judge_accuracy",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        for name in ("judge_cost_s", "speculate_cost_s", "llm_step_cost_s"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0")
        if not self.sep_mu_correct > self.sep_mu_incorrect:
            raise ValidationError("sep_mu_correct must exceed sep_mu_incorrect")
        if self.sep_sigma < 0.0:
            raise ValidationError("sep_sigma must be >= 0")
        if min(self.answer_len_weights) < 1:
            raise ValidationError("answer lengths must be >= 1")
        if min(self.depth_weights) < 0:
            raise ValidationError("depths must be >= 0")


def _int_weights(weights, name) -> dict[int, float]:
    if not weights:
        raise ValidationError(f"{name} must be non-empty")
    out = {}
    for key, value in dict(weights).items():
        weight = float(value)
        if weight < 0.0:
            raise ValidationError(f"{name} weights must be >= 0")
        out[int(key)] = weight
    if sum(out.values()) <= 0.0:
        raise ValidationError(f"{name} must have positive total mass")
    return out


@functools.lru_cache(maxsize=64)
def _weight_cdf(table: tuple[tuple[int, float], ...]) -> tuple[list[int], list[float]]:
    values, weights = zip(*sorted(table))
    probs = np.array([float(w) for w in weights], dtype=np.float64)
    if not (probs.min() >= 0.0 and probs.sum() > 0.0):
        raise ValidationError("weights must be >= 0 with positive total mass")
    # the cumulative distribution Generator.choice builds from p, step for step
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return list(values), cdf.tolist()


def sample_weighted(rng: np.random.Generator, weights: Mapping[int, float]) -> int:
    """Draw one key from an integer-keyed weight table.

    Draws exactly what rng.choice(sorted keys, p=normalized weights) draws:
    one uniform double, located in the cumulative distribution.
    """
    values, cdf = _weight_cdf(tuple(weights.items()))
    return int(values[bisect_right(cdf, rng.random())])


def _tail_stats(width: int) -> tuple[np.ndarray, float, float]:
    cached = _TAIL_CACHE.get(width)
    if cached is None:
        if width < 1:
            raise ValidationError("tail width must be >= 1")
        tail = -TAIL_SCALE * TAIL_DECAY ** np.arange(width - 1, -1, -1, dtype=np.float64)
        s = float(tail.sum())
        q = float((tail * tail).sum())
        n = width + 1
        c = n * q - s * s * n / (n - 1)
        cached = (tail, s, c)
        _TAIL_CACHE[width] = cached
    return cached


def margin_vector(margin: float, width: int) -> TokenLogits:
    """Logit vector of the given width whose top-`width` separability equals `margin`.

    Inverts the standardized-margin formula against the fixed tail. Margins
    clamp to the representable range: at most ~0.995 * sqrt(width - 1)
    (the mathematical ceiling of the score) and at least the tail floor,
    reached when the top logit ties the runner-up.
    """
    if width < 2:
        raise ValidationError("need at least two logits per token")
    tail, s, c = _tail_stats(width - 1)
    n = width
    m = min(max(float(margin), 0.0), 0.995 * math.sqrt(n - 1))
    y = m * math.sqrt(c / (1.0 - (m * m) / (n - 1)))
    top = max((y + s) / (n - 1), float(tail[0]))
    values = np.empty(n, dtype=np.float64)
    values[0] = top
    values[1:] = tail
    return TokenLogits(values)


def separability_floor(width: int) -> float:
    """Smallest margin the generator can realize at this width."""
    tail, s, c = _tail_stats(width - 1)
    y = (width - 1) * float(tail[0]) - s
    return y / math.sqrt(y * y / (width - 1) + c)


def agentic_step_stream(seed: int, query_id: str, step: int, previous_observation: str):
    """RNG for one tool-loop step.

    Keyed on the previous step's observation, which is what makes the loop
    stateful: perturbing step d's observation changes every draw of step d+1.
    """
    return substream(seed, query_id, "agentic", step, previous_observation)


def wrong_answer(truth: str) -> str:
    if len(truth) == 1 and truth.upper() in CHOICES:
        idx = CHOICES.index(truth.upper())
        return CHOICES[(idx + 1) % len(CHOICES)]
    return f"not-{truth}"


class SyntheticBackend:
    """Backend with scripted accuracy/latency statistics and seeded streams."""

    def __init__(self, config: SyntheticConfig):
        self.config = config

    def _latents(self, query: Query) -> tuple[bool, int]:
        # A fully pinned query needs no stream. Otherwise both latents are
        # drawn, so one latent's value never depends on whether the other
        # is pinned.
        if query.true_requires_tools is not None and query.true_depth is not None:
            return query.true_requires_tools, query.true_depth
        rng = substream(self.config.seed, query.id, "latent")
        requires = bool(rng.random() < self.config.p_tool_required)
        depth = sample_weighted(rng, self.config.depth_weights)
        if query.true_requires_tools is not None:
            requires = query.true_requires_tools
        if query.true_depth is not None:
            depth = query.true_depth
        return requires, depth

    def _ground_truth(self, query: Query) -> str:
        if query.ground_truth is not None:
            return query.ground_truth
        return _derive_truth(self.config.seed, query.id)

    def judge(self, query: Query) -> JudgeOutput:
        requires, _ = self._latents(query)
        if query.true_draft_correct is not None:
            flipped = False  # pinned query: screening is exact
        else:
            rng = substream(self.config.seed, query.id, "judge")
            flipped = bool(rng.random() >= self.config.judge_accuracy)
        return JudgeOutput(g=int(requires != flipped), latency_s=self.config.judge_cost_s)

    def speculate(self, query: Query) -> SpeculativeAnswer:
        cfg = self.config
        requires, _ = self._latents(query)
        rng = substream(cfg.seed, query.id, "speculate")
        accuracy = cfg.draft_accuracy_toolreq if requires else cfg.draft_accuracy_toolfree
        correct = bool(rng.random() < accuracy)
        n_tokens = sample_weighted(rng, cfg.answer_len_weights)
        if query.true_draft_correct is not None:
            # pinned query: margins sit exactly at the class mean so the
            # gate verdict is certain
            correct = query.true_draft_correct
            mu = cfg.sep_mu_correct if correct else cfg.sep_mu_incorrect
            margins = np.full(n_tokens, mu)
        else:
            mu = cfg.sep_mu_correct if correct else cfg.sep_mu_incorrect
            margins = np.maximum(rng.normal(mu, cfg.sep_sigma, size=n_tokens), 0.0)
        token_logits = tuple(margin_vector(m, cfg.vocab_k) for m in margins)
        truth = self._ground_truth(query)
        answer = truth if correct else wrong_answer(truth)
        return SpeculativeAnswer(answer=answer, token_logits=token_logits, latency_s=cfg.speculate_cost_s)

    def agentic_run(self, query: Query) -> AgenticOutput:
        cfg = self.config
        _, true_depth = self._latents(query)
        depth = min(true_depth, cfg.depth_cap)
        truncated = true_depth > cfg.depth_cap
        observation = f"s0:{query.id}"
        steps = []
        for step in range(depth):
            rng = agentic_step_stream(cfg.seed, query.id, step, observation)
            steps.append((cfg.llm_step_cost_s, cfg.tool_cost.sample(rng)))
            observation = rng.bytes(8).hex()
        final = agentic_step_stream(cfg.seed, query.id, depth, observation)
        correct = bool(final.random() < cfg.agentic_accuracy)
        steps.append((cfg.llm_step_cost_s, 0.0))  # answer emission, no tool
        truth = self._ground_truth(query)
        answer = truth if correct else wrong_answer(truth)
        return AgenticOutput.from_steps(answer, steps, truncated=truncated)


def make_workload(config: SyntheticConfig, n_queries: int) -> list[Query]:
    """Bernoulli workload: latent flags sampled from the configured priors."""
    if n_queries < 1:
        raise ValidationError("workload must contain at least one query")
    return [_workload_query(config, i) for i in range(n_queries)]


def _workload_query(config: SyntheticConfig, i: int, requires_tools=None, draft_correct=None) -> Query:
    """Query i of a synthetic workload. Its "workload" stream draws the
    Bernoulli tool flag, then the depth; a quota workload pins the flag with
    `requires_tools` in place of the drawn one, and the draft with
    `draft_correct`."""
    qid = f"q{i:06d}"
    rng = substream(config.seed, qid, "workload")
    requires = bool(rng.random() < config.p_tool_required)
    depth = sample_weighted(rng, config.depth_weights)
    return Query(
        id=qid,
        image_ref=f"synthetic://{qid}",
        question=f"synthetic question {i}",
        ground_truth=_derive_truth(config.seed, qid),
        true_requires_tools=requires if requires_tools is None else requires_tools,
        true_depth=depth,
        true_draft_correct=draft_correct,
    )


def _derive_truth(seed: int, query_id: str) -> str:
    # same stream the backend falls back to, so a synthetic server with a
    # matching seed agrees with a locally generated workload
    rng = substream(seed, query_id, "truth")
    return CHOICES[int(rng.integers(len(CHOICES)))]


def make_quota_workload(
    config: SyntheticConfig,
    n_queries: int,
    toolfree_fraction: float,
    accept_fraction: float,
) -> list[Query]:
    """Workload realizing exact funnel fractions.

    Exactly round(toolfree_fraction * n) queries are screened tool-free and
    floor(accept_fraction * n_toolfree) of those carry drafts the gate will
    accept. Fractions are applied in exact rational arithmetic, and every
    query is pinned (true_draft_correct set) so judge and margin noise are
    bypassed. Acceptance exactness additionally requires the gate threshold
    to lie between the two pinned class scores; validate_quota_gate checks
    this against a concrete GateConfig.
    """
    if n_queries < 1:
        raise ValidationError("workload must contain at least one query")
    for name, value in (("toolfree_fraction", toolfree_fraction), ("accept_fraction", accept_fraction)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1]")
    n_toolfree = int(round(Fraction(str(toolfree_fraction)) * n_queries))
    n_accept = math.floor(Fraction(str(accept_fraction)) * n_toolfree)
    # n_accept <= n_toolfree, so every accepted query is screened tool-free
    return [
        _workload_query(config, i, requires_tools=i >= n_toolfree, draft_correct=i < n_accept)
        for i in range(n_queries)
    ]


def validate_quota_gate(config: SyntheticConfig, gate_config) -> None:
    """Ensure a quota workload's pinned drafts gate deterministically.

    Raises ValidationError unless a pinned correct answer scores at or above
    gate_config.tau and a pinned incorrect answer scores below it.
    """
    from ..gate import gate as run_gate

    correct = run_gate([margin_vector(config.sep_mu_correct, config.vocab_k)], gate_config)
    incorrect = run_gate([margin_vector(config.sep_mu_incorrect, config.vocab_k)], gate_config)
    if not correct.accepted or incorrect.accepted:
        raise ValidationError(
            "quota mode needs sep_mu_incorrect to score below tau and "
            f"sep_mu_correct at or above it (got {incorrect.score:.4f} / "
            f"{correct.score:.4f} around tau={gate_config.tau})"
        )

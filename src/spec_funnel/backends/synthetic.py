"""Deterministic synthetic model backend for desk-scale experiments.

Simulates the three model roles (tool-necessity judge, stateless draft
answerer, stateful tool loop) with per-query RNG streams keyed on
(seed, query id, phase, step). Outputs are bitwise reproducible and
independent of batch composition or scheduling order; the tool loop is
genuinely stateful because each step's stream is keyed on the previous
step's observation. Streams drawn for many queries at once (the workload,
a given batch's judge draws and each tool-loop step) are stepped together
as base.lanes; the draft stream stays a Generator for its normal draws.
"""

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Annotated, Mapping

import numpy as np

from ..bounds import COUNT, UNIT, Range, check, check_bounds
from ..errors import ValidationError
from ..gate import AnswerLogits, TokenLogits
from .base import AgenticOutput, JudgeOutput, Lanes, Query, SpeculativeAnswer, lanes, seed_states, seeded, substream

__all__ = [
    "Uniform",
    "SyntheticConfig",
    "SyntheticBackend",
    "make_workload",
    "make_quota_workload",
    "margin_vector",
    "validate_quota_gate",
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

@dataclass(frozen=True)
class Uniform:
    """Closed-interval uniform distribution; low == high is a point mass."""

    low: Annotated[float, Range(0)]
    high: float

    def __post_init__(self):
        check_bounds(self)
        if self.high < self.low:
            raise ValidationError("uniform bounds must satisfy low <= high")


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
    vocab_k: Annotated[int, Range(2)] = 64
    p_tool_required: Annotated[float, Range(0, 1)] = 0.3
    depth_weights: Annotated[Mapping[int, float], Range(0)] = field(default_factory=_default_depth_weights)
    draft_accuracy_toolfree: Annotated[float, Range(0, 1)] = 0.85
    draft_accuracy_toolreq: Annotated[float, Range(0, 1)] = 0.30
    agentic_accuracy: Annotated[float, Range(0, 1)] = 0.90
    judge_accuracy: Annotated[float, Range(0, 1)] = 0.92
    sep_mu_correct: float = 4.0
    sep_mu_incorrect: float = 0.5
    sep_sigma: Annotated[float, Range(0)] = 0.6
    answer_len_weights: Annotated[Mapping[int, float], Range(0)] = field(default_factory=_default_answer_len_weights)
    judge_cost_s: Annotated[float, Range(0)] = 0.05
    speculate_cost_s: Annotated[float, Range(0)] = 0.25
    llm_step_cost_s: Annotated[float, Range(0)] = 1.0
    tool_cost: Uniform = Uniform(0.4, 0.9)
    depth_cap: Annotated[int, Range(1)] = 5

    def __post_init__(self):
        check_bounds(self)
        if not self.sep_mu_correct > self.sep_mu_incorrect:
            raise ValidationError("sep_mu_correct must exceed sep_mu_incorrect")
        for name, least_key in (("depth_weights", 0), ("answer_len_weights", 1)):
            weights = {int(k): float(w) for k, w in dict(getattr(self, name)).items()}
            if not 0.0 < sum(weights.values()) < math.inf:
                raise ValidationError(f"{name} must be non-empty with a positive, finite total mass")
            if min(weights) < least_key:
                raise ValidationError(f"{name} keys must be >= {least_key}")
            object.__setattr__(self, name, weights)


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


def sample_weighted(u: float, weights: Mapping[int, float]) -> int:
    """The key of an integer-keyed weight table that uniform double u draws.

    Exactly what rng.choice(sorted keys, p=normalized weights) draws when
    its one uniform double is u: u located in the cumulative distribution.
    """
    values, cdf = _weight_cdf(tuple(weights.items()))
    return int(values[bisect_right(cdf, u)])


@functools.cache
def _tail_stats(width: int) -> tuple[np.ndarray, float, float]:
    check(COUNT, tail_width=width)
    tail = -TAIL_SCALE * TAIL_DECAY ** np.arange(width - 1, -1, -1, dtype=np.float64)
    s = float(tail.sum())
    q = float((tail * tail).sum())
    n = width + 1
    return tail, s, n * q - s * s * n / (n - 1)


def margin_vector(margin: float, width: int) -> TokenLogits:
    """Logit vector of the given width whose top-`width` separability equals `margin`.

    Inverts the standardized-margin formula against the fixed tail. Margins
    clamp to the representable range: at most ~0.995 * sqrt(width - 1)
    (the mathematical ceiling of the score) and at least the tail floor,
    reached when the top logit ties the runner-up.
    """
    check(Range(2), width=width)
    return TokenLogits(_margin_rows([margin], width)[0])


def _margin_rows(margins, width: int) -> np.ndarray:
    """(len(margins), width) array whose row i is margin_vector(margins[i],
    width)'s values: the cached tail, then the row's top in column 0."""
    values = np.empty((len(margins), width), dtype=np.float64)
    values[:, 1:] = _tail_stats(width - 1)[0]
    values[:, 0] = [_top(m, width) for m in margins]
    return values


def _top(margin: float, width: int) -> float:
    """Leading logit that gives the fixed tail of `width - 1` the margin
    `margin`, after margin_vector's clamping."""
    tail, s, c = _tail_stats(width - 1)
    n = width
    m = min(max(float(margin), 0.0), 0.995 * math.sqrt(n - 1))
    y = m * math.sqrt(c / (1.0 - (m * m) / (n - 1)))
    return max((y + s) / (n - 1), float(tail[0]))


def wrong_answer(truth: str) -> str:
    if len(truth) == 1 and truth.upper() in CHOICES:
        idx = CHOICES.index(truth.upper())
        return CHOICES[(idx + 1) % len(CHOICES)]
    return f"not-{truth}"


class SyntheticBackend:
    """Backend with scripted accuracy/latency statistics and seeded streams.

    Given the queries a command will ask about, it seeds their judge and
    speculate streams in one pass, takes every judge draw as one set of
    lanes, and runs their tool loops together; any other query's loop runs
    as a batch of one. A route returns the same for a query either way.
    """

    def __init__(self, config: SyntheticConfig, queries=()):
        self.config = config
        queries = list(queries)
        self._rows = {query: row for row, query in enumerate(queries)}
        if queries:  # else skip the vectorized passes' fixed cost: no route reads these
            states = seed_states(config.seed, ((q.id, phase) for q in queries for phase in ("judge", "speculate")))
            self._judge_draws, self._speculate_states = Lanes(states[0::2]).random(), states[1::2]
            self._loops = self._run_loops(queries)

    def _latents(self, query: Query) -> tuple[bool, int]:
        # A fully pinned query needs no stream. Otherwise both latents are
        # drawn, so one latent's value never depends on whether the other
        # is pinned.
        if query.true_requires_tools is not None and query.true_depth is not None:
            return query.true_requires_tools, query.true_depth
        rng = substream(self.config.seed, query.id, "latent")
        requires = bool(rng.random() < self.config.p_tool_required)
        depth = sample_weighted(rng.random(), self.config.depth_weights)
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
            row = self._rows.get(query)
            draw = substream(self.config.seed, query.id, "judge").random() if row is None else self._judge_draws[row]
            flipped = draw >= self.config.judge_accuracy
        return JudgeOutput(g=int(requires != flipped), latency_s=self.config.judge_cost_s)

    def speculate(self, query: Query) -> SpeculativeAnswer:
        cfg = self.config
        requires, _ = self._latents(query)
        row = self._rows.get(query)
        rng = substream(cfg.seed, query.id, "speculate") if row is None else seeded(self._speculate_states[row])
        accuracy = cfg.draft_accuracy_toolreq if requires else cfg.draft_accuracy_toolfree
        correct = bool(rng.random() < accuracy)
        n_tokens = sample_weighted(rng.random(), cfg.answer_len_weights)
        if query.true_draft_correct is not None:
            # pinned query: margins sit exactly at the class mean so the
            # gate verdict is certain
            correct = query.true_draft_correct
            mu = cfg.sep_mu_correct if correct else cfg.sep_mu_incorrect
            margins = np.full(n_tokens, mu)
        else:
            mu = cfg.sep_mu_correct if correct else cfg.sep_mu_incorrect
            margins = np.maximum(rng.normal(mu, cfg.sep_sigma, size=n_tokens), 0.0)
        values = _margin_rows(margins.tolist(), cfg.vocab_k)
        token_logits = AnswerLogits(values, np.full(n_tokens, cfg.vocab_k))
        truth = self._ground_truth(query)
        answer = truth if correct else wrong_answer(truth)
        return SpeculativeAnswer(answer=answer, token_logits=token_logits, latency_s=cfg.speculate_cost_s)

    def _run_loops(self, queries: list[Query]) -> list[tuple[list[float], bool, bool]]:
        """The queries' tool loops, run together one step index at a time:
        step d's streams of all loops still running, each keyed on its
        loop's observation from step d - 1, are drawn from as one set of
        lanes, and a loop of depth d draws its answer from step d's stream.
        Returns each query's (tool costs, correct, truncated)."""
        cfg = self.config
        low, high = float(cfg.tool_cost.low), float(cfg.tool_cost.high)  # Generator.uniform: low + (high - low) * u
        true_depths = [self._latents(query)[1] for query in queries]
        depths = [min(depth, cfg.depth_cap) for depth in true_depths]
        tool_costs = [[] for _ in queries]
        correct = [False] * len(queries)
        observations = [f"s0:{query.id}" for query in queries]
        running = range(len(queries))
        step = 0
        while running:
            streams = lanes(cfg.seed, [(queries[i].id, "agentic", step, observations[i]) for i in running])
            looping = []
            # a tool step's observation, rng.bytes(8) after one uniform, is its next raw word, little-endian
            for i, u, word in zip(running, streams.random(), streams.next64()):
                if step < depths[i]:
                    tool_costs[i].append(low + (high - low) * u)
                    observations[i] = word.to_bytes(8, "little").hex()
                    looping.append(i)
                else:
                    correct[i] = u < cfg.agentic_accuracy
            running = looping
            step += 1
        return list(zip(tool_costs, correct, [depth > cfg.depth_cap for depth in true_depths]))

    def agentic_run(self, query: Query) -> AgenticOutput:
        cfg = self.config
        row = self._rows.get(query)
        tool_costs, correct, truncated = self._run_loops([query])[0] if row is None else self._loops[row]
        steps = [(cfg.llm_step_cost_s, tool_s) for tool_s in tool_costs]
        steps.append((cfg.llm_step_cost_s, 0.0))  # answer emission, no tool
        truth = self._ground_truth(query)
        return AgenticOutput(truth if correct else wrong_answer(truth), steps, truncated=truncated)


def make_workload(config: SyntheticConfig, n_queries: int) -> list[Query]:
    """Bernoulli workload: latent flags sampled from the configured priors."""
    check(COUNT, n_queries=n_queries)
    return _workload(config, [(None, None)] * n_queries)


def _workload(config: SyntheticConfig, pins) -> list[Query]:
    """The queries of a synthetic workload, one per (requires_tools,
    draft_correct) pin. Query i's "workload" stream draws the Bernoulli tool
    flag, then the depth, and its "truth" stream the ground truth; a quota
    workload pins the flag with requires_tools in place of the drawn one,
    and the draft with draft_correct. Each kind of stream is drawn from as
    one set of lanes."""
    qids = [f"q{i:06d}" for i in range(len(pins))]
    workload = lanes(config.seed, [(qid, "workload") for qid in qids])
    flags, depths = workload.random(), workload.random()
    truths = lanes(config.seed, [(qid, "truth") for qid in qids]).next64()
    return [
        Query(
            id=qids[i],
            image_ref=f"synthetic://{qids[i]}",
            question=f"synthetic question {i}",
            ground_truth=_truth(truth),
            true_requires_tools=flag < config.p_tool_required if requires_tools is None else requires_tools,
            true_depth=sample_weighted(depth, config.depth_weights),
            true_draft_correct=draft_correct,
        )
        for i, (requires_tools, draft_correct), flag, depth, truth in zip(range(len(pins)), pins, flags, depths, truths)
    ]


def _derive_truth(seed: int, query_id: str) -> str:
    # same stream the backend falls back to, so a synthetic server with a
    # matching seed agrees with a locally generated workload
    return _truth(substream(seed, query_id, "truth").bit_generator.random_raw())


def _truth(raw: int) -> str:
    """The choice integers(len(CHOICES)) draws from raw word `raw`: Lemire's
    method on its low 32 bits, which for a power of two never rejects."""
    return CHOICES[(raw & 0xFFFFFFFF) * len(CHOICES) >> 32]


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
    check(COUNT, n_queries=n_queries)
    check(UNIT, toolfree_fraction=toolfree_fraction, accept_fraction=accept_fraction)
    n_toolfree = int(round(Fraction(str(toolfree_fraction)) * n_queries))
    n_accept = math.floor(Fraction(str(accept_fraction)) * n_toolfree)
    # n_accept <= n_toolfree, so every accepted query is screened tool-free
    return _workload(config, [(i >= n_toolfree, i < n_accept) for i in range(n_queries)])


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

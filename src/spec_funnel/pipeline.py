"""The four serving phases, defined once for every clock, schedule and
offline score collection: only the phase functions call a backend route.

Phase I asks the large model whether tools are needed; tool-required
queries go straight to the agentic loop. Phase II drafts a tool-free
answer, Phase III gates it on answer confidence, and Phase IV runs the
full agentic loop for everything the gate rejects. run_phases runs a batch
through them as three stages (judge, speculate, agentic) and leaves how
each stage's calls are spread over workers and timed to its stage runner;
process_query is a batch of one. Every phase's latency is recorded
separately.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .backends.base import Backend, Query
from .bounds import UNIT, Range, check
from .errors import BackendUnavailable, ValidationError
from .gate import GateConfig, GateDecision, gate

__all__ = [
    "QueryPath",
    "LatencyBreakdown",
    "QueryOutcome",
    "run_phases",
    "process_query",
    "expected_latency",
    "answers_match",
]


class QueryPath(str, Enum):
    TOOL_REQUIRED_FALLBACK = "judged_tool_required_fallback"
    SPECULATION_ACCEPTED = "speculation_accepted"
    SPECULATION_REJECTED_FALLBACK = "speculation_rejected_fallback"


@dataclass(frozen=True)
class LatencyBreakdown:
    judge_s: float = 0.0
    speculate_s: float = 0.0
    agentic_s: float = 0.0

    def __post_init__(self):
        phases = (self.judge_s, self.speculate_s, self.agentic_s)
        if not all(math.isfinite(v) and v >= 0.0 for v in phases):
            raise ValidationError("phase latencies must be finite and >= 0")

    @property
    def total_s(self) -> float:
        return self.judge_s + self.speculate_s + self.agentic_s


@dataclass(frozen=True)
class QueryOutcome:
    """Final answer, routing trace, and latency accounting for one query."""

    query_id: str
    answer: str
    path: QueryPath
    gate: GateDecision | None
    latency: LatencyBreakdown
    total_latency_s: float
    correct: bool | None = None
    error: str | None = None

    def __post_init__(self):
        if abs(self.total_latency_s - self.latency.total_s) > 1e-9:
            raise ValidationError("total latency must equal the phase sum")
        if self.path is QueryPath.SPECULATION_ACCEPTED:
            if self.gate is None or not self.gate.accepted:
                raise ValidationError("accepted path requires an accepting gate decision")
            if self.latency.agentic_s != 0.0:
                raise ValidationError("accepted path must not carry agentic latency")
        if self.path is QueryPath.TOOL_REQUIRED_FALLBACK:
            if self.gate is not None:
                raise ValidationError("tool-required path never reaches the gate")
            if self.latency.speculate_s != 0.0:
                raise ValidationError("tool-required path never speculates")


def _judge(backend: Backend, query: Query) -> tuple[int | None, float]:
    """Phase I: (g, cost). A failed call gives g = None, routed as g = 1."""
    try:
        output = backend.judge(query)
    except BackendUnavailable:
        return None, 0.0
    return output.g, output.latency_s


_NO_DRAFT = ("", None, 0.0)


def _draft(backend: Backend, query: Query, score) -> tuple[str, object, float]:
    """Phases II and III: (answer, score(token_logits), cost). The caller's
    score gates the draft; a failed draft gives a None score."""
    try:
        draft = backend.speculate(query)
    except BackendUnavailable:
        return _NO_DRAFT
    return draft.answer, score(draft.token_logits), draft.latency_s


def _fallback(backend: Backend, query: Query) -> tuple[str, str | None, float]:
    """Phase IV. A failed agentic loop leaves no answer and records the error."""
    try:
        output = backend.agentic_run(query)
    except BackendUnavailable as exc:
        return "", str(exc), 0.0
    return output.answer, None, output.latency_s


def _outcome(query, g, judge_s, draft_answer, decision, speculate_s, fallback) -> QueryOutcome:
    """Assemble one query's outcome; fallback is None for an accepted draft."""
    if fallback is None:
        path, answer, agentic_s, error = QueryPath.SPECULATION_ACCEPTED, draft_answer, 0.0, None
    else:
        path = QueryPath.TOOL_REQUIRED_FALLBACK if g != 0 else QueryPath.SPECULATION_REJECTED_FALLBACK
        answer, error, agentic_s = fallback
    latency = LatencyBreakdown(judge_s=judge_s, speculate_s=speculate_s, agentic_s=agentic_s)
    return QueryOutcome(
        query_id=query.id,
        answer=answer,
        path=path,
        gate=decision if g == 0 else None,
        latency=latency,
        total_latency_s=latency.total_s,
        correct=(
            None
            if error is not None or query.ground_truth is None
            else answers_match(answer, query.ground_truth)
        ),
        error=error,
    )


def _in_order(stage: str, fn, items: list) -> list:
    """Stage runner that applies fn to each item in turn on the calling thread."""
    return [fn(item) for item in items]


def run_phases(
    queries, gate_config: GateConfig | None, backend: Backend, run_stage=_in_order
) -> list[QueryOutcome]:
    """Run a batch through the four phases, one stage at a time.

    run_stage(stage, fn, queries) applies fn to every query of one stage,
    "judge", "speculate" or "agentic", and returns the results in order;
    it decides how the calls are spread over workers and timed. Each
    result is a tuple whose last item is the cost the call reported, in
    seconds, and 0.0 for a failed call. Judge and draft failures degrade to
    fallback, and an agentic failure becomes the outcome's error. A
    gate_config of None turns bypass off: nothing is judged or drafted and
    every query takes the tool-required path.
    Outcomes come back in input order.
    """
    queries = list(queries)
    if gate_config is None:
        verdicts = [(1, 0.0)] * len(queries)
    else:
        verdicts = run_stage("judge", lambda q: _judge(backend, q), queries)
    toolfree = [i for i, (g, _) in enumerate(verdicts) if g == 0]
    drafted = run_stage(
        "speculate",
        lambda q: _draft(backend, q, lambda logits: gate(logits, gate_config)),
        [queries[i] for i in toolfree],
    )
    drafts = dict(zip(toolfree, drafted))
    accepted = {i for i, (_, decision, _) in drafts.items() if decision and decision.accepted}
    residual = [i for i in range(len(queries)) if i not in accepted]
    fallen = run_stage("agentic", lambda q: _fallback(backend, q), [queries[i] for i in residual])
    fallbacks = dict(zip(residual, fallen))
    return [
        _outcome(query, *verdicts[i], *drafts.get(i, _NO_DRAFT), fallbacks.get(i))
        for i, query in enumerate(queries)
    ]


def process_query(query: Query, gate_config: GateConfig, backend: Backend) -> QueryOutcome:
    """Run one query through all four phases and record the trace."""
    return run_phases([query], gate_config, backend)[0]


def expected_latency(
    beta: float, alpha: float, judge_cost_s: float, speculate_cost_s: float, agentic_mean_s: float
) -> float:
    """Analytic expected per-query latency of the gated pipeline.

    Every query pays the judge; the beta fraction screened tool-free also
    pays the draft; the (1 - beta * alpha) fraction that is not accepted
    pays the full agentic cost.
    """
    check(UNIT, beta=beta, alpha=alpha)
    check(Range(0), judge_cost_s=judge_cost_s, speculate_cost_s=speculate_cost_s, agentic_mean_s=agentic_mean_s)
    return judge_cost_s + beta * speculate_cost_s + (1.0 - beta * alpha) * agentic_mean_s


def _normalize_text(text: str) -> str:
    return " ".join(text.strip().lower().split())


def answers_match(predicted: str, truth: str) -> bool:
    """Exact match after whitespace/case normalization.

    Single-character ground truths are treated as choice answers and
    compared against the first token of the prediction with surrounding
    punctuation stripped ("A." matches "a").
    """
    pred = _normalize_text(predicted)
    gold = _normalize_text(truth)
    if len(gold) == 1 and gold.isalnum():
        first = pred.split()[0] if pred else ""
        return first.strip(".():,;'\"") == gold
    return pred == gold

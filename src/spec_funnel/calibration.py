"""Offline threshold selection and confidence-distribution analytics.

Collects gate scores against ground truth, estimates the score densities of
correct and incorrect drafts (Gaussian KDE, Silverman bandwidth, fixed
512-point grid with boundary reflection), measures their peak distance as a
discriminability metric, and sweeps accept thresholds into operating points
(acceptance rate, blended accuracy, analytic speedup, expected latency).
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .backends.base import Backend, Query
from .bounds import COUNT, FINITE, UNIT, Range, check
from .errors import DegenerateDistribution, InfiniteSpeedup, ValidationError
from .funnel import speedup_model
from .gate import GateConfig, Scoring, gate
from .pipeline import _draft, _judge, answers_match, expected_latency

__all__ = [
    "ScoreSample",
    "ScoreCollection",
    "CostSummary",
    "OperatingPoint",
    "ThresholdChoice",
    "DensityEstimate",
    "UnionBoundReport",
    "collect_scores",
    "collect_score_sets",
    "kde",
    "class_densities",
    "peak_distance",
    "analytic_speedup",
    "sweep_threshold",
    "choose_threshold",
    "default_tau_grid",
    "union_bound_report",
    "KDE_GRID_SIZE",
]

KDE_GRID_SIZE = 512
_KDE_BLOCK_ROWS = 32


@dataclass(frozen=True)
class ScoreSample:
    """Normalized gate score of one draft, with its correctness label."""

    query_id: str
    score: float
    correct: bool
    strategy: Scoring


@dataclass(frozen=True)
class ScoreCollection:
    """Gate samples for the tool-free pool, plus screening bookkeeping read
    from pipeline's phase results: n_tool_required counts every query not
    judged tool-free, failed judge calls (n_judge_failed) included, as `run`
    falls back on them too; n_failed counts tool-free queries whose draft
    call failed, which carry no sample. Mean costs are over successful calls.
    """

    samples: tuple[ScoreSample, ...]
    n_tool_required: int
    mean_judge_s: float
    mean_speculate_s: float
    token_scores: tuple[tuple[float, ...], ...]
    n_failed: int = 0
    n_judge_failed: int = 0

    @property
    def n_total(self) -> int:
        return len(self.samples) + self.n_tool_required + self.n_failed

    @property
    def beta_hat(self) -> float:
        return len(self.samples) / max(self.n_total, 1)


@dataclass(frozen=True)
class CostSummary:
    """Mean per-call costs used by the analytic latency model."""

    judge_s: float
    speculate_s: float
    agentic_mean_s: float


@dataclass(frozen=True)
class OperatingPoint:
    tau: float
    acceptance_rate: float
    accuracy: float
    analytic_speedup: float
    expected_latency_s: float

    def __post_init__(self):
        # not check_bounds: a fully bypassed point's analytic_speedup is inf
        check(UNIT, acceptance_rate=self.acceptance_rate, accuracy=self.accuracy)


@dataclass(frozen=True)
class ThresholdChoice:
    """Selected operating point; no_safe_point flags that no candidate
    preserved the baseline accuracy and the max-accuracy point was returned."""

    point: OperatingPoint
    no_safe_point: bool


def collect_scores(
    queries: list[Query], gate_config: GateConfig, backend: Backend
) -> ScoreCollection:
    """Score every tool-free query once; no thresholding, no fallback.

    The one-config case of collect_score_sets.
    """
    return collect_score_sets(queries, (gate_config,), backend)[0]


def collect_score_sets(
    queries: list[Query], gate_configs, backend: Backend
) -> tuple[ScoreCollection, ...]:
    """Score every tool-free query under each gate config, one collection per
    config, with one judge and one draft call per query.

    The calls are pipeline's Phase I and Phase II/III functions, so a failed
    call degrades as in `run`, and the counts and mean costs are read from
    their results. Each draft is scored under every config as it arrives and
    its logits are not kept. All queries must carry ground truth.
    """
    gate_configs = tuple(gate_configs)
    if not queries:
        raise ValidationError("need at least one query")
    if not gate_configs:
        raise ValidationError("need at least one gate config")
    if any(q.ground_truth is None for q in queries):
        raise ValidationError("calibration queries must carry ground truth")
    verdicts = [_judge(backend, query) for query in queries]
    toolfree = [query for query, (g, _) in zip(queries, verdicts) if g == 0]
    samples = [[] for _ in gate_configs]
    token_scores = [[] for _ in gate_configs]
    speculate_costs = []
    for query in toolfree:
        answer, decisions, cost = _draft(backend, query, lambda logits: [gate(logits, c) for c in gate_configs])
        if decisions is None:
            continue
        speculate_costs.append(cost)
        correct = answers_match(answer, query.ground_truth)
        for config, decision, kept, traces in zip(gate_configs, decisions, samples, token_scores):
            kept.append(ScoreSample(query.id, decision.score, correct, config.aggregation))
            traces.append(decision.token_scores)
    judge_costs = [cost for g, cost in verdicts if g is not None]
    mean_judge_s = float(np.mean(judge_costs)) if judge_costs else 0.0
    mean_speculate_s = float(np.mean(speculate_costs)) if speculate_costs else 0.0
    return tuple(
        ScoreCollection(
            samples=tuple(kept),
            n_tool_required=len(queries) - len(toolfree),
            mean_judge_s=mean_judge_s,
            mean_speculate_s=mean_speculate_s,
            token_scores=tuple(traces),
            n_failed=len(toolfree) - len(speculate_costs),
            n_judge_failed=len(queries) - len(judge_costs),
        )
        for kept, traces in zip(samples, token_scores)
    )


@dataclass(frozen=True)
class DensityEstimate:
    """Gaussian KDE evaluated on the fixed [0, 1] grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float

    @property
    def peak(self) -> float:
        return float(self.grid[int(np.argmax(self.density))])


def _silverman_bandwidth(x: np.ndarray) -> float:
    sd = float(x.std())
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return 0.9 * spread * x.size ** (-0.2)


def kde(scores, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian kernel density estimate on [0, 1].

    Bandwidth defaults to Silverman's rule 0.9 * min(sd, IQR/1.34) * n^(-1/5).
    Mass falling outside [0, 1] is folded back by reflection at both
    boundaries, so the density integrates to ~1 on the grid.
    """
    h = None if bandwidth is None else float(bandwidth)
    check(Range(0, open=True), bandwidth=h)
    # sorting makes the estimate exactly invariant to input order
    x = np.sort(np.asarray(list(scores), dtype=np.float64))
    if x.size < 2:
        raise DegenerateDistribution("need at least 2 scores")
    if float(x.std()) == 0.0:
        raise DegenerateDistribution("scores have zero variance (point mass)")
    if h is None:
        h = _silverman_bandwidth(x)
        if h <= 0.0:
            raise DegenerateDistribution("bandwidth collapsed to zero")
    grid = np.linspace(0.0, 1.0, KDE_GRID_SIZE)
    density = np.zeros(KDE_GRID_SIZE)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    for chunk_start in range(0, x.size, 2048):
        chunk = x[chunk_start : chunk_start + 2048]
        # grid rows in blocks, so the temporaries are one block by one chunk
        # whatever n is; each row still sums its whole chunk in one pairwise
        # sum, which keeps every bit of the density
        for row in range(0, KDE_GRID_SIZE, _KDE_BLOCK_ROWS):
            rows = slice(row, row + _KDE_BLOCK_ROWS)
            # source points plus their reflections across 0 and 1
            for points in (chunk, -chunk, 2.0 - chunk):
                z = (grid[rows, None] - points[None, :]) / h
                density[rows] += norm * np.exp(-0.5 * z * z).sum(axis=1)
    density /= x.size * h
    return DensityEstimate(grid=grid, density=density, bandwidth=h)


def class_densities(correct_scores, incorrect_scores, bandwidth: float | None = None):
    """The KDEs of the correct and of the incorrect scores, each None where
    its class is degenerate, and the distance between their peaks, None
    unless both exist: (correct, incorrect, distance)."""
    estimates = []
    for scores in (correct_scores, incorrect_scores):
        try:
            estimates.append(kde(scores, bandwidth))
        except DegenerateDistribution:
            estimates.append(None)
    correct, incorrect = estimates
    distance = None if correct is None or incorrect is None else abs(correct.peak - incorrect.peak)
    return correct, incorrect, distance


def peak_distance(correct_scores, incorrect_scores, bandwidth: float | None = None) -> float:
    """Distance between the density modes of correct and incorrect scores;
    a DegenerateDistribution when either class has no density."""
    *_, distance = class_densities(correct_scores, incorrect_scores, bandwidth)
    if distance is None:
        raise DegenerateDistribution("each class needs at least 2 scores with nonzero spread")
    return distance


def default_tau_grid(scores, n_taus: int = 33) -> list[float]:
    """Evenly spaced thresholds over the empirical score range."""
    x = np.asarray(list(scores), dtype=np.float64)
    if x.size == 0:
        raise ValidationError("need at least one score")
    check(COUNT, n_taus=n_taus)
    return [float(t) for t in np.linspace(float(x.min()), float(x.max()), n_taus)]


def analytic_speedup(beta: float, alpha: float) -> float:
    """speedup_model, reporting a fully bypassed batch as inf."""
    try:
        return speedup_model(beta, alpha)
    except InfiniteSpeedup:
        return float("inf")


def sweep_threshold(
    samples,
    taus,
    costs: CostSummary,
    beta: float,
    fallback_accuracy: float,
) -> list[OperatingPoint]:
    """Evaluate each threshold against the collected scores.

    Accuracy blends the accepted drafts' empirical accuracy with the
    fallback accuracy inside the tool-free pool, then with the tool-required
    pool (which always falls back). Speedup and latency come from the
    analytic models at (beta, acceptance_rate).
    """
    samples = list(samples)
    if not samples:
        raise ValidationError("need at least one score sample")
    taus = [float(t) for t in taus]
    check(FINITE, taus=taus)
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ValidationError("taus must be sorted ascending")
    check(UNIT, beta=beta, fallback_accuracy=fallback_accuracy)
    scores = np.array([s.score for s in samples])
    correct = np.array([s.correct for s in samples], dtype=bool)
    points = []
    for tau in taus:
        accepted = scores >= tau
        acceptance = float(accepted.mean())
        accepted_accuracy = float(correct[accepted].mean()) if accepted.any() else 0.0
        toolfree_accuracy = acceptance * accepted_accuracy + (1.0 - acceptance) * fallback_accuracy
        accuracy = beta * toolfree_accuracy + (1.0 - beta) * fallback_accuracy
        latency = expected_latency(beta, acceptance, costs.judge_s, costs.speculate_s, costs.agentic_mean_s)
        points.append(
            OperatingPoint(
                tau=tau,
                acceptance_rate=acceptance,
                accuracy=accuracy,
                analytic_speedup=analytic_speedup(beta, acceptance),
                expected_latency_s=latency,
            )
        )
    return points


def choose_threshold(points, baseline_accuracy: float) -> ThresholdChoice:
    """Fastest operating point that preserves the baseline accuracy.

    Falls back to the max-accuracy point, flagged, when nothing qualifies.
    """
    points = list(points)
    if not points:
        raise ValidationError("need at least one operating point")
    check(UNIT, baseline_accuracy=baseline_accuracy)
    safe = [p for p in points if p.accuracy >= baseline_accuracy]
    if safe:
        best = max(safe, key=lambda p: (p.analytic_speedup, p.accuracy, -p.tau))
        return ThresholdChoice(point=best, no_safe_point=False)
    best = max(points, key=lambda p: (p.accuracy, p.analytic_speedup, -p.tau))
    return ThresholdChoice(point=best, no_safe_point=True)


@dataclass(frozen=True)
class UnionBoundReport:
    """Per-token error rates binned by separability, with the additive
    (union-style) per-answer error estimate next to the observed rate.

    monotone_decreasing records whether the binned error rate falls as
    separability rises; it is reported, not asserted, because that premise
    is empirical.
    """

    bins: tuple[tuple[float, float, int, float], ...]
    union_bound_mean: float
    observed_error_rate: float
    monotone_decreasing: bool


def union_bound_report(token_scores, correct, n_bins: int = 10) -> UnionBoundReport:
    """Build the separability/error report from per-answer token scores."""
    token_scores = [tuple(ts) for ts in token_scores]
    correct = [bool(c) for c in correct]
    if len(token_scores) != len(correct) or not token_scores:
        raise ValidationError("need matching, non-empty token scores and labels")
    check(COUNT, n_bins=n_bins)
    flat = np.array([s for ts in token_scores for s in ts])
    labels = np.array([not ok for ts, ok in zip(token_scores, correct) for _ in ts], dtype=bool)
    lo, hi = float(flat.min()), float(flat.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, flat, side="right") - 1, 0, n_bins - 1)
    bins = []
    rates = np.zeros(n_bins)
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        rate = float(labels[mask].mean()) if count else 0.0
        rates[b] = rate
        bins.append((float(edges[b]), float(edges[b + 1]), count, rate))
    nonempty = [r for (_, _, n, r) in bins if n > 0]
    monotone = all(b <= a for a, b in zip(nonempty, nonempty[1:]))
    # each answer sums its own slice of the binned tokens, the same sum bit
    # for bit as over its tokens alone (np.add.reduceat is not)
    token_rates = rates[idx]
    ends = list(accumulate(len(ts) for ts in token_scores))
    per_answer = [min(float(token_rates[a:b].sum()), 1.0) for a, b in zip([0, *ends], ends)]
    return UnionBoundReport(
        bins=tuple(bins),
        union_bound_mean=float(np.mean(per_answer)),
        observed_error_rate=float(np.mean([not ok for ok in correct])),
        monotone_decreasing=monotone,
    )


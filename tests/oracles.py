"""Reference forms that the tests compare the library against.

None of these runs in a command. Each computes, one item at a time or in
the plainest way, a number the library computes faster or as part of a
larger step: gate()'s row reductions against token_separability,
max_softmax_prob and log_confidence; the synthetic tool loop's lanes
against agentic_step_stream; the margin generator against
separability_floor; class_densities against peak_distance; a written
outcomes.jsonl against outcome_lines.
"""

import math
from typing import Sequence

import numpy as np

from spec_funnel.backends.base import substream
from spec_funnel.backends.synthetic import _tail_stats
from spec_funnel.bounds import COUNT, Range, check
from spec_funnel.calibration import class_densities
from spec_funnel.errors import DegenerateDistribution, EmptyAnswerError, ValidationError
from spec_funnel.gate import TokenLogits
from spec_funnel.recordio import canonical_json, outcome_to_dict


def from_raw(values) -> TokenLogits:
    """Build from logit values in any order (sorts descending)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    return TokenLogits(arr.copy())


def token_separability(logits: TokenLogits, k: int = 64, epsilon: float = 1e-6) -> float:
    """Standardized margin of the leading logit over the top-k window.

    Returns (top - mean) / (population std + epsilon), computed over the k
    largest retained logits. The score is shift-invariant, scale-invariant
    at epsilon=0, and never negative; an all-equal window scores exactly 0.
    If fewer than k logits were retained, the window clamps to what is
    available (gate() records a diagnostic for that condition).
    """
    check(COUNT, k=k)
    check(Range(0), epsilon=epsilon)
    window = logits.values[: min(k, len(logits))]
    if window[0] == window[-1]:
        # flat window (sorted, so ends equal means all equal): exact zero,
        # independent of np.mean rounding an ulp below the common value
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        margin = float(window[0]) - float(window.mean())
        if not 0.0 < margin < math.inf:  # also when the window's sum is past the float range
            return 0.0
        return margin / (float(window.std()) + epsilon)


def max_softmax_prob(logits: TokenLogits) -> float:
    """Softmax probability of the leading token over the retained slice.

    The retained top logits are treated as the full support, which biases
    the value upward relative to the vocabulary-wide probability; the shift
    by the leading logit keeps the computation stable.
    """
    with np.errstate(over="ignore"):  # a gap past the float range is -inf, of weight 0
        return float(1.0 / np.exp(logits.values - logits.values[0]).sum())


def log_confidence(answer: Sequence[TokenLogits]) -> float:
    """Geometric mean of per-token max-softmax probabilities."""
    if len(answer) == 0:
        raise EmptyAnswerError("cannot score an empty answer")
    log_probs = []
    with np.errstate(over="ignore"):  # as in max_softmax_prob
        for logits in answer:
            log_probs.append(-math.log(float(np.exp(logits.values - logits.values[0]).sum())))
    return math.exp(math.fsum(log_probs) / len(answer))


def logit(probability: float) -> float:
    """Inverse of gate.normalize() on (0, 1)."""
    check(Range(0, 1, open=True), probability=probability)
    return math.log(probability / (1.0 - probability))


def separability_floor(width: int) -> float:
    """Smallest margin the synthetic generator can realize at this width."""
    tail, s, c = _tail_stats(width - 1)
    y = (width - 1) * float(tail[0]) - s
    return y / math.sqrt(y * y / (width - 1) + c)


def agentic_step_stream(seed: int, query_id: str, step: int, previous_observation: str):
    """RNG for one tool-loop step, as SyntheticBackend seeds it.

    Keyed on the previous step's observation, which is what makes the loop
    stateful: perturbing step d's observation changes every draw of step d+1.
    """
    return substream(seed, query_id, "agentic", step, previous_observation)


def peak_distance(correct_scores, incorrect_scores, bandwidth: float | None = None) -> float:
    """Distance between the density modes of correct and incorrect scores;
    a DegenerateDistribution when either class has no density."""
    *_, distance = class_densities(correct_scores, incorrect_scores, bandwidth)
    if distance is None:
        raise DegenerateDistribution("each class needs at least 2 scores with nonzero spread")
    return distance


def throughput_bound(latencies) -> float:
    """Serial agentic throughput ceiling: batch size over total occupancy."""
    values = list(latencies)
    if not values:
        raise ValidationError("need at least one latency")
    check(Range(0, open=True), latencies=values)
    return len(values) / math.fsum(values)


def outcome_lines(outcomes) -> bytes:
    """Byte-stable JSONL rendering of an outcome list."""
    return "".join(canonical_json(outcome_to_dict(o)) + "\n" for o in outcomes).encode()

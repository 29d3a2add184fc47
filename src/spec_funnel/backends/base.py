"""Backend contract and the record types exchanged with model backends."""

import hashlib
import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from ..errors import ValidationError
from ..gate import TokenLogits

__all__ = [
    "Query",
    "JudgeOutput",
    "SpeculativeAnswer",
    "AgenticOutput",
    "Backend",
    "substream",
    "integral",
    "real",
]


@dataclass(frozen=True)
class Query:
    """One serving request.

    The true_* fields are latent generator-side attributes used by the
    synthetic backend and are absent (None) for real traffic. A non-None
    true_draft_correct marks a pinned query whose screening and draft
    outcomes are forced; quota workloads use this to realize exact
    stage fractions.
    """

    id: str
    image_ref: str = ""
    question: str = ""
    ground_truth: str | None = None
    true_requires_tools: bool | None = None
    true_depth: int | None = None
    true_draft_correct: bool | None = None

    def __post_init__(self):
        if not self.id:
            raise ValidationError("query id must be non-empty")
        if self.true_depth is not None and self.true_depth < 0:
            raise ValidationError("true_depth must be >= 0")


def integral(value) -> int:
    """The int an integral JSON number stands for; any other value, a bool
    or a fraction included, is a ValidationError."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise ValidationError(f"must be an integer, got {value!r}")


def real(value):
    """A JSON number, an int or a float, returned as it is; any other value,
    a bool or a numeric string included, is a ValidationError."""
    if type(value) is float or type(value) is int:
        return value
    raise ValidationError(f"must be a number, got {value!r}")


def _check_latency(latency_s: float) -> None:
    if not (math.isfinite(latency_s) and latency_s >= 0.0):
        raise ValidationError("latency must be finite and >= 0")


@dataclass(frozen=True)
class JudgeOutput:
    """Binary tool-necessity verdict; g=0 means answerable without tools."""

    g: int
    latency_s: float

    def __post_init__(self):
        if self.g not in (0, 1):
            raise ValidationError("judge flag must be 0 or 1")
        _check_latency(self.latency_s)


@dataclass(frozen=True)
class SpeculativeAnswer:
    """Draft answer with the retained logits of every generated token."""

    answer: str
    token_logits: tuple[TokenLogits, ...]
    latency_s: float

    def __post_init__(self):
        object.__setattr__(self, "token_logits", tuple(self.token_logits))
        if self.answer and len(self.token_logits) == 0:
            raise ValidationError("a non-empty answer requires at least one token's logits")
        _check_latency(self.latency_s)


@dataclass(frozen=True)
class AgenticOutput:
    """Result of the stateful tool loop.

    step_costs holds one (llm_s, tool_s) pair per loop step, including the
    final answer-emission step whose tool cost is zero, so depth equals
    len(step_costs) - 1 and latency_s equals the sum of all step costs.
    """

    answer: str
    depth: int
    step_costs: tuple[tuple[float, float], ...]
    latency_s: float
    truncated: bool = False

    def __post_init__(self):
        costs = tuple((float(a), float(b)) for a, b in self.step_costs)
        object.__setattr__(self, "step_costs", costs)
        if self.depth < 0:
            raise ValidationError("depth must be >= 0")
        if costs and self.depth != len(costs) - 1:
            raise ValidationError("depth must equal the number of tool steps (len(step_costs) - 1)")
        if any(a < 0.0 or b < 0.0 for a, b in costs):
            raise ValidationError("step costs must be >= 0")
        total = math.fsum(c for pair in costs for c in pair)
        if not math.isfinite(total):
            raise ValidationError("step costs must be finite")
        _check_latency(self.latency_s)
        if abs(total - self.latency_s) > 1e-9:
            raise ValidationError("latency must equal the sum of step costs")

    @classmethod
    def from_steps(cls, answer, step_costs, truncated=False) -> "AgenticOutput":
        costs = tuple((float(a), float(b)) for a, b in step_costs)
        total = math.fsum(c for pair in costs for c in pair)
        return cls(
            answer=answer,
            depth=max(len(costs) - 1, 0),
            step_costs=costs,
            latency_s=total,
            truncated=truncated,
        )


@runtime_checkable
class Backend(Protocol):
    """The three model routes. A route that cannot serve raises BackendUnavailable,
    which the funnel degrades to a fallback or an outcome error; any other
    exception (a KeyError, say) propagates unchanged out of serve_batch in
    both clock modes."""

    def judge(self, query: Query) -> JudgeOutput: ...

    def speculate(self, query: Query) -> SpeculativeAnswer: ...

    def agentic_run(self, query: Query) -> AgenticOutput: ...


def substream(seed: int, *keys: object) -> np.random.Generator:
    """Independent deterministic RNG for a (seed, key path) pair.

    Streams are derived by hashing, so draws for one query/phase/step never
    depend on batch composition, call order, or worker count.
    """
    material = "\x1f".join([str(seed), *(str(k) for k in keys)]).encode()
    digest = hashlib.sha256(material).digest()
    # The same stream as default_rng(int.from_bytes(digest[:16], "little")):
    # SeedSequence pads its entropy to four 32-bit words with zeros, so the
    # four little-endian words of the digest prefix seed it identically.
    return Generator(PCG64(SeedSequence(np.frombuffer(digest[:16], "<u4"))))

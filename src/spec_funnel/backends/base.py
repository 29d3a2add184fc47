"""Backend contract and the record types exchanged with model backends."""

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Protocol

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from ..errors import ValidationError
from ..gate import AnswerLogits

__all__ = [
    "Query",
    "JudgeOutput",
    "SpeculativeAnswer",
    "AgenticOutput",
    "Backend",
    "substream",
    "substreams",
    "integral",
    "real",
    "reals",
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
    """The int an integral JSON number stands for, if 64 bits hold it; any
    other value, a bool, a fraction or a larger int included, is an error."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        if -(2**63) <= value < 2**63:
            return int(value)
        raise ValidationError("must be an integer, got one outside the signed 64-bit range")
    raise ValidationError(f"must be an integer, got {value!r}")


_FLOAT = frozenset((float,))


def real(value):
    """A JSON number, a float or an int a float can hold, returned as it is;
    any other value, a bool, a numeric string or a larger int included, is
    a ValidationError."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise ValidationError("must be a number, got an integer too large for a float") from None
        return value
    raise ValidationError(f"must be a number, got {value!r}")


def reals(values: list) -> list:
    """real over a list, with an all-float list checked in one pass; the
    list is returned as it is."""
    if not _FLOAT.issuperset(map(type, values)):
        for value in values:
            real(value)
    return values


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
    """Draft answer with the retained logits of every generated token,
    packed; a sequence of TokenLogits is packed on construction."""

    answer: str
    token_logits: AnswerLogits
    latency_s: float

    def __post_init__(self):
        if not isinstance(self.token_logits, AnswerLogits):
            object.__setattr__(self, "token_logits", AnswerLogits.from_tokens(self.token_logits))
        if self.answer and len(self.token_logits) == 0:
            raise ValidationError("a non-empty answer requires at least one token's logits")
        _check_latency(self.latency_s)


@dataclass(frozen=True)
class AgenticOutput:
    """Result of the stateful tool loop.

    step_costs holds one (llm_s, tool_s) pair per loop step, including the
    final answer-emission step whose tool cost is zero; depth and latency_s
    are read off it.
    """

    answer: str
    step_costs: tuple[tuple[float, float], ...]
    truncated: bool = False

    def __post_init__(self):
        costs = tuple((float(a), float(b)) for a, b in self.step_costs)
        object.__setattr__(self, "step_costs", costs)
        if any(a < 0.0 or b < 0.0 for a, b in costs):
            raise ValidationError("step costs must be >= 0")
        if not math.isfinite(self.latency_s):
            raise ValidationError("step costs must be finite")

    @property
    def depth(self) -> int:
        return max(len(self.step_costs) - 1, 0)

    @property
    def latency_s(self) -> float:
        return math.fsum(c for pair in self.step_costs for c in pair)


class Backend(Protocol):
    """The three model routes. A route that cannot serve raises BackendUnavailable,
    which the funnel degrades to a fallback or an outcome error; any other
    exception (a KeyError, say) propagates unchanged out of serve_batch in
    both clock modes."""

    def judge(self, query: Query) -> JudgeOutput: ...

    def speculate(self, query: Query) -> SpeculativeAnswer: ...

    def agentic_run(self, query: Query) -> AgenticOutput: ...


def _entropy(seed: int, keys) -> bytes:
    """The 16 bytes that seed the stream of a (seed, key path) pair: the
    SHA-256 prefix of the path's text, read as four little-endian words."""
    material = "\x1f".join([str(seed), *(str(k) for k in keys)]).encode()
    return hashlib.sha256(material).digest()[:16]


def substream(seed: int, *keys: object) -> np.random.Generator:
    """Independent deterministic RNG for a (seed, key path) pair.

    Streams are derived by hashing, so draws for one query/phase/step never
    depend on batch composition, call order, or worker count.
    """
    # The same stream as default_rng(int.from_bytes(digest[:16], "little")):
    # SeedSequence pads its entropy to four 32-bit words with zeros, so the
    # four little-endian words of the digest prefix seed it identically.
    return Generator(PCG64(SeedSequence(np.frombuffer(_entropy(seed, keys), "<u4"))))


# numpy's SeedSequence constants: pool mixing (A), state output (B), mix()
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of a uint32 column, and the next hash constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value *= const
    value ^= value >> 16
    return value, const


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).pool for each row of an (n, 4) uint32 entropy
    array, as an (n, 4) uint32 array, mixed a whole column at a time."""
    const = _INIT_A
    pool = []
    for column in entropy.T:
        word, const = _hashmix(column, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, const = _hashmix(pool[src], const, _MULT_A)
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * word
                mixed ^= mixed >> 16
                pool[dst] = mixed
    return np.stack(pool, axis=1)


def _seed_states(pool: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) for each row of an (n, 4)
    pool array: eight uint32 words drawn from the pool, paired into uint64
    words as lo | hi << 32, as SeedSequence pairs them little-endian."""
    const = _INIT_B
    words = []
    for i in range(8):
        word, const = _hashmix(pool[:, i % 4], const, _MULT_B)
        words.append(word.astype(np.uint64))
    return np.stack([words[i] | words[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


class _SeedState(ISeedSequence):
    """The seed of one stream: the state words PCG64 asks its seed sequence
    for, computed beforehand."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("holds only PCG64's generate_state(4, np.uint64)")
        return self.state


def substreams(seed: int, key_paths) -> Iterator[np.random.Generator]:
    """substream(seed, *keys) for each key path in order, state for state.

    Each path is hashed, and the seed states of all of them are mixed in one
    vectorized pass, when this is called; each Generator is built as it is
    taken.
    """
    digests = bytearray()
    for keys in key_paths:
        digests += _entropy(seed, keys)
    entropy = np.frombuffer(digests, "<u4").reshape(-1, 4)
    return (Generator(PCG64(_SeedState(state))) for state in _seed_states(_pool(entropy)))

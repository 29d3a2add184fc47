from .base import AgenticOutput, Backend, JudgeOutput, Query, SpeculativeAnswer, substream
from .remote import DEFAULT_JUDGE_PROMPT, ENDPOINT_ENV_VAR, RemoteBackend
from .synthetic import (
    SyntheticBackend,
    SyntheticConfig,
    Uniform,
    make_quota_workload,
    make_workload,
    margin_vector,
    separability_floor,
    validate_quota_gate,
)

__all__ = [
    "AgenticOutput",
    "Backend",
    "JudgeOutput",
    "Query",
    "SpeculativeAnswer",
    "substream",
    "DEFAULT_JUDGE_PROMPT",
    "ENDPOINT_ENV_VAR",
    "RemoteBackend",
    "SyntheticBackend",
    "SyntheticConfig",
    "Uniform",
    "make_quota_workload",
    "make_workload",
    "margin_vector",
    "separability_floor",
    "validate_quota_gate",
]

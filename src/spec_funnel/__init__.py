"""Speculative agentic routing with a heterogeneous batch-funnel simulator.

Tool-free queries are answered by a fast stateless draft model and accepted
or rejected by a logit-margin confidence gate; everything else runs the
slow stateful tool loop. The funnel scheduler turns the acceptance rate
into batch throughput, and the calibration toolkit picks the gate threshold
offline.
"""

from .backends import (
    AgenticOutput,
    Backend,
    JudgeOutput,
    Query,
    RemoteBackend,
    SpeculativeAnswer,
    SyntheticBackend,
    SyntheticConfig,
    Uniform,
    make_quota_workload,
    make_workload,
    substream,
)
from .calibration import (
    CostSummary,
    OperatingPoint,
    ScoreCollection,
    ScoreSample,
    ThresholdChoice,
    choose_threshold,
    collect_scores,
    default_tau_grid,
    kde,
    peak_distance,
    sweep_threshold,
    union_bound_report,
)
from .config import RunConfig, load_config
from .errors import (
    BackendUnavailable,
    ConfigError,
    DegenerateDistribution,
    EmptyAnswerError,
    InfiniteSpeedup,
    SpecFunnelError,
    ValidationError,
)
from .funnel import (
    FunnelStats,
    ScheduleConfig,
    ScheduleMode,
    serve_batch,
    serve_batch_baseline,
    speedup_model,
    throughput_bound,
)
from .gate import (
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
from .pipeline import (
    LatencyBreakdown,
    QueryOutcome,
    QueryPath,
    answers_match,
    expected_latency,
    process_query,
    run_phases,
)

__version__ = "0.1.0"

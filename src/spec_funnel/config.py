"""Run configuration: JSON file schema, overrides, and content digest.

Precedence is built-in defaults < config file < --set overrides < dedicated
CLI flags. The digest is a SHA-256 over the fully resolved configuration,
so any drift between a calibrate run and the run that consumes it is
detectable.
"""

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .backends.remote import DEFAULT_JUDGE_PROMPT
from .backends.synthetic import SyntheticConfig, Uniform
from .errors import ConfigError, ValidationError
from .funnel import ScheduleConfig, ScheduleMode
from .gate import GateConfig, Scoring
from .recordio import canonical_json

__all__ = [
    "BackendSettings",
    "QuotaSettings",
    "WorkloadSettings",
    "CalibrationSettings",
    "AblationSettings",
    "RunConfig",
    "load_config",
    "apply_override",
]


@dataclass(frozen=True)
class BackendSettings:
    kind: str = "synthetic"
    endpoint: str | None = None
    top_logprobs: int = 64
    timeout_s: float = 30.0
    judge_prompt: str = DEFAULT_JUDGE_PROMPT
    exchange_log: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic", "remote"):
            raise ValidationError("backend kind must be 'synthetic' or 'remote'")
        if self.top_logprobs < 1:
            raise ValidationError("top_logprobs must be >= 1")
        if self.timeout_s <= 0.0:
            raise ValidationError("timeout_s must be > 0")


@dataclass(frozen=True)
class QuotaSettings:
    beta: float
    alpha: float

    def __post_init__(self):
        for name, value in (("beta", self.beta), ("alpha", self.alpha)):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"quota {name} must lie in [0, 1]")


@dataclass(frozen=True)
class WorkloadSettings:
    n_queries: int = 1000
    quota: QuotaSettings | None = None

    def __post_init__(self):
        if self.n_queries < 1:
            raise ValidationError("n_queries must be >= 1")


@dataclass(frozen=True)
class CalibrationSettings:
    n_taus: int = 33
    taus: tuple[float, ...] | None = None
    bandwidth: float | None = None

    def __post_init__(self):
        if self.n_taus < 1:
            raise ValidationError("n_taus must be >= 1")
        if self.taus is not None:
            object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))


@dataclass(frozen=True)
class AblationSettings:
    batch_sizes: tuple[int, ...] = (1, 8, 64, 256, 1024)
    top_k: tuple[int, ...] = (8, 16, 32, 64, 128)
    thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "batch_sizes", tuple(int(b) for b in self.batch_sizes))
        object.__setattr__(self, "top_k", tuple(int(k) for k in self.top_k))
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if any(b < 1 for b in self.batch_sizes) or any(k < 2 for k in self.top_k):
            raise ValidationError("batch sizes must be >= 1 and top_k values >= 2")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    bypass: bool = True
    backend: BackendSettings = field(default_factory=BackendSettings)
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    workload: WorkloadSettings = field(default_factory=WorkloadSettings)
    calibration: CalibrationSettings = field(default_factory=CalibrationSettings)
    ablation: AblationSettings = field(default_factory=AblationSettings)

    def to_dict(self) -> dict:
        syn = self.synthetic
        return {
            "seed": self.seed,
            "bypass": self.bypass,
            "backend": {
                "kind": self.backend.kind,
                "endpoint": self.backend.endpoint,
                "top_logprobs": self.backend.top_logprobs,
                "timeout_s": self.backend.timeout_s,
                "judge_prompt": self.backend.judge_prompt,
                "exchange_log": self.backend.exchange_log,
            },
            "synthetic": {
                "vocab_k": syn.vocab_k,
                "p_tool_required": syn.p_tool_required,
                "depth_weights": {str(k): v for k, v in sorted(syn.depth_weights.items())},
                "draft_accuracy_toolfree": syn.draft_accuracy_toolfree,
                "draft_accuracy_toolreq": syn.draft_accuracy_toolreq,
                "agentic_accuracy": syn.agentic_accuracy,
                "judge_accuracy": syn.judge_accuracy,
                "sep_mu_correct": syn.sep_mu_correct,
                "sep_mu_incorrect": syn.sep_mu_incorrect,
                "sep_sigma": syn.sep_sigma,
                "answer_len_weights": {str(k): v for k, v in sorted(syn.answer_len_weights.items())},
                "judge_cost_s": syn.judge_cost_s,
                "speculate_cost_s": syn.speculate_cost_s,
                "llm_step_cost_s": syn.llm_step_cost_s,
                "tool_cost": {"low": syn.tool_cost.low, "high": syn.tool_cost.high},
                "depth_cap": syn.depth_cap,
            },
            "gate": {
                "k": self.gate.k,
                "epsilon": self.gate.epsilon,
                "aggregation": self.gate.aggregation.value,
                "bottom_ratio": self.gate.bottom_ratio,
                "tau": self.gate.tau,
            },
            "schedule": {
                "frontend_workers": self.schedule.frontend_workers,
                "agentic_workers": self.schedule.agentic_workers,
                "mode": self.schedule.mode.value,
            },
            "workload": {
                "n_queries": self.workload.n_queries,
                "quota": (
                    {"beta": self.workload.quota.beta, "alpha": self.workload.quota.alpha}
                    if self.workload.quota
                    else None
                ),
            },
            "calibration": {
                "n_taus": self.calibration.n_taus,
                "taus": list(self.calibration.taus) if self.calibration.taus else None,
                "bandwidth": self.calibration.bandwidth,
            },
            "ablation": {
                "batch_sizes": list(self.ablation.batch_sizes),
                "top_k": list(self.ablation.top_k),
                "thresholds": list(self.ablation.thresholds) if self.ablation.thresholds else None,
            },
        }

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


_TOP_LEVEL_KEYS = (
    "seed",
    "bypass",
    "backend",
    "synthetic",
    "gate",
    "schedule",
    "workload",
    "calibration",
    "ablation",
)


def _check_keys(data: dict, allowed, path: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}", field=path or "<root>")


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigError("must be an object", field=name)
    return value


def _build(cls, data: dict, path: str, **converted):
    try:
        return cls(**{**data, **converted})
    except ValidationError as exc:
        raise ConfigError(str(exc), field=path) from exc
    except TypeError as exc:
        raise ConfigError(str(exc), field=path) from exc


def build_config(raw: dict) -> RunConfig:
    _check_keys(raw, _TOP_LEVEL_KEYS, "")
    backend_raw = _section(raw, "backend")
    _check_keys(
        backend_raw,
        ("kind", "endpoint", "top_logprobs", "timeout_s", "judge_prompt", "exchange_log"),
        "backend",
    )
    backend = _build(BackendSettings, backend_raw, "backend")

    synthetic_raw = dict(_section(raw, "synthetic"))
    _check_keys(
        synthetic_raw,
        (
            "vocab_k",
            "p_tool_required",
            "depth_weights",
            "draft_accuracy_toolfree",
            "draft_accuracy_toolreq",
            "agentic_accuracy",
            "judge_accuracy",
            "sep_mu_correct",
            "sep_mu_incorrect",
            "sep_sigma",
            "answer_len_weights",
            "judge_cost_s",
            "speculate_cost_s",
            "llm_step_cost_s",
            "tool_cost",
            "depth_cap",
        ),
        "synthetic",
    )
    if "tool_cost" in synthetic_raw:
        tc = synthetic_raw["tool_cost"]
        _check_keys(tc, ("low", "high"), "synthetic.tool_cost")
        synthetic_raw["tool_cost"] = _build(Uniform, tc, "synthetic.tool_cost")
    synthetic = _build(SyntheticConfig, synthetic_raw, "synthetic", seed=int(raw.get("seed", 0)))

    gate_raw = _section(raw, "gate")
    _check_keys(gate_raw, ("k", "epsilon", "aggregation", "bottom_ratio", "tau"), "gate")
    if "aggregation" in gate_raw:
        try:
            gate_raw = {**gate_raw, "aggregation": Scoring(gate_raw["aggregation"])}
        except ValueError as exc:
            raise ConfigError(str(exc), field="gate.aggregation") from exc
    gate_config = _build(GateConfig, gate_raw, "gate")

    schedule_raw = _section(raw, "schedule")
    _check_keys(schedule_raw, ("frontend_workers", "agentic_workers", "mode"), "schedule")
    if "mode" in schedule_raw:
        try:
            schedule_raw = {**schedule_raw, "mode": ScheduleMode(schedule_raw["mode"])}
        except ValueError as exc:
            raise ConfigError(str(exc), field="schedule.mode") from exc
    schedule = _build(ScheduleConfig, schedule_raw, "schedule")

    workload_raw = dict(_section(raw, "workload"))
    _check_keys(workload_raw, ("n_queries", "quota"), "workload")
    if workload_raw.get("quota") is not None:
        quota_raw = workload_raw["quota"]
        _check_keys(quota_raw, ("beta", "alpha"), "workload.quota")
        workload_raw["quota"] = _build(QuotaSettings, quota_raw, "workload.quota")
    workload = _build(WorkloadSettings, workload_raw, "workload")

    calibration_raw = _section(raw, "calibration")
    _check_keys(calibration_raw, ("n_taus", "taus", "bandwidth"), "calibration")
    calibration = _build(CalibrationSettings, calibration_raw, "calibration")

    ablation_raw = _section(raw, "ablation")
    _check_keys(ablation_raw, ("batch_sizes", "top_k", "thresholds"), "ablation")
    ablation = _build(AblationSettings, ablation_raw, "ablation")

    try:
        seed = int(raw.get("seed", 0))
        bypass = bool(raw.get("bypass", True))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field="seed") from exc
    return RunConfig(
        seed=seed,
        bypass=bypass,
        backend=backend,
        synthetic=synthetic,
        gate=gate_config,
        schedule=schedule,
        workload=workload,
        calibration=calibration,
        ablation=ablation,
    )


def apply_override(raw: dict, assignment: str) -> None:
    """Apply one --set path=value override to the raw config dict.

    The value parses as a JSON literal when possible and falls back to a
    plain string, so --set gate.tau=0.97 and --set backend.kind=remote both
    work.
    """
    if "=" not in assignment:
        raise ConfigError("--set expects path=value", field=assignment)
    dotted, text = assignment.split("=", 1)
    keys = [k for k in dotted.strip().split(".") if k]
    if not keys:
        raise ConfigError("--set expects a non-empty dotted path", field=assignment)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = raw
    for key in keys[:-1]:
        child = node.get(key)
        if not isinstance(child, dict):
            child = {}
            node[key] = child
        node = child
    node[keys[-1]] = value


def load_config(
    path=None,
    overrides=(),
    *,
    seed: int | None = None,
    endpoint: str | None = None,
    bypass: bool | None = None,
) -> RunConfig:
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    for assignment in overrides:
        apply_override(raw, assignment)
    if seed is not None:
        raw["seed"] = seed
    config = build_config(raw)
    if endpoint is not None:
        config = replace(config, backend=replace(config.backend, endpoint=endpoint, kind="remote"))
    if bypass is not None:
        config = replace(config, bypass=bypass)
    return config

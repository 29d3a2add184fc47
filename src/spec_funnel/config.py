"""Run configuration: JSON file schema, overrides, and content digest.

Precedence is built-in defaults < config file < --set overrides < dedicated
CLI flags. The digest is a SHA-256 over the fully resolved configuration,
so any drift between a calibrate run and the run that consumes it is
detectable.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .backends.remote import DEFAULT_JUDGE_PROMPT
from .backends.synthetic import SyntheticConfig
from .errors import ConfigError, ValidationError
from .funnel import ScheduleConfig
from .gate import GateConfig
from .recordio import canonical_json, from_plain, to_plain

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
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0.0):
            raise ValidationError("timeout_s must be finite and > 0")


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


def _finite_grid(values, name) -> tuple[float, ...] | None:
    """A threshold grid as floats, None for no grid or an empty one."""
    if values is None:
        return None
    grid = tuple(float(v) for v in values)
    if not all(map(math.isfinite, grid)):
        raise ValidationError(f"{name} must be finite")
    return grid or None


@dataclass(frozen=True)
class CalibrationSettings:
    n_taus: int = 33
    taus: tuple[float, ...] | None = None
    bandwidth: float | None = None

    def __post_init__(self):
        if self.n_taus < 1:
            raise ValidationError("n_taus must be >= 1")
        if self.bandwidth is not None and not (math.isfinite(self.bandwidth) and self.bandwidth > 0.0):
            raise ValidationError("bandwidth must be finite and > 0")
        # an empty grid means the default one, and digests as such
        object.__setattr__(self, "taus", _finite_grid(self.taus, "taus"))


@dataclass(frozen=True)
class AblationSettings:
    batch_sizes: tuple[int, ...] = (1, 8, 64, 256, 1024)
    top_k: tuple[int, ...] = (8, 16, 32, 64, 128)
    thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _finite_grid(self.thresholds, "thresholds"))
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
        data = to_plain(self)
        del data["synthetic"]["seed"]  # repeats the top-level seed
        return data

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


def build_config(raw: dict) -> RunConfig:
    seed = from_plain(int, raw.get("seed", 0), "seed")
    # the synthetic backend's seed is the run seed, never set on its own
    synthetic = from_plain(SyntheticConfig, raw.get("synthetic"), "synthetic", seed=seed)
    sections = {k: v for k, v in raw.items() if k != "synthetic"}
    return from_plain(RunConfig, sections, "", synthetic=synthetic)


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
    except (json.JSONDecodeError, RecursionError):
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
        except (json.JSONDecodeError, RecursionError) as exc:
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

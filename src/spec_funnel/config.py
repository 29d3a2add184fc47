"""Run configuration: JSON file schema, overrides, and content digest.

Precedence is built-in defaults < config file < --set overrides < dedicated
CLI flags. The digest is a SHA-256 over the fully resolved configuration,
so any drift between a calibrate run and the run that consumes it is
detectable.
"""

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_type_hints

from .backends.remote import DEFAULT_JUDGE_PROMPT
from .backends.synthetic import SyntheticConfig
from .errors import ConfigError, ValidationError
from .funnel import ScheduleConfig
from .gate import GateConfig
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
            # an empty grid means the default one, and digests as such
            object.__setattr__(self, "taus", tuple(float(t) for t in self.taus) or None)


@dataclass(frozen=True)
class AblationSettings:
    batch_sizes: tuple[int, ...] = (1, 8, 64, 256, 1024)
    top_k: tuple[int, ...] = (8, 16, 32, 64, 128)
    thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "batch_sizes", tuple(int(b) for b in self.batch_sizes))
        object.__setattr__(self, "top_k", tuple(int(k) for k in self.top_k))
        if self.thresholds is not None:
            object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds) or None)
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
        data = _plain(self)
        del data["synthetic"]["seed"]  # repeats the top-level seed
        return data

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()


def _plain(value):
    """JSON-ready copy of a config value: dataclasses become dicts, enums
    their values, tuples lists, and mapping keys strings."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    return value


def _nested_type(annotation):
    """The dataclass or enum a field annotation names, if any (`X | None` too)."""
    for kind in get_args(annotation) or (annotation,):
        if is_dataclass(kind) or (isinstance(kind, type) and issubclass(kind, Enum)):
            return kind
    return None


def _from_dict(cls, data, path: str, **fixed):
    """Build dataclass `cls` from a raw config section.

    The allowed keys are the fields of `cls` other than `fixed`, whose
    values the caller supplies. Nested dataclass and enum fields are built
    from their annotations; a ConfigError names the failing section.
    """
    if not isinstance(data, dict):
        raise ConfigError("must be an object", field=path)
    names = [f.name for f in fields(cls) if f.name not in fixed]
    unknown = set(data) - set(names)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}", field=path or "<root>")
    hints = get_type_hints(cls)
    values = dict(fixed)
    for name in names:
        if name not in data:
            continue
        value = data[name]
        kind = _nested_type(hints[name])
        name_path = f"{path}.{name}" if path else name
        if kind is None or (value is None and type(None) in get_args(hints[name])):
            values[name] = value
        elif is_dataclass(kind):
            values[name] = _from_dict(kind, value or {}, name_path)
        else:
            try:
                values[name] = kind(value)
            except ValueError as exc:
                raise ConfigError(str(exc), field=name_path) from exc
    try:
        return cls(**values)
    except (ValidationError, TypeError) as exc:
        raise ConfigError(str(exc), field=path) from exc


def build_config(raw: dict) -> RunConfig:
    try:
        seed = int(raw.get("seed", 0))
        bypass = bool(raw.get("bypass", True))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field="seed") from exc
    # the synthetic backend's seed is the run seed, never set on its own
    synthetic = _from_dict(SyntheticConfig, raw.get("synthetic") or {}, "synthetic", seed=seed)
    sections = {k: v for k, v in raw.items() if k not in ("seed", "bypass", "synthetic")}
    return _from_dict(RunConfig, sections, "", seed=seed, bypass=bypass, synthetic=synthetic)


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

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
from typing import Annotated

from .backends.remote import DEFAULT_JUDGE_PROMPT
from .backends.synthetic import SyntheticConfig
from .bounds import Range, check_bounds
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
    top_logprobs: Annotated[int, Range(1)] = 64
    timeout_s: Annotated[float, Range(0, open=True)] = 30.0
    judge_prompt: str = DEFAULT_JUDGE_PROMPT
    exchange_log: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic", "remote"):
            raise ValidationError("backend kind must be 'synthetic' or 'remote'")
        check_bounds(self)


@dataclass(frozen=True)
class QuotaSettings:
    beta: Annotated[float, Range(0, 1)]
    alpha: Annotated[float, Range(0, 1)]

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class WorkloadSettings:
    n_queries: Annotated[int, Range(1)] = 1000
    quota: QuotaSettings | None = None

    def __post_init__(self):
        check_bounds(self)


def _grid(values) -> tuple[float, ...] | None:
    """A threshold grid as floats, None for no grid or an empty one."""
    if values is None:
        return None
    return tuple(float(v) for v in values) or None


@dataclass(frozen=True)
class CalibrationSettings:
    n_taus: Annotated[int, Range(1)] = 33
    taus: Annotated[tuple[float, ...] | None, Range(0, 1, open=True)] = None  # a gate's tau
    bandwidth: Annotated[float | None, Range(0, open=True)] = None

    def __post_init__(self):
        # an empty grid means the default one, and digests as such
        object.__setattr__(self, "taus", _grid(self.taus))
        check_bounds(self)


@dataclass(frozen=True)
class AblationSettings:
    batch_sizes: Annotated[tuple[int, ...], Range(1)] = (1, 8, 64, 256, 1024)
    top_k: Annotated[tuple[int, ...], Range(2)] = (8, 16, 32, 64, 128)
    thresholds: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "thresholds", _grid(self.thresholds))
        check_bounds(self)
        for name in ("batch_sizes", "top_k"):
            if not getattr(self, name):
                raise ValidationError(f"{name} must be non-empty")


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
        except (OSError, ValueError) as exc:  # a directory, unreadable, not UTF-8
            raise ConfigError(f"unreadable config file {path}: {exc}") from exc
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

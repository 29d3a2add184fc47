"""Serialization helpers and the fixed on-disk formats.

Per-query records and remote exchange logs are line-delimited JSON with
sorted keys; stats and manifests are single JSON documents; tables and
curves are UTF-8 CSV with a header row and \n line endings. All writers are
deterministic so output files are byte-stable for a fixed (config, seed).
A JSON record holds the fields of its dataclass: to_plain writes it and
from_plain reads it back, the one schema walker the run config uses too.
"""

import csv
import functools
import json
import re
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .backends.base import integral, real
from .errors import ConfigError, ValidationError
from .funnel import FunnelStats
from .pipeline import QueryOutcome

__all__ = [
    "canonical_json",
    "write_json",
    "write_jsonl",
    "read_jsonl",
    "write_csv",
    "csv_cell",
    "to_plain",
    "from_plain",
    "outcome_to_dict",
    "outcome_from_dict",
    "stats_to_dict",
    "stats_from_dict",
    "outcome_lines",
    "SUMMARY_HEADER",
    "SCORES_HEADER",
    "OPERATING_POINTS_HEADER",
    "KDE_HEADER",
    "UNION_BOUND_HEADER",
    "ABLATE_BATCH_HEADER",
    "ABLATE_AGGREGATION_HEADER",
    "ABLATE_TOPK_HEADER",
    "REPLAY_HEADER",
]

SUMMARY_HEADER = [
    "n_queries",
    "accuracy",
    "beta_hat",
    "alpha_hat",
    "n_accepted",
    "n_residual",
    "frontend_makespan_s",
    "fallback_makespan_s",
    "batch_makespan_s",
    "baseline_makespan_s",
    "throughput_qps",
    "measured_speedup",
    "analytic_speedup",
    "mean_latency_s",
    "expected_latency_s",
]
SCORES_HEADER = ["query_id", "score", "correct", "strategy"]
OPERATING_POINTS_HEADER = ["tau", "acceptance_rate", "accuracy", "analytic_speedup", "expected_latency_s"]
KDE_HEADER = ["grid_point", "density"]
UNION_BOUND_HEADER = ["sep_lo", "sep_hi", "n_tokens", "answer_error_rate"]
ABLATE_BATCH_HEADER = [
    "batch_size",
    "accuracy",
    "simulated_speedup",
    "analytic_speedup",
    "batch_makespan_s",
    "baseline_makespan_s",
]
ABLATE_TOPK_HEADER = ["top_k", "acceptance_rate", "accuracy", "analytic_speedup"]
ABLATE_AGGREGATION_HEADER = [
    "strategy",
    "delta_peak",
    "chosen_tau",
    "acceptance_rate",
    "predicted_accuracy",
    "analytic_speedup",
    "no_safe_point",
]
REPLAY_HEADER = ["query_id", "answer", "n_tokens", "score", "verdict"]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(canonical_json(row) + "\n")


def read_jsonl(path) -> list:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([csv_cell(v) for v in row])


_SCALARS = frozenset((str, int, float, bool, type(None)))
_NUMBERS = {int: integral, float: real}
_SPELLED = {bool: "true or false", str: "a string"}
_DECIMAL = re.compile(r"-?[0-9]{1,640}")  # int() reads it under any int_max_str_digits


def to_plain(value):
    """JSON-ready copy of a value: dataclasses become objects of their
    fields, enums their values, tuples lists, and mapping keys strings."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [v if type(v) is float else to_plain(v) for v in value]
    if is_dataclass(kind):
        return {name: to_plain(getattr(value, name)) for name in _hints(kind)}
    if isinstance(value, Mapping):
        return {str(k): to_plain(v) for k, v in sorted(value.items())}
    return value


def from_plain(kind, data, path: str = "", **fixed):
    """Build a value of type `kind` from its plain JSON form.

    A dataclass is built from an object whose keys are its fields other
    than `fixed`, whose values the caller supplies; unknown keys are
    rejected and None stands for all defaults. Field values follow their
    annotations: nested dataclasses and enums, `X | None`, tuples from
    lists, an int only from an integral number that fits 64 bits, a float
    only from a number, a bool only from true or false, a str only from a
    string, and a Mapping[int, V] from an object whose keys spell decimal
    integers, each entry read as the field `path.key`. Anything else passes
    through for the dataclass to validate. A ConfigError names the path of
    the failing field.
    """
    if type(None) in get_args(kind):
        if data is None:
            return None
        (kind,) = (a for a in get_args(kind) if a is not type(None))
    if is_dataclass(kind):
        data = {} if data is None else data
        if not isinstance(data, dict):
            raise ConfigError("must be an object", field=path)
        hints = _hints(kind)
        unknown = [k for k in data if k not in hints or k in fixed]
        if unknown:
            raise ConfigError(f"unknown key(s): {', '.join(sorted(unknown))}", field=path or "<root>")
        required = (f.name for f in fields(kind) if f.init and f.default is MISSING and f.default_factory is MISSING)
        missing = [name for name in required if name not in data and name not in fixed]
        if missing:
            raise ConfigError(f"missing key(s): {', '.join(missing)}", field=path or "<root>")
        values = {k: from_plain(hints[k], v, f"{path}.{k}" if path else k) for k, v in data.items()}
        try:
            return kind(**fixed, **values)
        except (ValidationError, TypeError) as exc:
            raise ConfigError(str(exc), field=path) from exc
    if kind in _SPELLED:
        if type(data) is kind:
            return data
        raise ConfigError(f"must be {_SPELLED[kind]}, got {data!r}", field=path)
    if get_origin(kind) is tuple:
        if not isinstance(data, (list, tuple)):
            raise ConfigError(f"must be a list, got {data!r}", field=path)
        return tuple(from_plain(get_args(kind)[0], v, f"{path}[{i}]") for i, v in enumerate(data))
    if get_origin(kind) is Mapping:
        if not isinstance(data, dict):
            raise ConfigError(f"must be an object, got {data!r}", field=path)
        keys = {k: from_plain(int, int(k) if _DECIMAL.fullmatch(k) else k, f"{path}.{k}") for k in data}
        return {keys[k]: from_plain(get_args(kind)[1], v, f"{path}.{k}") for k, v in data.items()}
    if kind in _NUMBERS or (isinstance(kind, type) and issubclass(kind, Enum)):
        try:
            return _NUMBERS.get(kind, kind)(data)
        except ValueError as exc:  # a ValidationError is one too
            raise ConfigError(str(exc), field=path) from exc
    return data


@functools.cache
def _hints(cls) -> dict:
    """Field name -> resolved annotation of dataclass `cls`, in field order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def outcome_to_dict(outcome: QueryOutcome) -> dict:
    data = to_plain(outcome)
    data["latency_breakdown"] = data.pop("latency")  # the on-disk name
    return data


def outcome_from_dict(data: dict) -> QueryOutcome:
    if isinstance(data, dict):
        data = {("latency" if k == "latency_breakdown" else k): v for k, v in data.items()}
    return from_plain(QueryOutcome, data)


def outcome_lines(outcomes) -> bytes:
    """Byte-stable JSONL rendering of an outcome list."""
    return "".join(canonical_json(outcome_to_dict(o)) + "\n" for o in outcomes).encode()


def stats_to_dict(stats: FunnelStats) -> dict:
    return to_plain(stats)


def stats_from_dict(data: dict) -> FunnelStats:
    """Counts and rates are required; the optional fields default to None."""
    return from_plain(FunnelStats, data)

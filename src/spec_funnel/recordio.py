"""Serialization helpers and the fixed on-disk formats.

Per-query records and remote exchange logs are line-delimited JSON with
sorted keys; stats and manifests are single JSON documents; tables and
curves are UTF-8 CSV with a header row and \n line endings. All writers are
deterministic so output files are byte-stable for a fixed (config, seed).
"""

import csv
import json
from dataclasses import asdict, fields
from pathlib import Path

from .funnel import FunnelStats
from .gate import GateDecision, Verdict
from .pipeline import LatencyBreakdown, QueryOutcome, QueryPath

__all__ = [
    "canonical_json",
    "write_json",
    "write_jsonl",
    "read_jsonl",
    "write_csv",
    "csv_cell",
    "outcome_to_dict",
    "outcome_from_dict",
    "decision_to_dict",
    "decision_from_dict",
    "stats_to_dict",
    "stats_from_dict",
    "outcome_lines",
    "SUMMARY_HEADER",
    "SCORES_HEADER",
    "OPERATING_POINTS_HEADER",
    "KDE_HEADER",
    "UNION_BOUND_HEADER",
    "ABLATE_BATCH_HEADER",
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


def decision_to_dict(decision: GateDecision) -> dict:
    return {
        "verdict": decision.verdict.value,
        "score": decision.score,
        "token_scores": list(decision.token_scores),
        "diagnostics": list(decision.diagnostics),
    }


def decision_from_dict(data: dict) -> GateDecision:
    return GateDecision(
        verdict=Verdict(data["verdict"]),
        score=float(data["score"]),
        token_scores=tuple(float(s) for s in data["token_scores"]),
        diagnostics=tuple(data.get("diagnostics", ())),
    )


def outcome_to_dict(outcome: QueryOutcome) -> dict:
    return {
        "query_id": outcome.query_id,
        "answer": outcome.answer,
        "path": outcome.path.value,
        "gate": decision_to_dict(outcome.gate) if outcome.gate is not None else None,
        "latency_breakdown": {
            "judge_s": outcome.latency.judge_s,
            "speculate_s": outcome.latency.speculate_s,
            "agentic_s": outcome.latency.agentic_s,
        },
        "total_latency_s": outcome.total_latency_s,
        "correct": outcome.correct,
        "error": outcome.error,
    }


def outcome_from_dict(data: dict) -> QueryOutcome:
    breakdown = data["latency_breakdown"]
    return QueryOutcome(
        query_id=data["query_id"],
        answer=data["answer"],
        path=QueryPath(data["path"]),
        gate=decision_from_dict(data["gate"]) if data.get("gate") is not None else None,
        latency=LatencyBreakdown(
            judge_s=float(breakdown["judge_s"]),
            speculate_s=float(breakdown["speculate_s"]),
            agentic_s=float(breakdown["agentic_s"]),
        ),
        total_latency_s=float(data["total_latency_s"]),
        correct=data.get("correct"),
        error=data.get("error"),
    )


def outcome_lines(outcomes) -> bytes:
    """Byte-stable JSONL rendering of an outcome list."""
    return "".join(canonical_json(outcome_to_dict(o)) + "\n" for o in outcomes).encode()


def stats_to_dict(stats: FunnelStats) -> dict:
    return asdict(stats)


def stats_from_dict(data: dict) -> FunnelStats:
    """Counts and rates are required; the optional fields default to None."""
    return FunnelStats(
        **{
            f.name: f.type(data[f.name]) if f.type in (int, float) else data.get(f.name)
            for f in fields(FunnelStats)
        }
    )

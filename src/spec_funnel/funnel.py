"""Heterogeneous batch funnel: parallel stateless front-end, sequential
stateful fallback.

The batch is screened in parallel waves, the tool-free subset is drafted
and gated in parallel waves, and the residual set (gate-rejected plus
tool-required) drains through a small pool of agentic workers. The phases
themselves are defined in pipeline; this module holds the two clocks, the
schedules and the batch statistics. Simulated mode advances a virtual
clock from the modeled per-call costs, so results are hardware
independent; Measured mode runs each stage on a real thread pool and
reports wall-clock stage times.
"""

import heapq
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

from .backends.base import Backend, Query
from .errors import InfiniteSpeedup, ValidationError
from .gate import GateConfig
from .pipeline import QueryOutcome, QueryPath, process_query, run_phases

__all__ = [
    "ScheduleMode",
    "ScheduleConfig",
    "FunnelStats",
    "serve_batch",
    "serve_batch_baseline",
    "speedup_model",
    "throughput_bound",
]


class ScheduleMode(str, Enum):
    SIMULATED = "simulated"
    MEASURED = "measured"


@dataclass(frozen=True)
class ScheduleConfig:
    """Worker pool sizes and clock mode."""

    frontend_workers: int = 8
    agentic_workers: int = 1
    mode: ScheduleMode = ScheduleMode.SIMULATED

    def __post_init__(self):
        if not isinstance(self.mode, ScheduleMode):
            object.__setattr__(self, "mode", ScheduleMode(self.mode))
        if self.frontend_workers < 1 or self.agentic_workers < 1:
            raise ValidationError("worker counts must be >= 1")


@dataclass(frozen=True)
class FunnelStats:
    """Per-batch stage counts, rates, makespans, and speedup."""

    batch_size: int
    n_toolfree: int
    n_toolreq: int
    n_accepted: int
    n_rejected: int
    n_residual: int
    beta_hat: float
    alpha_hat: float
    frontend_makespan_s: float
    fallback_makespan_s: float
    batch_makespan_s: float
    throughput_qps: float | None
    baseline_makespan_s: float | None
    speedup: float | None

    def __post_init__(self):
        if self.n_toolfree + self.n_toolreq != self.batch_size:
            raise ValidationError("screen counts must partition the batch")
        if self.n_accepted + self.n_rejected != self.n_toolfree:
            raise ValidationError("gate counts must partition the tool-free set")
        if self.n_residual != self.n_rejected + self.n_toolreq:
            raise ValidationError("residual must equal rejected plus tool-required")
        if self.n_residual != self.batch_size - self.n_accepted:
            raise ValidationError("residual must equal batch minus accepted")
        if self.beta_hat != self.n_toolfree / self.batch_size:
            raise ValidationError("beta_hat must equal n_toolfree / batch_size")
        if self.alpha_hat != self.n_accepted / max(self.n_toolfree, 1):
            raise ValidationError("alpha_hat must equal n_accepted / n_toolfree")
        if self.batch_makespan_s > 0.0:
            if self.throughput_qps != self.batch_size / self.batch_makespan_s:
                raise ValidationError("throughput must equal batch_size / batch_makespan")
        elif self.throughput_qps is not None:
            raise ValidationError("throughput is undefined for a zero makespan")
        if self.baseline_makespan_s is not None and self.batch_makespan_s > 0.0:
            if self.speedup != self.baseline_makespan_s / self.batch_makespan_s:
                raise ValidationError("speedup must equal baseline / batch makespan")


def speedup_model(beta: float, alpha: float) -> float:
    """Analytic batch speedup 1 / (1 - beta * alpha).

    Diverges when every query is bypassed; that case raises InfiniteSpeedup
    and callers should report front-end-bound throughput instead.
    """
    for name, value in (("beta", beta), ("alpha", alpha)):
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1]")
    bypassed = beta * alpha
    if bypassed >= 1.0:
        raise InfiniteSpeedup("every query is bypassed; the residual set is empty")
    return 1.0 / (1.0 - bypassed)


def throughput_bound(latencies) -> float:
    """Serial agentic throughput ceiling: batch size over total occupancy."""
    values = list(latencies)
    if not values:
        raise ValidationError("need at least one latency")
    if any(v <= 0.0 for v in values):
        raise ValidationError("latencies must be > 0")
    return len(values) / math.fsum(values)


def _wave_makespan(costs, workers: int) -> float:
    """Stage makespan in waves of `workers` parallel calls."""
    total = 0.0
    for start in range(0, len(costs), workers):
        total += max(costs[start : start + workers])
    return total


def _list_schedule_makespan(durations, workers: int) -> float:
    """Earliest-free-worker FIFO assignment; returns the max worker finish time."""
    if not durations:
        return 0.0
    heap = [(0.0, idx) for idx in range(workers)]
    for duration in durations:
        busy_until, idx = heapq.heappop(heap)
        heapq.heappush(heap, (busy_until + duration, idx))
    return max(busy_until for busy_until, _ in heap)


def _build_stats(outcomes, stage_s, baseline_s) -> FunnelStats:
    batch_size = len(outcomes)
    n_toolfree = sum(1 for o in outcomes if o.path is not QueryPath.TOOL_REQUIRED_FALLBACK)
    n_accepted = sum(1 for o in outcomes if o.path is QueryPath.SPECULATION_ACCEPTED)
    frontend_s = stage_s["judge"] + stage_s["speculate"]
    fallback_s = stage_s["agentic"]
    batch_makespan = frontend_s + fallback_s
    throughput = batch_size / batch_makespan if batch_makespan > 0.0 else None
    speedup = (
        baseline_s / batch_makespan if baseline_s is not None and batch_makespan > 0.0 else None
    )
    return FunnelStats(
        batch_size=batch_size,
        n_toolfree=n_toolfree,
        n_toolreq=batch_size - n_toolfree,
        n_accepted=n_accepted,
        n_rejected=n_toolfree - n_accepted,
        n_residual=batch_size - n_accepted,
        beta_hat=n_toolfree / batch_size,
        alpha_hat=n_accepted / max(n_toolfree, 1),
        frontend_makespan_s=frontend_s,
        fallback_makespan_s=fallback_s,
        batch_makespan_s=batch_makespan,
        throughput_qps=throughput,
        baseline_makespan_s=baseline_s,
        speedup=speedup,
    )


def _virtual_stage_s(outcomes, schedule: ScheduleConfig) -> dict[str, float]:
    """Stage makespans on the virtual clock, from each outcome's reported costs."""
    toolfree = [
        o.latency.speculate_s for o in outcomes if o.path is not QueryPath.TOOL_REQUIRED_FALLBACK
    ]
    residual = [o.latency.agentic_s for o in outcomes if o.path is not QueryPath.SPECULATION_ACCEPTED]
    return {
        "judge": _wave_makespan([o.latency.judge_s for o in outcomes], schedule.frontend_workers),
        "speculate": _wave_makespan(toolfree, schedule.frontend_workers),
        "agentic": _list_schedule_makespan(residual, schedule.agentic_workers),
    }


def _wall_clock(schedule: ScheduleConfig):
    """Measured-mode stage runner and the stage wall times it fills in.

    Each non-empty stage runs on its own thread pool, sized for the
    front end or the agentic drain, and is timed with perf_counter.
    """
    stage_s = {"judge": 0.0, "speculate": 0.0, "agentic": 0.0}

    def run_stage(stage, fn, items):
        if not items:
            return []
        workers = schedule.agentic_workers if stage == "agentic" else schedule.frontend_workers
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, items))
        stage_s[stage] = time.perf_counter() - start
        return results

    return run_stage, stage_s


def _result(outcomes, stage_s, baseline_s) -> tuple[list[QueryOutcome], FunnelStats]:
    return sorted(outcomes, key=lambda o: o.query_id), _build_stats(outcomes, stage_s, baseline_s)


def serve_batch(
    queries: list[Query],
    gate_config: GateConfig,
    schedule: ScheduleConfig,
    backend: Backend,
) -> tuple[list[QueryOutcome], FunnelStats]:
    """Serve one closed batch through the funnel.

    Outcomes are identical to sequentially applying process_query to each
    query; scheduling affects stage makespans only. The returned outcome
    list is sorted by query id. In simulated mode the speedup is taken
    against a serve_batch_baseline run of the same batch.
    """
    _check_batch(queries)
    if schedule.mode is ScheduleMode.MEASURED:
        run_stage, stage_s = _wall_clock(schedule)
        outcomes = run_phases(queries, gate_config, backend, run_stage)
        return _result(outcomes, stage_s, None)
    # A virtual schedule does not depend on call order, so each query runs
    # through all its phases before the next one starts.
    outcomes = [process_query(query, gate_config, backend) for query in queries]
    _, baseline = serve_batch_baseline(queries, schedule, backend)
    return _result(outcomes, _virtual_stage_s(outcomes, schedule), baseline.batch_makespan_s)


def _check_batch(queries) -> None:
    if not queries:
        raise ValidationError("batch must be non-empty")
    ids = {q.id for q in queries}
    if len(ids) != len(queries):
        raise ValidationError("query ids must be unique within a batch")


def serve_batch_baseline(
    queries: list[Query], schedule: ScheduleConfig, backend: Backend
) -> tuple[list[QueryOutcome], FunnelStats]:
    """Serve a batch with bypass disabled: no judge, everything agentic.

    This is the reference run speedups are measured against; its reported
    speedup is exactly 1.
    """
    _check_batch(queries)
    if schedule.mode is ScheduleMode.MEASURED:
        run_stage, stage_s = _wall_clock(schedule)
        outcomes = run_phases(queries, None, backend, run_stage, bypass=False)
        return _result(outcomes, stage_s, None)
    outcomes = run_phases(queries, None, backend, bypass=False)
    stage_s = _virtual_stage_s(outcomes, schedule)
    return _result(outcomes, stage_s, stage_s["agentic"])

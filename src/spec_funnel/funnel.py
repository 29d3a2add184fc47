"""Heterogeneous batch funnel: parallel stateless front-end, sequential
stateful fallback.

The front-end pool screens the batch and drafts and gates the tool-free
subset, and the residual set (gate-rejected plus tool-required) drains
through a small pool of agentic workers. The phases themselves are defined
in pipeline; this module holds the stage runner, the schedule and the batch
statistics. One runner and one schedule serve both clocks: every stage
gives each call, in input order, to the earliest free worker. Measured mode
runs the calls on real threads, the calling thread among them, and
reports wall-clock stage times. Simulated mode runs each stage's calls in
turn and, as the stage returns, schedules the costs they reported on a
virtual clock, so results are hardware independent; its bypass-off
baseline reuses the agentic cost of every query the funnel did not accept
and runs the agentic loop again only for the accepted ones.
"""

import heapq
import math
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Annotated

from .backends.base import Backend, Query
from .bounds import COUNT, UNIT, Range, check, check_bounds
from .errors import InfiniteSpeedup, ValidationError
from .gate import GateConfig
# process_query stays importable here: perfbench/tracing.py wraps funnel.process_query by name
from .pipeline import QueryOutcome, QueryPath, _fallback, process_query, run_phases  # noqa: F401

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

    frontend_workers: Annotated[int, Range(1)] = 8
    agentic_workers: Annotated[int, Range(1)] = 1
    mode: ScheduleMode = ScheduleMode.SIMULATED

    def __post_init__(self):
        if not isinstance(self.mode, ScheduleMode):
            object.__setattr__(self, "mode", ScheduleMode(self.mode))
        check_bounds(self)


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
    throughput_qps: float | None = None
    baseline_makespan_s: float | None = None
    speedup: float | None = None

    def __post_init__(self):
        check(COUNT, batch_size=self.batch_size)
        counts = ("n_toolfree", "n_toolreq", "n_accepted", "n_rejected", "n_residual")
        makespans = ("frontend_makespan_s", "fallback_makespan_s", "batch_makespan_s")
        check(Range(0), **{name: getattr(self, name) for name in counts + makespans})
        if self.n_toolfree + self.n_toolreq != self.batch_size:
            raise ValidationError("screen counts must partition the batch")
        if self.n_accepted + self.n_rejected != self.n_toolfree:
            raise ValidationError("gate counts must partition the tool-free set")
        if self.n_residual != self.n_rejected + self.n_toolreq:
            raise ValidationError("residual must equal rejected plus tool-required")
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
    check(UNIT, beta=beta, alpha=alpha)
    bypassed = beta * alpha
    if bypassed >= 1.0:
        raise InfiniteSpeedup("every query is bypassed; the residual set is empty")
    return 1.0 / (1.0 - bypassed)


def throughput_bound(latencies) -> float:
    """Serial agentic throughput ceiling: batch size over total occupancy."""
    values = list(latencies)
    if not values:
        raise ValidationError("need at least one latency")
    check(Range(0, open=True), latencies=values)
    return len(values) / math.fsum(values)


def _list_schedule_makespan(durations, workers: int) -> float:
    """Earliest-free-worker FIFO assignment; returns the max worker finish time."""
    if not durations:
        return 0.0
    heap = [(0.0, idx) for idx in range(min(workers, len(durations)))]  # the rest get no call
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


def _clock(schedule: ScheduleConfig):
    """The schedule's stage runner and the stage times it fills in.

    Measured mode runs a stage on as many threads as the front end or the
    agentic drain has workers, at most one per call, and times it; see
    _run_threaded. Simulated mode runs it in turn on the calling thread and
    schedules the costs its calls reported over the same worker count in
    the order the threads take them, each to the earliest free worker.
    """
    stage_s = {"judge": 0.0, "speculate": 0.0, "agentic": 0.0}

    def run_stage(stage, fn, items):
        if not items:
            return []
        workers = schedule.agentic_workers if stage == "agentic" else schedule.frontend_workers
        if schedule.mode is ScheduleMode.MEASURED:
            start = time.perf_counter()
            results = _run_threaded(fn, items, workers)
            stage_s[stage] = time.perf_counter() - start
        else:
            results = [fn(item) for item in items]
            stage_s[stage] = _list_schedule_makespan([result[-1] for result in results], workers)
        return results

    return run_stage, stage_s


def _run_threaded(fn, items, workers: int) -> list:
    """fn over items on min(workers, len(items)) threads; results in input order.

    The calling thread is one of the workers, so with one worker nothing is
    started. Each worker takes the next index from one shared iterator as
    it comes free, the earliest-free-worker order, and stores its result at
    that index. Once a call raises no new call starts; when every thread
    has ended, the exception of the earliest failing item is raised.
    """
    results = [None] * len(items)
    indices = iter(range(len(items)))  # a C iterator: next() is atomic under the GIL
    failures = []

    def work():
        for index in indices:
            if failures:
                return
            try:
                results[index] = fn(items[index])
            except BaseException as exc:  # re-raised on the calling thread below
                failures.append((index, exc))
                return

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(items)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return results


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
    against the makespan serve_batch_baseline reports for the same batch;
    that baseline reuses the residual queries' agentic costs, so only the
    accepted queries call agentic_run a second time.
    """
    return _serve(queries, gate_config, schedule, backend)


def serve_batch_baseline(
    queries: list[Query], schedule: ScheduleConfig, backend: Backend
) -> tuple[list[QueryOutcome], FunnelStats]:
    """Serve a batch with bypass disabled: no judge, everything agentic.

    This is the reference run speedups are measured against; its reported
    speedup is exactly 1.
    """
    return _serve(queries, None, schedule, backend)


def _serve(queries, gate_config, schedule: ScheduleConfig, backend: Backend):
    """One batch through run_phases, with bypass off when gate_config is
    None; the two clocks differ only in the stage runner, and in measured
    mode there is no baseline to compare against."""
    if not queries:
        raise ValidationError("batch must be non-empty")
    if len({q.id for q in queries}) != len(queries):
        raise ValidationError("query ids must be unique within a batch")
    run_stage, stage_s = _clock(schedule)
    outcomes = run_phases(queries, gate_config, backend, run_stage)
    baseline_s = None
    if schedule.mode is ScheduleMode.SIMULATED:
        baseline_s = stage_s["agentic"] if gate_config is None else _baseline_s(queries, outcomes, schedule, backend)
    return sorted(outcomes, key=lambda o: o.query_id), _build_stats(outcomes, stage_s, baseline_s)


def _baseline_s(queries, outcomes, schedule: ScheduleConfig, backend: Backend) -> float:
    """serve_batch_baseline's makespan, reusing the funnel run's agentic costs.

    Every query the funnel did not accept already ran the agentic loop, so
    only the accepted ones run it again, through pipeline's Phase IV, whose
    cost is read. The durations are scheduled in input order, as
    serve_batch_baseline schedules them, so the makespan is bit-identical. A
    failed loop, here or in the funnel run, counts 0.0, as it does in
    serve_batch_baseline, and is not retried.
    """
    durations = [
        _fallback(backend, q)[-1] if o.path is QueryPath.SPECULATION_ACCEPTED else o.latency.agentic_s
        for q, o in zip(queries, outcomes)
    ]
    return _list_schedule_makespan(durations, schedule.agentic_workers)

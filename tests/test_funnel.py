"""Funnel scheduler tests: stage counting, virtual-clock makespans, list
scheduling, analytic speedup, and scheduler transparency."""

import math
import sys
import threading
import time
import zlib
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spec_funnel.backends.synthetic import (
    SyntheticBackend,
    SyntheticConfig,
    make_quota_workload,
    make_workload,
)
from spec_funnel.backends.remote import parse_judge_response, parse_speculate_response
from spec_funnel.errors import BackendUnavailable, ConfigError, InfiniteSpeedup, ValidationError
from spec_funnel.funnel import (
    FunnelStats,
    ScheduleConfig,
    ScheduleMode,
    _clock,
    _list_schedule_makespan,
    serve_batch,
    speedup_model,
)
from spec_funnel.gate import GateConfig
from spec_funnel.pipeline import QueryPath, process_query
from spec_funnel.recordio import stats_from_dict

from oracles import outcome_lines, throughput_bound


class TestSpeedupModel:
    def test_reference_point(self):
        assert speedup_model(0.80, 0.71) == pytest.approx(2.3148148148, abs=1e-9)

    def test_no_bypass(self):
        assert speedup_model(0.0, 0.9) == 1.0

    def test_half_acceptance(self):
        assert speedup_model(1.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_full_bypass_diverges(self):
        with pytest.raises(InfiniteSpeedup):
            speedup_model(1.0, 1.0)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            speedup_model(-0.1, 0.5)


class TestThroughputBound:
    def test_four_equal_queries(self):
        assert throughput_bound([2.0, 2.0, 2.0, 2.0]) == 0.5

    def test_singleton(self):
        assert throughput_bound([4.0]) == 0.25

    def test_homogeneity(self):
        base = throughput_bound([1.0, 2.0, 3.0])
        assert throughput_bound([2.0, 4.0, 6.0]) == pytest.approx(base / 2.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            throughput_bound([])
        with pytest.raises(ValidationError):
            throughput_bound([1.0, 0.0])

    @pytest.mark.parametrize("latencies", [[math.nan], [1.0, math.inf], [2.0, -math.inf]])
    def test_non_finite_latency_rejected(self, latencies):
        # a NaN used to give a NaN bound, and an inf a bound of 0.0
        with pytest.raises(ValidationError, match=r"latencies\[\d\] must lie in \(0, inf\)"):
            throughput_bound(latencies)


class TestScheduling:
    def test_wave_makespan_constant_costs(self):
        assert _list_schedule_makespan([0.5] * 10, 4) == pytest.approx(3 * 0.5, abs=1e-12)
        assert _list_schedule_makespan([0.5] * 10, 10) == 0.5
        assert _list_schedule_makespan([0.5] * 10, 1) == pytest.approx(5.0, abs=1e-12)

    @given(
        n=st.integers(1, 300),
        workers=st.integers(1, 400),
        cost=st.floats(0.0, allow_infinity=False, allow_nan=False),
    )
    def test_equal_costs_sum_one_per_round(self, n, workers, cost):
        # simulated outputs of equal-cost stages rest on this identity: the
        # makespan is the cost added ceil(n / workers) times, bit for bit
        total = 0.0
        for _ in range(-(-n // workers)):
            total += cost
        assert _list_schedule_makespan([cost] * n, workers) == total

    def test_fifo_earliest_free_worker(self):
        # workers: A takes 4; B takes 3, frees first, takes the last 3
        assert _list_schedule_makespan([4.0, 3.0, 3.0], 2) == 6.0

    def test_single_worker_serializes(self):
        assert _list_schedule_makespan([4.0, 3.0, 3.0], 1) == 10.0

    def test_mode_string_coerced(self):
        assert ScheduleConfig(mode="measured").mode is ScheduleMode.MEASURED


class TestServeBatch:
    def test_quota_stage_arithmetic(self):
        config = SyntheticConfig(seed=13)
        backend = SyntheticBackend(config)
        queries = make_quota_workload(config, 1000, 0.8, 0.71)
        _, stats = serve_batch(queries, GateConfig(tau=0.9), ScheduleConfig(frontend_workers=1000), backend)
        assert stats.n_toolfree == 800
        assert stats.n_accepted == 568
        assert stats.n_residual == 432
        assert stats.beta_hat == 0.8
        assert stats.alpha_hat == 0.71

    def test_free_frontend_serial_drain(self):
        config = SyntheticConfig(seed=13, judge_cost_s=0.0, speculate_cost_s=0.0)
        backend = SyntheticBackend(config)
        queries = make_workload(config, 40)
        outcomes, stats = serve_batch(
            queries, GateConfig(tau=0.9), ScheduleConfig(frontend_workers=40, agentic_workers=1), backend
        )
        residual_total = math.fsum(
            o.latency.agentic_s for o in outcomes if o.path is not QueryPath.SPECULATION_ACCEPTED
        )
        assert stats.frontend_makespan_s == 0.0
        assert stats.batch_makespan_s == pytest.approx(residual_total, abs=1e-9)

    def test_scheduler_transparency(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 60)
        sequential = sorted(
            (process_query(q, gate_config, backend) for q in queries), key=lambda o: o.query_id
        )
        for frontend, agentic in ((1, 1), (7, 2), (60, 3)):
            schedule = ScheduleConfig(frontend_workers=frontend, agentic_workers=agentic)
            outcomes, _ = serve_batch(queries, gate_config, schedule, backend)
            assert outcomes == sequential
            assert outcome_lines(outcomes) == outcome_lines(sequential)

    def test_counting_identities(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 80)
        _, stats = serve_batch(queries, gate_config, ScheduleConfig(), backend)
        assert stats.n_toolfree + stats.n_toolreq == stats.batch_size
        assert stats.n_accepted + stats.n_rejected == stats.n_toolfree
        assert stats.n_residual == stats.n_rejected + stats.n_toolreq
        assert stats.throughput_qps == stats.batch_size / stats.batch_makespan_s

    def test_empty_batch_rejected(self, backend, gate_config):
        with pytest.raises(ValidationError):
            serve_batch([], gate_config, ScheduleConfig(), backend)

    def test_duplicate_ids_rejected(self, backend, gate_config, synthetic_config):
        queries = make_workload(synthetic_config, 2)
        with pytest.raises(ValidationError):
            serve_batch([queries[0], queries[0]], gate_config, ScheduleConfig(), backend)

    def test_measured_mode_matches_simulated_outcomes(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 24)
        simulated, _ = serve_batch(
            queries, gate_config, ScheduleConfig(frontend_workers=4, agentic_workers=2), backend
        )
        measured, stats = serve_batch(
            queries,
            gate_config,
            ScheduleConfig(frontend_workers=4, agentic_workers=2, mode=ScheduleMode.MEASURED),
            backend,
        )
        assert measured == simulated
        assert stats.batch_makespan_s > 0.0
        assert stats.baseline_makespan_s is None and stats.speedup is None

    def test_measured_threads_share_a_preseeded_backend(self, synthetic_config, gate_config):
        # more workers than cores, switching often: every thread reads the
        # rows the backend seeded for the workload, and nothing else
        queries = make_workload(synthetic_config, 60)
        simulated, _ = serve_batch(queries, gate_config, ScheduleConfig(), SyntheticBackend(synthetic_config))
        schedule = ScheduleConfig(frontend_workers=8, agentic_workers=4, mode=ScheduleMode.MEASURED)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            measured, _ = serve_batch(queries, gate_config, schedule, SyntheticBackend(synthetic_config, queries))
        finally:
            sys.setswitchinterval(interval)
        assert measured == simulated

    def test_baseline_run_matches_internal_baseline(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 30)
        schedule = ScheduleConfig(frontend_workers=8, agentic_workers=2)
        _, stats = serve_batch(queries, gate_config, schedule, backend)
        baseline_outcomes, baseline_stats = serve_batch(queries, None, schedule, backend)
        assert baseline_stats.batch_makespan_s == stats.baseline_makespan_s
        assert baseline_stats.speedup == 1.0
        assert all(o.path is QueryPath.TOOL_REQUIRED_FALLBACK for o in baseline_outcomes)

    def test_speedup_converges_to_model(self):
        config = SyntheticConfig(
            seed=17, judge_cost_s=0.02, speculate_cost_s=0.03,
            depth_weights={2: 0.25, 3: 0.5, 4: 0.25},
        )
        backend = SyntheticBackend(config)
        queries = make_quota_workload(config, 800, 0.8, 0.71)
        _, stats = serve_batch(
            queries, GateConfig(tau=0.9), ScheduleConfig(frontend_workers=800), backend
        )
        assert stats.speedup == pytest.approx(speedup_model(0.8, 0.71), rel=0.05)


class FaultyBackend:
    """Fails each phase on chosen query ids and counts every call per phase."""

    def __init__(self, inner, fail):
        self.inner = inner
        self.fail = fail
        self.calls = Counter()
        self.order = []
        self._lock = threading.Lock()

    def _call(self, phase, method, query):
        with self._lock:
            self.calls[phase] += 1
            self.order.append(phase)
        if query.id in self.fail.get(phase, ()):
            raise BackendUnavailable(f"{phase} down for {query.id}")
        return getattr(self.inner, method)(query)

    def judge(self, query):
        return self._call("judge", "judge", query)

    def speculate(self, query):
        return self._call("speculate", "speculate", query)

    def agentic_run(self, query):
        return self._call("agentic", "agentic_run", query)


class TestServeBatchUnderFailures:
    @pytest.fixture
    def setup(self, synthetic_config):
        inner = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 40)
        toolfree = [q.id for q in queries if inner.judge(q).g == 0]
        fail = {
            "judge": {toolfree[0], queries[1].id},
            "speculate": set(toolfree[1:4]),
            "agentic": {q.id for q in queries[::5]},
        }
        return inner, queries, fail

    def test_measured_mode_matches_simulated_outcomes(self, setup, gate_config):
        inner, queries, fail = setup
        served = {}
        for mode in ScheduleMode:
            backend = FaultyBackend(inner, fail)
            schedule = ScheduleConfig(frontend_workers=4, agentic_workers=2, mode=mode)
            served[mode], stats = serve_batch(queries, gate_config, schedule, backend)
            assert backend.calls["judge"] == len(queries)
            assert backend.calls["speculate"] == stats.n_toolfree
            if mode is ScheduleMode.MEASURED:
                assert backend.calls["agentic"] == stats.n_residual
        outcomes = served[ScheduleMode.SIMULATED]
        assert served[ScheduleMode.MEASURED] == outcomes
        assert any(o.error for o in outcomes)
        assert any(
            o.path is QueryPath.SPECULATION_REJECTED_FALLBACK and o.gate is None for o in outcomes
        )

    def test_measured_baseline_drains_everything(self, setup):
        inner, queries, fail = setup
        backend = FaultyBackend(inner, fail)
        schedule = ScheduleConfig(agentic_workers=2, mode=ScheduleMode.MEASURED)
        outcomes, stats = serve_batch(queries, None, schedule, backend)
        assert stats.frontend_makespan_s == 0.0
        assert all(o.path is QueryPath.TOOL_REQUIRED_FALLBACK for o in outcomes)
        assert backend.calls == Counter(agentic=len(queries))
        assert sum(1 for o in outcomes if o.error) == len(fail["agentic"])

    def test_nan_judge_latency_falls_back(self, synthetic_config, gate_config):
        class NanJudgeBackend(SyntheticBackend):
            def judge(self, query):
                return parse_judge_response({"g": 0, "latency_s": math.nan})

        queries = make_workload(synthetic_config, 20)
        outcomes, stats = serve_batch(
            queries, gate_config, ScheduleConfig(), NanJudgeBackend(synthetic_config)
        )
        assert all(o.path is QueryPath.TOOL_REQUIRED_FALLBACK for o in outcomes)
        assert all(o.latency.judge_s == 0.0 for o in outcomes)
        assert math.isfinite(stats.batch_makespan_s) and stats.throughput_qps is not None

    def test_draft_past_the_float_range_falls_back(self, synthetic_config):
        # finite and sorted, but the row sum overflows: the token scores 0
        # under the default MIN gate instead of aborting the batch
        logprobs = [{"token": t, "logprob": v} for t, v in (("a", 1e300), ("b", -1e308), ("c", -1e308))]
        body = {"answer": "A", "tokens": [{"text": "A", "top_logprobs": logprobs}], "latency_s": 0.2}

        drafted = []

        class ExtremeDraftBackend(SyntheticBackend):
            def speculate(self, query):
                drafted.append(query.id)
                if len(drafted) == 1:
                    return parse_speculate_response(body, 64)
                return super().speculate(query)

        backend = ExtremeDraftBackend(synthetic_config)
        outcomes, _ = serve_batch(make_workload(synthetic_config, 20), GateConfig(), ScheduleConfig(), backend)
        assert len(outcomes) == 20 and not any(o.error for o in outcomes)
        first = next(o for o in outcomes if o.query_id == drafted[0])
        assert first.path is QueryPath.SPECULATION_REJECTED_FALLBACK
        assert first.gate.token_scores == (0.0,) and first.gate.score == 0.5


class TestFunnelStatsValidation:
    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValidationError):
            FunnelStats(
                batch_size=10,
                n_toolfree=8,
                n_toolreq=3,  # 8 + 3 != 10
                n_accepted=5,
                n_rejected=3,
                n_residual=5,
                beta_hat=0.8,
                alpha_hat=0.625,
                frontend_makespan_s=1.0,
                fallback_makespan_s=2.0,
                batch_makespan_s=3.0,
                throughput_qps=10 / 3.0,
                baseline_makespan_s=None,
                speedup=None,
            )

    def test_inconsistent_throughput_rejected(self):
        with pytest.raises(ValidationError):
            FunnelStats(
                batch_size=10,
                n_toolfree=8,
                n_toolreq=2,
                n_accepted=5,
                n_rejected=3,
                n_residual=5,
                beta_hat=0.8,
                alpha_hat=0.625,
                frontend_makespan_s=1.0,
                fallback_makespan_s=2.0,
                batch_makespan_s=3.0,
                throughput_qps=1.0,
                baseline_makespan_s=None,
                speedup=None,
            )


    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).filter(any),
        st.lists(st.integers(-1, 1), min_size=6, max_size=6),
    )
    def test_three_count_identities_imply_residual_is_batch_minus_accepted(self, base, nudges):
        # a consistent batch (accepted, rejected, tool-required), then each count nudged by at most one
        accepted, rejected, toolreq = base
        toolfree = accepted + rejected
        consistent = (toolfree + toolreq, toolfree, toolreq, accepted, rejected, rejected + toolreq)
        batch, toolfree, toolreq, accepted, rejected, residual = (
            max(count + nudge, 0) for count, nudge in zip(consistent, nudges)
        )
        batch = max(batch, 1)
        identities = toolfree + toolreq == batch and accepted + rejected == toolfree and residual == rejected + toolreq
        data = {
            "batch_size": batch, "n_toolfree": toolfree, "n_toolreq": toolreq, "n_accepted": accepted,
            "n_rejected": rejected, "n_residual": residual, "beta_hat": toolfree / batch,
            "alpha_hat": accepted / max(toolfree, 1), "frontend_makespan_s": 0.0, "fallback_makespan_s": 0.0,
            "batch_makespan_s": 0.0,
        }
        if identities:
            assert stats_from_dict(data).n_residual == batch - accepted
        else:
            with pytest.raises(ConfigError, match="must"):
                stats_from_dict(data)


class TestSimulatedBaselineReuse:
    """Simulated serve_batch takes the baseline's residual costs from its own
    outcomes and reruns the agentic loop only for the accepted queries."""

    @pytest.mark.parametrize("seed", [0, 7, 101])
    @pytest.mark.parametrize("agentic_workers", [1, 3])
    def test_baseline_equals_serve_batch_baseline(self, seed, agentic_workers, gate_config):
        config = SyntheticConfig(seed=seed)
        queries = make_workload(config, 120)
        schedule = ScheduleConfig(frontend_workers=4, agentic_workers=agentic_workers)
        backend = FaultyBackend(SyntheticBackend(config), {})
        _, stats = serve_batch(queries, gate_config, schedule, backend)
        assert 0 < stats.n_accepted < stats.batch_size
        assert backend.calls["agentic"] == len(queries)  # not batch_size + n_residual
        _, baseline = serve_batch(queries, None, schedule, SyntheticBackend(config))
        assert stats.baseline_makespan_s == baseline.batch_makespan_s

    def test_failed_residual_counts_zero_and_is_not_retried(self, synthetic_config, gate_config):
        inner = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 60)
        outcomes = [process_query(q, gate_config, inner) for q in queries]
        residual = [o.query_id for o in outcomes if o.path is not QueryPath.SPECULATION_ACCEPTED]
        accepted = [o.query_id for o in outcomes if o.path is QueryPath.SPECULATION_ACCEPTED]
        fail = {"agentic": set(residual[::3]) | {accepted[0]}}
        schedule = ScheduleConfig(agentic_workers=2)
        backend = FaultyBackend(inner, fail)
        served, stats = serve_batch(queries, gate_config, schedule, backend)
        assert backend.calls["agentic"] == len(queries)
        assert {o.query_id for o in served if o.error} == set(residual[::3])
        durations = [
            0.0 if q.id in fail["agentic"] else inner.agentic_run(q).latency_s for q in queries
        ]
        assert stats.baseline_makespan_s == _list_schedule_makespan(durations, 2)
        _, baseline = serve_batch(queries, None, schedule, FaultyBackend(inner, fail))
        assert stats.baseline_makespan_s == baseline.batch_makespan_s


class TestOneServePath:
    def test_simulated_serve_runs_stage_by_stage(self, synthetic_config, gate_config):
        queries = make_workload(synthetic_config, 40)
        backend = FaultyBackend(SyntheticBackend(synthetic_config), {})
        serve_batch(queries, gate_config, ScheduleConfig(), backend)
        stages = ["judge", "speculate", "agentic"]
        assert set(backend.order) == set(stages)
        assert backend.order == sorted(backend.order, key=stages.index)


class BuggyBackend:
    """Raises a KeyError, a bug rather than an outage, from one route."""

    def __init__(self, inner, route):
        self.inner = inner
        self.route = route

    def __getattr__(self, name):
        if name == self.route:
            def broken(query):
                raise KeyError(query.id)

            return broken
        return getattr(self.inner, name)


class TestForeignExceptions:
    @pytest.mark.parametrize("mode", list(ScheduleMode))
    @pytest.mark.parametrize("route", ["judge", "speculate", "agentic_run"])
    def test_serve_batch_propagates_the_same_type(self, synthetic_config, gate_config, mode, route):
        queries = make_workload(synthetic_config, 30)
        backend = BuggyBackend(SyntheticBackend(synthetic_config), route)
        with pytest.raises(KeyError):
            serve_batch(queries, gate_config, ScheduleConfig(mode=mode), backend)

    @pytest.mark.parametrize("mode", list(ScheduleMode))
    def test_baseline_propagates_the_same_type(self, synthetic_config, mode):
        queries = make_workload(synthetic_config, 30)
        backend = BuggyBackend(SyntheticBackend(synthetic_config), "agentic_run")
        with pytest.raises(KeyError):
            serve_batch(queries, None, ScheduleConfig(mode=mode), backend)


def _oracle_stage_s(outcomes, schedule):
    """Stage makespans re-derived from outcomes in input order by filtering
    on each outcome's path; the reference for what the stage runner
    schedules as each stage returns."""
    toolfree = [
        o.latency.speculate_s for o in outcomes if o.path is not QueryPath.TOOL_REQUIRED_FALLBACK
    ]
    residual = [o.latency.agentic_s for o in outcomes if o.path is not QueryPath.SPECULATION_ACCEPTED]
    return {
        "judge": _list_schedule_makespan([o.latency.judge_s for o in outcomes], schedule.frontend_workers),
        "speculate": _list_schedule_makespan(toolfree, schedule.frontend_workers),
        "agentic": _list_schedule_makespan(residual, schedule.agentic_workers),
    }


class JitteryFaultyBackend(FaultyBackend):
    """FaultyBackend whose judge and draft costs differ from query to query,
    so a makespan taken over the wrong calls or in the wrong order shows."""

    @staticmethod
    def _cost(phase, query):
        return zlib.crc32(f"{phase}/{query.id}".encode()) % 1000 / 997.0

    def judge(self, query):
        return replace(super().judge(query), latency_s=self._cost("judge", query))

    def speculate(self, query):
        return replace(super().speculate(query), latency_s=self._cost("speculate", query))


class TestSimulatedMakespansMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 60),
        frontend_workers=st.integers(1, 9),
        agentic_workers=st.integers(1, 4),
        quota=st.none() | st.tuples(st.sampled_from([0.0, 0.3, 0.8, 1.0]), st.sampled_from([0.0, 0.5, 1.0])),
        jitter=st.booleans(),
        data=st.data(),
    )
    def test_serve_and_baseline_makespans(
        self, seed, n, frontend_workers, agentic_workers, quota, jitter, data
    ):
        config = SyntheticConfig(seed=seed)
        queries = make_workload(config, n) if quota is None else make_quota_workload(config, n, *quota)
        ids = [q.id for q in queries]
        fail = {
            phase: data.draw(st.sets(st.sampled_from(ids), max_size=n), label=phase)
            for phase in ("judge", "speculate", "agentic")
        }
        wrapper = JitteryFaultyBackend if jitter else FaultyBackend
        schedule = ScheduleConfig(frontend_workers=frontend_workers, agentic_workers=agentic_workers)

        def in_input_order(outcomes):
            by_id = {o.query_id: o for o in outcomes}
            return [by_id[q.id] for q in queries]

        outcomes, stats = serve_batch(
            queries, GateConfig(tau=0.9), schedule, wrapper(SyntheticBackend(config), fail)
        )
        want = _oracle_stage_s(in_input_order(outcomes), schedule)
        assert stats.frontend_makespan_s == want["judge"] + want["speculate"]
        assert stats.fallback_makespan_s == want["agentic"]

        baseline_outcomes, baseline = serve_batch(
            queries, None, schedule, wrapper(SyntheticBackend(config), fail)
        )
        want = _oracle_stage_s(in_input_order(baseline_outcomes), schedule)
        assert baseline.frontend_makespan_s == want["judge"] + want["speculate"] == 0.0
        assert baseline.fallback_makespan_s == want["agentic"]
        assert baseline.baseline_makespan_s == want["agentic"]
        assert stats.baseline_makespan_s == want["agentic"]

    @pytest.mark.parametrize("agentic_workers", [31, 10**12])
    def test_more_agentic_workers_than_calls(self, agentic_workers):
        config = SyntheticConfig(seed=4)
        queries = make_workload(config, 30)
        schedule = ScheduleConfig(agentic_workers=agentic_workers)
        outcomes, stats = serve_batch(queries, GateConfig(tau=0.9), schedule, SyntheticBackend(config))
        baseline_outcomes, baseline = serve_batch(queries, None, schedule, SyntheticBackend(config))
        # each call has a worker of its own, so a stage lasts as long as its longest call
        residual = [o.latency.agentic_s for o in outcomes if o.path is not QueryPath.SPECULATION_ACCEPTED]
        assert stats.fallback_makespan_s == max(residual)
        assert baseline.fallback_makespan_s == max(o.latency.agentic_s for o in baseline_outcomes)
        assert stats.baseline_makespan_s == baseline.fallback_makespan_s


class RecordingBackend:
    """SyntheticBackend wrapper recording the thread of each call and the most
    calls in flight at once.

    The first `together` calls wait for one another at a barrier, so that
    many threads are inside a call at the same moment. `delay_s` maps a query
    id to the seconds its call sleeps first; a query id in `fail` then raises
    RuntimeError(query id).
    """

    def __init__(self, inner, together=1, delay_s=None, fail=()):
        self.inner = inner
        self.delay_s = delay_s or {}
        self.fail = set(fail)
        self.calls = []  # (phase, query id, thread), in the order calls started
        self.returned = []  # query ids, in the order calls returned
        self.in_flight = self.peak = 0
        self._barrier = threading.Barrier(together, timeout=10)
        self._lock = threading.Lock()

    def _call(self, phase, method, query):
        with self._lock:
            self.calls.append((phase, query.id, threading.current_thread()))
            first = len(self.calls) <= self._barrier.parties
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if first:
                self._barrier.wait()
            time.sleep(self.delay_s.get(query.id, 0.0))
            if query.id in self.fail:
                raise RuntimeError(query.id)
            result = getattr(self.inner, method)(query)
            self.returned.append(query.id)
            return result
        finally:
            with self._lock:
                self.in_flight -= 1

    def judge(self, query):
        return self._call("judge", "judge", query)

    def speculate(self, query):
        return self._call("speculate", "speculate", query)

    def agentic_run(self, query):
        return self._call("agentic", "agentic_run", query)


def _measured(frontend_workers=4, agentic_workers=1):
    return ScheduleConfig(frontend_workers, agentic_workers, ScheduleMode.MEASURED)


class TestMeasuredStageRunner:
    def test_results_come_back_in_input_order(self, synthetic_config):
        queries = make_workload(synthetic_config, 40)
        inner = SyntheticBackend(synthetic_config)
        # later queries finish first, so completion order is not input order
        delay_s = {q.id: 0.002 * (len(queries) - i) for i, q in enumerate(queries)}
        backend = RecordingBackend(inner, together=4, delay_s=delay_s)
        run_stage, stage_s = _clock(_measured(frontend_workers=4))
        assert run_stage("judge", lambda qs: [backend.judge(q) for q in qs], queries) == [inner.judge(q) for q in queries]
        assert stage_s["judge"] > 0.0
        assert backend.returned != [q.id for q in queries]  # calls returned out of order

    @pytest.mark.parametrize("workers, n", [(4, 10), (4, 3), (3, 1), (2, 2), (1, 5)])
    def test_min_of_workers_and_calls_threads_caller_included(self, synthetic_config, workers, n):
        queries = make_workload(synthetic_config, n)
        backend = RecordingBackend(SyntheticBackend(synthetic_config), together=min(workers, n))
        run_stage, _ = _clock(_measured(frontend_workers=workers))
        before = set(threading.enumerate())
        run_stage("judge", lambda qs: [backend.judge(q) for q in qs], queries)
        threads = {thread for _, _, thread in backend.calls}
        assert len(backend.calls) == n
        assert len(threads) == min(workers, n)
        assert threading.current_thread() in threads
        assert backend.peak == min(workers, n) <= workers
        assert not any(thread.is_alive() for thread in threads - {threading.current_thread()})
        assert set(threading.enumerate()) == before

    def test_each_item_runs_once_under_fast_thread_switching(self):
        items = list(range(5000))
        calls = []

        def fn(item):
            calls.append(item)  # list.append is atomic, so no call goes unrecorded
            return item * item

        run_stage, _ = _clock(_measured(frontend_workers=8))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = run_stage("judge", lambda batch: [fn(item) for item in batch], items)
        finally:
            sys.setswitchinterval(interval)
        assert results == [item * item for item in items]
        assert sorted(calls) == items

    def test_no_more_than_workers_calls_in_flight(self, synthetic_config, gate_config):
        queries = make_workload(synthetic_config, 60)
        delay_s = {q.id: 0.001 for q in queries}
        backend = RecordingBackend(SyntheticBackend(synthetic_config), together=3, delay_s=delay_s)
        outcomes, _ = serve_batch(queries, gate_config, _measured(frontend_workers=3, agentic_workers=2), backend)
        assert backend.peak == 3
        assert outcomes == serve_batch(queries, gate_config, ScheduleConfig(), SyntheticBackend(synthetic_config))[0]

    def test_earliest_failing_items_error_propagates(self, synthetic_config, gate_config):
        queries = make_workload(synthetic_config, 200)
        # items 1 and 2 are both called; item 2 raises first, item 1 after it
        first, second = queries[1].id, queries[2].id
        backend = RecordingBackend(
            SyntheticBackend(synthetic_config), together=4, delay_s={first: 0.2}, fail={first, second}
        )
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError) as raised:
            serve_batch(queries, gate_config, _measured(frontend_workers=4), backend)
        assert raised.value.args == (first,)
        assert {phase for phase, _, _ in backend.calls} == {"judge"}
        assert len(backend.calls) < len(queries)  # the stage stopped starting calls
        assert set(threading.enumerate()) == before

    def test_no_call_starts_after_a_failure(self, synthetic_config):
        queries = make_workload(synthetic_config, 10)
        backend = RecordingBackend(
            SyntheticBackend(synthetic_config), together=2, delay_s={queries[1].id: 0.2}, fail={queries[0].id}
        )
        run_stage, _ = _clock(_measured(frontend_workers=2))
        with pytest.raises(RuntimeError):
            run_stage("judge", lambda qs: [backend.judge(q) for q in qs], queries)
        # item 1's call outlasts item 0's failure, and its thread stops after it
        assert [qid for _, qid, _ in backend.calls] in ([q.id for q in queries[:2]], [q.id for q in queries[1::-1]])

    def test_one_worker_runs_on_the_caller_in_input_order(self, synthetic_config):
        queries = make_workload(synthetic_config, 8)
        backend = RecordingBackend(SyntheticBackend(synthetic_config), fail={queries[5].id})
        run_stage, _ = _clock(_measured(agentic_workers=1))
        with pytest.raises(RuntimeError):
            run_stage("agentic", lambda qs: [backend.agentic_run(q) for q in qs], queries)
        assert [qid for _, qid, _ in backend.calls] == [q.id for q in queries[:6]]

    def test_single_agentic_worker_drains_on_the_calling_thread(self, synthetic_config, gate_config):
        queries = make_workload(synthetic_config, 40)
        counts = []

        class CountingThreads(RecordingBackend):
            def agentic_run(self, query):
                counts.append(threading.active_count())
                return super().agentic_run(query)

        backend = CountingThreads(SyntheticBackend(synthetic_config))
        active = threading.active_count()
        _, stats = serve_batch(queries, gate_config, _measured(frontend_workers=4, agentic_workers=1), backend)
        drained = [thread for phase, _, thread in backend.calls if phase == "agentic"]
        assert len(drained) == stats.n_residual > 0
        assert set(drained) == {threading.current_thread()}
        assert set(counts) == {active}  # no thread was started for the drain
        assert len({thread for phase, _, thread in backend.calls if phase == "judge"}) > 1


# one slow call ahead of many short ones, and uneven short calls of 0-4 ms
LOWER_BOUND_COSTS = {
    "slow_first": [0.1] + [0.005] * 19,
    "crc32": [zlib.crc32(f"cost/{i}".encode()) % 4001 / 1e6 for i in range(60)],
}


class TestSimulatedClockBoundsMeasured:
    @pytest.mark.parametrize("costs", LOWER_BOUND_COSTS.values(), ids=LOWER_BOUND_COSTS)
    @pytest.mark.parametrize("workers", [2, 3, 8])
    @pytest.mark.parametrize("stage", ["judge", "agentic"])
    def test_simulated_stage_is_a_lower_bound(self, stage, workers, costs):
        """The simulated makespan of a stage is at most the measured one.

        In measured mode items leave one iterator in index order, a thread
        takes an item only after its previous call returned, and each call
        here sleeps at least the cost it reports. So, by induction over the
        index, no call starts before the start the simulated schedule gives
        it, and none ends before its simulated end. This holds on any
        machine, so no ratio tolerance is needed.
        """

        def fn(cost):
            time.sleep(cost)
            return (cost,)

        run_measured, measured = _clock(_measured(frontend_workers=workers, agentic_workers=workers))
        run_measured(stage, lambda batch: [fn(cost) for cost in batch], costs)
        run_simulated, simulated = _clock(ScheduleConfig(frontend_workers=workers, agentic_workers=workers))
        run_simulated(stage, lambda batch: [(cost,) for cost in batch], costs)
        assert 0.0 < simulated[stage] <= measured[stage]


class SleepingBackend:
    """SyntheticBackend wrapper whose routes sleep 2 ms and record each call
    as (route, start, end), read by perf_counter."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []  # list.append is atomic, so no call goes unrecorded

    def _call(self, route, query):
        start = time.perf_counter()
        time.sleep(0.002)
        result = getattr(self.inner, route)(query)
        self.calls.append((route, start, time.perf_counter()))
        return result

    def judge(self, query):
        return self._call("judge", query)

    def speculate(self, query):
        return self._call("speculate", query)

    def agentic_run(self, query):
        return self._call("agentic_run", query)


class TestMeasuredStagesDoNotOverlap:
    def test_each_stage_ends_before_the_next_starts(self, synthetic_config, gate_config):
        backend = SleepingBackend(SyntheticBackend(synthetic_config))
        queries = make_workload(synthetic_config, 40)
        _, stats = serve_batch(queries, gate_config, _measured(frontend_workers=2, agentic_workers=2), backend)
        assert stats.n_toolfree > 0 and stats.n_residual > 0
        routes = ["judge", "speculate", "agentic_run"]
        first_start = {r: min(start for route, start, _ in backend.calls if route == r) for r in routes}
        last_end = {r: max(end for route, _, end in backend.calls if route == r) for r in routes}
        for earlier, later in zip(routes, routes[1:]):
            assert last_end[earlier] < first_start[later]

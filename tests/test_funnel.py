"""Funnel scheduler tests: stage counting, virtual-clock makespans, list
scheduling, analytic speedup, and scheduler transparency."""

import math
import threading
from collections import Counter

import pytest

from spec_funnel.backends.synthetic import (
    SyntheticBackend,
    SyntheticConfig,
    make_quota_workload,
    make_workload,
)
from spec_funnel.backends.remote import parse_judge_response
from spec_funnel.errors import BackendUnavailable, InfiniteSpeedup, ValidationError
from spec_funnel.funnel import (
    FunnelStats,
    ScheduleConfig,
    ScheduleMode,
    _list_schedule_makespan,
    _wave_makespan,
    serve_batch,
    serve_batch_baseline,
    speedup_model,
    throughput_bound,
)
from spec_funnel.gate import GateConfig
from spec_funnel.pipeline import QueryPath, process_query
from spec_funnel.recordio import outcome_lines


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


class TestScheduling:
    def test_wave_makespan_constant_costs(self):
        assert _wave_makespan([0.5] * 10, 4) == pytest.approx(3 * 0.5, abs=1e-12)
        assert _wave_makespan([0.5] * 10, 10) == 0.5
        assert _wave_makespan([0.5] * 10, 1) == pytest.approx(5.0, abs=1e-12)

    def test_fifo_earliest_free_worker(self):
        # workers: A takes 4; B takes 3, frees first, takes the last 3
        assert _list_schedule_makespan([4.0, 3.0, 3.0], 2) == 6.0

    def test_single_worker_serializes(self):
        assert _list_schedule_makespan([4.0, 3.0, 3.0], 1) == 10.0


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

    def test_baseline_run_matches_internal_baseline(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 30)
        schedule = ScheduleConfig(frontend_workers=8, agentic_workers=2)
        _, stats = serve_batch(queries, gate_config, schedule, backend)
        baseline_outcomes, baseline_stats = serve_batch_baseline(queries, schedule, backend)
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
        outcomes, stats = serve_batch_baseline(queries, schedule, backend)
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
        _, baseline = serve_batch_baseline(queries, schedule, SyntheticBackend(config))
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
        _, baseline = serve_batch_baseline(queries, schedule, FaultyBackend(inner, fail))
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
            serve_batch_baseline(queries, ScheduleConfig(mode=mode), backend)

"""Acceptance suite.

Each test implements one exit criterion at its stated tolerance and prints
one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s` to see
every line; all randomized checks are seeded, so results are reproducible.
"""

import math
import time

import numpy as np
import pytest


from spec_funnel.backends.synthetic import (
    SyntheticBackend,
    SyntheticConfig,
    Uniform,
    make_quota_workload,
    make_workload,
)
from spec_funnel.calibration import (
    CostSummary,
    collect_scores,
    default_tau_grid,
    kde,
    sweep_threshold,
)
from spec_funnel.errors import DegenerateDistribution
from spec_funnel.funnel import ScheduleConfig, serve_batch, speedup_model
from spec_funnel.gate import (
    GateConfig,
    Scoring,
    TokenLogits,
    aggregate,
    gate,
    normalize,
)
from spec_funnel.pipeline import QueryPath, answers_match, expected_latency, process_query

from oracles import log_confidence, logit, outcome_lines, peak_distance, token_separability

N_RANDOM = 10_000


def _report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {number:02d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def _ld_separability(values, k, epsilon):
    window = np.asarray(values, dtype=np.longdouble)[: min(k, len(values))]
    if window[0] == window[-1]:
        return 0.0
    mean = window.mean()
    margin = window[0] - mean
    if margin <= 0:
        return 0.0
    sd = np.sqrt(np.mean((window - mean) ** 2))
    return float(margin / (sd + np.longdouble(epsilon)))


def _ld_log_confidence(vectors):
    logs = [
        -np.log(np.exp(np.asarray(v, dtype=np.longdouble) - v[0]).sum()) for v in vectors
    ]
    return float(np.exp(np.mean(np.asarray(logs, dtype=np.longdouble))))


def _sorted_vectors(rng, count, min_k=2, max_k=64, scale=4.0):
    out = []
    for _ in range(count):
        k = int(rng.integers(min_k, max_k + 1))
        out.append(np.sort(rng.normal(0.0, scale, size=k))[::-1])
    return out


def test_criterion_01_gating_math_oracles():
    rng = np.random.default_rng(2026_01)
    started = time.perf_counter()
    worst = 0.0

    for values in _sorted_vectors(rng, N_RANDOM):
        k = len(values)
        ours = token_separability(TokenLogits(values), k, 1e-6)
        worst = max(worst, abs(ours - _ld_separability(values, k, 1e-6)))
    sep_ok = worst <= 1e-9

    log_worst = 0.0
    for _ in range(N_RANDOM):
        vectors = _sorted_vectors(rng, int(rng.integers(1, 5)), min_k=2, max_k=24, scale=3.0)
        ours = log_confidence([TokenLogits(v) for v in vectors])
        log_worst = max(log_worst, abs(ours - _ld_log_confidence(vectors)))
    log_ok = log_worst <= 1e-12

    agg_worst = 0.0
    for _ in range(N_RANDOM):
        scores = rng.normal(0.0, 5.0, size=int(rng.integers(1, 40)))
        ratio = float(rng.uniform(0.01, 0.99))
        ld = np.asarray(scores, dtype=np.longdouble)
        agg_worst = max(agg_worst, abs(aggregate(scores, Scoring.MEAN) - float(ld.mean())))
        agg_worst = max(agg_worst, abs(aggregate(scores, Scoring.MIN) - float(ld.min())))
        m = min(math.ceil(ratio * scores.size), scores.size)
        bottom_ld = float(np.sort(ld)[:m].mean())
        agg_worst = max(agg_worst, abs(aggregate(scores, Scoring.BOTTOM_R, ratio) - bottom_ld))
    agg_ok = agg_worst <= 1e-9

    norm_worst = 0.0
    for raw in rng.uniform(-30.0, 30.0, size=N_RANDOM):
        reference = float(1.0 / (1.0 + np.exp(-np.longdouble(raw))))
        norm_worst = max(norm_worst, abs(normalize(float(raw)) - reference))
    norm_ok = norm_worst <= 1e-9

    elapsed = time.perf_counter() - started
    _report(
        1,
        "gating math matches extended-precision brute force",
        sep_ok and log_ok and agg_ok and norm_ok and elapsed < 10.0,
        f"sep {worst:.2e}, logconf {log_worst:.2e}, agg {agg_worst:.2e}, "
        f"norm {norm_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_aggregation_ordering():
    rng = np.random.default_rng(2026_02)
    violations = 0
    for _ in range(N_RANDOM):
        scores = rng.normal(0.0, 5.0, size=int(rng.integers(1, 50)))
        ratio = float(rng.uniform(1e-6, 1.0 - 1e-9))
        low = aggregate(scores, Scoring.MIN)
        bottom = aggregate(scores, Scoring.BOTTOM_R, ratio)
        mean = aggregate(scores, Scoring.MEAN)
        if not (low <= bottom <= mean):
            violations += 1
    _report(2, "min <= bottom-r <= mean on random score lists", violations == 0,
            f"{violations} violations in {N_RANDOM}")


def test_criterion_03_invariances():
    rng = np.random.default_rng(2026_03)
    shift_worst = 0.0
    scale_worst = 0.0
    eps_bound_ok = True
    for values in _sorted_vectors(rng, N_RANDOM, scale=3.0):
        k = len(values)
        shift = float(rng.uniform(-50.0, 50.0))
        factor = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))

        base_eps = token_separability(TokenLogits(values), k, 1e-6)
        shifted = TokenLogits(values + shift)
        shift_worst = max(shift_worst, abs(token_separability(shifted, k, 1e-6) - base_eps))

        base_exact = token_separability(TokenLogits(values), k, 0.0)
        scaled = TokenLogits(values * factor)
        scale_worst = max(scale_worst, abs(token_separability(scaled, k, 0.0) - base_exact))

        sd = float(values.std())
        if sd >= 0.01:
            deviation = abs(base_eps - base_exact)
            if deviation > 1e-6 * base_exact / sd + 1e-12 or deviation >= 1e-3:
                eps_bound_ok = False
    _report(
        3,
        "shift invariance and epsilon=0 scale invariance",
        shift_worst <= 1e-9 and scale_worst <= 1e-9 and eps_bound_ok,
        f"shift {shift_worst:.2e}, scale {scale_worst:.2e}, eps bound {eps_bound_ok}",
    )


def test_criterion_04_min_guard_biconditional():
    rng = np.random.default_rng(2026_04)
    violations = 0
    for _ in range(N_RANDOM):
        answer = [
            TokenLogits(np.sort(rng.normal(0.0, 3.0, size=6))[::-1])
            for _ in range(int(rng.integers(1, 6)))
        ]
        tau = float(rng.uniform(0.05, 0.995))
        config = GateConfig(k=6, tau=tau, aggregation=Scoring.MIN)
        decision = gate(answer, config)
        raw = [token_separability(t, 6, config.epsilon) for t in answer]
        if decision.accepted != all(s >= logit(tau) for s in raw):
            violations += 1
    _report(4, "min-strategy accept iff every token clears logit(tau)", violations == 0,
            f"{violations} violations in {N_RANDOM}")


def test_criterion_05_speedup_law_reproduction():
    started = time.perf_counter()
    config = SyntheticConfig(
        seed=20260810,
        judge_cost_s=0.02,
        speculate_cost_s=0.03,
        depth_weights={2: 0.25, 3: 0.5, 4: 0.25},
    )
    backend = SyntheticBackend(config)
    queries = make_quota_workload(config, 1000, 0.8, 0.71)
    outcomes, stats = serve_batch(
        queries, GateConfig(tau=0.9), ScheduleConfig(frontend_workers=1000, agentic_workers=1), backend
    )
    mean_agentic = float(
        np.mean([o.latency.agentic_s for o in outcomes if o.latency.agentic_s > 0.0])
    )
    frontend_share = (config.judge_cost_s + config.speculate_cost_s) / mean_agentic
    analytic = speedup_model(0.8, 0.71)
    elapsed = time.perf_counter() - started
    ok = (
        stats.n_toolfree == 800
        and stats.n_accepted == 568
        and stats.n_residual == 432
        and frontend_share <= 0.01
        and abs(analytic - 2.3148148148) <= 1e-6
        and 2.20 <= stats.speedup <= 2.43
        and elapsed < 30.0
    )
    _report(5, "funnel speedup matches 1/(1 - beta*alpha)", ok,
            f"simulated {stats.speedup:.4f} vs analytic {analytic:.4f}, {elapsed:.1f}s")


def test_criterion_06_expected_latency_reproduction():
    config = SyntheticConfig(seed=20260811)
    backend = SyntheticBackend(config)
    queries = make_workload(config, N_RANDOM)
    gate_config = GateConfig(tau=0.9)
    outcomes = [process_query(q, gate_config, backend) for q in queries]
    n = len(outcomes)
    toolfree = [o for o in outcomes if o.path is not QueryPath.TOOL_REQUIRED_FALLBACK]
    accepted = [o for o in outcomes if o.path is QueryPath.SPECULATION_ACCEPTED]
    fallback = [o for o in outcomes if o.path is not QueryPath.SPECULATION_ACCEPTED]
    beta_hat = len(toolfree) / n
    alpha_hat = len(accepted) / len(toolfree)
    predicted = expected_latency(
        beta_hat,
        alpha_hat,
        float(np.mean([o.latency.judge_s for o in outcomes])),
        float(np.mean([o.latency.speculate_s for o in toolfree])),
        float(np.mean([o.latency.agentic_s for o in fallback])),
    )
    observed = float(np.mean([o.total_latency_s for o in outcomes]))
    relative = abs(observed - predicted) / predicted
    worked = expected_latency(0.8, 0.71, 0.1, 0.5, 10.0)
    ok = relative <= 0.02 and abs(worked - 4.82) <= 1e-12
    _report(6, "Monte Carlo latency matches the analytic model", ok,
            f"relative error {relative:.2e}, worked value {worked}")


def test_criterion_07_scheduler_transparency():
    gate_config = GateConfig(tau=0.9)
    ok = True
    for seed in (11, 12, 13, 14, 15):
        config = SyntheticConfig(seed=seed)
        backend = SyntheticBackend(config)
        queries = make_workload(config, 60)
        sequential = sorted(
            (process_query(q, gate_config, backend) for q in queries),
            key=lambda o: o.query_id,
        )
        reference_bytes = outcome_lines(sequential)
        for frontend, agentic in ((1, 1), (9, 2), (60, 4)):
            schedule = ScheduleConfig(frontend_workers=frontend, agentic_workers=agentic)
            outcomes, _ = serve_batch(queries, gate_config, schedule, backend)
            if outcomes != sequential or outcome_lines(outcomes) != reference_bytes:
                ok = False
    _report(7, "scheduling never changes outcomes, byte-identical records", ok,
            "5 seeds x 3 worker configs")


def test_criterion_08_threshold_sweep_shape():
    config = SyntheticConfig(seed=20260812)
    backend = SyntheticBackend(config)
    queries = make_workload(config, 600)
    gate_config = GateConfig(tau=0.9)
    collection = collect_scores(queries, gate_config, backend)
    taus = default_tau_grid([s.score for s in collection.samples], 33)
    points = sweep_threshold(
        collection.samples,
        taus,
        CostSummary(config.judge_cost_s, config.speculate_cost_s, 5.0),
        collection.beta_hat,
        fallback_accuracy=config.agentic_accuracy,
    )
    acceptance = [p.acceptance_rate for p in points]
    speedups = [p.analytic_speedup for p in points]
    monotone = all(b <= a for a, b in zip(acceptance, acceptance[1:])) and all(
        b <= a for a, b in zip(speedups, speedups[1:])
    )

    strict = GateConfig(tau=1.0 - 1e-12)
    outcomes = [process_query(q, strict, backend) for q in queries]
    none_accepted = all(o.path is not QueryPath.SPECULATION_ACCEPTED for o in outcomes)
    pipeline_correct = sum(1 for o in outcomes if o.correct)
    agentic_correct = sum(
        1 for q in queries if answers_match(backend.agentic_run(q).answer, q.ground_truth)
    )
    _report(
        8,
        "sweep is monotone and tau->1 reduces to pure agentic accuracy",
        monotone and none_accepted and pipeline_correct == agentic_correct,
        f"accuracy {pipeline_correct}/{len(queries)} both ways",
    )


def test_criterion_09_batch_size_ablation_shape():
    started = time.perf_counter()
    config = SyntheticConfig(
        seed=7,
        judge_cost_s=0.02,
        speculate_cost_s=0.03,
        depth_weights={3: 1.0},
        tool_cost=Uniform(0.65, 0.65),
    )
    backend = SyntheticBackend(config)
    gate_config = GateConfig(tau=0.9)
    speedups = []
    for batch_size in (1, 8, 64, 256, 1024):
        queries = make_quota_workload(config, batch_size, 0.8, 0.71)
        _, stats = serve_batch(
            queries, gate_config, ScheduleConfig(frontend_workers=batch_size, agentic_workers=1), backend
        )
        speedups.append(stats.speedup)
    increments = [b - a for a, b in zip(speedups, speedups[1:])]
    elapsed = time.perf_counter() - started
    ok = (
        all(b >= a for a, b in zip(speedups, speedups[1:]))
        and all(b < a for a, b in zip(increments, increments[1:]))
        and elapsed < 60.0
    )
    _report(9, "speedup grows with batch size at diminishing increments", ok,
            "speedups " + ", ".join(f"{s:.4f}" for s in speedups) + f", {elapsed:.1f}s")


def test_criterion_10_kde_peak_distance_oracle():
    rng = np.random.default_rng(2026_10)
    correct = np.clip(rng.normal(0.9, 0.02, size=400), 0.001, 0.999)
    incorrect = np.clip(rng.normal(0.2, 0.02, size=400), 0.001, 0.999)
    delta = peak_distance(correct, incorrect)
    grid = kde(correct).grid
    argmax_correct = grid[int(np.argmax(kde(correct).density))]
    argmax_incorrect = grid[int(np.argmax(kde(incorrect).density))]
    oracle_delta = abs(argmax_correct - argmax_incorrect)
    degenerate_raises = False
    try:
        kde([0.5] * 32)
    except DegenerateDistribution:
        degenerate_raises = True
    ok = abs(delta - 0.70) <= 0.02 and delta == oracle_delta and degenerate_raises
    _report(10, "two-cluster peak distance and degenerate handling", ok,
            f"delta {delta:.4f}")


def test_criterion_11_funnel_counting_identities():
    gate_config = GateConfig(tau=0.9)
    checked = 0
    ok = True
    for seed in (1, 2, 3):
        config = SyntheticConfig(seed=seed)
        backend = SyntheticBackend(config)
        for quota in (None, (0.8, 0.71)):
            if quota:
                queries = make_quota_workload(config, 120, *quota)
            else:
                queries = make_workload(config, 120)
            for frontend, agentic in ((4, 1), (120, 3)):
                schedule = ScheduleConfig(frontend_workers=frontend, agentic_workers=agentic)
                outcomes, stats = serve_batch(queries, gate_config, schedule, backend)
                checked += 1
                n_toolfree = sum(
                    1 for o in outcomes if o.path is not QueryPath.TOOL_REQUIRED_FALLBACK
                )
                n_accepted = sum(
                    1 for o in outcomes if o.path is QueryPath.SPECULATION_ACCEPTED
                )
                if not (
                    stats.n_toolfree + stats.n_toolreq == stats.batch_size == len(outcomes)
                    and stats.n_accepted + stats.n_rejected == stats.n_toolfree == n_toolfree
                    and stats.n_residual == stats.n_rejected + stats.n_toolreq
                    and stats.n_residual == stats.batch_size - n_accepted
                    and stats.beta_hat == stats.n_toolfree / stats.batch_size
                    and stats.alpha_hat == stats.n_accepted / max(stats.n_toolfree, 1)
                    and stats.throughput_qps == stats.batch_size / stats.batch_makespan_s
                ):
                    ok = False
    _report(11, "funnel counting identities hold on the full matrix", ok,
            f"{checked} runs checked")

"""Calibration tests: score collection, KDE against a brute-force grid
oracle and the unblocked loop, peak distance, threshold sweeps, threshold
choice, and the union bound against its per-answer loop."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.calibration import (
    KDE_GRID_SIZE,
    CostSummary,
    OperatingPoint,
    ScoreSample,
    _quantile,
    _silverman_bandwidth,
    choose_threshold,
    class_densities,
    collect_score_sets,
    collect_scores,
    default_tau_grid,
    kde,
    sweep_threshold,
    union_bound_report,
)
from spec_funnel.errors import DegenerateDistribution, ValidationError
from spec_funnel.gate import GateConfig, Scoring, normalize
from spec_funnel.pipeline import QueryPath, process_query

from oracles import peak_distance


def brute_force_kde_argmax(scores, bandwidth, grid):
    """Independent oracle: evaluate the reflected Gaussian mixture pointwise."""
    best_x, best_density = None, -1.0
    for x in grid:
        total = 0.0
        for s in scores:
            for point in (s, -s, 2.0 - s):
                z = (x - point) / bandwidth
                total += math.exp(-0.5 * z * z)
        if total > best_density:
            best_x, best_density = x, total
    return best_x


def unblocked_kde_density(x, bandwidth):
    """The KDE loop over whole 512-row grids, chunk by 2048 sorted points."""
    grid = np.linspace(0.0, 1.0, KDE_GRID_SIZE)
    density = np.zeros(KDE_GRID_SIZE)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    for chunk_start in range(0, x.size, 2048):
        chunk = x[chunk_start : chunk_start + 2048]
        for points in (chunk, -chunk, 2.0 - chunk):
            z = (grid[:, None] - points[None, :]) / bandwidth
            density += norm * np.exp(-0.5 * z * z).sum(axis=1)
    density /= x.size * bandwidth
    return density


class TestCollectScores:
    def test_cardinality_split(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 300)
        collection = collect_scores(queries, gate_config, backend)
        assert len(collection.samples) + collection.n_tool_required == 300
        assert len(collection.token_scores) == len(collection.samples)
        assert 0.0 < collection.beta_hat < 1.0

    def test_deterministic(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 100)
        a = collect_scores(queries, gate_config, backend)
        b = collect_scores(queries, gate_config, backend)
        assert a == b

    def test_missing_ground_truth_rejected(self, backend, gate_config):
        from spec_funnel.backends.base import Query

        with pytest.raises(ValidationError):
            collect_scores([Query(id="q")], gate_config, backend)

    def test_scores_cluster_by_correctness(self):
        config = SyntheticConfig(
            seed=23, sep_sigma=0.0, judge_accuracy=1.0, p_tool_required=0.0,
            answer_len_weights={2: 1.0},
        )
        backend = SyntheticBackend(config)
        queries = make_workload(config, 200)
        collection = collect_scores(queries, GateConfig(tau=0.9), backend)
        correct_level = normalize(config.sep_mu_correct)
        incorrect_level = normalize(config.sep_mu_incorrect)
        for sample in collection.samples:
            target = correct_level if sample.correct else incorrect_level
            assert sample.score == pytest.approx(target, abs=1e-4)


class TestKde:
    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateDistribution):
            kde([0.5])
        with pytest.raises(DegenerateDistribution):
            kde([0.5] * 40)

    def test_silverman_bandwidth_collapse(self):
        # nonzero spread, but an IQR of one subnormal step rounds the bandwidth to 0.0
        with pytest.raises(DegenerateDistribution, match="bandwidth collapsed"):
            kde([0.0] * 20 + [5e-324] * 19 + [1.0])

    def test_integrates_to_one(self):
        rng = np.random.default_rng(3)
        scores = np.clip(rng.normal(0.6, 0.15, size=500), 0.001, 0.999)
        estimate = kde(scores)
        mass = float(np.trapezoid(estimate.density, estimate.grid))
        assert abs(mass - 1.0) <= 1e-2

    def test_density_non_negative_and_order_free(self):
        rng = np.random.default_rng(4)
        scores = list(np.clip(rng.normal(0.4, 0.1, size=100), 0.001, 0.999))
        a = kde(scores)
        b = kde(list(reversed(scores)))
        assert np.all(a.density >= 0.0)
        assert np.array_equal(a.density, b.density)

    def test_cluster_peaks_match_brute_force(self):
        rng = np.random.default_rng(5)
        for center in (0.2, 0.9):
            scores = np.clip(rng.normal(center, 0.02, size=400), 0.001, 0.999)
            estimate = kde(scores)
            assert abs(estimate.peak - center) <= 0.01
            oracle_peak = brute_force_kde_argmax(scores, estimate.bandwidth, estimate.grid)
            assert estimate.peak == pytest.approx(oracle_peak, abs=1e-12)

    def test_explicit_bandwidth_respected(self):
        scores = [0.3, 0.4, 0.5, 0.6]
        assert kde(scores, bandwidth=0.07).bandwidth == 0.07

    @pytest.mark.parametrize("bandwidth", [None, 0.05], ids=["silverman", "fixed"])
    @pytest.mark.parametrize("n", [2, 233, 2047, 2048, 2049, 5000])
    def test_bytes_equal_the_unblocked_loop(self, n, bandwidth):
        scores = np.random.default_rng(n).beta(2.0, 5.0, size=n)
        estimate = kde(scores, bandwidth)
        expected = unblocked_kde_density(np.sort(scores), estimate.bandwidth)
        assert estimate.density.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 300), st.integers(2040, 2060)),
        width=st.floats(0.001, 0.05),
        place=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        bandwidth=st.one_of(st.none(), st.floats(-4.0, 0.0).map(lambda e: 10.0**e)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_the_unblocked_loop_on_clustered_scores(self, n, width, place, bandwidth, seed):
        # a narrow band leaves most blocks of grid rows too far from every
        # point, and from each reflection, to be evaluated
        x = np.sort(place * (1.0 - width) + width * np.random.default_rng(seed).random(n))
        try:
            density = kde(x, bandwidth).density
        except DegenerateDistribution:
            # a few scores in a narrow band can give a Silverman bandwidth
            # too small for any kernel to reach a grid point
            density = np.zeros(KDE_GRID_SIZE)
        expected = unblocked_kde_density(x, bandwidth or _silverman_bandwidth(x))
        assert density.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            # no -0.0: np.percentile's partition may order it either way
            # against an equal 0.0, so numpy's own quartile takes either sign
            st.one_of(
                st.floats(-1.0, 1.0).map(lambda v: v + 0.0),
                st.sampled_from([0.0, 5e-324, -5e-324, 2.2e-308, 0.5, 1.0]),
            ),
            min_size=2,
            max_size=300,
        )
    )
    def test_quartiles_equal_numpys_percentile(self, values):
        x = np.sort(np.array(values))
        q75, q25 = np.percentile(x, [75, 25])
        assert (_quantile(x, 0.75).hex(), _quantile(x, 0.25).hex()) == (float(q75).hex(), float(q25).hex())
        assert (_quantile(x, 0.75) - _quantile(x, 0.25)).hex() == float(q75 - q25).hex()

    @pytest.mark.parametrize(
        "scores, bandwidth",
        [([0.1, 0.5, 0.6], 1e-100), ([0.1, 0.5, 0.6], 1e-200), ([0.0, 0.5, 0.6], 5e-324)],
        ids=["all-zero", "z-squared-overflows", "normalized-density-overflows"],
    )
    def test_tiny_bandwidth_is_degenerate(self, scores, bandwidth):
        # an all-zero density read as a peak at 0.0, an overflow raised a
        # RuntimeWarning; a subnormal bandwidth over a score on a grid point
        # divides the density past the float range
        with pytest.raises(DegenerateDistribution, match="bandwidth too small"):
            kde(scores, bandwidth)

    def test_class_densities_drop_a_class_whose_density_vanishes(self):
        # 0.0 and 1.0 are grid points, so that class keeps a density at 1e-100
        correct, incorrect, distance = class_densities([0.0, 0.5, 1.0], [0.1, 0.5, 0.6], 1e-100)
        assert correct is not None and correct.density.max() > 0.0
        assert incorrect is None and distance is None

    def test_transient_memory_does_not_grow_with_n(self):
        # the unblocked loop peaks at about 24 MiB here: 512 x 2048 doubles,
        # three of them alive at once
        scores = np.random.default_rng(6).random(5000)
        tracemalloc.start()
        try:
            kde(scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestPeakDistance:
    def test_two_cluster_delta(self):
        rng = np.random.default_rng(6)
        correct = np.clip(rng.normal(0.9, 0.02, size=400), 0.001, 0.999)
        incorrect = np.clip(rng.normal(0.2, 0.02, size=400), 0.001, 0.999)
        assert peak_distance(correct, incorrect) == pytest.approx(0.7, abs=0.02)

    def test_self_distance_below_grid_step(self):
        rng = np.random.default_rng(7)
        scores = np.clip(rng.normal(0.5, 0.1, size=300), 0.001, 0.999)
        assert peak_distance(scores, scores) <= 1.0 / 511.0

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateDistribution):
            peak_distance([0.5] * 10, [0.2, 0.3, 0.4])


class TestSweepThreshold:
    @staticmethod
    def samples():
        return [
            ScoreSample(query_id=f"q{i}", score=s, correct=c, strategy=Scoring.MIN)
            for i, (s, c) in enumerate(
                [(0.99, True), (0.97, True), (0.95, False), (0.90, True), (0.40, False)]
            )
        ]

    def test_tau_below_every_score(self):
        points = sweep_threshold(
            self.samples(), [0.1], CostSummary(0.1, 0.5, 10.0), beta=0.8, fallback_accuracy=0.9
        )
        assert points[0].acceptance_rate == 1.0

    def test_tau_above_every_score(self):
        points = sweep_threshold(
            self.samples(), [0.999], CostSummary(0.1, 0.5, 10.0), beta=0.8, fallback_accuracy=0.9
        )
        assert points[0].acceptance_rate == 0.0
        assert points[0].accuracy == pytest.approx(0.9, abs=1e-12)
        assert points[0].analytic_speedup == 1.0

    def test_full_bypass_point_reports_inf_speedup(self):
        points = sweep_threshold(self.samples(), [0.1], CostSummary(0.1, 0.5, 10.0), beta=1.0, fallback_accuracy=0.9)
        assert points[0].acceptance_rate == 1.0 and points[0].analytic_speedup == math.inf

    def test_acceptance_non_increasing(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 400)
        collection = collect_scores(queries, gate_config, backend)
        taus = default_tau_grid([s.score for s in collection.samples], 33)
        points = sweep_threshold(
            collection.samples, taus, CostSummary(0.05, 0.25, 5.0), collection.beta_hat, 0.9
        )
        assert len(points) == 33
        acceptance = [p.acceptance_rate for p in points]
        speedups = [p.analytic_speedup for p in points]
        assert all(b <= a for a, b in zip(acceptance, acceptance[1:]))
        assert all(b <= a for a, b in zip(speedups, speedups[1:]))

    def test_unsorted_taus_rejected(self):
        with pytest.raises(ValidationError):
            sweep_threshold(self.samples(), [0.9, 0.1], CostSummary(0.1, 0.5, 10.0), 0.8, 0.9)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValidationError):
            sweep_threshold([], [0.5], CostSummary(0.1, 0.5, 10.0), 0.8, 0.9)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: default_tau_grid([0.2, 0.8], n_taus=math.nan),
            lambda: union_bound_report([(0.2, 0.5), (0.9,)], [False, True], n_bins=math.nan),
        ],
        ids=["n_taus", "n_bins"],
    )
    def test_nan_count_rejected(self, call):
        # NaN passed the old `< 1` tests and failed later as a TypeError
        with pytest.raises(ValidationError, match=r"must lie in \[1, inf\)"):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda s: kde([0.2, 0.5, 0.7], bandwidth=math.nan), "bandwidth"),
            (lambda s: kde([0.2, 0.5, 0.7], bandwidth=math.inf), "bandwidth"),
            (lambda s: kde([0.2, 0.5, 0.7], bandwidth=-1.0), "bandwidth"),
            (lambda s: kde([0.2, 0.5, 0.7], bandwidth="nan"), "bandwidth"),
            (lambda s: kde([math.nan, 0.5, 0.6]), r"scores\.max"),
            (lambda s: kde([0.5, math.inf, 0.6]), r"scores\.max"),
            (lambda s: kde([0.5, -math.inf, 0.6]), r"scores\.min"),
            (lambda s: kde([0.5, 1e308, 0.6]), r"scores\.max"),
            (lambda s: kde([0.5, -1e308, 0.6]), r"scores\.min"),
            (lambda s: peak_distance([0.8, 0.9, 0.95], [0.1, 0.3, 0.4], math.nan), "bandwidth"),
            (lambda s: sweep_threshold(s, [math.nan], CostSummary(0.1, 0.5, 10.0), 0.8, 0.9), r"taus\[0\]"),
            (lambda s: choose_threshold(sweep_threshold(s, [0.5], CostSummary(0.1, 0.5, 10.0), 0.8, 0.9), math.nan),
             "baseline_accuracy"),
        ],
        ids=[
            "kde-nan", "kde-inf", "kde-negative", "kde-nan-string", "kde-nan-score", "kde-inf-score",
            "kde-minus-inf-score", "kde-1e308-score", "kde-minus-1e308-score", "peak_distance-nan", "sweep-nan-tau",
            "choose-nan-baseline",
        ],
    )
    def test_non_finite_argument_rejected(self, call, name):
        # each returned a NaN, all-zero or silently flagged result, blamed a
        # collapsed bandwidth, or raised a RuntimeWarning on an overflow
        with pytest.raises(ValidationError, match=rf"^{name} must lie in "):
            call(self.samples())

    @pytest.mark.parametrize(
        "call",
        [
            lambda backend: collect_scores([], GateConfig(tau=0.9), backend),
            lambda backend: collect_score_sets(make_workload(SyntheticConfig(seed=1), 2), (), backend),
            lambda backend: default_tau_grid([]),
            lambda backend: choose_threshold([], 0.9),
        ],
        ids=["no-queries", "no-gate-configs", "no-scores", "no-operating-points"],
    )
    def test_empty_input_rejected(self, call, backend):
        with pytest.raises(ValidationError, match="need at least one"):
            call(backend)


class TestChooseThreshold:
    def test_prefers_fastest_safe_point(self):
        points = [
            OperatingPoint(tau=0.94, acceptance_rate=0.9, accuracy=0.90, analytic_speedup=2.1, expected_latency_s=2.0),
            OperatingPoint(tau=0.97, acceptance_rate=0.5, accuracy=0.92, analytic_speedup=1.5, expected_latency_s=4.0),
        ]
        choice = choose_threshold(points, baseline_accuracy=0.91)
        assert choice.point.tau == 0.97
        assert not choice.no_safe_point

    def test_no_safe_point_returns_max_accuracy(self):
        points = [
            OperatingPoint(tau=0.5, acceptance_rate=0.9, accuracy=0.70, analytic_speedup=2.5, expected_latency_s=2.0),
            OperatingPoint(tau=0.9, acceptance_rate=0.2, accuracy=0.80, analytic_speedup=1.2, expected_latency_s=4.0),
        ]
        choice = choose_threshold(points, baseline_accuracy=0.95)
        assert choice.no_safe_point
        assert choice.point.accuracy == 0.80

    def test_singleton(self):
        only = OperatingPoint(tau=0.9, acceptance_rate=0.4, accuracy=0.95, analytic_speedup=1.4, expected_latency_s=3.0)
        choice = choose_threshold([only], baseline_accuracy=0.9)
        assert choice.point is only and not choice.no_safe_point


class TestMinStrategyExactSet:
    def test_accepted_set_equals_brute_force_filter(self, synthetic_config):
        from oracles import logit, token_separability

        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 200)
        tau = 0.93
        config = GateConfig(tau=tau, aggregation=Scoring.MIN)
        accepted_by_gate = set()
        accepted_by_filter = set()
        threshold = logit(tau)
        for query in queries:
            if backend.judge(query).g == 1:
                continue
            draft = backend.speculate(query)
            from spec_funnel.gate import gate as run_gate

            if run_gate(draft.token_logits, config).accepted:
                accepted_by_gate.add(query.id)
            raw = [token_separability(t, config.k, config.epsilon) for t in draft.token_logits]
            if all(s >= threshold for s in raw):
                accepted_by_filter.add(query.id)
        assert accepted_by_gate == accepted_by_filter


class TestClosedLoopConsistency:
    def test_chosen_threshold_prediction_matches_run(self):
        # the sweep's predicted accuracy at the chosen threshold must agree
        # with an actual pipeline run at that threshold to within Monte Carlo
        # noise (the accepted set is identical by construction; only the
        # fallback pool's realized accuracy varies)
        config = SyntheticConfig(seed=20260813)
        backend = SyntheticBackend(config)
        queries = make_workload(config, 10_000)
        gate_config = GateConfig(tau=0.9)
        collection = collect_scores(queries, gate_config, backend)

        agentic = [backend.agentic_run(q) for q in queries]
        fallback_accuracy = float(
            np.mean([a.answer == q.ground_truth for a, q in zip(agentic, queries)])
        )
        costs = CostSummary(
            collection.mean_judge_s,
            collection.mean_speculate_s,
            float(np.mean([a.latency_s for a in agentic])),
        )
        taus = default_tau_grid([s.score for s in collection.samples], 33)
        points = sweep_threshold(
            collection.samples, taus, costs, collection.beta_hat, fallback_accuracy
        )
        choice = choose_threshold(points, fallback_accuracy)

        tuned = GateConfig(tau=choice.point.tau, aggregation=gate_config.aggregation)
        outcomes = [process_query(q, tuned, backend) for q in queries]
        observed = float(np.mean([o.correct for o in outcomes]))
        assert abs(observed - choice.point.accuracy) <= 0.01

        accepted = sum(1 for o in outcomes if o.path is QueryPath.SPECULATION_ACCEPTED)
        predicted_accepted = choice.point.acceptance_rate * len(collection.samples)
        assert accepted == round(predicted_accepted)


class TestUnionBoundReport:
    def test_report_shape_and_bounds(self, synthetic_config, gate_config):
        backend = SyntheticBackend(synthetic_config)
        queries = make_workload(synthetic_config, 300)
        collection = collect_scores(queries, gate_config, backend)
        report = union_bound_report(collection.token_scores, [s.correct for s in collection.samples])
        assert len(report.bins) == 10
        assert sum(n for (_, _, n, _) in report.bins) == sum(len(t) for t in collection.token_scores)
        assert 0.0 <= report.observed_error_rate <= 1.0
        assert report.union_bound_mean >= 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        answers=st.lists(
            st.tuples(
                st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=5),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        ),
        n_bins=st.integers(1, 12),
    )
    def test_matches_per_answer_loop(self, answers, n_bins):
        token_scores = [tuple(ts) for ts, _ in answers]
        correct = [ok for _, ok in answers]
        report = union_bound_report(token_scores, correct, n_bins)
        assert report.union_bound_mean == per_answer_union_bound(token_scores, correct, n_bins)

    def test_validation(self):
        with pytest.raises(ValidationError):
            union_bound_report([], [])
        with pytest.raises(ValidationError):
            union_bound_report([(1.0,)], [True, False])

    def test_answers_without_tokens_are_degenerate(self):
        with pytest.raises(DegenerateDistribution, match="no answer has a token score"):
            union_bound_report([(), ()], [True, False])


def per_answer_union_bound(token_scores, correct, n_bins):
    """The union bound's mean, each answer's tokens binned on their own."""
    flat = np.array([s for ts in token_scores for s in ts])
    labels = np.array([not ok for ts, ok in zip(token_scores, correct) for _ in ts], dtype=bool)
    lo, hi = float(flat.min()), float(flat.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, flat, side="right") - 1, 0, n_bins - 1)
    rates = np.zeros(n_bins)
    for b in range(n_bins):
        mask = idx == b
        rates[b] = float(labels[mask].mean()) if mask.any() else 0.0
    per_answer = []
    for ts in token_scores:
        token_idx = np.clip(np.searchsorted(edges, np.asarray(ts), side="right") - 1, 0, n_bins - 1)
        per_answer.append(float(np.minimum(rates[token_idx].sum(), 1.0)))
    return float(np.mean(per_answer))

#!/usr/bin/env python3
"""Compare gating strategies on one synthetic workload: peak distance of the
correct/incorrect score densities and the chosen operating point per mode.

Example:
    python scripts/calibration_demo.py --n 2000 --seed 3
"""

import argparse
from dataclasses import replace

import numpy as np

from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.calibration import (
    CostSummary,
    choose_threshold,
    collect_scores,
    default_tau_grid,
    peak_distance,
    sweep_threshold,
)
from spec_funnel.errors import DegenerateDistribution
from spec_funnel.gate import GateConfig, Scoring
from spec_funnel.pipeline import answers_match


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    config = SyntheticConfig(seed=args.seed)
    backend = SyntheticBackend(config)
    queries = make_workload(config, args.n)

    agentic = [backend.agentic_run(q) for q in queries]
    fallback_accuracy = float(
        np.mean([answers_match(a.answer, q.ground_truth) for a, q in zip(agentic, queries)])
    )
    agentic_mean_s = float(np.mean([a.latency_s for a in agentic]))
    print(f"agentic baseline accuracy {fallback_accuracy:.4f}, mean latency {agentic_mean_s:.2f}s")
    print("strategy,delta_peak,chosen_tau,acceptance,predicted_accuracy,analytic_speedup")

    base_gate = GateConfig(tau=0.9)
    for strategy in (Scoring.LOG_CONF, Scoring.MEAN, Scoring.BOTTOM_R, Scoring.MIN):
        gate_config = replace(base_gate, aggregation=strategy)
        collection = collect_scores(queries, gate_config, backend)
        correct = [s.score for s in collection.samples if s.correct]
        incorrect = [s.score for s in collection.samples if not s.correct]
        try:
            delta = f"{peak_distance(correct, incorrect):.4f}"
        except DegenerateDistribution:
            delta = "degenerate"
        costs = CostSummary(collection.mean_judge_s, collection.mean_speculate_s, agentic_mean_s)
        taus = default_tau_grid([s.score for s in collection.samples], 33)
        points = sweep_threshold(collection.samples, taus, costs, collection.beta_hat, fallback_accuracy)
        choice = choose_threshold(points, fallback_accuracy)
        point = choice.point
        flag = " (no safe point)" if choice.no_safe_point else ""
        print(
            f"{strategy.value},{delta},{point.tau:.4f},{point.acceptance_rate:.3f},"
            f"{point.accuracy:.4f},{point.analytic_speedup:.3f}{flag}"
        )


if __name__ == "__main__":
    main()

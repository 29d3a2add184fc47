"""Command-line front door: run / calibrate / ablate / report / replay.

Every command but report is a function from the resolved config and the
parsed arguments to `(files, closing line)`. `files` maps a file name to
its content: `(header, rows)` for a .csv file, an iterable of records for a
.jsonl file, one document for a .json file. One runner, `_write_run`,
creates the --out directory before the command runs, writes each file by
its suffix, adds a `manifest.json` whose `outputs` are those names, and
prints the closing line; a command that fails writes no data file. Data
files are byte-reproducible from (config, seed) in simulated mode, while the
manifest also carries wall-clock timestamps. One table maps each
SpecFunnelError to an exit code and a stderr label, for report as well.
"""

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import calibration as cal
from .backends import remote
from .backends.base import Query, real
from .backends.remote import ENDPOINT_ENV_VAR, RemoteBackend
from .backends.synthetic import (
    SyntheticBackend,
    make_quota_workload,
    make_workload,
    validate_quota_gate,
)
from .config import RunConfig, load_config
from .errors import (
    BackendUnavailable,
    ConfigError,
    DegenerateDistribution,
    SpecFunnelError,
    ValidationError,
)
from .funnel import serve_batch
from .gate import Scoring, gate
from .pipeline import QueryPath, _draft, _fallback, answers_match, expected_latency
from .recordio import (
    ABLATE_AGGREGATION_HEADER,
    ABLATE_BATCH_HEADER,
    ABLATE_TOPK_HEADER,
    KDE_HEADER,
    OPERATING_POINTS_HEADER,
    REPLAY_HEADER,
    SCORES_HEADER,
    SUMMARY_HEADER,
    UNION_BOUND_HEADER,
    outcome_from_dict,
    outcome_to_dict,
    read_jsonl,
    stats_from_dict,
    stats_to_dict,
    to_plain,
    write_csv,
    write_json,
    write_jsonl,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_DEGENERATE = 4

# error class -> (exit code, stderr label); an error takes the entry of the
# first class in its MRO that has one
_EXITS = {
    ConfigError: (EXIT_CONFIG, "config error"),
    ValidationError: (EXIT_CONFIG, "config error"),
    BackendUnavailable: (EXIT_BACKEND, "backend error"),
    DegenerateDistribution: (EXIT_DEGENERATE, "degenerate statistics"),
    SpecFunnelError: (EXIT_CONFIG, "error"),
}


def _build_backend(config: RunConfig, queries=()):
    if config.backend.kind == "synthetic":
        return SyntheticBackend(config.synthetic, queries)
    endpoint = config.backend.endpoint or os.environ.get(ENDPOINT_ENV_VAR)
    if not endpoint:
        raise ConfigError(
            f"remote backend needs an endpoint (--endpoint, config, or {ENDPOINT_ENV_VAR})",
            field="backend.endpoint",
        )
    return RemoteBackend(
        endpoint,
        top_logprobs=config.backend.top_logprobs,
        max_steps=config.synthetic.depth_cap,
        timeout_s=config.backend.timeout_s,
        judge_prompt=config.backend.judge_prompt,
        exchange_log=config.backend.exchange_log,
    )


@contextmanager
def _backend(config: RunConfig, queries=()):
    """The configured backend, told the `queries` it will be asked about; a
    remote one's connections are closed when the command ends."""
    backend = _build_backend(config, queries)
    try:
        yield backend
    finally:
        if isinstance(backend, RemoteBackend):
            backend.close()


def _build_workload(config: RunConfig, n_queries=None):
    n = n_queries if n_queries is not None else config.workload.n_queries
    quota = config.workload.quota
    if quota is not None:
        try:
            validate_quota_gate(config.synthetic, config.gate)
        except ValidationError as exc:
            raise ConfigError(str(exc), field="workload.quota") from exc
        return make_quota_workload(config.synthetic, n, quota.beta, quota.alpha)
    return make_workload(config.synthetic, n)


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def _accuracy(outcomes):
    labeled = [o.correct for o in outcomes if o.correct is not None]
    return float(np.mean(labeled)) if labeled else None


def _empirical_costs(outcomes) -> cal.CostSummary:
    judge = [o.latency.judge_s for o in outcomes]
    speculate = [
        o.latency.speculate_s
        for o in outcomes
        if o.path is not QueryPath.TOOL_REQUIRED_FALLBACK
    ]
    agentic = [
        o.latency.agentic_s
        for o in outcomes
        if o.path is not QueryPath.SPECULATION_ACCEPTED and o.error is None
    ]
    return cal.CostSummary(
        judge_s=_mean(judge), speculate_s=_mean(speculate), agentic_mean_s=_mean(agentic)
    )


def _summary_row(outcomes, stats):
    costs = _empirical_costs(outcomes)
    return [
        stats.batch_size,
        _accuracy(outcomes),
        stats.beta_hat,
        stats.alpha_hat,
        stats.n_accepted,
        stats.n_residual,
        stats.frontend_makespan_s,
        stats.fallback_makespan_s,
        stats.batch_makespan_s,
        stats.baseline_makespan_s,
        stats.throughput_qps,
        stats.speedup,
        cal.analytic_speedup(stats.beta_hat, stats.alpha_hat),
        _mean([o.total_latency_s for o in outcomes]),
        expected_latency(
            stats.beta_hat, stats.alpha_hat, costs.judge_s, costs.speculate_s, costs.agentic_mean_s
        ),
    ]


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def cmd_run(config: RunConfig, args) -> tuple[dict, str]:
    workload = _build_workload(config)
    with _backend(config, workload) as backend:
        outcomes, stats = serve_batch(workload, config.gate if config.bypass else None, config.schedule, backend)
    if all(o.error for o in outcomes):
        raise BackendUnavailable(f"every query failed; first error: {outcomes[0].error}")
    files = {
        "outcomes.jsonl": (outcome_to_dict(o) for o in outcomes),
        "funnel_stats.json": stats_to_dict(stats),
        "summary.csv": (SUMMARY_HEADER, [_summary_row(outcomes, stats)]),
    }
    accuracy = _accuracy(outcomes)
    return files, (
        f"run: {stats.batch_size} queries, beta_hat={stats.beta_hat:.3f}, "
        f"alpha_hat={stats.alpha_hat:.3f}, "
        f"accuracy={'-' if accuracy is None else f'{accuracy:.4f}'}, "
        f"speedup={'-' if stats.speedup is None else f'{stats.speedup:.3f}'}"
    )


def _agentic_reference(workload, backend):
    """Run the agentic loop once per query, as the baseline does: fallback
    accuracy, mean cost and the number of failed loops, which count in
    neither."""
    runs = [(query, *_fallback(backend.agentic_run, query)) for query in workload]
    done = [(query, answer, agentic_s) for query, answer, error, agentic_s in runs if error is None]
    if runs and not done:
        raise BackendUnavailable(f"every agentic run failed; first error: {runs[0][2]}")
    labeled = [answers_match(answer, q.ground_truth) for q, answer, _ in done if q.ground_truth is not None]
    accuracy = float(np.mean(labeled)) if labeled else 0.0
    return accuracy, _mean([agentic_s for _, _, agentic_s in done]), len(runs) - len(done)


def _warn_failed(command: str, n_failed: int) -> None:
    if n_failed:
        print(f"{command}: warning: {n_failed} backend calls failed and were left out", file=sys.stderr)


def _offline_sweep(command: str, config: RunConfig, gate_configs, taus):
    """Collect scores under each gate config and sweep each collection.

    One judge, one draft and one agentic call per query, whatever the number
    of configs. Each collection is swept at `taus`, or when that is None at
    an even grid over its own score range. Returns the collections, their
    operating points, the fallback accuracy and the mean costs.
    """
    workload = _build_workload(config)
    with _backend(config, workload) as backend:
        collections = cal.collect_score_sets(workload, gate_configs, backend)
        first = collections[0]
        if not first.samples:
            raise DegenerateDistribution("screening left no tool-free queries to score")
        fallback_accuracy, agentic_mean_s, n_agentic_failed = _agentic_reference(workload, backend)
    _warn_failed(command, first.n_failed + first.n_judge_failed + n_agentic_failed)
    costs = cal.CostSummary(first.mean_judge_s, first.mean_speculate_s, agentic_mean_s)
    sweeps = [
        cal.sweep_threshold(
            c.samples,
            taus or cal.default_tau_grid([s.score for s in c.samples], config.calibration.n_taus),
            costs,
            c.beta_hat,
            fallback_accuracy,
        )
        for c in collections
    ]
    return collections, sweeps, fallback_accuracy, costs


def _operating_point_rows(points):
    return [[p.tau, p.acceptance_rate, p.accuracy, p.analytic_speedup, p.expected_latency_s] for p in points]


def _by_label(samples):
    """The scores of the correct samples and of the incorrect ones."""
    return [s.score for s in samples if s.correct], [s.score for s in samples if not s.correct]


def cmd_calibrate(config: RunConfig, args) -> tuple[dict, str]:
    (collection,), (points,), fallback_accuracy, costs = _offline_sweep(
        "calibrate", config, [config.gate], config.calibration.taus
    )
    choice = cal.choose_threshold(points, fallback_accuracy)
    samples = collection.samples
    correct_scores, incorrect_scores = _by_label(samples)
    kde_correct, kde_incorrect, delta = cal.class_densities(
        correct_scores, incorrect_scores, config.calibration.bandwidth
    )
    mean_distance = None
    if correct_scores and incorrect_scores:
        mean_distance = abs(float(np.mean(correct_scores)) - float(np.mean(incorrect_scores)))
    report = cal.union_bound_report(collection.token_scores, [s.correct for s in samples])

    files = {
        "scores.csv": (SCORES_HEADER, [[s.query_id, s.score, s.correct, s.strategy.value] for s in samples]),
        "operating_points.csv": (OPERATING_POINTS_HEADER, _operating_point_rows(points)),
        "union_bound.csv": (UNION_BOUND_HEADER, report.bins),
    }
    for name, estimate in (("kde_correct.csv", kde_correct), ("kde_incorrect.csv", kde_incorrect)):
        if estimate is not None:
            files[name] = (KDE_HEADER, zip(estimate.grid, estimate.density))
    files["calibration.json"] = {
        "chosen_tau": choice.point.tau,
        "no_safe_point": choice.no_safe_point,
        "acceptance_rate": choice.point.acceptance_rate,
        "predicted_accuracy": choice.point.accuracy,
        "analytic_speedup": choice.point.analytic_speedup,
        "expected_latency_s": choice.point.expected_latency_s,
        "baseline_accuracy": fallback_accuracy,
        "fallback_accuracy": fallback_accuracy,
        "beta_hat": collection.beta_hat,
        "n_samples": len(samples),
        "n_tool_required": collection.n_tool_required,
        "strategy": config.gate.aggregation.value,
        "delta_peak": delta,
        "delta_mean": mean_distance,
        "costs": to_plain(costs),
        "union_bound_mean": report.union_bound_mean,
        "observed_error_rate": report.observed_error_rate,
        "union_bound_monotone": report.monotone_decreasing,
        "config_digest": config.digest(),
    }
    return files, (
        f"calibrate: {len(samples)} samples, chosen tau={choice.point.tau:.4f}, "
        f"predicted accuracy={choice.point.accuracy:.4f}, "
        f"delta={'-' if delta is None else f'{delta:.3f}'}"
        + (" [no safe point]" if choice.no_safe_point else "")
    )


def _ablate_threshold(config) -> list:
    _, (points,), _, _ = _offline_sweep("ablate threshold", config, [config.gate], config.ablation.thresholds)
    return _operating_point_rows(points)


def _ablate_batch_size(config) -> list:
    rows = []
    with _backend(config) as backend:
        for batch_size in config.ablation.batch_sizes:
            workload = _build_workload(config, n_queries=batch_size)
            schedule = replace(config.schedule, frontend_workers=batch_size)
            outcomes, stats = serve_batch(workload, config.gate, schedule, backend)
            analytic = cal.analytic_speedup(stats.beta_hat, stats.alpha_hat)
            makespans = [stats.batch_makespan_s, stats.baseline_makespan_s]
            rows.append([batch_size, _accuracy(outcomes), stats.speedup, analytic, *makespans])
    return rows


def _ablate_top_k(config) -> list:
    top_k = config.ablation.top_k
    _, sweeps, _, _ = _offline_sweep(
        "ablate top_k", config, [replace(config.gate, k=k) for k in top_k], [config.gate.tau]
    )
    return [[k, p.acceptance_rate, p.accuracy, p.analytic_speedup] for k, (p,) in zip(top_k, sweeps)]


def _ablate_aggregation(config) -> list:
    """The chosen operating point of each scoring strategy, each swept over
    its own default tau grid."""
    collections, sweeps, fallback_accuracy, _ = _offline_sweep(
        "ablate aggregation", config, [replace(config.gate, aggregation=s) for s in Scoring], None
    )
    rows = []
    for strategy, collection, points in zip(Scoring, collections, sweeps):
        choice = cal.choose_threshold(points, fallback_accuracy)
        p = choice.point
        *_, delta = cal.class_densities(*_by_label(collection.samples), config.calibration.bandwidth)
        rows.append(
            [strategy.value, delta, p.tau, p.acceptance_rate, p.accuracy, p.analytic_speedup, choice.no_safe_point]
        )
    return rows


# axis -> (row builder, CSV header, what one row stands for)
_ABLATE_AXES = {
    "threshold": (_ablate_threshold, OPERATING_POINTS_HEADER, "operating points"),
    "batch_size": (_ablate_batch_size, ABLATE_BATCH_HEADER, "batch sizes"),
    "top_k": (_ablate_top_k, ABLATE_TOPK_HEADER, "window sizes"),
    "aggregation": (_ablate_aggregation, ABLATE_AGGREGATION_HEADER, "scoring strategies"),
}


def cmd_ablate(config: RunConfig, args) -> tuple[dict, str]:
    build_rows, header, unit = _ABLATE_AXES[args.axis]
    rows = build_rows(config)
    name = f"ablate_{args.axis}.csv"
    return {name: (header, rows)}, f"ablate {args.axis}: {len(rows)} {unit} -> {Path(args.out) / name}"


def cmd_report(run_dir: str) -> int:
    directory = Path(run_dir)
    outcomes_path = directory / "outcomes.jsonl"
    stats_path = directory / "funnel_stats.json"
    if not outcomes_path.exists():
        raise ConfigError(f"no outcomes.jsonl under {run_dir}")
    stats = None
    reading = outcomes_path
    try:
        outcomes = [outcome_from_dict(r) for r in read_jsonl(outcomes_path)]
        reading = stats_path
        if stats_path.exists():
            stats = stats_from_dict(json.loads(stats_path.read_text(encoding="utf-8")))
    except (OSError, ValueError, RecursionError, ConfigError) as exc:
        raise ConfigError(f"unreadable record in {reading}: {exc}") from exc
    if not outcomes:
        raise ConfigError(f"no outcome records in {outcomes_path}")
    by_path = Counter(o.path.value for o in outcomes)
    labeled = [o.correct for o in outcomes if o.correct is not None]
    print(f"queries: {len(outcomes)}")
    for name in sorted(by_path):
        print(f"  {name}: {by_path[name]}")
    if labeled:
        print(f"accuracy: {sum(labeled) / len(labeled):.4f}")
    print(f"mean latency_s: {sum(o.total_latency_s for o in outcomes) / len(outcomes):.4f}")
    if stats is not None:
        print(
            f"beta_hat={stats.beta_hat:.4f} alpha_hat={stats.alpha_hat:.4f} "
            f"batch_makespan_s={stats.batch_makespan_s:.4f} "
            f"speedup={stats.speedup if stats.speedup is not None else '-'}"
        )
    return EXIT_OK


def cmd_replay(config: RunConfig, args) -> tuple[dict, str]:
    def score(logits):
        decision = gate(logits, config.gate)
        return len(logits), decision.score, decision.verdict.value

    top_logprobs = config.backend.top_logprobs
    drafts = {}  # by id: the last entry counts
    # both remote names are looked up on the module, where perfbench's tracer wraps them
    for entry in remote.iter_exchanges(args.log):
        if entry["route"] == "/speculate":
            query = Query(id=entry["request"]["id"])
            # the logged response stands in for the route, which _draft calls at once
            drafts[query.id] = _draft(
                lambda _: remote.parse_speculate_response(entry["response"], top_logprobs), query, score
            )
    if not drafts:
        raise ValidationError(f"no /speculate exchanges found in {args.log}")
    rows = [[qid, answer, *scored] for qid, (answer, scored, _) in sorted(drafts.items()) if scored is not None]
    if not rows:
        raise BackendUnavailable(f"the parser rejected every /speculate response in {args.log}")
    _warn_failed("replay", len(drafts) - len(rows))
    name = "replay_scores.csv"
    return {name: (REPLAY_HEADER, rows)}, f"replay: {len(rows)} speculations rescored -> {Path(args.out) / name}"


def _write_run(config: RunConfig, args) -> int:
    """Run one command into --out: write its files by suffix, then the
    manifest, then print its closing line."""
    started = _now()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, closing = args.produce(config, args)
    for name, content in files.items():
        path = out_dir / name
        if name.endswith(".csv"):
            write_csv(path, *content)
        elif name.endswith(".jsonl"):
            write_jsonl(path, content)
        else:
            write_json(path, content)
    command = f"ablate-{args.axis}" if args.command == "ablate" else args.command
    manifest = {
        "run_id": f"{command}-{config.seed}-{config.digest()[:12]}",
        "config_digest": config.digest(),
        "seed": config.seed,
        "command": command,
        "outputs": sorted(files),
        "started_utc": started,
        "finished_utc": _now(),
    }
    write_json(out_dir / "manifest.json", manifest)
    print(closing)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, produce) -> None:
    parser.set_defaults(produce=produce)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the top-level seed")
    parser.add_argument("--endpoint", help=f"remote endpoint URL (or {ENDPOINT_ENV_VAR})")
    parser.add_argument("--out", default="runs/latest", help="output directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="PATH=VALUE",
        help="override a config field, e.g. --set gate.tau=0.97",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spec-funnel",
        description="Speculative agentic-routing engine and batch-funnel serving simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="serve a batch and write outcome records")
    _add_common(run, cmd_run)
    run.add_argument("--bypass", choices=("on", "off"), default=None, help="disable to run the pure agentic baseline")
    run.add_argument("--calibration", help="calibration.json whose chosen tau overrides gate.tau")

    calibrate = sub.add_parser("calibrate", help="collect scores and pick a threshold")
    _add_common(calibrate, cmd_calibrate)

    ablate = sub.add_parser("ablate", help="sweep one hyperparameter axis")
    _add_common(ablate, cmd_ablate)
    ablate.add_argument("--axis", choices=tuple(_ABLATE_AXES), required=True)

    report = sub.add_parser("report", help="summarize a finished run directory")
    report.add_argument("run_dir")

    replay = sub.add_parser("replay", help="rescore speculations from an exchange log")
    _add_common(replay, cmd_replay)
    replay.add_argument("log", help="line-delimited JSON exchange log")

    return parser


def _config_from_args(args) -> RunConfig:
    """The resolved config. Each dedicated flag given is an override applied
    after every --set, so the flags win."""
    flags = [("seed", args.seed)]
    if getattr(args, "bypass", None) is not None:
        flags.append(("bypass", args.bypass == "on"))
    if args.endpoint is not None:
        flags += [("backend.endpoint", args.endpoint), ("backend.kind", "remote")]
    overrides = args.overrides + [f"{path}={json.dumps(value)}" for path, value in flags if value is not None]
    config = load_config(args.config, overrides)
    calibration_path = getattr(args, "calibration", None)
    if calibration_path:
        try:
            artifact = json.loads(Path(calibration_path).read_text(encoding="utf-8"))
            config = replace(config, gate=replace(config.gate, tau=float(real(artifact["chosen_tau"]))))
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ConfigError(f"unusable calibration artifact: {exc}", field="--calibration") from exc
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.run_dir)
        return _write_run(_config_from_args(args), args)
    except SpecFunnelError as exc:
        code, label = next(_EXITS[c] for c in type(exc).__mro__ if c in _EXITS)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""The speculate stage gates its drafts _DRAFT_BLOCK at a time: no more than
one block of token logits is alive when a draft is requested, in `run`,
the offline score collection and `replay`, and a failed draft stays that
query's own fallback wherever it falls in a block."""

import importlib.util
import weakref
from pathlib import Path

import pytest

from spec_funnel import cli
from spec_funnel.backends import remote
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.calibration import collect_score_sets
from spec_funnel.errors import BackendUnavailable
from spec_funnel.funnel import (
    ScheduleConfig,
    _baseline_s,
    _build_stats,
    _list_schedule_makespan,
    serve_batch,
)
from spec_funnel.gate import GateConfig, Scoring
from spec_funnel.pipeline import _DRAFT_BLOCK, QueryPath, process_query, run_phases

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
N_QUERIES = 300
SEED = 5


class LiveLogits:
    """Counts, through weak references, the drafts' token logits still alive
    each time a new draft is requested."""

    def __init__(self):
        self.refs = []
        self.alive_at_call = []

    def before_call(self):
        self.alive_at_call.append(sum(ref() is not None for ref in self.refs))

    def track(self, draft):
        self.refs.append(weakref.ref(draft.token_logits))
        return draft


class CountingBackend:
    def __init__(self, inner, live):
        self.inner = inner
        self.live = live

    def judge(self, query):
        return self.inner.judge(query)

    def speculate(self, query):
        self.live.before_call()
        return self.live.track(self.inner.speculate(query))

    def agentic_run(self, query):
        return self.inner.agentic_run(query)


@pytest.fixture
def config():
    return SyntheticConfig(seed=SEED)


@pytest.fixture
def queries(config):
    return make_workload(config, N_QUERIES)


def _assert_bounded(live):
    assert len(live.alive_at_call) > 2 * _DRAFT_BLOCK  # the stage spans several blocks
    assert max(live.alive_at_call) <= _DRAFT_BLOCK


class TestBlocksAreBounded:
    def test_run_phases(self, config, queries):
        live = LiveLogits()
        run_phases(queries, GateConfig(), CountingBackend(SyntheticBackend(config, queries), live))
        _assert_bounded(live)

    def test_collect_score_sets(self, config, queries):
        live = LiveLogits()
        gates = [GateConfig(aggregation=mode) for mode in Scoring]
        collect_score_sets(queries, gates, CountingBackend(SyntheticBackend(config, queries), live))
        _assert_bounded(live)

    def test_replay(self, config, queries, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_exchange_log", PERFBENCH / "exchange_log.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        log = tmp_path / "exchanges.jsonl"
        with open(log, "w", encoding="utf-8") as fh:
            serve_batch(queries, GateConfig(), ScheduleConfig(), module.WireRecorder(SyntheticBackend(config), fh))
        live = LiveLogits()
        parse = remote.parse_speculate_response

        def counting_parse(body, top_logprobs):
            live.before_call()
            return live.track(parse(body, top_logprobs))

        monkeypatch.setattr(remote, "parse_speculate_response", counting_parse)
        assert cli.main(["replay", str(log), "--out", str(tmp_path / "replay"), "--seed", str(SEED)]) == 0
        _assert_bounded(live)


class FailingDrafts:
    """A synthetic backend whose speculate route fails on chosen query ids."""

    def __init__(self, inner, fail):
        self.inner = inner
        self.fail = fail

    def judge(self, query):
        return self.inner.judge(query)

    def speculate(self, query):
        if query.id in self.fail:
            raise BackendUnavailable(f"speculate down for {query.id}")
        return self.inner.speculate(query)

    def agentic_run(self, query):
        return self.inner.agentic_run(query)


def _served_alone(queries, gate_config, schedule, backend):
    """serve_batch's outcomes and stats, built from each query served alone
    through process_query, its stage costs scheduled as the batch's are."""
    alone = [process_query(q, gate_config, backend) for q in queries]
    toolfree = [o for o in alone if o.path is not QueryPath.TOOL_REQUIRED_FALLBACK]
    residual = [o for o in alone if o.path is not QueryPath.SPECULATION_ACCEPTED]
    stage_s = {
        "judge": _list_schedule_makespan([o.latency.judge_s for o in alone], schedule.frontend_workers),
        "speculate": _list_schedule_makespan([o.latency.speculate_s for o in toolfree], schedule.frontend_workers),
        "agentic": _list_schedule_makespan([o.latency.agentic_s for o in residual], schedule.agentic_workers),
    }
    stats = _build_stats(alone, stage_s, _baseline_s(queries, alone, schedule, backend))
    return sorted(alone, key=lambda o: o.query_id), stats


# positions in the speculate stage, which drafts the tool-free queries in input order
FAULTS = {
    "first": {0},
    "last of the first block": {_DRAFT_BLOCK - 1},
    "first of the second block": {_DRAFT_BLOCK},
    "three block edges": {0, _DRAFT_BLOCK - 1, _DRAFT_BLOCK},
    "the whole second block": set(range(_DRAFT_BLOCK, 2 * _DRAFT_BLOCK)),
}


@pytest.mark.parametrize("positions", FAULTS.values(), ids=FAULTS)
def test_failed_drafts_equal_each_query_served_alone(config, queries, positions):
    inner = SyntheticBackend(config, queries)
    toolfree = [q.id for q in queries if inner.judge(q).g == 0]
    assert len(toolfree) > 2 * _DRAFT_BLOCK
    backend = FailingDrafts(inner, {toolfree[p] for p in positions})
    gate_config, schedule = GateConfig(tau=0.9), ScheduleConfig()
    outcomes, stats = serve_batch(queries, gate_config, schedule, backend)
    assert (outcomes, stats) == _served_alone(queries, gate_config, schedule, backend)
    failed = [o for o in outcomes if o.query_id in backend.fail]
    assert len(failed) == len(positions)
    assert all(o.gate is None and o.path is QueryPath.SPECULATION_REJECTED_FALLBACK for o in failed)

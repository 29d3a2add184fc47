"""Bit-identity of the synthetic backend's random streams.

The literals below are first draws recorded from the original constructions
(substream via default_rng of the digest as an integer, sample_weighted via
Generator.choice, latents always drawn from the "latent" stream). Any change
to these functions must reproduce them exactly, since every synthetic output
byte derives from them. The batch form, lanes, and the workload builders
and backend that draw through it are held to substream, to seeded and to
the per-query workload loop state for state and draw for draw.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from spec_funnel.backends import base, synthetic
from spec_funnel.backends.base import Query, lanes, substream
from spec_funnel.backends.synthetic import (
    CHOICES,
    SyntheticBackend,
    SyntheticConfig,
    agentic_step_stream,
    make_quota_workload,
    make_workload,
    sample_weighted,
)
from spec_funnel.errors import ValidationError
from spec_funnel.funnel import ScheduleConfig, serve_batch
from spec_funnel.gate import GateConfig


class TestSubstreamBits:
    @pytest.mark.parametrize(
        "keys, first_random, first_integer, first_bytes",
        [
            ((0, "q000000", "latent"), 0.3895564787100759, 5258342054553525816, "894bb3ad1dcc960b"),
            ((7, "q000123", "speculate"), 0.10952422060681888, 5534346981507769783, "1a70fa1d7784f6d5"),
            (
                (0, "q000001", "agentic", 3, "9f2c0a1b3d4e5f60"),
                0.5577184382151898,
                6476466023871750558,
                "88d6ab9666cb50fb",
            ),
            (
                (101, "q000042", "agentic", 0, "s0:q000042"),
                0.19528521728163095,
                1383705684088856113,
                "3b5d24fe2207083b",
            ),
            ((2**40, "x"), 0.576786933026715, 7691234553233341342, "c7cbf8f169d0e317"),
        ],
    )
    def test_recorded_first_draws(self, keys, first_random, first_integer, first_bytes):
        rng = substream(*keys)
        assert rng.random() == first_random
        assert int(rng.integers(2**63)) == first_integer
        assert rng.bytes(8).hex() == first_bytes

    def test_matches_integer_seeded_default_rng(self):
        for i in range(500):
            keys = (i % 7, f"q{i:06d}", "agentic", i % 5, f"{i * 2654435761:x}")
            material = "\x1f".join(str(k) for k in keys).encode()
            seed = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
            expected = np.random.default_rng(seed).random(3)
            assert np.array_equal(substream(*keys).random(3), expected)


class TestAgenticObservationBits:
    def test_raw_draw_equals_bytes_after_one_uniform(self):
        # agentic_run's tool step draws one uniform, then its observation
        for i in range(1000):
            keys = (i % 7, f"q{i:06d}", i % 5, f"{i * 2654435761:x}")
            ours, oracle = agentic_step_stream(*keys), agentic_step_stream(*keys)
            assert ours.uniform(0.4, 0.9) == oracle.uniform(0.4, 0.9)
            assert ours.bit_generator.random_raw().to_bytes(8, "little").hex() == oracle.bytes(8).hex()
            assert ours.random() == oracle.random()  # same stream position afterwards


def _choice_oracle(rng, weights):
    values = sorted(weights)
    probs = np.array([float(weights[v]) for v in values], dtype=np.float64)
    return int(rng.choice(values, p=probs / probs.sum()))


class TestSampleWeightedBits:
    @pytest.mark.parametrize(
        "weights",
        [
            SyntheticConfig().depth_weights,
            SyntheticConfig().answer_len_weights,
            {4: 7.0, 1: 3.0, 2: 1.5},
            {0: 0.0, 1: 2.0, 2: 0.0, 3: 1.0, 5: 0.0},
        ],
        ids=["depth", "answer_len", "unnormalised", "zero_weight_keys"],
    )
    def test_matches_generator_choice(self, weights):
        seen = set()
        for seed in range(10_000):
            ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = sample_weighted(ours.random(), weights)
            assert drawn == _choice_oracle(oracle, weights)
            assert ours.random() == oracle.random()  # same stream position afterwards
            seen.add(drawn)
        assert seen == {k for k, w in weights.items() if w > 0.0}

    @pytest.mark.parametrize("weights", [{1: -1.0, 2: 2.0}, {1: 0.0, 2: 0.0}])
    def test_invalid_table_rejected(self, weights):
        with pytest.raises(ValidationError):
            sample_weighted(0.5, weights)


class TestLatents:
    @pytest.fixture
    def opened(self, monkeypatch):
        keys = []
        real = synthetic.substream

        def spy(seed, *path):
            keys.append(path)
            return real(seed, *path)

        monkeypatch.setattr(synthetic, "substream", spy)
        return keys

    def test_fully_pinned_query_opens_no_latent_stream(self, opened):
        backend = SyntheticBackend(SyntheticConfig(seed=101))
        query = Query(id="q000014", ground_truth="A", true_requires_tools=False, true_depth=3)
        assert backend._latents(query) == (False, 3)
        backend.judge(query)
        backend.speculate(query)
        backend.agentic_run(query)
        assert opened and not any("latent" in path for path in opened)

    @pytest.mark.parametrize(
        "query, expected",
        [
            (Query(id="q000014"), (True, 4)),
            (Query(id="q000014", true_requires_tools=False), (False, 4)),
            (Query(id="q000014", true_depth=0), (True, 0)),
            (Query(id="q000018"), (True, 5)),
            (Query(id="q000009", true_depth=2), (False, 2)),
            (Query(id="q000008", true_requires_tools=True), (True, 2)),
        ],
    )
    def test_partially_pinned_and_unpinned_recorded(self, opened, query, expected):
        backend = SyntheticBackend(SyntheticConfig(seed=101))
        assert backend._latents(query) == expected
        assert opened == [(query.id, "latent")]


class TestSeedSequencePort:
    def test_pool_and_state_match_seed_sequence(self):
        entropy = np.random.default_rng(11).integers(0, 2**32, size=(2000, 4), dtype=np.uint32)
        entropy[0] = 0
        entropy[1] = 0xFFFFFFFF
        pool = base._pool(entropy)
        states = base._seed_states(pool)
        assert (pool.dtype, states.dtype) == (np.uint32, np.uint64)
        for words, row_pool, row_state in zip(entropy, pool, states):
            seq = SeedSequence(words)
            assert np.array_equal(row_pool, seq.pool)
            assert np.array_equal(row_state, seq.generate_state(4, np.uint64))


def _key_paths(count, rng):
    """Random key paths of 0 to 4 keys: ints, query-like ids and non-ASCII
    text, the key separator included."""
    letters = list("xq0äβ字🙂\x1f ")
    paths = []
    for _ in range(count):
        keys = []
        for _ in range(int(rng.integers(0, 5))):
            kind = int(rng.integers(3))
            if kind == 0:
                keys.append(int(rng.integers(-(10**12), 10**12)))
            elif kind == 1:
                keys.append(f"q{int(rng.integers(10**6)):06d}")
            else:
                keys.append("".join(rng.choice(letters, size=int(rng.integers(0, 6)))))
        paths.append(tuple(keys))
    return paths


def _lane_states(streams):
    """Each stream's PCG64 (state, increment), as bit_generator.state gives them."""
    if isinstance(streams, base.Lanes):
        words = zip(streams.hi.tolist(), streams.lo.tolist(), streams.inc_hi.tolist(), streams.inc_lo.tolist())
        return [(hi << 64 | lo, inc_hi << 64 | inc_lo) for hi, lo, inc_hi, inc_lo in words]
    states = [rng.bit_generator.state["state"] for rng in streams]
    return [(state["state"], state["inc"]) for state in states]


def _substream_states(seed, paths):
    return _lane_states(base._Streams([substream(seed, *keys) for keys in paths]))


class TestSubstreamBatch:
    @pytest.mark.parametrize("seed", [0, 7, -3, 2**40, 2**70])
    def test_matches_substream_state_for_state(self, seed):
        paths = _key_paths(2000, np.random.default_rng(abs(seed) % 2**32))
        streams = lanes(seed, paths)
        assert isinstance(streams, base.Lanes)
        assert _lane_states(streams) == _substream_states(seed, paths)

    @pytest.mark.parametrize("offset", [-31, -1, 0, 1, 33])
    def test_either_side_of_the_short_list_cutoff(self, offset):
        # a list shorter than _BATCH_MIN is seeded path by path, a longer one
        # in one vectorized pass; Lanes steps any number of seed states
        count = base._BATCH_MIN + offset
        paths = _key_paths(count, np.random.default_rng(count))
        streams = lanes(5, paths)
        assert isinstance(streams, base.Lanes) == (offset >= 0)
        states = base.seed_states(5, paths)
        assert len(states) == count
        expected = _substream_states(5, paths)
        assert _lane_states(streams) == _lane_states(base.Lanes(states)) == expected
        assert [base.seeded(state).bit_generator.state["state"]["state"] for state in states] == [
            state for state, _ in expected
        ]

    def test_empty_batch(self):
        assert lanes(0, []).random() == lanes(0, []).next64() == []
        assert base.seed_states(0, []).shape == (0, 4)
        assert base.Lanes(base.seed_states(0, [])).random() == []

    def test_batch_of_one(self):
        # TestSubstreamBits' recorded first draw, on every path to the stream
        assert lanes(7, [("q000123", "speculate")]).random() == [0.10952422060681888]
        (state,) = base.seed_states(7, [("q000123", "speculate")])
        assert base.Lanes(state[None]).random() == [0.10952422060681888]
        seeded = base.seeded(state)
        assert seeded.random() == 0.10952422060681888
        with pytest.raises(ValueError):  # the seed holds PCG64's four words, nothing else
            seeded.bit_generator.seed_seq.generate_state(8)


# words of 0 and 2**64 - 1 make every add and product carry, or none
_words = st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)


def _integers4(rng):
    """rng.integers(4) from a copy of rng, leaving rng where it is."""
    copy = np.random.Generator(np.random.PCG64())
    copy.bit_generator.state = rng.bit_generator.state
    return int(copy.integers(4))


class TestLanes:
    """Lanes, stepped in uint64 arrays, draw what a Generator on the same
    seed state draws, call for call."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(_words, _words, _words, _words), min_size=1, max_size=2 * base._BATCH_MIN + 2),
        calls=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    def test_match_seeded_generators(self, rows, calls):
        states = np.array(rows, dtype=np.uint64)
        streams, oracles = base.Lanes(states), [base.seeded(row) for row in states]
        assert _lane_states(streams) == _lane_states(base._Streams(oracles))
        for raw in calls:
            if raw:
                truths = [CHOICES[_integers4(rng)] for rng in oracles]
                words = streams.next64()
                assert words == [rng.bit_generator.random_raw() for rng in oracles]
                assert [synthetic._truth(word) for word in words] == truths
            else:
                assert streams.random() == [rng.random() for rng in oracles]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(-(2**70), 2**70),
        count=st.integers(0, 2 * base._BATCH_MIN),
        paths_seed=st.integers(0, 2**32 - 1),
        calls=st.lists(st.booleans(), min_size=1, max_size=5),
    )
    def test_lanes_match_substreams_either_side_of_the_cutoff(self, seed, count, paths_seed, calls):
        paths = _key_paths(count, np.random.default_rng(paths_seed))
        streams, oracles = lanes(seed, paths), [substream(seed, *keys) for keys in paths]
        for raw in calls:
            if raw:
                assert streams.next64() == [rng.bit_generator.random_raw() for rng in oracles]
            else:
                assert streams.random() == [rng.random() for rng in oracles]


def _workload_oracle(config, n_queries, pin=lambda i: (None, None)):
    """The per-query workload loop over substream, one "workload" and one
    "truth" stream per query."""
    queries = []
    for i in range(n_queries):
        requires_tools, draft_correct = pin(i)
        qid = f"q{i:06d}"
        rng = substream(config.seed, qid, "workload")
        requires = bool(rng.random() < config.p_tool_required)
        depth = sample_weighted(rng.random(), config.depth_weights)
        truth = CHOICES[int(substream(config.seed, qid, "truth").integers(len(CHOICES)))]
        queries.append(
            Query(
                id=qid,
                image_ref=f"synthetic://{qid}",
                question=f"synthetic question {i}",
                ground_truth=truth,
                true_requires_tools=requires if requires_tools is None else requires_tools,
                true_depth=depth,
                true_draft_correct=draft_correct,
            )
        )
    return queries


class TestWorkloadStreams:
    @pytest.mark.parametrize("seed", [0, 101])
    @pytest.mark.parametrize("n_queries", [1, 2, 257])
    def test_make_workload_matches_per_query_oracle(self, seed, n_queries):
        config = SyntheticConfig(seed=seed)
        assert make_workload(config, n_queries) == _workload_oracle(config, n_queries)

    @pytest.mark.parametrize("seed", [0, 101])
    @pytest.mark.parametrize("n_queries", [1, 2, 257])
    def test_make_quota_workload_matches_per_query_oracle(self, seed, n_queries):
        config = SyntheticConfig(seed=seed)
        n_toolfree = int(round(Fraction("0.8") * n_queries))
        n_accept = math.floor(Fraction("0.71") * n_toolfree)
        expected = _workload_oracle(config, n_queries, lambda i: (i >= n_toolfree, i < n_accept))
        assert make_quota_workload(config, n_queries, 0.8, 0.71) == expected


def _agentic_oracle(config, query):
    """The tool loop one query at a time, one agentic_step_stream per step:
    (tool costs, correct, truncated)."""
    backend = SyntheticBackend(config)
    _, true_depth = backend._latents(query)
    observation = f"s0:{query.id}"
    tool_costs = []
    for step in range(min(true_depth, config.depth_cap)):
        rng = agentic_step_stream(config.seed, query.id, step, observation)
        tool_costs.append(rng.uniform(config.tool_cost.low, config.tool_cost.high))
        observation = rng.bytes(8).hex()
    final = agentic_step_stream(config.seed, query.id, len(tool_costs), observation)
    return tool_costs, bool(final.random() < config.agentic_accuracy), true_depth > config.depth_cap


_weights = st.dictionaries(st.integers(0, 7), st.floats(0.05, 5.0), min_size=1, max_size=4)
_pins = st.tuples(st.none() | st.booleans(), st.none() | st.integers(0, 9), st.none() | st.booleans())


def _pinned(qid, pins):
    requires, depth, draft = pins
    return Query(id=qid, true_requires_tools=requires, true_depth=depth, true_draft_correct=draft)


class TestPreseededBackend:
    """A backend given the queries up front answers each route exactly as
    one given none, for queries inside and outside the list, and again on a
    second call."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**40),
        p_tool_required=st.floats(0.0, 1.0),
        depth_weights=_weights,
        answer_len_weights=_weights.map(lambda w: {k + 1: v for k, v in w.items()}),
        depth_cap=st.integers(1, 6),
        tool_low=st.floats(0.0, 2.0),
        accuracies=st.tuples(*[st.floats(0.0, 1.0)] * 4),
        quota=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        n_queries=st.integers(1, 40),
        listed_pins=st.lists(_pins, max_size=4),
        outside_pins=st.lists(_pins, max_size=4),
    )
    def test_routes_match_a_backend_given_no_queries(
        self, seed, p_tool_required, depth_weights, answer_len_weights, depth_cap, tool_low, accuracies,
        quota, n_queries, listed_pins, outside_pins,
    ):
        toolfree, toolreq, agentic, judge = accuracies
        config = SyntheticConfig(
            seed=seed,
            p_tool_required=p_tool_required,
            depth_weights=depth_weights,
            answer_len_weights=answer_len_weights,
            depth_cap=depth_cap,
            tool_cost=synthetic.Uniform(tool_low, tool_low + 0.5),
            draft_accuracy_toolfree=toolfree,
            draft_accuracy_toolreq=toolreq,
            agentic_accuracy=agentic,
            judge_accuracy=judge,
        )
        if quota is None:
            workload = make_workload(config, n_queries)
        else:
            workload = make_quota_workload(config, n_queries, *quota)
        listed = workload + [_pinned(f"extra{i}", pins) for i, pins in enumerate(listed_pins)]
        # same ids as listed queries, other fields: answered as the queries they are
        outside = [Query(id=q.id) for q in workload[:3]]
        outside += [_pinned(f"other{i}", pins) for i, pins in enumerate(outside_pins)]
        preseeded, plain = SyntheticBackend(config, listed), SyntheticBackend(config)
        for query in listed + outside:
            assert preseeded.judge(query) == plain.judge(query)
            ours, theirs = preseeded.speculate(query), plain.speculate(query)
            assert (ours.answer, ours.latency_s) == (theirs.answer, theirs.latency_s)
            assert ours.token_logits.values.tobytes() == theirs.token_logits.values.tobytes()
            assert np.array_equal(ours.token_logits.lengths, theirs.token_logits.lengths)
            expected = plain.agentic_run(query)
            tool_costs, correct, truncated = _agentic_oracle(config, query)
            assert [tool for _, tool in expected.step_costs[:-1]] == tool_costs
            assert expected.truncated == truncated
            assert (expected.answer == plain._ground_truth(query)) == correct
            assert preseeded.agentic_run(query) == expected
            assert preseeded.agentic_run(query) == expected  # its batch result was used up


class TestPreseededServing:
    @pytest.mark.parametrize("seed", [0, 101])
    def test_a_batch_above_the_cutoff_serves_as_on_a_plain_backend(self, seed):
        # 300 queries put every judge draw and the first step indices of the
        # tool loops on Lanes, and the deep steps' few loops on substreams
        config = SyntheticConfig(seed=seed)
        queries = make_workload(config, 300)
        assert len(queries) > base._BATCH_MIN
        gate_config, schedule = GateConfig(), ScheduleConfig()
        preseeded = serve_batch(queries, gate_config, schedule, SyntheticBackend(config, queries))
        plain = serve_batch(queries, gate_config, schedule, SyntheticBackend(config))
        assert preseeded == plain

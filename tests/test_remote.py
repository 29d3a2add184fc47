"""Remote adapter tests against a local stub server: wire schemas for all
three routes, error contracts, exchange logging, and replay round-trips."""

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from spec_funnel.backends.base import Query
from spec_funnel.backends.remote import (
    RemoteBackend,
    iter_exchanges,
    parse_agentic_response,
    parse_judge_response,
    parse_speculate_response,
    replay_speculations,
)
from spec_funnel.errors import BackendUnavailable, ValidationError


def speculate_body(answer="A", n_tokens=2, n_logprobs=5):
    tokens = []
    for t in range(n_tokens):
        tokens.append(
            {
                "text": answer if t == 0 else ".",
                "top_logprobs": [
                    {"token": f"tok{j}", "logprob": -0.1 * (j + 1) - 0.01 * t}
                    for j in range(n_logprobs)
                ],
            }
        )
    return {"answer": answer, "tokens": tokens, "latency_s": 0.21}


class StubHandler(BaseHTTPRequestHandler):
    behaviors = {}

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length)) if length else {}
        behavior = self.behaviors.get(self.path, "ok")
        if behavior == "sleep":
            time.sleep(1.0)
            behavior = "ok"
        if behavior == "http500":
            self.send_response(500)
            self.end_headers()
            return
        if behavior == "garbage":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"not json")
            return
        if self.path == "/judge":
            body = {"g": 1 if "tool" in request.get("question", "") else 0, "latency_s": 0.05}
        elif self.path == "/speculate":
            if behavior == "no_logprobs":
                body = {"answer": "A", "tokens": [{"text": "A", "top_logprobs": []}], "latency_s": 0.2}
            else:
                body = speculate_body(n_logprobs=min(64, request.get("top_logprobs", 5)))
        elif self.path == "/agentic":
            body = {
                "answer": "B",
                "depth": 2,
                "step_costs": [[0.5, 0.2], [0.5, 0.3], [0.5, 0.0]],
                "latency_s": 2.0,
            }
        else:
            self.send_response(404)
            self.end_headers()
            return
        payload = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    StubHandler.behaviors = {}
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join(timeout=5)


QUERY = Query(id="q1", image_ref="img://1", question="what color is the sign?")


class TestRoutes:
    def test_judge_round_trip(self, stub_server):
        backend = RemoteBackend(stub_server)
        output = backend.judge(QUERY)
        assert output.g == 0 and output.latency_s == 0.05
        needs_tools = Query(id="q2", question="zoom in on the tool shed")
        assert backend.judge(needs_tools).g == 1

    def test_speculate_parses_sorted_logits(self, stub_server):
        backend = RemoteBackend(stub_server, top_logprobs=5)
        draft = backend.speculate(QUERY)
        assert draft.answer == "A"
        assert len(draft.token_logits) == 2
        for token in draft.token_logits:
            assert len(token) <= 5
            assert np.all(np.diff(token.values) <= 0.0)

    def test_speculate_truncates_to_top_logprobs(self, stub_server):
        backend = RemoteBackend(stub_server, top_logprobs=3)
        draft = backend.speculate(QUERY)
        assert all(len(t) <= 3 for t in draft.token_logits)

    def test_agentic_round_trip(self, stub_server):
        backend = RemoteBackend(stub_server, max_steps=5)
        output = backend.agentic_run(QUERY)
        assert output.answer == "B"
        assert output.depth == 2
        assert output.latency_s == pytest.approx(2.0, abs=1e-12)
        assert not output.truncated


class TestErrorContracts:
    def test_missing_logprobs(self, stub_server):
        StubHandler.behaviors = {"/speculate": "no_logprobs"}
        backend = RemoteBackend(stub_server)
        with pytest.raises(BackendUnavailable, match="missing logprobs"):
            backend.speculate(QUERY)

    def test_http_error(self, stub_server):
        StubHandler.behaviors = {"/judge": "http500"}
        backend = RemoteBackend(stub_server)
        with pytest.raises(BackendUnavailable, match="500"):
            backend.judge(QUERY)

    def test_malformed_json(self, stub_server):
        StubHandler.behaviors = {"/judge": "garbage"}
        backend = RemoteBackend(stub_server)
        with pytest.raises(BackendUnavailable, match="not JSON"):
            backend.judge(QUERY)

    def test_timeout(self, stub_server):
        StubHandler.behaviors = {"/judge": "sleep"}
        backend = RemoteBackend(stub_server, timeout_s=0.2)
        with pytest.raises(BackendUnavailable):
            backend.judge(QUERY)

    def test_unreachable_endpoint(self):
        backend = RemoteBackend("http://127.0.0.1:9", timeout_s=0.3)
        with pytest.raises(BackendUnavailable):
            backend.judge(QUERY)

    def test_inconsistent_step_costs(self):
        with pytest.raises(BackendUnavailable, match="step_costs"):
            parse_agentic_response(
                {"answer": "B", "depth": 3, "step_costs": [[0.5, 0.2]], "latency_s": 0.7},
                max_steps=5,
            )

    def test_truncation_flagged_at_cap(self):
        body = {
            "answer": "B",
            "depth": 2,
            "step_costs": [[0.5, 0.2], [0.5, 0.3], [0.5, 0.0]],
            "latency_s": 2.0,
        }
        assert parse_agentic_response(body, max_steps=2).truncated
        assert not parse_agentic_response(body, max_steps=5).truncated


class TestExchangeLogAndReplay:
    def test_replay_reproduces_identical_logits(self, stub_server, tmp_path):
        log_path = tmp_path / "exchanges.jsonl"
        backend = RemoteBackend(stub_server, top_logprobs=5, exchange_log=log_path)
        live = {}
        for qid in ("q1", "q2", "q3"):
            query = Query(id=qid, question="what color?")
            backend.judge(query)
            live[qid] = backend.speculate(query)
        replayed = replay_speculations(log_path, top_logprobs=5)
        assert set(replayed) == set(live)
        for qid, draft in live.items():
            again = replayed[qid]
            assert again.answer == draft.answer
            assert len(again.token_logits) == len(draft.token_logits)
            for a, b in zip(again.token_logits, draft.token_logits):
                assert np.array_equal(a.values, b.values)

    def test_log_contains_all_routes(self, stub_server, tmp_path):
        log_path = tmp_path / "exchanges.jsonl"
        backend = RemoteBackend(stub_server, exchange_log=log_path)
        backend.judge(QUERY)
        backend.speculate(QUERY)
        backend.agentic_run(QUERY)
        routes = [entry["route"] for entry in iter_exchanges(log_path)]
        assert routes == ["/judge", "/speculate", "/agentic"]

    def test_corrupt_log_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            list(iter_exchanges(bad))


class TestParserEdgeCases:
    def test_speculate_schema_violations(self):
        with pytest.raises(BackendUnavailable):
            parse_speculate_response({"answer": "A"}, 8)
        with pytest.raises(BackendUnavailable):
            parse_speculate_response({"answer": "A", "tokens": "x", "latency_s": 0.1}, 8)
        with pytest.raises(BackendUnavailable):
            parse_speculate_response(
                {"answer": "A", "tokens": [{"text": "A"}], "latency_s": 0.1}, 8
            )

    def test_empty_answer_with_no_tokens_allowed(self):
        draft = parse_speculate_response({"answer": "", "tokens": [], "latency_s": 0.1}, 8)
        assert draft.answer == "" and draft.token_logits == ()

    def test_masked_logprobs_dropped(self):
        body = speculate_body(n_logprobs=5)
        masked = json.loads(json.dumps(body))
        masked["tokens"][0]["top_logprobs"].insert(2, {"token": "m0", "logprob": -math.inf})
        masked["tokens"][1]["top_logprobs"].append({"token": "m1", "logprob": -math.inf})
        assert parse_speculate_response(masked, 8) == parse_speculate_response(body, 8)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nan_or_positive_inf_logprob_unavailable(self, value):
        body = speculate_body(n_logprobs=5)
        body["tokens"][1]["top_logprobs"][3]["logprob"] = value
        with pytest.raises(BackendUnavailable):
            parse_speculate_response(body, 3)

    def test_token_with_only_masked_logprobs_unavailable(self):
        body = speculate_body(n_logprobs=3)
        for entry in body["tokens"][0]["top_logprobs"]:
            entry["logprob"] = -math.inf
        with pytest.raises(BackendUnavailable):
            parse_speculate_response(body, 8)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_latency_unavailable(self, value):
        with pytest.raises(BackendUnavailable):
            parse_judge_response({"g": 0, "latency_s": value})
        with pytest.raises(BackendUnavailable):
            parse_speculate_response({**speculate_body(), "latency_s": value}, 8)
        with pytest.raises(BackendUnavailable):
            parse_agentic_response({"answer": "B", "depth": 0, "step_costs": [[value, 0.0]]}, 5)

"""scripts/serve_synthetic.py served in-process: kept-alive connections,
wire results equal to its SyntheticBackend, and error replies that carry a
Content-Length and leave the connection open."""

import http.client
import importlib.util
import json
import socket
import threading
import time
from http.server import ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from spec_funnel.backends.base import Query
from spec_funnel.backends.remote import RemoteBackend
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.funnel import ScheduleConfig, serve_batch
from spec_funnel.gate import GateConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "serve_synthetic.py"
SEED = 7


def _load_script():
    spec = importlib.util.spec_from_file_location("serve_synthetic", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CountingServer(ThreadingHTTPServer):
    """Counts the connections it accepts."""

    connections = 0

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


@pytest.fixture
def served():
    backend = SyntheticBackend(SyntheticConfig(seed=SEED))
    server = CountingServer(("127.0.0.1", 0), _load_script().make_handler(backend))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_port}"
    server.backend = backend
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def make_client(served):
    """RemoteBackend factory whose backends are closed before the server."""
    made = []

    def make(**kwargs):
        made.append(RemoteBackend(served.url, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.close()


@pytest.fixture
def connection(served):
    conn = http.client.HTTPConnection("127.0.0.1", served.server_port, timeout=5)
    yield conn
    conn.close()


def _post(conn, route, body: bytes):
    conn.request("POST", route, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.getheader("Content-Length"), response.read()


def _workload(n):
    return make_workload(SyntheticConfig(seed=SEED), n)


def test_simulated_batch_uses_one_connection(served, make_client):
    outcomes, _ = serve_batch(_workload(30), GateConfig(tau=0.9), ScheduleConfig(), make_client())
    assert len(outcomes) == 30 and all(o.error is None for o in outcomes)
    assert served.connections == 1


@pytest.mark.parametrize("top_logprobs", [64, 7])
def test_wire_results_equal_the_served_backend(served, make_client, top_logprobs):
    client = make_client(top_logprobs=top_logprobs, max_steps=SyntheticConfig().depth_cap)
    for query in _workload(30):
        wire = Query(id=query.id, image_ref=query.image_ref, question=query.question)
        assert client.judge(query) == served.backend.judge(wire)

        remote, local = client.speculate(query), served.backend.speculate(wire)
        assert (remote.answer, remote.latency_s) == (local.answer, local.latency_s)
        kept = np.minimum(local.token_logits.lengths, top_logprobs)
        np.testing.assert_array_equal(remote.token_logits.lengths, kept)
        np.testing.assert_array_equal(remote.token_logits.values, local.token_logits.values[:, :top_logprobs])

        remote, local = client.agentic_run(query), served.backend.agentic_run(wire)
        assert (remote.answer, remote.depth, remote.step_costs, remote.latency_s) == (
            local.answer,
            local.depth,
            local.step_costs,
            local.latency_s,
        )


def test_unknown_route_is_404_and_keeps_the_connection(served, connection):
    status, length, body = _post(connection, "/nope", b"{}")
    assert status == 404 and length == str(len(body))
    status, _, body = _post(connection, "/judge", b'{"id": "q1"}')
    assert status == 200 and set(json.loads(body)) == {"g", "latency_s"}
    assert served.connections == 1


@pytest.mark.parametrize(
    "route, body",
    [
        ("/judge", b"[]"),
        ("/judge", b'"x"'),
        ("/judge", b"not json"),
        ("/judge", b'{"id": ""}'),
        ("/speculate", b'{"id": "q1", "top_logprobs": "x"}'),
        ("/speculate", b'{"id": "q1", "top_logprobs": null}'),
    ],
)
def test_bad_request_body_is_400_and_keeps_the_connection(served, connection, route, body):
    status, length, reply = _post(connection, route, body)
    assert status == 400 and length == str(len(reply))
    status, _, _ = _post(connection, route, b'{"id": "q1"}')
    assert status == 200
    assert served.connections == 1


@pytest.mark.parametrize("length", [b"abc", b"-1"])
def test_bad_content_length_is_400_and_closes_the_connection(served, length):
    with socket.create_connection(("127.0.0.1", served.server_port), timeout=5) as sock:
        sock.sendall(b"POST /judge HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n{}")
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, body = reply.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 400 ")
    assert f"Content-Length: {len(body)}".encode() in head.split(b"\r\n")


def test_sequential_calls_do_not_wait_on_delayed_ack(make_client):
    # a reply split over two writes waits about 40 ms for the client's
    # delayed ACK, so 100 calls would take at least 4 s
    client = make_client()
    start = time.perf_counter()
    for i in range(100):
        client.judge(Query(id=f"q{i}"))
    assert time.perf_counter() - start < 2.0

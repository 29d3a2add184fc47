"""scripts/serve_synthetic.py served in-process: kept-alive connections,
wire results and bytes equal to its SyntheticBackend's, and error replies
that carry a Content-Length and keep or close the connection as its HTTP
subset says. One test also starts the script as the benchmark does."""

import http.client
import importlib.util
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace
from http.server import ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from spec_funnel import cli
from spec_funnel.backends.base import Query, SpeculativeAnswer
from spec_funnel.backends.remote import RemoteBackend
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.cli import main
from spec_funnel.funnel import ScheduleConfig, serve_batch
from spec_funnel.gate import AnswerLogits, GateConfig

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "serve_synthetic.py"
SEED = 7


def _load_script():
    spec = importlib.util.spec_from_file_location("serve_synthetic", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CountingServer(ThreadingHTTPServer):
    """Counts the connections it accepts and finishes, and keeps each error
    a handler raised (which socketserver would print as a traceback)."""

    connections = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.finished, self.errors = [], []

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.finished.append(request)


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


def _replies(port, request: bytes):
    """(status, headers, body) of each reply the server sends for the raw
    `request` before it closes the connection (a kept connection times out)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        data = b""
        try:
            while chunk := sock.recv(65536):
                data += chunk
        except ConnectionResetError:
            pass  # closed with part of a refused request unread
    replies = []
    while data:
        head, data = data.split(b"\r\n\r\n", 1)
        status, *lines = head.split(b"\r\n")
        headers = dict(line.split(b": ", 1) for line in lines)
        length = int(headers[b"Content-Length"])
        assert len(data) >= length
        replies.append((int(status.split()[1]), headers, data[:length]))
        data = data[length:]
    return replies


def _judge(version=b"HTTP/1.1", headers=b"", body=b'{"id": "q1"}'):
    return b"POST /judge %s\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n%s" % (version, headers, len(body), body)


def _dict_body(draft, limit):
    """The /speculate body as a dict: the reference whose json.dumps the
    server's rendered text must equal byte for byte."""
    logits = draft.token_logits
    return {
        "answer": draft.answer,
        "tokens": [
            {
                "text": draft.answer if i == 0 else "",
                "top_logprobs": [{"token": f"tok{j}", "logprob": v} for j, v in enumerate(row[:n][:limit])],
            }
            for i, (row, n) in enumerate(zip(logits.values.tolist(), logits.lengths.tolist()))
        ],
        "latency_s": draft.latency_s,
    }


def test_simulated_batch_uses_one_connection(served, make_client):
    outcomes, _ = serve_batch(_workload(30), GateConfig(tau=0.9), ScheduleConfig(), make_client())
    assert len(outcomes) == 30 and all(o.error is None for o in outcomes)
    assert served.connections == 1


@pytest.mark.parametrize("max_steps", [SyntheticConfig().depth_cap, 2])
@pytest.mark.parametrize("top_logprobs", [64, 7])
def test_wire_results_equal_the_served_backend(served, make_client, top_logprobs, max_steps):
    client = make_client(top_logprobs=top_logprobs, max_steps=max_steps)
    capped = SyntheticBackend(replace(served.backend.config, depth_cap=max_steps))
    for query in _workload(30):
        wire = Query(id=query.id, image_ref=query.image_ref, question=query.question)
        assert client.judge(query) == served.backend.judge(wire)

        remote, local = client.speculate(query), served.backend.speculate(wire)
        assert (remote.answer, remote.latency_s) == (local.answer, local.latency_s)
        kept = np.minimum(local.token_logits.lengths, top_logprobs)
        np.testing.assert_array_equal(remote.token_logits.lengths, kept)
        np.testing.assert_array_equal(remote.token_logits.values, local.token_logits.values[:, :top_logprobs])

        remote, local = client.agentic_run(query), capped.agentic_run(wire)
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
        ("/speculate", b'{"id": "q1", "top_logprobs": 1e400}'),
        ("/speculate", b'{"id": "q1", "top_logprobs": 0}'),
        ("/speculate", b'{"id": "q1", "top_logprobs": -3}'),
        ("/speculate", b'{"id": "q1", "top_logprobs": true}'),
        ("/speculate", b'{"id": "q1", "top_logprobs": "5"}'),
        ("/speculate", b'{"id": "q1", "top_logprobs": 2.5}'),
        ("/agentic", b'{"id": "q1", "max_steps": "x"}'),
        ("/agentic", b'{"id": "q1", "max_steps": 0}'),
        ("/agentic", b'{"id": "q1", "max_steps": 1.5}'),
        ("/agentic", b'{"id": "q1", "max_steps": null}'),
        ("/judge", b'{"id": 3}'),
        ("/judge", b'{"id": null}'),
        ("/judge", b"{}"),
        ("/speculate", b'{"id": ["q1"]}'),
    ],
)
def test_bad_request_body_is_400_and_keeps_the_connection(served, connection, route, body):
    status, length, reply = _post(connection, route, body)
    assert status == 400 and length == str(len(reply))
    status, _, _ = _post(connection, route, b'{"id": "q1"}')
    assert status == 200
    assert served.connections == 1


@pytest.mark.parametrize("length", [b"abc", b"-1", b"", b"+5", b"1.5", b"1e3"])
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


@pytest.mark.parametrize("method", ["GET", "PUT"])
def test_other_methods_are_501_and_keep_the_connection(served, connection, method):
    connection.request(method, "/judge", body=b'{"id": "q1"}')
    response = connection.getresponse()
    body = response.read()
    assert response.status == 501 and response.getheader("Content-Length") == str(len(body))
    status, _, _ = _post(connection, "/judge", b'{"id": "q1"}')
    assert status == 200
    assert served.connections == 1


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"\r\n", 400),
        (b"POST\r\n\r\n", 400),
        (b"POST /judge\r\n\r\n", 400),
        (b"POST /judge HTTP/1.1 x\r\n\r\n", 400),
        (_judge(version=b"HTTP/2.0"), 400),
        (b"POST /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 400),
        (_judge(headers=b"Host x\r\n"), 400),
        (_judge(headers=b"Content-Length: 5\r\n"), 400),
        (_judge(headers=b"Transfer-Encoding: chunked\r\n"), 501),
        (_judge(headers=b"Transfer-Encoding: identity\r\n"), 501),
        (_judge(headers=b"X-Long: " + b"a" * 65536 + b"\r\n"), 431),
        (_judge(headers=b"X-Many: 1\r\n" * 99), 431),  # with Host and Content-Length, 101
        (b"POST /judge HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n{}", 413),
        (b"POST /judge HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n{}", 413),
        (b'POST /judge HTTP/1.1\r\nHost: x\r\nContent-Length : 12\r\n\r\n{"id": "q1"}', 400),
        (b'POST /judge HTTP/1.1\r\n Content-Length: 12\r\n\r\n{"id": "q1"}', 400),
        (_judge(headers=b"Link: <http://a>,\r\n <http://b>\r\n"), 400),
        (_judge(headers=b"Content-Length: 12\r\n"), 400),
        (b"POST /judge HTTP/1.1\r\nContent-Length: " + b"1" * 19 + b"\r\n\r\n{}", 413),
        (b"POST /judge HTTP/1.1\r\nContent-Length: " + b"0" * 17 + b"12\r\n\r\n" + b'{"id": "q1"}', 413),
        (_judge(headers=b": x\r\n"), 400),
    ],
    ids=[
        "blank-line",
        "method-only",
        "no-version",
        "four-words",
        "http-2",
        "line-over-64KiB",
        "header-without-colon",
        "disagreeing-lengths",
        "chunked",
        "identity-encoding",
        "header-over-64KiB",
        "101-headers",
        "body-over-1MiB",
        "5000-digit-length",
        "space-before-colon",
        "leading-whitespace",
        "folded-header",
        "equal-repeated-lengths",
        "19-digit-length",
        "19-digit-small-length",
        "empty-header-name",
    ],
)
def test_unframeable_request_is_refused_and_closes_the_connection(served, request_bytes, status):
    [(got, headers, body)] = _replies(served.server_port, request_bytes)
    assert (got, headers[b"Connection"]) == (status, b"close")
    assert set(json.loads(body)) == {"error"}


def test_header_limits_admit_100_headers_and_a_64KiB_line(served):
    long = b"X-Long: " + b"a" * (65536 - 10) + b"\r\n"
    headers = long + b"X-Many: 1\r\n" * 96 + b"Connection: close\r\n"
    [(status, _, body)] = _replies(served.server_port, _judge(headers=headers))  # with Host and Content-Length, 100
    assert status == 200 and set(json.loads(body)) == {"g", "latency_s"}


@pytest.mark.parametrize(
    "version, headers",
    [
        (b"HTTP/1.0", b""),
        (b"HTTP/1.0", b"Connection: keep-alive\r\n"),
        (b"HTTP/1.1", b"Connection: close\r\n"),
        (b"HTTP/1.1", b"connection: Keep-Alive, Close\r\n"),
    ],
)
def test_http_1_0_and_connection_close_close_after_the_reply(served, version, headers):
    [(status, reply_headers, body)] = _replies(served.server_port, _judge(version, headers))
    assert (status, reply_headers[b"Connection"]) == (200, b"close")
    assert json.loads(body)["g"] == served.backend.judge(Query(id="q1")).g


def test_pipelined_requests_are_answered_in_order(served):
    request = _judge(body=b'{"id": "q1"}') + _judge(headers=b"Connection: close\r\n", body=b'{"id": "q2"}')
    replies = _replies(served.server_port, request)
    assert [status for status, _, _ in replies] == [200, 200]
    assert [json.loads(body)["g"] for _, _, body in replies] == [
        served.backend.judge(Query(id=qid)).g for qid in ("q1", "q2")
    ]
    assert b"Connection" not in replies[0][1]


@pytest.mark.parametrize(
    "sent",
    [
        b"POST /jud",
        b"POST /judge HTTP/1.1\r\nContent-Le",
        b"POST /judge HTTP/1.1\r\nContent-Length: 12\r\n\r\n{\"id\"",
    ],
    ids=["in-request-line", "in-headers", "in-body"],
)
@pytest.mark.parametrize("reset", [False, True], ids=["close", "reset"])
def test_client_gone_mid_request_is_dropped_without_error(served, sent, reset):
    with socket.create_connection(("127.0.0.1", served.server_port), timeout=5) as sock:
        sock.sendall(sent)
        if reset:  # close with an RST, not a FIN
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        else:
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b""  # no reply before the server closes
    deadline = time.monotonic() + 5
    while len(served.finished) < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert served.connections == len(served.finished) == 1
    assert served.errors == []


@pytest.mark.parametrize("top_logprobs", [64, 7, 1])
def test_speculate_bytes_equal_json_dumps_of_the_dict_body(served, connection, top_logprobs):
    for query in _workload(1000):
        wire = {"id": query.id, "image_ref": query.image_ref, "question": query.question}
        status, _, reply = _post(connection, "/speculate", json.dumps({**wire, "top_logprobs": top_logprobs}).encode())
        draft = served.backend.speculate(Query(**wire))
        assert status == 200 and reply == json.dumps(_dict_body(draft, top_logprobs)).encode()
    # more distinct logprobs than the memo holds were served, and it held its bound
    memo = served.RequestHandlerClass.memo.cache_info()
    assert memo.misses > memo.maxsize == memo.currsize


def test_signed_zero_logprobs_keep_their_text():
    script = _load_script()
    memo = script.make_handler(SyntheticBackend(SyntheticConfig())).memo
    for top in (0.0, -0.0, 0.0):
        draft = SpeculativeAnswer("B", AnswerLogits(np.array([[top, -1.0]]), np.array([2])), 0.5)
        assert script.speculate_json(draft, 64, memo) == json.dumps(_dict_body(draft, 64))


@pytest.mark.parametrize(
    "command",
    [["run", "--set", "schedule.mode=measured"], ["run"], ["calibrate"], ["ablate", "--axis", "threshold"]],
    ids=["run_measured", "run_simulated", "calibrate", "ablate"],
)
def test_command_closes_every_connection_it_opened(served, tmp_path, monkeypatch, command):
    built = []  # keeps each backend alive, so no connection is closed by freeing it
    build = cli._build_backend
    monkeypatch.setattr(cli, "_build_backend", lambda config, queries=(): built.append(build(config, queries)) or built[-1])
    argv = [*command, "--out", str(tmp_path / "out"), "--endpoint", served.url, "--set", "workload.n_queries=20"]
    assert main(argv) == 0
    assert len(built) == 1
    deadline = time.monotonic() + 10
    while len(served.finished) < served.connections and time.monotonic() < deadline:
        time.sleep(0.01)
    assert served.connections >= 1
    assert len(served.finished) == served.connections
    assert served.errors == []


def test_script_serves_a_measured_run_as_the_benchmark_starts_it(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    server = subprocess.Popen(
        [sys.executable, "-u", str(SCRIPT), "--port", "0", "--seed", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = server.stdout.readline()
        match = re.fullmatch(r"serving synthetic backend on (http://127\.0\.0\.1:(\d+))\n", line)
        assert match, line
        url, port = match[1], int(match[2])
        probe = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            probe.request("POST", "/judge", body=b'{"id": "probe"}')
            assert probe.getresponse().status == 200
        finally:
            probe.close()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"POST /judge HTTP/1.1\r\nContent-Length: 12\r\n\r\n{")  # and hang up
        out = tmp_path / "run"
        overrides = ["--set", "schedule.mode=measured", "--set", "workload.n_queries=20"]
        assert main(["run", "--out", str(out), "--seed", "3", "--endpoint", url, *overrides]) == 0
        outcomes = [json.loads(line) for line in (out / "outcomes.jsonl").read_text().splitlines()]
        assert len(outcomes) == 20 and [o["error"] for o in outcomes] == [None] * 20
    finally:
        server.terminate()
        try:
            _, stderr = server.communicate(timeout=10)
        finally:
            server.kill()  # a no-op once it has exited
    assert server.returncode == -signal.SIGTERM
    assert stderr == ""
    with pytest.raises(ProcessLookupError):
        os.kill(server.pid, 0)

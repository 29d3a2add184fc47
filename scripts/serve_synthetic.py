#!/usr/bin/env python3
"""Serve the synthetic backend over the remote wire protocol.

Starts an HTTP server exposing /judge, /speculate, and /agentic backed by a
seeded SyntheticBackend, so the remote adapter and the measured scheduling
mode can be exercised end to end without any real model:

    python scripts/serve_synthetic.py --port 8723 --seed 5 &
    spec-funnel run --endpoint http://127.0.0.1:8723 \
        --set schedule.mode=measured --set workload.n_queries=50

The server reads requests itself and keeps connections alive, so each
client worker thread holds one connection for a whole stage. It reads each
header block by the rule in spec_funnel.backends.http11 and closes the
connection after an HTTP/1.0 request or one with Connection: close. It
sends each reply in one write of status line, Content-Type, Content-Length
and body:

- 200 with the route's JSON result;
- 400 for a body that is not a JSON object or does not make a query: its
  id must be a non-empty string, and a /speculate request's top_logprobs
  (64 if absent) and an /agentic request's max_steps (the served depth_cap
  if absent) integers >= 1; 404 for an unknown route and 501 for a method
  other than POST, each keeping the connection;
- a framing fault's status, then close: 400 for a malformed request line,
  the status http11 names for a header block it refuses, 501 for a chunked
  body and 413 for a body over 1 MiB.

A client that disconnects mid-request is dropped without a reply. An
/agentic request's loop stops at its max_steps, as a backend whose
depth_cap is max_steps would stop it.
"""

import argparse
import dataclasses
import functools
import json
import socketserver
from http import HTTPStatus
from http.server import ThreadingHTTPServer

from spec_funnel.backends.base import Query, integral
from spec_funnel.backends.http11 import MAX_LINE, FramingError, framing
from spec_funnel.backends.remote import request_id
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig
from spec_funnel.bounds import COUNT, check

MAX_BODY = 1 << 20
# Logprob texts kept per server. Each row repeats the generator's fixed tail
# and adds one new top value, so an unbounded memo would grow with every draft.
LOGPROB_MEMO = 1024
ROUTES = (b"/judge", b"/speculate", b"/agentic")


def speculate_json(draft, limit: int, number) -> str:
    """json.dumps of the /speculate body for `draft`, each logprob's text
    taken from `number` (json.dumps or a memo of it)."""
    logits = draft.token_logits
    answer = json.dumps(draft.answer)
    tokens = []
    text = answer
    for row, n in zip(logits.values.tolist(), logits.lengths.tolist()):
        # a memo keyed on the float would give 0.0 and -0.0 one text
        entries = ", ".join(
            [
                f'{{"token": "tok{j}", "logprob": {number(v) if v else json.dumps(v)}}}'
                for j, v in enumerate(row[:n][:limit])
            ]
        )
        tokens.append(f'{{"text": {text}, "top_logprobs": [{entries}]}}')
        text = '""'  # the answer's text rides on its first token
    return f'{{"answer": {answer}, "tokens": [{", ".join(tokens)}], "latency_s": {json.dumps(draft.latency_s)}}}'


def make_handler(backend: SyntheticBackend):
    logprob_text = functools.lru_cache(maxsize=LOGPROB_MEMO)(json.dumps)

    class Handler(socketserver.StreamRequestHandler):
        # a reply's last segment must not wait for the client's delayed ACK
        disable_nagle_algorithm = True
        memo = staticmethod(logprob_text)

        def handle(self):
            try:
                while self._serve_one():
                    pass
            except ConnectionError:
                pass  # the client went away mid-request or mid-reply

        def _serve_one(self) -> bool:
            """Read one request and reply to it; False once the connection is done."""
            try:
                method, route, body, close = self._read_request()
            except FramingError as exc:
                self._send(exc.status, json.dumps({"error": str(exc)}), close=True)
                return False
            status, payload = self._respond(method, route, body)
            self._send(status, payload, close)
            return not close

        def _line(self, too_long=HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE) -> bytes:
            """The next line, without its CRLF or LF."""
            line = self.rfile.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                raise FramingError(too_long, f"line over {MAX_LINE} bytes")
            if not line.endswith(b"\n"):
                raise ConnectionError("the client closed the connection mid-request")
            return line.removesuffix(b"\n").removesuffix(b"\r")

        def _read_request(self):
            """(method, route, body, close) of the next request."""
            words = self._line(HTTPStatus.BAD_REQUEST).split()
            if len(words) != 3 or words[2] not in (b"HTTP/1.1", b"HTTP/1.0"):
                raise FramingError(HTTPStatus.BAD_REQUEST, "malformed request line")
            method, route, version = words
            length, chunked, close = framing(self._line)
            size = length or 0
            if chunked:
                raise FramingError(HTTPStatus.NOT_IMPLEMENTED, "chunked request bodies are not supported")
            if size > MAX_BODY:
                raise FramingError(HTTPStatus.REQUEST_ENTITY_TOO_LARGE, f"body over {MAX_BODY} bytes")
            body = self.rfile.read(size)
            if len(body) < size:
                raise ConnectionError("the client closed the connection mid-request")
            return method, route, body, close or version == b"HTTP/1.0"

        def _respond(self, method: bytes, route: bytes, data: bytes):
            """(status, JSON text) of the reply to one framed request."""
            if method != b"POST":
                error = f"unsupported method {method.decode('latin-1')}"
                return HTTPStatus.NOT_IMPLEMENTED, json.dumps({"error": error})
            if route not in ROUTES:
                return HTTPStatus.NOT_FOUND, json.dumps({"error": f"unknown route {route.decode('latin-1')}"})
            try:
                request = json.loads(data) if data else {}
                if not isinstance(request, dict):
                    raise ValueError("not a JSON object")
                query = Query(
                    id=request_id(request),
                    image_ref=str(request.get("image_ref", "")),
                    question=str(request.get("question", "")),
                )
                if route == b"/speculate":
                    limit = integral(request.get("top_logprobs", 64))
                    check(COUNT, top_logprobs=limit)
                elif route == b"/agentic":
                    max_steps = integral(request.get("max_steps", backend.config.depth_cap))
                    check(COUNT, max_steps=max_steps)
            except (TypeError, ValueError, RecursionError) as exc:
                return HTTPStatus.BAD_REQUEST, json.dumps({"error": f"bad request body: {exc}"})
            if route == b"/judge":
                output = backend.judge(query)
                body = {"g": output.g, "latency_s": output.latency_s}
            elif route == b"/speculate":
                return HTTPStatus.OK, speculate_json(backend.speculate(query), limit, logprob_text)
            else:
                served = (
                    backend
                    if max_steps == backend.config.depth_cap
                    else SyntheticBackend(dataclasses.replace(backend.config, depth_cap=max_steps))
                )
                output = served.agentic_run(query)
                body = {
                    "answer": output.answer,
                    "depth": output.depth,
                    "step_costs": [[llm, tool] for llm, tool in output.step_costs],
                    "latency_s": output.latency_s,
                }
            return HTTPStatus.OK, json.dumps(body)

        def _send(self, status: HTTPStatus, text: str, close: bool):
            payload = text.encode()
            self.wfile.write(
                b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s"
                % (status, status.phrase.encode(), len(payload), b"Connection: close\r\n" if close else b"", payload)
            )

    return Handler


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8723)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    backend = SyntheticBackend(SyntheticConfig(seed=args.seed))
    server = ThreadingHTTPServer((args.host, args.port), make_handler(backend))
    print(f"serving synthetic backend on http://{args.host}:{server.server_port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Serve the synthetic backend over the remote wire protocol.

Starts an HTTP server exposing /judge, /speculate, and /agentic backed by a
seeded SyntheticBackend, so the remote adapter and the measured scheduling
mode can be exercised end to end without any real model:

    python scripts/serve_synthetic.py --port 8723 --seed 5 &
    spec-funnel run --endpoint http://127.0.0.1:8723 \
        --set schedule.mode=measured --set workload.n_queries=50

The server speaks HTTP/1.1 and keeps connections alive, so each client
worker thread holds one connection for a whole stage, and it sends each
reply (status line, headers and body) in one write. Every reply carries a
Content-Length. An unknown route gets a 404, and a body that is not a JSON
object or does not make a query gets a 400; both keep the connection open.
A request whose Content-Length is not a count gets a 400 and the connection
is closed.
"""

import argparse
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from spec_funnel.backends.base import Query
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig
from spec_funnel.errors import ValidationError


def make_handler(backend: SyntheticBackend):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # a reply's last segment must not wait for the client's delayed ACK
        disable_nagle_algorithm = True
        # buffered: handle_one_request's flush sends the whole reply at once
        wbufsize = -1

        def do_POST(self):  # noqa: N802 (http.server API)
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if length < 0:
                # the body's end is unknown, so no further request can be read
                self.close_connection = True
                self._reply(400, {"error": "bad Content-Length"})
                return
            try:
                request = json.loads(self.rfile.read(length)) if length else {}
                if not isinstance(request, dict):
                    raise ValueError("not a JSON object")
                query = Query(
                    id=str(request.get("id", "q0")),
                    image_ref=str(request.get("image_ref", "")),
                    question=str(request.get("question", "")),
                )
                limit = int(request.get("top_logprobs", 64))
            except (TypeError, ValueError, RecursionError, ValidationError) as exc:
                self._reply(400, {"error": f"bad request body: {exc}"})
                return
            if self.path == "/judge":
                output = backend.judge(query)
                body = {"g": output.g, "latency_s": output.latency_s}
            elif self.path == "/speculate":
                draft = backend.speculate(query)
                logits = draft.token_logits
                body = {
                    "answer": draft.answer,
                    "tokens": [
                        {
                            "text": draft.answer if i == 0 else "",
                            "top_logprobs": [
                                {"token": f"tok{j}", "logprob": v} for j, v in enumerate(row[:n][:limit])
                            ],
                        }
                        for i, (row, n) in enumerate(zip(logits.values.tolist(), logits.lengths.tolist()))
                    ],
                    "latency_s": draft.latency_s,
                }
            elif self.path == "/agentic":
                output = backend.agentic_run(query)
                body = {
                    "answer": output.answer,
                    "depth": output.depth,
                    "step_costs": [[llm, tool] for llm, tool in output.step_costs],
                    "latency_s": output.latency_s,
                }
            else:
                self._reply(404, {"error": f"unknown route {self.path}"})
                return
            self._reply(200, body)

        def _reply(self, status, body):
            payload = json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

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

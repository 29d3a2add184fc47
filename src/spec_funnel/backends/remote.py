"""HTTP adapter for a remote generation server.

Wire protocol (JSON bodies, POST):
    /judge     {id, image_ref, question, prompt}        -> {g, latency_s}
    /speculate {id, image_ref, question, top_logprobs}  -> {answer, tokens:
                [{text, top_logprobs:[{token, logprob}]}], latency_s}
    /agentic   {id, image_ref, question, max_steps}     -> {answer, depth,
                step_costs:[[llm_s, tool_s]], latency_s}

step_costs carries one [llm_s, tool_s] pair per loop step including the
final answer-emission step (tool_s = 0 there), so len(step_costs) must be
depth + 1. Every successful exchange can be appended to a line-delimited
JSON log for offline replay.

Transport: one persistent stdlib connection per thread, kept while the
server keeps it alive. A kept connection the server closed while idle is
replaced before the next request; a POST is never sent twice. The adapter
connects directly and reads no proxy settings from the environment.
"""

import functools
import http.client
import json
import math
import select
import threading
import weakref
from urllib.parse import urlsplit

import numpy as np

from ..errors import BackendUnavailable, ValidationError
from ..gate import TokenLogits
from .base import AgenticOutput, JudgeOutput, Query, SpeculativeAnswer, integral, real

__all__ = [
    "DEFAULT_JUDGE_PROMPT",
    "ENDPOINT_ENV_VAR",
    "RemoteBackend",
    "parse_judge_response",
    "parse_speculate_response",
    "parse_agentic_response",
    "iter_exchanges",
    "replay_speculations",
]

DEFAULT_JUDGE_PROMPT = (
    "Answer 0 if the question is answerable from the full image without tools, else 1."
)
ENDPOINT_ENV_VAR = "SPEC_FUNNEL_ENDPOINT"


def parse_judge_response(body) -> JudgeOutput:
    try:
        g = integral(body["g"])
        latency = float(real(body["latency_s"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendUnavailable(f"malformed judge response: {exc!r}") from exc
    try:
        return JudgeOutput(g=g, latency_s=latency)
    except ValidationError as exc:
        raise BackendUnavailable(f"inconsistent judge response: {exc}") from exc


def parse_speculate_response(body, top_logprobs: int) -> SpeculativeAnswer:
    try:
        answer = str(body["answer"])
        tokens = body["tokens"]
        latency = float(real(body["latency_s"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendUnavailable(f"malformed speculate response: {exc!r}") from exc
    if not isinstance(tokens, list):
        raise BackendUnavailable("speculate response tokens must be a list")
    logits = []
    for entry in tokens:
        raw = entry.get("top_logprobs") if isinstance(entry, dict) else None
        if not raw:
            raise BackendUnavailable("missing logprobs")
        try:
            values = [float(real(e["logprob"])) for e in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendUnavailable(f"malformed logprob entry: {exc!r}") from exc
        # -inf marks a masked token, which lies outside the support and is
        # dropped; a NaN or +inf, also left out here, fails the response.
        kept = [v for v in values if -math.inf < v < math.inf]
        if len(kept) < len(values) and len(kept) + values.count(-math.inf) < len(values):
            raise BackendUnavailable("logprobs must not be NaN or +inf")
        if not kept:
            raise BackendUnavailable("no finite logprobs")
        kept.sort(reverse=True)
        logits.append(TokenLogits(np.array(kept[:top_logprobs])))
    if answer and not logits:
        raise BackendUnavailable("missing logprobs")
    try:
        return SpeculativeAnswer(answer=answer, token_logits=tuple(logits), latency_s=latency)
    except ValidationError as exc:
        raise BackendUnavailable(f"inconsistent speculate response: {exc}") from exc


def parse_agentic_response(body, max_steps: int) -> AgenticOutput:
    try:
        answer = str(body["answer"])
        depth = integral(body["depth"])
        raw_costs = body["step_costs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendUnavailable(f"malformed agentic response: {exc!r}") from exc
    if not isinstance(raw_costs, list) or not all(isinstance(c, list) and len(c) == 2 for c in raw_costs):
        raise BackendUnavailable("step_costs must be a list of [llm_s, tool_s] pairs")
    try:
        costs = [(real(a), real(b)) for a, b in raw_costs]
    except (TypeError, ValueError) as exc:
        raise BackendUnavailable(f"malformed step cost: {exc!r}") from exc
    if depth < 0 or len(costs) != depth + 1:
        raise BackendUnavailable(
            "step_costs must hold one pair per loop step plus the final answer step"
        )
    try:
        # latency is recomputed from the step costs so the output type keeps
        # its cost-sum identity; the server's wall-clock total stays in the
        # exchange log only.
        return AgenticOutput.from_steps(answer, costs, truncated=depth >= max_steps)
    except ValidationError as exc:
        raise BackendUnavailable(f"inconsistent agentic response: {exc}") from exc


class RemoteBackend:
    """Adapter speaking the three-route protocol against a base URL.

    Safe for bounded concurrent use: each thread keeps one persistent stdlib
    connection, reconnects when the server closed an idle connection, and
    never resends a request; exchange-log appends are serialized by a lock.
    """

    def __init__(
        self,
        base_url: str,
        *,
        top_logprobs: int = 64,
        max_steps: int = 5,
        timeout_s: float = 30.0,
        judge_prompt: str = DEFAULT_JUDGE_PROMPT,
        exchange_log=None,
    ):
        if not base_url:
            raise ValidationError("remote backend requires a base URL")
        self.base_url = base_url.rstrip("/")
        try:
            parts = urlsplit(self.base_url)
            port = parts.port
        except ValueError as exc:
            raise ValidationError(f"malformed remote base URL {base_url!r}: {exc}") from exc
        if (
            parts.scheme not in _CONNECTIONS
            or not parts.hostname
            or parts.username is not None
            or not all(" " < c <= "~" for c in self.base_url)
        ):
            raise ValidationError(
                f"remote base URL must be http(s)://host[:port][/prefix] in printable ASCII, got {base_url!r}"
            )
        self.top_logprobs = int(top_logprobs)
        self.max_steps = int(max_steps)
        self.timeout_s = float(timeout_s)
        self.judge_prompt = judge_prompt
        self._log_path = str(exchange_log) if exchange_log else None
        self._log_lock = threading.Lock()
        self._connect = functools.partial(
            _CONNECTIONS[parts.scheme], parts.hostname, port, timeout=self.timeout_s
        )
        self._path_prefix = parts.path
        self._host_header = parts.netloc
        self._local = threading.local()
        # weak: a thread's connection is closed and freed when the thread ends
        self._connections = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close the connection of every thread still holding one; a later
        call reconnects.

        Call it only while no request is in flight.
        """
        with self._connections_lock:
            for conn in list(self._connections):
                conn.close()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            self._local.closer = _Closer(conn)  # dropped with the thread's locals
            with self._connections_lock:
                self._connections.add(conn)
        elif conn.sock is not None and _readable(conn.sock):
            # an idle kept-alive socket with something to read was closed
            # (or garbled) by the server; the next send would be lost on it
            conn.close()
        return conn

    def _post(self, route: str, payload: dict) -> dict:
        body = json.dumps(payload).encode()
        head = (
            f"POST {self._path_prefix}{route} HTTP/1.1\r\nHost: {self._host_header}\r\n"
            f"Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        conn = self._connection()
        try:
            # one send for headers and body; send() connects a closed connection
            conn.send(head.encode("ascii") + body)
            response = http.client.HTTPResponse(conn.sock, method="POST")
            response.begin()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise BackendUnavailable(f"{route}: {exc}") from exc
        if response.will_close:
            conn.close()
        if response.status != 200:
            raise BackendUnavailable(f"{route}: HTTP {response.status}")
        try:
            body = json.loads(data)
        except (ValueError, RecursionError) as exc:
            raise BackendUnavailable(f"{route}: response is not JSON") from exc
        self._log(route, payload, body)
        return body

    def _log(self, route: str, request: dict, response: dict) -> None:
        if self._log_path is None:
            return
        line = json.dumps({"route": route, "request": request, "response": response}, sort_keys=True)
        with self._log_lock:
            with open(self._log_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    def judge(self, query: Query) -> JudgeOutput:
        body = self._post(
            "/judge",
            {
                "id": query.id,
                "image_ref": query.image_ref,
                "question": query.question,
                "prompt": self.judge_prompt,
            },
        )
        return parse_judge_response(body)

    def speculate(self, query: Query) -> SpeculativeAnswer:
        body = self._post(
            "/speculate",
            {
                "id": query.id,
                "image_ref": query.image_ref,
                "question": query.question,
                "top_logprobs": self.top_logprobs,
            },
        )
        return parse_speculate_response(body, self.top_logprobs)

    def agentic_run(self, query: Query) -> AgenticOutput:
        body = self._post(
            "/agentic",
            {
                "id": query.id,
                "image_ref": query.image_ref,
                "question": query.question,
                "max_steps": self.max_steps,
            },
        )
        return parse_agentic_response(body, self.max_steps)


_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


class _Closer:
    """Closes a connection when freed, as a thread's locals are when it ends."""

    def __init__(self, conn):
        self.conn = conn

    def __del__(self):
        self.conn.close()


def _readable(sock) -> bool:
    """Zero-timeout readability check of an idle socket."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])  # no poll() on Windows


def iter_exchanges(path):
    """Yield logged exchanges from a line-delimited JSON file."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValidationError(f"{path}:{line_no}: not valid JSON ({exc})") from exc


def replay_speculations(path, top_logprobs: int = 64) -> dict[str, SpeculativeAnswer]:
    """Rebuild speculative answers from a logged exchange file.

    Uses the same parser as the live adapter, so replayed token logits are
    identical to what the original run saw.
    """
    out = {}
    for entry in iter_exchanges(path):
        if entry.get("route") != "/speculate":
            continue
        try:
            qid = entry["request"]["id"]
            response = entry["response"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed exchange entry: {exc!r}") from exc
        out[str(qid)] = parse_speculate_response(response, top_logprobs)
    return out

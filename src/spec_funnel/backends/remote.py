"""HTTP adapter for a remote generation server.

Wire protocol (JSON bodies, POST):
    /judge     {id, image_ref, question, prompt}        -> {g, latency_s}
    /speculate {id, image_ref, question, top_logprobs}  -> {answer, tokens:
                [{text, top_logprobs:[{token, logprob}]}], latency_s}
    /agentic   {id, image_ref, question, max_steps}     -> {answer, depth,
                step_costs:[[llm_s, tool_s]], latency_s}

step_costs carries one [llm_s, tool_s] pair per loop step including the
final answer-emission step (tool_s = 0 there), so len(step_costs) must be
depth + 1. Every exchange answered 200 with a JSON body can be appended to
a line-delimited JSON log for offline replay; it is logged before the
route's parser checks it, so the log also holds responses the run rejected.

Transport: one persistent connection per thread, kept while the server
keeps it alive. http.client's HTTPConnection or HTTPSConnection connects
(and does TLS); the adapter writes each request in one send and reads the
response itself: a status line of HTTP/1.1 or HTTP/1.0 and a three-digit
code, 1xx responses skipped, then a header block read by the rule in
spec_funnel.backends.http11. A body with no framing header runs to EOF and
the connection is then closed, as it is after an HTTP/1.0 reply or
Connection: close. A framing fault closes the connection and fails the call.
A kept connection the server closed while idle, or that holds bytes after a
complete response, is replaced before the next request; a POST is never
sent twice. The adapter connects directly and reads no proxy settings from
the environment.
"""

import functools
import json
import math
import operator
import re
import select
import threading
import weakref
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from urllib.parse import urlsplit

import numpy as np

from ..bounds import COUNT, Range, check
from ..errors import BackendUnavailable, ValidationError
from ..gate import AnswerLogits
from .base import AgenticOutput, JudgeOutput, Query, SpeculativeAnswer, integral, real, reals
from .http11 import MAX_LINE, framing

__all__ = [
    "DEFAULT_JUDGE_PROMPT",
    "ENDPOINT_ENV_VAR",
    "RemoteBackend",
    "parse_judge_response",
    "parse_speculate_response",
    "parse_agentic_response",
    "iter_exchanges",
    "request_id",
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


_LOGPROB = operator.itemgetter("logprob")


def parse_speculate_response(body, top_logprobs: int) -> SpeculativeAnswer:
    check(COUNT, top_logprobs=top_logprobs)
    try:
        answer = body["answer"]
        tokens = body["tokens"]
        latency = float(real(body["latency_s"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendUnavailable(f"malformed speculate response: {exc!r}") from exc
    if not isinstance(answer, str):
        raise BackendUnavailable("speculate response answer must be a string")
    if not isinstance(tokens, list):
        raise BackendUnavailable("speculate response tokens must be a list")
    rows = []
    for entry in tokens:
        raw = entry.get("top_logprobs") if isinstance(entry, dict) else None
        if not raw:
            raise BackendUnavailable("missing logprobs")
        try:
            values = reals(list(map(_LOGPROB, raw)))
        except (KeyError, TypeError, ValidationError) as exc:
            raise BackendUnavailable(f"malformed logprob entry: {exc!r}") from exc
        if not all(map(math.isfinite, values)):
            # -inf marks a masked token, which lies outside the support and
            # is dropped; a NaN or +inf fails the response.
            kept = [v for v in values if -math.inf < v < math.inf]
            if len(kept) + values.count(-math.inf) < len(values):
                raise BackendUnavailable("logprobs must not be NaN or +inf")
            if not kept:
                raise BackendUnavailable("no finite logprobs")
            values = kept
        values.sort(reverse=True)
        rows.append(values[:top_logprobs])
    if answer and not rows:
        raise BackendUnavailable("missing logprobs")
    # one packed array per answer, each row padded with -inf to the widest
    lengths = [len(row) for row in rows]
    width = max(lengths, default=0)
    rows = [row + [-math.inf] * (width - len(row)) for row in rows]
    try:
        values = np.array(rows, dtype=np.float64).reshape(len(rows), width)
        token_logits = AnswerLogits(values, np.array(lengths))
        return SpeculativeAnswer(answer=answer, token_logits=token_logits, latency_s=latency)
    except ValidationError as exc:
        raise BackendUnavailable(f"inconsistent speculate response: {exc}") from exc


def parse_agentic_response(body, max_steps: int) -> AgenticOutput:
    try:
        answer = body["answer"]
        depth = integral(body["depth"])
        raw_costs = body["step_costs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendUnavailable(f"malformed agentic response: {exc!r}") from exc
    if not isinstance(answer, str):
        raise BackendUnavailable("agentic response answer must be a string")
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
        # latency is the sum of the step costs; the server's wall-clock total
        # stays in the exchange log only
        return AgenticOutput(answer, costs, truncated=depth >= max_steps)
    except ValidationError as exc:
        raise BackendUnavailable(f"inconsistent agentic response: {exc}") from exc


class RemoteBackend:
    """Adapter speaking the three-route protocol against a base URL.

    Safe for bounded concurrent use: each thread keeps one persistent
    connection, reconnects when the server closed an idle connection, and
    never resends a request; exchange-log appends are serialized by a lock.
    A connection lives until its thread ends or close() is called.
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
        self.top_logprobs = integral(top_logprobs)
        self.max_steps = integral(max_steps)
        self.timeout_s = float(timeout_s)
        check(COUNT, top_logprobs=self.top_logprobs, max_steps=self.max_steps)
        check(Range(0, open=True), timeout_s=self.timeout_s)
        self.judge_prompt = judge_prompt
        self._log_path = str(exchange_log) if exchange_log else None
        self._log_file = None  # opened by the first logged exchange, closed by close()
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
        """Close the connection of every thread still holding one, and the
        exchange log; a later call reconnects and reopens the log.

        Call it only while no request is in flight.
        """
        with self._connections_lock:
            for link in list(self._connections):
                link.close()
        with self._log_lock:
            if self._log_file is not None:
                self._close_log()
                self._log_file = None

    def _link(self) -> "_Link":
        link = getattr(self._local, "link", None)
        if link is None:
            link = self._local.link = _Link(self._connect())  # dropped with the thread's locals
            with self._connections_lock:
                self._connections.add(link)
        elif link.stale():
            link.close()
        return link

    def _post(self, route: str, payload: dict) -> dict:
        body = json.dumps(payload).encode()
        head = (
            f"POST {self._path_prefix}{route} HTTP/1.1\r\nHost: {self._host_header}\r\n"
            f"Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        link = self._link()
        try:
            status, data = link.exchange(head.encode("ascii") + body)
        except (OSError, HTTPException) as exc:
            link.close()
            raise BackendUnavailable(f"{route}: {exc}") from exc
        if status != 200:
            raise BackendUnavailable(f"{route}: HTTP {status}")
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
            if self._log_file is None:
                try:
                    # line-buffered, so each exchange reaches the OS before its call returns
                    self._log_file = open(self._log_path, "a", encoding="utf-8", buffering=1)
                except OSError as exc:  # not a backend failure: no fallback can help
                    raise ValidationError(f"unwritable exchange log {self._log_path}: {exc}") from exc
                self._close_log = weakref.finalize(self, self._log_file.close)  # also when freed unclosed
            self._log_file.write(line + "\n")

    def _ask(self, route: str, query: Query, **extra) -> dict:
        return self._post(route, {"id": query.id, "image_ref": query.image_ref, "question": query.question, **extra})

    def judge(self, query: Query) -> JudgeOutput:
        return parse_judge_response(self._ask("/judge", query, prompt=self.judge_prompt))

    def speculate(self, query: Query) -> SpeculativeAnswer:
        body = self._ask("/speculate", query, top_logprobs=self.top_logprobs)
        return parse_speculate_response(body, self.top_logprobs)

    def agentic_run(self, query: Query) -> AgenticOutput:
        return parse_agentic_response(self._ask("/agentic", query, max_steps=self.max_steps), self.max_steps)


_CONNECTIONS = {"http": HTTPConnection, "https": HTTPSConnection}


_RECV_BYTES = 65536
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,15}")


class _Link:
    """One thread's connection and the buffered reader of its socket.

    buf[pos:] holds what was received and not yet parsed; it is emptied
    whenever the socket is replaced. Closes the connection when freed, as a
    thread's locals are when the thread ends.
    """

    def __init__(self, conn):
        self.conn = conn
        self.sock = None
        self.buf = b""
        self.pos = 0

    def __del__(self):
        self.close()

    def close(self) -> None:
        self.conn.close()
        self.sock = None
        self.buf, self.pos = b"", 0

    def stale(self) -> bool:
        """Whether an idle open socket holds bytes no request asked for:
        left after the last response, or sent since, which is how a server
        closing the connection shows. The next send would be lost on it."""
        return self.sock is not None and (self.pos < len(self.buf) or _readable(self.sock))

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request and read its final response: (status, body)."""
        if self.sock is None:
            self.conn.connect()
            self.sock = self.conn.sock
        self.conn.send(request)
        status = 100
        while 100 <= status < 200:  # interim responses carry no body
            version, status = self._status_line()
            length, chunked, close = framing(self._line)
        if chunked:
            body = self._chunked()
        elif length is not None:
            body = self._read(length)
        else:
            body, close = self._read_to_eof(), True
        if close or version == b"HTTP/1.0":
            self.close()
        return status, body

    def _status_line(self) -> tuple[bytes, int]:
        line = self._line("status line")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        status = int(code) if code.isdigit() and len(code) == 3 and rest[3:4] in (b"", b" ") else 0
        if version not in (b"HTTP/1.1", b"HTTP/1.0") or status < 100:
            raise HTTPException(f"bad status line {line[:80]!r}")
        return version, status

    def _chunked(self) -> bytes:
        parts = []
        while True:
            size = self._line("chunk size line").partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise HTTPException(f"bad chunk size {size[:80]!r}")
            n = int(size, 16)
            if not n:
                break
            parts.append(self._read(n))
            if self._line("chunk end"):
                raise HTTPException("chunk longer than its size")
        framing(self._line)  # the trailer section, read and ignored
        return b"".join(parts)

    def _line(self, what: str = "header line") -> bytes:
        """The next line, without its CRLF or LF."""
        end = self.buf.find(b"\n", self.pos)
        while end < 0:
            scanned = len(self.buf) - self.pos
            if scanned >= MAX_LINE:
                raise HTTPException(f"{what} over {MAX_LINE} bytes")
            self._fill()
            end = self.buf.find(b"\n", scanned)
        start, self.pos = self.pos, end + 1
        if end + 1 - start > MAX_LINE:
            raise HTTPException(f"{what} over {MAX_LINE} bytes")
        if end > start and self.buf[end - 1] == 13:  # CR
            end -= 1
        return self.buf[start:end]

    def _fill(self) -> None:
        data = self.sock.recv(_RECV_BYTES)
        if not data:
            raise HTTPException("connection closed before the response was complete")
        self.buf = self.buf[self.pos :] + data
        self.pos = 0

    def _read(self, n: int) -> bytes:
        """The next n bytes, received as they arrive (a length is never
        allocated up front)."""
        start, end = self.pos, self.pos + n
        if end <= len(self.buf):
            self.pos = end
            return self.buf[start:end]
        parts = [self.buf[start:]]
        missing = end - len(self.buf)
        self.buf, self.pos = b"", 0
        while missing:
            data = self.sock.recv(min(missing, _RECV_BYTES))
            if not data:
                raise HTTPException("connection closed before the response was complete")
            parts.append(data)
            missing -= len(data)
        return b"".join(parts)

    def _read_to_eof(self) -> bytes:
        parts = [self.buf[self.pos :]]
        self.buf, self.pos = b"", 0
        while data := self.sock.recv(_RECV_BYTES):
            parts.append(data)
        return b"".join(parts)


def _readable(sock) -> bool:
    """Zero-timeout readability check of an idle socket."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])  # no poll() on Windows


def request_id(request: dict) -> str:
    """The id of a request on the wire: a non-empty string, as the client
    sends Query.id. Any other id, or none, is a ValidationError."""
    value = request.get("id")
    if isinstance(value, str) and value:
        return value
    raise ValidationError(f"request id must be a non-empty string, not {value!r}")


def iter_exchanges(path):
    """Yield logged exchanges, one JSON object a line, from a file. An
    unreadable file, and a line that is not a JSON object or lacks a route,
    a request id or a response, is a ValidationError naming the path, and
    the line where there is one. A request id is a non-empty string, as the
    client logs Query.id."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise ValidationError(f"{path}:{line_no}: not valid JSON ({exc})") from exc
                if not isinstance(entry, dict):
                    raise ValidationError(f"{path}:{line_no}: not a JSON object")
                request = entry.get("request")
                if not ("route" in entry and "response" in entry and isinstance(request, dict) and "id" in request):
                    raise ValidationError(f"{path}:{line_no}: entry needs a route, a request id and a response")
                try:
                    request_id(request)
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{line_no}: {exc}") from None
                yield entry
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"unreadable exchange log {path}: {exc}") from exc


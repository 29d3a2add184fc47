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
"""

import json
import math
import threading

import requests

from ..errors import BackendUnavailable, ValidationError
from ..gate import TokenLogits
from .base import AgenticOutput, JudgeOutput, Query, SpeculativeAnswer

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
        g = int(body["g"])
        latency = float(body["latency_s"])
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
        latency = float(body["latency_s"])
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
            values = [float(e["logprob"]) for e in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendUnavailable(f"malformed logprob entry: {exc!r}") from exc
        # NaN and +inf fail this comparison; -inf marks a masked token,
        # which lies outside the support and is dropped.
        if not all(v < math.inf for v in values):
            raise BackendUnavailable("logprobs must not be NaN or +inf")
        values = sorted((v for v in values if v > -math.inf), reverse=True)
        if not values:
            raise BackendUnavailable("no finite logprobs")
        logits.append(TokenLogits.from_raw(values[:top_logprobs]))
    if answer and not logits:
        raise BackendUnavailable("missing logprobs")
    try:
        return SpeculativeAnswer(answer=answer, token_logits=tuple(logits), latency_s=latency)
    except ValidationError as exc:
        raise BackendUnavailable(f"inconsistent speculate response: {exc}") from exc


def parse_agentic_response(body, max_steps: int) -> AgenticOutput:
    try:
        answer = str(body["answer"])
        depth = int(body["depth"])
        raw_costs = body["step_costs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise BackendUnavailable(f"malformed agentic response: {exc!r}") from exc
    if not isinstance(raw_costs, list):
        raise BackendUnavailable("step_costs must be a list")
    try:
        costs = [(float(a), float(b)) for a, b in raw_costs]
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

    Safe for bounded concurrent use: each thread gets its own HTTP session
    and exchange-log appends are serialized by a lock.
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
        self.top_logprobs = int(top_logprobs)
        self.max_steps = int(max_steps)
        self.timeout_s = float(timeout_s)
        self.judge_prompt = judge_prompt
        self._log_path = str(exchange_log) if exchange_log else None
        self._log_lock = threading.Lock()
        self._local = threading.local()

    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = requests.Session()
            self._local.session = session
        return session

    def _post(self, route: str, payload: dict) -> dict:
        url = self.base_url + route
        try:
            response = self._session().post(url, json=payload, timeout=self.timeout_s)
        except requests.RequestException as exc:
            raise BackendUnavailable(f"{route}: {exc}") from exc
        if response.status_code != 200:
            raise BackendUnavailable(f"{route}: HTTP {response.status_code}")
        try:
            body = response.json()
        except ValueError as exc:
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


def iter_exchanges(path):
    """Yield logged exchanges from a line-delimited JSON file."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
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

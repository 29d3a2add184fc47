"""Write the exchange log a remote `spec-funnel run` would record, without a server.

    python3 perfbench/exchange_log.py --seed S --n N --log LOG --expected EXPECTED

The log holds what `spec-funnel run --seed S --set workload.n_queries=N
--set backend.kind=remote --set backend.exchange_log=LOG` records against
`scripts/serve_synthetic.py --seed S`: the same requests, in the same
order, with the response bodies that server builds from its
SyntheticBackend. Each backend call sees only the wire fields of the query,
as the server does.

EXPECTED is a JSON object mapping each speculated query id to the
``[score, verdict]`` that the gate gives the server-side draft directly,
without the JSON round trip. Replaying LOG must reproduce these exactly,
because floats survive JSON unchanged.
"""

import argparse
import json

from spec_funnel.backends.base import Query
from spec_funnel.backends.remote import (
    DEFAULT_JUDGE_PROMPT,
    parse_agentic_response,
    parse_judge_response,
    parse_speculate_response,
)
from spec_funnel.backends.synthetic import SyntheticBackend, SyntheticConfig, make_workload
from spec_funnel.funnel import ScheduleConfig, serve_batch
from spec_funnel.gate import GateConfig, gate

TOP_LOGPROBS = 64


class WireRecorder:
    """Backend that logs each call as a RemoteBackend exchange with the synthetic server."""

    def __init__(self, backend: SyntheticBackend, log):
        self.backend = backend
        self.max_steps = backend.config.depth_cap
        self.log = log
        self.drafts = {}

    def _exchange(self, route, request, response):
        line = json.dumps({"route": route, "request": request, "response": response}, sort_keys=True)
        self.log.write(line + "\n")

    @staticmethod
    def _wire(query):
        request = {"id": query.id, "image_ref": query.image_ref, "question": query.question}
        return request, Query(**request)

    def judge(self, query):
        request, seen = self._wire(query)
        output = self.backend.judge(seen)
        body = {"g": output.g, "latency_s": output.latency_s}
        self._exchange("/judge", {**request, "prompt": DEFAULT_JUDGE_PROMPT}, body)
        return parse_judge_response(body)

    def speculate(self, query):
        request, seen = self._wire(query)
        draft = self.backend.speculate(seen)
        self.drafts[query.id] = draft
        body = {
            "answer": draft.answer,
            "tokens": [
                {
                    "text": draft.answer if i == 0 else "",
                    "top_logprobs": [
                        {"token": f"tok{j}", "logprob": float(v)}
                        for j, v in enumerate(token.values[:TOP_LOGPROBS])
                    ],
                }
                for i, token in enumerate(draft.token_logits)
            ],
            "latency_s": draft.latency_s,
        }
        self._exchange("/speculate", {**request, "top_logprobs": TOP_LOGPROBS}, body)
        return parse_speculate_response(body, TOP_LOGPROBS)

    def agentic_run(self, query):
        request, seen = self._wire(query)
        output = self.backend.agentic_run(seen)
        body = {
            "answer": output.answer,
            "depth": output.depth,
            "step_costs": [[llm, tool] for llm, tool in output.step_costs],
            "latency_s": output.latency_s,
        }
        self._exchange("/agentic", {**request, "max_steps": self.max_steps}, body)
        return parse_agentic_response(body, self.max_steps)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True, help="queries in the logged batch")
    parser.add_argument("--log", required=True)
    parser.add_argument("--expected", required=True)
    args = parser.parse_args()

    config = SyntheticConfig(seed=args.seed)
    gate_config = GateConfig()
    with open(args.log, "w", encoding="utf-8") as log:
        recorder = WireRecorder(SyntheticBackend(config), log)
        serve_batch(make_workload(config, args.n), gate_config, ScheduleConfig(), recorder)
    expected = {}
    for qid, draft in recorder.drafts.items():
        decision = gate(draft.token_logits, gate_config)
        expected[qid] = [decision.score, decision.verdict.value]
    with open(args.expected, "w", encoding="utf-8") as fh:
        json.dump(expected, fh)


if __name__ == "__main__":
    main()

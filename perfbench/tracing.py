"""Span recording around the calls into each spec_funnel module.

The package imports names directly (``from .gate import gate``), so a
wrapper only sees the calls made through the name it replaces. Each site
in ``instrument`` therefore names the module where a caller looks the
function up, not the module that defines it. Spans stay in memory until the traced
command has finished; ``layer_metrics`` then reduces them to per-layer
numbers and ``write_spans`` saves them as JSON lines.

A span is ``(span_id, parent_id, name, start, end, thread, query_id,
count, failed)``. Its parent is the innermost open span of the same thread;
a span opened on a worker thread with nothing open there is parented to
the innermost open span of the main thread, which is the stage waiting on
that pool. Self time is a span's duration minus the part of its interval
covered by the union of its children, so concurrent children on two
worker threads are not subtracted twice.
"""

import functools
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict

SPAN_FIELDS = ("span", "parent", "name", "start", "end", "thread", "query", "count", "failed")

FRONTEND_CALLS = ("synthetic.judge", "synthetic.speculate", "remote.judge", "remote.speculate")
DRAIN_CALLS = ("synthetic.agentic_run", "remote.agentic")
REMOTE_ROUTES = ("judge", "speculate", "agentic")
CALIBRATION_STEPS = ("collect_scores", "kde", "sweep_threshold", "union_bound_report")


class Tracer:
    """Collects spans from wrapped callables, on any thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._local = threading.local()

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, query_of, args):
        stack = self._stack()
        enclosing = stack or self._main_stack
        parent, parent_query = enclosing[-1] if enclosing else (None, None)
        query = query_of(args) if query_of is not None else parent_query
        span_id = next(self._ids)
        stack.append((span_id, query))
        return stack, span_id, parent, query

    def wrap(self, fn, name, query_of=None, count_of=None):
        """Return ``fn`` recording one span per call.

        ``query_of(args)`` names the query a call serves (else the parent's
        is inherited); ``count_of(args, result)`` gives the work count the
        span carries, such as tokens gated or bytes written.
        """
        clock = time.perf_counter
        record = self.spans.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, span_id, parent, query = self._open(query_of, args)
            count = 0
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                if not failed and count_of is not None:
                    count = count_of(args, result)
                record((span_id, parent, name, start, end, threading.get_ident(), query, count, failed))
            return result

        return traced

    def wrap_generator(self, fn, name):
        """Like ``wrap`` for a generator function: one span per item produced."""
        clock = time.perf_counter
        record = self.spans.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                stack, span_id, parent, query = self._open(None, args)
                failed = True
                start = clock()
                try:
                    item = next(items)
                    failed = False
                except StopIteration:
                    failed = False
                    return
                finally:
                    end = clock()
                    stack.pop()
                    record((span_id, parent, name, start, end, threading.get_ident(), query, 0, failed))
                yield item

        return traced


def _query_arg(index):
    return lambda args: args[index].id if len(args) > index else None


def _substream_query(args):
    return str(args[1]) if len(args) > 1 else None


def _answer_tokens(args, _result):
    return len(args[0])


def _parsed_tokens(_args, result):
    return len(result.token_logits)


def _file_bytes(args, _result):
    return os.path.getsize(args[0])


def instrument(tracer):
    """Replace each traced name at its lookup site with a recording wrapper."""
    from spec_funnel import calibration, cli, funnel, pipeline
    from spec_funnel.backends import remote, synthetic

    sites = [
        (cli, "main", "cli.main", None, None),
        (cli, "serve_batch", "funnel.serve_batch", None, None),
        (cli, "make_workload", "synthetic.make_workload", None, None),
        (cli, "gate", "gate", None, _answer_tokens),
        (cli, "write_json", "recordio.write", None, _file_bytes),
        (cli, "write_jsonl", "recordio.write", None, _file_bytes),
        (cli, "write_csv", "recordio.write", None, _file_bytes),
        (funnel, "process_query", "pipeline.process_query", _query_arg(0), None),
        (pipeline, "gate", "gate", None, _answer_tokens),
        (calibration, "gate", "gate", None, _answer_tokens),
        (synthetic, "substream", "synthetic.substream", _substream_query, None),
        (remote, "parse_judge_response", "remote.parse_judge", None, None),
        (remote, "parse_speculate_response", "remote.parse_speculate", None, _parsed_tokens),
        (remote, "parse_agentic_response", "remote.parse_agentic", None, None),
    ]
    sites += [(calibration, step, f"calibration.{step}", None, None) for step in CALIBRATION_STEPS]
    for method in ("judge", "speculate", "agentic_run"):
        sites.append((synthetic.SyntheticBackend, method, f"synthetic.{method}", _query_arg(1), None))
    for method, route in zip(("judge", "speculate", "agentic_run"), REMOTE_ROUTES):
        sites.append((remote.RemoteBackend, method, f"remote.{route}", _query_arg(1), None))
    for owner, attr, name, query_of, count_of in sites:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, query_of, count_of))
    remote.iter_exchanges = tracer.wrap_generator(remote.iter_exchanges, "remote.iter_exchanges")


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Map span id to its duration minus the time its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - _covered(children.get(span[0], ()), span[3], span[4])
        for span in spans
    }


def _stage(calls):
    """Calls per second and busy share of one funnel stage's backend calls.

    The stage window runs from its first call's start to its last call's
    end; busy share is summed call time over (threads used x window).
    """
    if not calls:
        return 0.0, 0.0
    window = max(s[4] for s in calls) - min(s[3] for s in calls)
    if window <= 0.0:
        return 0.0, 0.0
    threads = len({s[5] for s in calls})
    busy = math.fsum(s[4] - s[3] for s in calls)
    return len(calls) / window, busy / (threads * window)


def layer_metrics(spans):
    """Reduce one traced command's spans to per-layer numbers.

    Returns ``(metrics, call_ms, thread_self_s)``: the per-command metrics,
    the wall duration in ms of every remote call by route (percentiles are
    pooled across commands by the caller), and the summed self time of the
    spans on each thread.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    failed = defaultdict(int)
    thread_self = defaultdict(float)
    by_id = {}
    for span in spans:
        span_id, _, name, _, _, thread, _, count, did_fail = span
        by_id[span_id] = span
        calls[name] += 1
        self_s[name] += own[span_id]
        counts[name] += count
        failed[name] += did_fail
        thread_self[thread] += own[span_id]

    def within(span, name):
        parent = span[1]
        while parent is not None:
            ancestor = by_id[parent]
            if ancestor[2] == name:
                return True
            parent = ancestor[1]
        return False

    agentic = [s for s in spans if s[2] == "synthetic.agentic_run"]
    useful = sum(1 for s in agentic if within(s, "pipeline.process_query"))
    parse_names = ("remote.parse_judge", "remote.parse_speculate", "remote.parse_agentic")
    metrics = {
        "gate.calls": calls["gate"],
        "gate.tokens": counts["gate"],
        "gate.self_s": self_s["gate"],
        "gate.us_per_token": 1e6 * self_s["gate"] / counts["gate"] if counts["gate"] else 0.0,
        "synthetic.agentic_run.useful_share": useful / len(agentic) if agentic else 0.0,
        "synthetic.make_workload.self_s": self_s["synthetic.make_workload"],
        "remote.parse.self_s": math.fsum(self_s[n] for n in parse_names),
        "remote.parse.us_per_token": (
            1e6 * self_s["remote.parse_speculate"] / counts["remote.parse_speculate"]
            if counts["remote.parse_speculate"]
            else 0.0
        ),
        "remote.iter_exchanges.self_s": self_s["remote.iter_exchanges"],
        "pipeline.process_query.calls": calls["pipeline.process_query"],
        "pipeline.process_query.self_s": self_s["pipeline.process_query"],
        "funnel.serve_batch.self_s": self_s["funnel.serve_batch"],
        "cli.self_s": self_s["cli.main"],
        "recordio.write.self_s": self_s["recordio.write"],
        "recordio.bytes_written": counts["recordio.write"],
    }
    for part in ("judge", "speculate", "agentic_run", "substream"):
        metrics[f"synthetic.{part}.calls"] = calls[f"synthetic.{part}"]
        metrics[f"synthetic.{part}.self_s"] = self_s[f"synthetic.{part}"]
    for route in REMOTE_ROUTES:
        metrics[f"remote.{route}.calls"] = calls[f"remote.{route}"]
        metrics[f"remote.{route}.failed"] = failed[f"remote.{route}"]
    for step in CALIBRATION_STEPS:
        metrics[f"calibration.{step}.self_s"] = self_s[f"calibration.{step}"]
    for stage, names in (("frontend", FRONTEND_CALLS), ("drain", DRAIN_CALLS)):
        rate, busy = _stage([s for s in spans if s[2] in names and within(s, "funnel.serve_batch")])
        metrics[f"funnel.{stage}.calls_per_s"] = rate
        metrics[f"funnel.{stage}.busy_share"] = busy
    call_ms = {
        route: [1e3 * (s[4] - s[3]) for s in spans if s[2] == f"remote.{route}"]
        for route in REMOTE_ROUTES
    }
    return metrics, call_ms, list(thread_self.values())

#!/usr/bin/env python3
"""Engine-cost benchmark for spec-funnel: CPU and wall time of this code, not
the virtual-clock serving numbers it reports.

    python3 perfbench/run.py --workload sim-run --seed 0 --seconds 28 --trace 0

Run it from the root of a checkout. For ``--seconds`` it repeats one
closed-batch `spec-funnel` command, each time in a fresh interpreter
(client.py) with a fixed minimal environment, checks each command's output
files, and prints one JSON result as its last line. With ``--trace 0`` the
result holds the end-to-end metrics over the commands. With
``--trace 1`` traced and untraced commands alternate; the result holds the
per-layer metrics from the traced ones and ``trace.overhead_share`` from the
pair. perfbench/README.md describes the workloads and every metric.
"""

import argparse
import csv
import hashlib
import http.client
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0

# Queries per command (for replay-rescore: queries in the logged batch).
# Each command then takes 1.5 to 4.5 s on a 2-vCPU host, so one run holds
# enough of them for a median.
SIZES = {"sim-run": 2000, "calibrate": 2000, "remote-measured": 500, "replay-rescore": 3000}
MIN_COMMANDS = 3  # of each kind, traced and untraced
RUN_LIMIT_S = 170  # a run has to finish within 180 s
SERVER_START_TIMEOUT_S = 30

E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MiB",
    "success_share": "ratio",
}
LAYER_UNITS = {
    "gate.calls": "count",
    "gate.tokens": "count",
    "gate.self_s": "s",
    "gate.us_per_token": "us",
    **{f"synthetic.{p}.calls": "count" for p in ("judge", "speculate", "agentic_run", "substream")},
    **{f"synthetic.{p}.self_s": "s" for p in ("judge", "speculate", "agentic_run", "substream")},
    "synthetic.make_workload.self_s": "s",
    "synthetic.agentic_run.useful_share": "ratio",
    **{
        f"remote.{route}.{name}": unit
        for route in ("judge", "speculate", "agentic")
        for name, unit in (
            ("calls", "count"),
            ("failed", "count"),
            ("call_ms.p50", "ms"),
            ("call_ms.p99", "ms"),
            ("call_ms.samples", "count"),
        )
    },
    "remote.parse.self_s": "s",
    "remote.parse.us_per_token": "us",
    "remote.iter_exchanges.self_s": "s",
    "remote.client_cpu_ms_per_call": "ms",
    "server.cpu_ms_per_call": "ms",
    "pipeline.process_query.calls": "count",
    "pipeline.process_query.self_s": "s",
    "funnel.serve_batch.self_s": "s",
    "funnel.frontend.calls_per_s": "1/s",
    "funnel.drain.calls_per_s": "1/s",
    "funnel.frontend.busy_share": "ratio",
    "funnel.drain.busy_share": "ratio",
    **{
        f"calibration.{step}.self_s": "s"
        for step in ("collect_scores", "kde", "sweep_threshold", "union_bound_report")
    },
    "cli.self_s": "s",
    "recordio.write.self_s": "s",
    "recordio.bytes_written": "bytes",
    "trace.overhead_share": "ratio",
    "failed_share": "ratio",
}


class CommandFailed(Exception):
    """A command, or the server it needs, did not complete."""


def cli_args(workload, seed, n, out, endpoint=None, log=None):
    common = ["--seed", str(seed), "--out", str(out)]
    size = ["--set", f"workload.n_queries={n}"]
    if workload == "sim-run":
        return ["run", *common, *size]
    if workload == "calibrate":
        return ["calibrate", *common, *size]
    if workload == "remote-measured":
        pools = ["schedule.mode=measured", "schedule.frontend_workers=2", "schedule.agentic_workers=1"]
        return ["run", *common, *size, "--endpoint", endpoint, *(a for p in pools for a in ("--set", p))]
    return ["replay", str(log), *common]


def child_env(root, home):
    """The whole environment of every child process.

    The remote client's cost per call grows with the environment, since
    requests scans it for proxy settings on every call.
    """
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(root / "src"),
        "HOME": str(home),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def _proc_cpu_s(pid):
    """User plus system CPU seconds of a live process, from /proc."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def one_cpu():
    """A preexec_fn that pins a child to the lowest CPU this process may use.

    remote-measured pins its client and server to the same CPU. Two processes
    plus the client's pool threads spread over two shared vCPUs measured the
    host's scheduler: the same command took 1.8 to 3.9 s of wall time. On one
    CPU the wall time is the CPU time of both sides plus the switches.
    """
    cpu = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


class Server:
    """scripts/serve_synthetic.py on 127.0.0.1, on a port the OS picks."""

    def __init__(self, root, seed, env, stderr_path, preexec_fn=None):
        script = root / "scripts" / "serve_synthetic.py"
        with open(stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", str(script), "--port", "0", "--seed", str(seed)],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
                cwd=root,
                text=True,
                preexec_fn=preexec_fn,
            )
        try:
            self.url = self._read_url()
            self._probe()
            self.cpu_at_ready = _proc_cpu_s(self.proc.pid)
        except BaseException:
            self.kill()
            raise

    def _read_url(self):
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(SERVER_START_TIMEOUT_S):
                raise CommandFailed("server printed no URL")
        line = self.proc.stdout.readline().strip()
        if not line.startswith("serving"):
            raise CommandFailed(f"server did not start (exit {self.proc.poll()})")
        return line.split()[-1]

    def _probe(self):
        """POST one judge request until the server answers it."""
        address = urlsplit(self.url)
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise CommandFailed(f"server exited with {self.proc.returncode}")
            connection = http.client.HTTPConnection(address.hostname, address.port, timeout=5)
            try:
                connection.request("POST", "/judge", body=b'{"id": "probe"}')
                if connection.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                connection.close()
            if time.monotonic() > deadline:
                raise CommandFailed("server never answered its probe")
            time.sleep(0.05)

    def stop(self):
        """Stop the server; return the CPU seconds it used after it was ready."""
        if self.proc.poll() is not None:
            raise CommandFailed(f"server died with {self.proc.returncode}")
        self.proc.terminate()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_utime + usage.ru_stime - self.cpu_at_ready

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_client(root, env, argv, spans, stderr_path, timeout_s, preexec_fn=None):
    """Run client.py with one spec-funnel command; return its report."""
    command = [sys.executable, str(HERE / "client.py"), "--src", str(root / "src")]
    if spans:
        command += ["--spans", str(spans)]
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(
            command + ["--", *argv],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=env,
            cwd=root,
            text=True,
            preexec_fn=preexec_fn,
        )
        try:
            out, _ = proc.communicate(timeout=timeout_s)
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise CommandFailed(f"command did not finish within {timeout_s:.0f} s") from None
            raise
    if proc.returncode != 0:
        tail = Path(stderr_path).read_text(errors="replace").strip().splitlines()[-1:]
        raise CommandFailed(f"client exit {proc.returncode}: {' '.join(tail)}")
    report = json.loads(out.strip().splitlines()[-1])
    if report["exit"] != 0:
        raise CommandFailed(f"spec-funnel exit {report['exit']}: {Path(stderr_path).read_text().strip()}")
    return report


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def check_run(out, n, measured):
    """Outcome invariants and digests of a `run` directory.

    In measured mode the makespans are wall clock, so only the outcome
    records and the stats counts are digested.
    """
    data = (out / "outcomes.jsonl").read_bytes()
    records = [json.loads(line) for line in data.splitlines()]
    problems = []
    if len(records) != n or len({r["query_id"] for r in records}) != n:
        problems.append(f"expected {n} outcomes with unique ids, got {len(records)}")
    failed = sum(1 for r in records if r.get("error") is not None)
    digests = {"outcomes.jsonl": _sha(data)}
    stats_bytes = (out / "funnel_stats.json").read_bytes()
    if measured:
        stats = json.loads(stats_bytes)
        counts = {k: v for k, v in stats.items() if k.startswith("n_") or k in ("batch_size", "beta_hat", "alpha_hat")}
        digests["funnel_stats.json counts"] = _sha(_canonical(counts))
    else:
        digests["funnel_stats.json"] = _sha(stats_bytes)
        digests["summary.csv"] = _sha((out / "summary.csv").read_bytes())
    return failed, digests, problems


def check_calibrate(out, n):
    """Sample-count invariants and digests of a `calibrate` directory.

    calibration.json is digested without config_digest, which is meant to
    change whenever the config schema does.
    """
    artifact = json.loads((out / "calibration.json").read_bytes())
    score_rows = len((out / "scores.csv").read_bytes().splitlines()) - 1
    problems = []
    if artifact["n_samples"] + artifact["n_tool_required"] != n or score_rows != artifact["n_samples"]:
        problems.append(f"sample counts do not add up to {n} queries")
    names = ["scores.csv", "operating_points.csv", "union_bound.csv"]
    names += sorted(p.name for p in out.glob("kde_*.csv"))
    digests = {name: _sha((out / name).read_bytes()) for name in names}
    artifact.pop("config_digest", None)
    digests["calibration.json without config_digest"] = _sha(_canonical(artifact))
    return 0, digests, problems


def check_replay(out, expected):
    """Every logged speculation rescored exactly as the gate scored its draft."""
    with open(out / "replay_scores.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    problems = []
    if len(rows) != len(expected):
        problems.append(f"expected {len(expected)} replay rows, got {len(rows)}")
    mismatched = sum(
        1
        for qid, _answer, _tokens, score, verdict in rows
        if expected.get(qid) != [float(score), verdict]
    )
    if mismatched:
        problems.append(f"{mismatched} replayed scores differ from gating the drafts directly")
    return 0, {"replay_scores.csv": _sha((out / "replay_scores.csv").read_bytes())}, problems


def _percentiles(samples):
    """p50 and p99, each only where at least ten samples lie beyond it, else 0."""
    if len(samples) < 2:
        return 0.0, 0.0
    cuts = statistics.quantiles(samples, n=100)
    out = []
    for cut in (cuts[49], cuts[98]):
        out.append(cut if sum(1 for s in samples if s > cut) >= 10 else 0.0)
    return tuple(out)


def _throughput(commands):
    """Queries per wall second over the timed calls of these commands."""
    return sum(c["queries"] for c in commands) / sum(c["report"]["wall_s"] for c in commands)


class Bench:
    """One benchmark run: inputs from the seed, then commands until time is up."""

    def __init__(self, workload, seed, seconds, trace, n=None):
        self.root = Path.cwd()
        missing = [p for p in ("src/spec_funnel/cli.py", "scripts/serve_synthetic.py") if not (self.root / p).is_file()]
        if missing:
            raise SystemExit(f"run from the root of a spec-funnel checkout; missing {', '.join(missing)}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.n = n or SIZES[workload]
        self.work = HERE / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "home").mkdir(parents=True)
        self.env = child_env(self.root, self.work / "home")
        self.commands = []
        self.log = None
        self.expected = None
        self.queries = self.n
        golden = json.loads((HERE / "golden.json").read_text())
        self.reference = golden.get(workload) if seed == DEFAULT_SEED and self.n == SIZES[workload] else None

    def make_inputs(self):
        """Write the replay log and its expected scores; not part of any timing."""
        if self.workload != "replay-rescore":
            return
        self.log = self.work / "exchanges.jsonl"
        expected_path = self.work / "expected.json"
        subprocess.run(
            [sys.executable, str(HERE / "exchange_log.py"), "--seed", str(self.seed), "--n", str(self.n),
             "--log", str(self.log), "--expected", str(expected_path)],
            env=self.env, cwd=self.root, check=True, timeout=RUN_LIMIT_S,
        )
        self.expected = json.loads(expected_path.read_text())
        self.queries = len(self.expected)

    def run(self):
        started = time.monotonic()
        self.make_inputs()
        deadline = time.monotonic() + self.seconds
        while True:
            traced = self.trace and len(self.commands) % 2 == 1
            self.commands.append(self.run_command(len(self.commands), traced, started))
            kinds = [c["traced"] for c in self.commands]
            enough = kinds.count(False) >= MIN_COMMANDS and (not self.trace or kinds.count(True) >= MIN_COMMANDS)
            if enough and time.monotonic() >= deadline:
                break
            if time.monotonic() - started > RUN_LIMIT_S / 2:
                break
        if self.log is not None:
            self.log.unlink()
        shutil.rmtree(self.work / "home", ignore_errors=True)

    def run_command(self, index, traced, run_started):
        out = self.work / f"cmd-{index}"
        out.mkdir()
        spans = self.work / "spans.jsonl" if traced else None
        command = {"traced": traced, "queries": self.queries, "report": None, "server_cpu_s": None}
        server = None
        pin = one_cpu() if self.workload == "remote-measured" else None
        began = time.monotonic()
        try:
            if self.workload == "remote-measured":
                server = Server(self.root, self.seed, self.env, out / "server.stderr", pin)
            argv = cli_args(self.workload, self.seed, self.n, out / "data", server and server.url, self.log)
            timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - run_started))
            report = run_client(self.root, self.env, argv, spans, out / "client.stderr", timeout, pin)
            if server is not None:
                command["server_cpu_s"] = server.stop()
            report["setup_s"] = report["ready_at"] - began
            command["report"] = report
            failed, digests, problems = self.check(out / "data")
        except (CommandFailed, OSError, ValueError, KeyError) as exc:
            failed, digests, problems = self.queries, None, [f"{type(exc).__name__}: {exc}"]
        finally:
            if server is not None:
                server.kill()
        if digests is not None:
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                problems.append("output digests differ from the reference")
        if problems:
            failed = self.queries
            print(f"command {index} failed: {'; '.join(problems)}", file=sys.stderr)
        command.update(failed=failed, problems=problems, digests=digests)
        shutil.rmtree(out)
        return command

    def check(self, out):
        if self.workload == "sim-run":
            return check_run(out, self.n, measured=False)
        if self.workload == "remote-measured":
            return check_run(out, self.n, measured=True)
        if self.workload == "calibrate":
            return check_calibrate(out, self.n)
        return check_replay(out, self.expected)

    def _reports(self, traced):
        return [c for c in self.commands if c["traced"] == traced and c["report"] is not None]

    def end_to_end(self):
        """Set-up and memory as medians over the untraced commands; time per
        query as totals over them.

        On a shared VM, CPU speed can alternate between fast and slow spells
        lasting seconds. A median over commands then jumps between the two,
        whereas totals weigh each spell by its share of the run.
        """
        plain = self._reports(False)
        if not plain:
            return {name: 0.0 for name in E2E_UNITS}
        queries = sum(c["queries"] for c in plain)
        attempted = sum(c["queries"] for c in self.commands)
        failed = sum(c["failed"] for c in self.commands)
        return {
            "setup_s": statistics.median(c["report"]["setup_s"] for c in plain),
            "queries_per_s": _throughput(plain),
            "cpu_ms_per_query": 1e3 * sum(c["report"]["cpu_s"] for c in plain) / queries,
            "peak_rss_mb": statistics.median(c["report"]["maxrss_kib"] / 1024 for c in plain),
            "success_share": 1.0 - failed / attempted,
        }

    def per_layer(self):
        traced = self._reports(True)
        plain = self._reports(False)
        metrics = {}
        if traced:
            for name in traced[0]["report"]["layers"]:
                metrics[name] = statistics.median(c["report"]["layers"][name] for c in traced)
        for route in ("judge", "speculate", "agentic"):
            samples = [ms for c in traced for ms in c["report"]["call_ms"][route]]
            p50, p99 = _percentiles(samples)
            metrics.update({
                f"remote.{route}.call_ms.p50": p50,
                f"remote.{route}.call_ms.p99": p99,
                f"remote.{route}.call_ms.samples": len(samples),
            })
        remote_calls = sum(metrics.get(f"remote.{r}.calls", 0) for r in ("judge", "speculate", "agentic"))
        if remote_calls and plain:
            metrics["remote.client_cpu_ms_per_call"] = statistics.median(
                1e3 * c["report"]["cpu_s"] / remote_calls for c in plain
            )
            metrics["server.cpu_ms_per_call"] = statistics.median(
                1e3 * c["server_cpu_s"] / remote_calls for c in plain
            )
        else:
            metrics["remote.client_cpu_ms_per_call"] = metrics["server.cpu_ms_per_call"] = 0.0
        if traced and plain:
            metrics["trace.overhead_share"] = 1.0 - _throughput(traced) / _throughput(plain)
        else:
            metrics["trace.overhead_share"] = 0.0
        attempted = sum(c["queries"] for c in self.commands)
        metrics["failed_share"] = sum(c["failed"] for c in self.commands) / attempted
        return {name: metrics.get(name, 0.0) for name in LAYER_UNITS}

    def environment(self, load_before):
        versions = next((c["report"]["versions"] for c in self.commands if c["report"]), {})
        return {
            "workload": self.workload,
            "seed": self.seed,
            "queries_per_command": self.queries,
            "commands": len(self.commands),
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            **versions,
            "env_bytes": sum(len(k) + len(v) + 2 for k, v in self.env.items()),
        }

    def result(self):
        metrics = self.per_layer() if self.trace else self.end_to_end()
        units = LAYER_UNITS if self.trace else E2E_UNITS
        return {
            "correct": not any(c["problems"] for c in self.commands),
            "attempted": sum(c["queries"] for c in self.commands),
            "failed": sum(c["failed"] for c in self.commands),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }


def bench(workload, seed, seconds, trace, n=None):
    """Run one benchmark; return (environment record, result, command records)."""
    load_before = os.getloadavg()
    run = Bench(workload, seed, seconds, trace, n)
    run.run()
    environment = run.environment(load_before)
    result = run.result()
    (run.work / "result.json").write_text(json.dumps({"environment": environment, "result": result}, indent=2))
    return environment, result, run.commands


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0, help="how long to keep starting commands")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the children are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    environment, result, _ = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

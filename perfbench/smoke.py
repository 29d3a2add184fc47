#!/usr/bin/env python3
"""The benchmark's own check, at tiny sizes. Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that:
- every workload runs, traced and untraced, with every output check passing;
- every metric in BENCHMARK.json is printed, with its unit;
- traced and untraced commands give identical output digests;
- on each thread, the span self times sum to no more than the traced wall time;
- the generated replay log is byte-identical to one that the remote client
  records against scripts/serve_synthetic.py;
- outside a checkout, run.py exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {"sim-run": 40, "calibrate": 80, "remote-measured": 20, "replay-rescore": 40}


def check(condition, message):
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")


def check_workload(workload, declared):
    digests = set()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        _, result, commands = run.bench(workload, 1, 0, trace, TINY[workload])
        check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: {result}")
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        check(printed == declared[kind], f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
        digests.update(json.dumps(c["digests"], sort_keys=True) for c in commands)
        for command in commands:
            if command["traced"]:
                report = command["report"]
                check(max(report["thread_self_s"]) <= report["wall_s"], f"{workload}: self time exceeds wall time")
    check(len(digests) == 1, f"{workload}: traced and untraced outputs differ")
    print(f"{workload}: ok")


def check_exchange_log():
    root = Path.cwd()
    work = run.HERE / "work" / "smoke-log"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = run.child_env(root, work)
    server = run.Server(root, 3, env, work / "server.stderr")
    try:
        subprocess.run(
            [sys.executable, "-m", "spec_funnel.cli", "run", "--seed", "3", "--endpoint", server.url,
             "--out", str(work / "out"), "--set", "workload.n_queries=30",
             "--set", f"backend.exchange_log={work / 'served.jsonl'}"],
            env=env, cwd=root, check=True, capture_output=True, timeout=120,
        )
    finally:
        server.kill()
    subprocess.run(
        [sys.executable, str(run.HERE / "exchange_log.py"), "--seed", "3", "--n", "30",
         "--log", str(work / "generated.jsonl"), "--expected", str(work / "expected.json")],
        env=env, cwd=root, check=True, timeout=120,
    )
    same = (work / "served.jsonl").read_bytes() == (work / "generated.jsonl").read_bytes()
    shutil.rmtree(work)
    check(same, "generated exchange log differs from the one recorded against the server")
    print("exchange log: ok")


def check_outside_checkout():
    bare = run.HERE / "work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(Path.cwd() / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-run", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(done.returncode != 0 and not done.stdout.strip(), "run.py printed a result outside a checkout")
    print("outside a checkout: ok")


def main():
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    check([w["name"] for w in spec["workloads"]] == list(run.SIZES), "workloads differ from BENCHMARK.json")
    for workload in run.SIZES:
        check_workload(workload, declared)
    check_exchange_log()
    check_outside_checkout()
    print("smoke: ok")


if __name__ == "__main__":
    main()

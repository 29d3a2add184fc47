"""Golden outputs: `run` and `calibrate` at the benchmark's seed and size
reproduce the digests committed in perfbench/golden.json.

The digests are computed by the benchmark's own checks, so a change that
alters any output byte the benchmark compares fails here first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from spec_funnel.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
N_QUERIES = 2000


def _perfbench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _perfbench_run()


@pytest.fixture(scope="module")
def golden():
    return json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


def _cli(command, out):
    argv = [command, "--seed", "0", "--out", str(out), "--set", f"workload.n_queries={N_QUERIES}"]
    assert main(argv) == 0


def test_run_matches_golden(tmp_path, bench, golden):
    _cli("run", tmp_path)
    failed, digests, problems = bench.check_run(tmp_path, N_QUERIES, measured=False)
    assert (failed, problems) == (0, [])
    assert digests == golden["sim-run"]


def test_calibrate_matches_golden(tmp_path, bench, golden):
    _cli("calibrate", tmp_path)
    failed, digests, problems = bench.check_calibrate(tmp_path, N_QUERIES)
    assert (failed, problems) == (0, [])
    assert digests == golden["calibrate"]

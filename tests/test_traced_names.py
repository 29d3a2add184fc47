"""The benchmark tracer wraps spec_funnel functions by module and name; a
name kept only for it (funnel.process_query, cli.gate, ...) must not go
missing while the untraced commands still pass."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTRUMENT = """
import sys
sys.path.insert(0, "perfbench")
from tracing import Tracer, instrument
instrument(Tracer())
"""


def test_every_traced_name_resolves():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", INSTRUMENT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

"""The package re-exports nothing, so no package __init__ fixes the order in
which its modules load: each module must import on its own, first, in a
fresh interpreter, and every name its __all__ lists must exist."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spec_funnel"
MODULES = sorted(
    ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    for path in PACKAGE.rglob("*.py")
    if path.name != "__init__.py"
)

CHECK = """
import importlib, sys
module = importlib.import_module(sys.argv[1])
missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
sys.exit(f"__all__ names missing attributes: {missing}" if missing else 0)
"""


def test_every_module_is_listed():
    assert len(MODULES) == 13


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, module], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

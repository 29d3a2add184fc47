"""pipeline's phase functions are the one place that calls a backend route
and degrades its failures; every other module reads their results."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spec_funnel"
ROUTES = {"judge", "speculate", "agentic_run"}
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "pipeline.py")


def _violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ROUTES:
            yield f"line {node.lineno}: calls .{node.func.attr}()"
        elif isinstance(node, ast.ExceptHandler) and node.type and "BackendUnavailable" in ast.unparse(node.type):
            yield f"line {node.lineno}: catches BackendUnavailable"


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"calibration.py", "cli.py", "funnel.py", "remote.py", "synthetic.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_backend_call_outside_the_phase_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert list(_violations(tree)) == []

"""The package re-exports nothing, so no package __init__ fixes the order in
which its modules load: each module must import on its own, first, in a
fresh interpreter, and every name its __all__ lists must exist. Every such
name must also have a caller outside the tests; a reference form that only
the tests call lives in tests/oracles.py."""

import ast
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


def _used_names() -> set[str]:
    """Every name that code in src/, scripts/ or perfbench/ reads, imports or
    reaches as an attribute, plus each dotted part of a string in perfbench/,
    where the tracer looks names up by string."""
    used = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):  # a definition is no use
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
                elif top == "perfbench" and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.update(node.value.split("."))
    return used


def test_every_exported_name_has_a_caller():
    used = _used_names()
    unused = []
    for module in MODULES:
        path = PACKAGE.parent.joinpath(*module.split(".")).with_suffix(".py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                unused += [f"{module}.{name}" for name in ast.literal_eval(node.value) if name not in used]
    assert not unused, f"__all__ names that only tests call: {unused}"

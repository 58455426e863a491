"""The library's public surface is what production runs.

Every public module-level function or class in ``src/qmg`` must be used
(read as a name or an attribute) somewhere in ``src/qmg`` or in the
benchmark harness under ``perfbench/`` (not counting its ``test_*.py``
self-tests).  A helper that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qmg").glob("*.py"))
HARNESS = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(trees):
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_definition_is_used_in_production():
    used = _used_names(_parse(path) for path in SOURCES + HARNESS)
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in used):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []

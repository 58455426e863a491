"""The library's public surface is what production runs.

Every public module-level function or class in ``src/qmg``, and every
public method or property of those classes (dunders aside), must be used
(read as a name or an attribute) somewhere in ``src/qmg`` or in the
benchmark harness under ``perfbench/`` (not counting its ``test_*.py``
self-tests), or be a boundary that the harness's ``BOUNDARIES`` table
binds by name and wraps in place.  A helper that only tests call belongs
in the tests.
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


def _bound_names(trees):
    """The last part of each attribute a ``BOUNDARIES`` table names."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARIES"
                                                    for t in node.targets):
                yield from (entry.elts[1].value.rpartition(".")[2] for entry in node.value.elts)


def _public_definitions(body, prefix):
    """(qualified name, name) of each public function or class defined in ``body``,
    each class followed by its public methods and properties."""
    for node in body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield f"{prefix}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from _public_definitions(node.body, f"{prefix}.{node.name}")


def test_every_public_definition_is_used_in_production():
    used = _used_names(_parse(path) for path in SOURCES + HARNESS)
    used |= set(_bound_names(_parse(path) for path in HARNESS))
    unused = [qualified for path in SOURCES if path.name != "__init__.py"
              for qualified, name in _public_definitions(_parse(path).body, path.stem)
              if name not in used]
    assert unused == []

"""No module under ``src/`` imports a name it never uses.

A stdlib-``ast`` scan: every name an ``import`` binds must appear in the
module as a name, inside a string annotation, or in ``__all__``.
Imports kept for their side effects say so with ``# noqa`` on the line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _string_annotation_names(annotation: ast.AST):
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from (name.id for name in ast.walk(parsed)
                        if isinstance(name, ast.Name))


def unused_imports(source: str):
    """``(line, name)`` for every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa" in lines[node.lineno - 1] or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant))
        for field in ("annotation", "returns"):
            annotation = getattr(node, field, None)
            if annotation is not None:
                used.update(_string_annotation_names(annotation))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_sees_unused_and_used_names():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "import sys  # noqa: F401\n"
        "from .x import Public\n"
        "__all__ = ['Public']\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    return [os.sep]\n"
    )
    assert unused_imports(source) == [(1, "Dict")]


def test_no_unused_imports_under_src():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, f"unused imports: {found}"

"""No module under src/ imports a name it never uses. A package's
`__init__.py` re-exports the names its `__all__` lists, and
`from __future__ import annotations` binds nothing, so both are exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree):
    """(bound name, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        # a quoted annotation names its types in a string
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = _used(tree) | (_exported(tree) if path.name == "__init__.py" else set())
    unused = [f"line {line}: {name}" for name, line in _imported(tree) if name not in kept]
    assert not unused, f"{path.relative_to(SRC)} imports names it never uses: {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from x import a, b\nimport c.d\nprint(a)\n")
    assert [n for n, _line in _imported(tree) if n not in _used(tree)] == ["b", "c"]

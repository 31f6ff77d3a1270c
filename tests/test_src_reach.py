"""No `src/` code that only tests run. Every top-level function and class,
and every method that is not a dunder, in the package must be read by name
somewhere in `src/` outside its own definition, be bound by the bench
tracer's `TARGETS`, be called from `scripts/`, or be a click command.
Names are matched as text, so a reference to any definition of that name
counts; an import or an `__all__` entry alone is not a reference."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _definitions(tree):
    """(name, node) of every top-level function and class and every
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item


def _reads(tree, skip=()):
    """Every name the tree reads, as a bare name or an attribute, outside
    the nodes in `skip`."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _is_click_command(node):
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def unreached(src, extra_reads):
    """`module:name` of every definition under `src` that nothing reaches."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    missing = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if name in extra_reads or _is_click_command(node):
                continue
            if not any(name in _reads(other, skip=(node,)) for other in trees.values()):
                missing.append(f"{path.relative_to(src)}:{name}")
    return missing


def test_every_definition_is_reached(tracing):
    bound = {part for _n, _m, attr, _c in tracing.TARGETS for part in attr.split(".")}
    scripts = set().union(*(_reads(ast.parse(p.read_text()))
                            for p in sorted((ROOT / "scripts").glob("*.py"))))
    missing = unreached(SRC, bound | scripts)
    assert not missing, f"src/ defines what only tests reach: {missing}"


@pytest.mark.parametrize("body,missing", [
    ("def used():\n    pass\n\ndef caller():\n    used()\n", ["m.py:caller"]),
    ("def recursive():\n    return recursive()\n", ["m.py:recursive"]),
    ("class C:\n    def __len__(self):\n        return 0\n\n"
     "    def method(self):\n        pass\n\nC()\n", ["m.py:method"]),
    ("import click\n\n@click.group()\ndef main():\n    pass\n\n"
     "@main.command()\ndef run():\n    pass\n", []),
])
def test_an_unreached_definition_is_caught(tmp_path, body, missing):
    (tmp_path / "m.py").write_text(body)
    assert unreached(tmp_path, set()) == missing

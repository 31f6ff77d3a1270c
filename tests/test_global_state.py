"""No module under src/ keeps a process-global cache. Overlapping runs in
one process would share it, and a cache keyed by a run's objects keeps them
alive after the run, so memory grows with every run. So this scan fails on a
module-level dict, list, set or defaultdict that a function mutates, and on
a module-level function or method wrapped in `functools.cache` or
`lru_cache`. State a run needs belongs on the objects the run builds.
`tensor._PEAK`, the tape's peak-bytes estimate, is the one exception until
it moves into a run-scoped trace."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))

ALLOWED = {("hopprompt/numcore/tensor.py", "_PEAK")}

_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_MUTATORS = {"append", "extend", "insert", "remove", "pop", "popitem", "clear",
             "update", "setdefault", "add", "discard", "sort", "reverse",
             "difference_update", "intersection_update",
             "symmetric_difference_update", "__setitem__", "__delitem__"}
_CACHES = {"cache", "lru_cache"}


def _name_of(node) -> str | None:
    """`f` for `f`, `mod.f`, `f(...)` and `mod.f(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _module_containers(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, _CONTAINERS) or (
                    isinstance(value, ast.Call) and _name_of(value) in _CONTAINER_CALLS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _mutated_in_functions(tree, names: set[str]) -> set[str]:
    hit = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                hit |= names & set(node.names)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = getattr(node, "targets", None) or [node.target]
                for t in targets:
                    if (isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                            and t.value.id in names):
                        hit.add(t.value.id)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in names):
                hit.add(node.func.value.id)
    return hit


def _cached_functions(tree) -> set[str]:
    """Module-level functions and methods of module-level classes that a
    cache decorator wraps, and module names bound to a wrapped callable."""
    found = set()
    defs = [(node, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        defs += [(node, f"{cls.name}.{node.name}") for node in cls.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node, name in defs:
        if any(_name_of(d) in _CACHES for d in node.decorator_list):
            found.add(name)
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            call = node.value
            wrapped = _name_of(call) in _CACHES or (
                isinstance(call.func, ast.Call) and _name_of(call.func) in _CACHES)
            if wrapped:
                found |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return found


def global_state(source: str, where: str) -> list[str]:
    tree = ast.parse(source)
    mutated = _mutated_in_functions(tree, _module_containers(tree))
    return sorted([f"{name} (mutated by a function)" for name in mutated
                   if (where, name) not in ALLOWED]
                  + [f"{name} (cached)" for name in _cached_functions(tree)])


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(SRC).as_posix() for p in MODULES])
def test_no_process_global_cache(path):
    where = path.relative_to(SRC).as_posix()
    found = global_state(path.read_text(), where)
    assert not found, f"{where} keeps process-global state: {found}"


def test_the_scan_catches_each_kind():
    source = """
import functools
from collections import defaultdict
from functools import lru_cache

_BY_PLAN = {}
_SEEN = set()
_ORDER = []
_COUNTS = defaultdict(int)
_FIXED = {"a": 1}
_PEAK = {"bytes": 0}

def remember(plan, value):
    _BY_PLAN[plan] = value
    _SEEN.add(plan)
    _COUNTS[plan] += 1
    return _FIXED["a"]

def order(x):
    _ORDER.append(x)

@functools.cache
def slow(x):
    return x

class Holder:
    @lru_cache(maxsize=None)
    def method(self):
        return 1

fast = lru_cache(maxsize=8)(slow)

def peak():
    _PEAK["bytes"] = 1

def local_only():
    cache = {}
    cache[1] = 2
    return functools.cache(lambda: cache)
"""
    assert global_state(source, "hopprompt/other.py") == [
        "Holder.method (cached)", "_BY_PLAN (mutated by a function)",
        "_COUNTS (mutated by a function)", "_ORDER (mutated by a function)",
        "_PEAK (mutated by a function)", "_SEEN (mutated by a function)",
        "fast (cached)", "slow (cached)"]
    # the one allowed global, in its own module only
    assert "_PEAK (mutated by a function)" not in global_state(
        source, "hopprompt/numcore/tensor.py")

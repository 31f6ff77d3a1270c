"""The benchmark tracer wraps package functions by name from outside the
package (`bench/tracing.py`, `TARGETS`). A renamed or moved function would
leave its span silently empty, so every target must resolve and be wrapped
at least at its own module when the tracer installs. `numcore` exports only
what the package runs outside it or the tracer binds."""

import ast
import importlib
from pathlib import Path

import hopprompt.harness  # noqa: F401  (every package module, as bench/run.py does)


def _owner_and_name(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def test_every_target_resolves(tracing):
    assert any(attr == "CheckpointCache.get_or_pretrain"
               for _n, _m, attr, _c in tracing.TARGETS)
    for name, module_name, attr, _counter in tracing.TARGETS:
        owner, fn_name = _owner_and_name(module_name, attr)
        assert callable(getattr(owner, fn_name, None)), f"{name}: {module_name}.{attr}"


def test_install_wraps_every_target_and_remove_restores(tracing):
    originals = {}
    for name, module_name, attr, _counter in tracing.TARGETS:
        owner, fn_name = _owner_and_name(module_name, attr)
        originals[name] = (owner, fn_name, getattr(owner, fn_name))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, (owner, fn_name, original) in originals.items():
            assert getattr(owner, fn_name) is not original, f"{name} not wrapped"
    finally:
        tracer.remove()
    for name, (owner, fn_name, original) in originals.items():
        assert getattr(owner, fn_name) is original, f"{name} not restored"


def _numcore_names_used_outside_it():
    """Every numcore name a package module outside `numcore/` imports from it
    or reads off it as a module attribute."""
    src = Path(hopprompt.harness.__file__).resolve().parent.parent
    used = set()
    for path in src.rglob("*.py"):
        if "numcore" in path.relative_to(src).parts:
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                from_numcore = (node.module or "").split(".")[-1] == "numcore"
                for alias in node.names:
                    if from_numcore:
                        used.add(alias.name)
                    elif alias.name == "numcore":
                        aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                aliases.update(alias.asname for alias in node.names
                               if alias.name.endswith(".numcore") and alias.asname)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add(node.attr)
    return used


def test_numcore_exports_only_what_runs(tracing):
    """`numcore.__all__` names only what the package runs outside numcore
    or the bench binds; tests import anything else from its module."""
    import hopprompt.numcore as nc

    bound = {attr for _n, module_name, attr, _c in tracing.TARGETS
             if module_name == "hopprompt.numcore"}
    used = _numcore_names_used_outside_it()
    unused = sorted(set(nc.__all__) - used - bound)
    assert not unused, f"numcore exports names nothing runs: {unused}"

"""Every function and class that the library defines is used by the
library or its scripts: referenced in ``src/szeta`` or ``scripts/``
somewhere outside its own definition, as a name, an attribute or an
import, or wrapped by perfbench's tracer, which looks its targets up by
name.  Code that only tests call fails here.  Dunder methods are
exempt.  Every name that perfbench's tracer wraps is where it looks
it up."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "szeta").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _references(tree: ast.AST) -> Counter:
    """Names, attribute names and imported names used under ``tree``."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
    return refs


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def unused_definitions() -> list[str]:
    """'module.name' of each library definition without a reference."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in LIBRARY + SCRIPTS}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    total.update(attr for _, _, attr, _ in _tracer().TARGETS)
    unused = []
    for path in LIBRARY:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - _references(node)[name] == 0:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_definition_has_a_runtime_reference():
    assert unused_definitions() == []


def test_every_traced_name_resolves():
    # Tracer.install reads a method in its class's own __dict__ (an
    # inherited one raises KeyError there) and a function as a module
    # attribute; a moved name fails here, not in a traced benchmark run
    missing = []
    for modname, clsname, attr, _ in _tracer().TARGETS:
        mod = importlib.import_module(f"szeta.{modname}")
        owner = vars(getattr(mod, clsname)) if clsname else vars(mod)
        if not callable(owner.get(attr)):
            missing.append(".".join(filter(None, (modname, clsname, attr))))
    assert missing == []

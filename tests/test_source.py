"""Source guards over the package modules: the runtime imports only the
standard library, the imports among package modules form no cycle, a
breached invariant raises InternalError, never a bare AssertionError, only
the graph module touches a graph's memo, each memo key belongs to one
module, every typed error is importable from the package, ``__all__`` lists
every public name the package binds, and every private module-level name
is read in the package."""

from __future__ import annotations

import ast
import graphlib
import sys
from pathlib import Path

import graphspan
from graphspan import errors

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "graphspan").glob("*.py"))


def _nodes():
    assert SOURCES, "no package modules found"
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_imports_only_the_standard_library():
    outside = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        outside += [(name, node.lineno, module) for module in modules
                    if module.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_package_imports_form_no_cycle():
    # an import inside a function only defers the cycle to its first call,
    # so it counts as much as one at the top
    modules = {path.stem for path in SOURCES}
    imports: dict[str, set[str]] = {name: set() for name in modules}
    for name, node in _nodes():
        if isinstance(node, ast.ImportFrom) and node.level:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            imports[name.removesuffix(".py")].update(
                t if t in modules else "__init__" for t in targets)
    cycle = None
    try:
        tuple(graphlib.TopologicalSorter(imports).static_order())
    except graphlib.CycleError as exc:
        cycle = exc.args[1]
    assert cycle is None


def test_no_assert_statements():
    found = [(name, node.lineno) for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_modules_parse_as_the_oldest_supported_python():
    # the suite may run on a newer Python than the oldest one pyproject.toml
    # admits, which would accept syntax that one rejects
    pyproject = SOURCES[0].parents[2] / "pyproject.toml"
    assert 'requires-python = ">=3.10"' in pyproject.read_text(encoding="utf-8")
    failed = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append((path.name, exc.lineno, exc.msg))
    assert failed == []


def test_only_the_graph_module_touches_the_memo():
    # every other module reads and stores per-graph answers through
    # Graph._memoized, which computes each at most once per key
    found = [(name, node.lineno) for name, node in _nodes() if name != "graph.py"
             and ((isinstance(node, ast.Attribute) and node.attr == "_memo")
                  or (isinstance(node, ast.Constant) and node.value == "_memo"))]
    assert found == []


def test_each_memo_key_belongs_to_one_module():
    # a key is a string, or a tuple whose first item is a string; each is
    # documented where it is stored, so one used by two modules would be
    # one entry with two owners
    owners: dict[str, set[str]] = {}
    unread = []
    for name, node in _nodes():
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_memoized"):
            continue
        key = node.args[0] if node.args else None
        if isinstance(key, ast.Tuple) and key.elts:
            key = key.elts[0]
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            owners.setdefault(key.value, set()).add(name)
        else:
            unread.append((name, node.lineno))
    assert unread == []
    assert len(owners) >= 5
    assert {key: names for key, names in owners.items() if len(names) > 1} == {}


def test_all_lists_every_public_name_the_package_binds():
    # the names bound by the imports and assignments of __init__.py, but
    # for those starting with an underscore, each once
    init = next(path for path in SOURCES if path.name == "__init__.py")
    bound = []
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
    public = sorted(name for name in bound if not name.startswith("_"))
    assert sorted(graphspan.__all__) == public
    assert len(set(graphspan.__all__)) == len(graphspan.__all__)


def test_every_error_is_exported():
    defined = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, errors.GraphSpanError)
               and obj.__module__ == errors.__name__]
    assert len(defined) > 1
    assert [e.__name__ for e in defined if getattr(graphspan, e.__name__, None) is not e] == []


def test_every_private_module_name_is_read_in_the_package():
    # a function, class or assigned name with one leading underscore that
    # no package code reads is dead, or kept alive only by the tests
    read = {node.id if isinstance(node, ast.Name) else node.attr for _, node in _nodes()
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(path.name, node.lineno, name) for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    assert unread == []

"""Every imported name in the package and the tests is used, every
module-private function and class of the package is used, every parameter
of a module-level function of the package is read, every function the
benchmark's tracer wraps exists, and importing the package loads neither
`dataclasses` nor `inspect`.

A name counts as used when the module refers to it anywhere (annotations
written as strings included) or lists it in `__all__`;
`from __future__ import annotations` is exempt.
"""
import ast
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/mdm/*.py")) + sorted(ROOT.glob("tests/*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= used_names(ast.parse(ann.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_scan_sees_the_package_and_the_tests():
    names = {p.name for p in FILES}
    assert {"typecheck.py", "test_hygiene.py"} <= names


def test_scan_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom x import a, b as c\n"
                     "__all__ = ['a']\ndef f() -> 'os': pass\n")
    unused = {name for name, _ in imported_names(tree)} - used_names(tree)
    assert unused == {"c"}


PACKAGE = sorted(ROOT.glob("src/mdm/*.py"))
CODE = PACKAGE + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def private_definitions(tree):
    """Top-level functions and classes named `_x` (not `__x__`)."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            yield node


def referenced_names(nodes):
    """Names read, attributes taken and names imported anywhere in nodes."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name)
    return out


def unreferenced_private_definitions(path, trees):
    """Private top-level definitions of path that no other top-level
    statement of its module, and nothing in any other file, refers to.
    A definition that only refers to itself (recursion) is unreferenced."""
    tree = trees[path]
    elsewhere = referenced_names(t for p, t in trees.items() if p != path)
    found = []
    for d in private_definitions(tree):
        here = referenced_names(n for n in tree.body if n is not d)
        if d.name not in here | elsewhere:
            found.append(f"{d.name} (line {d.lineno})")
    return found


@pytest.fixture(scope="module")
def code_trees():
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in CODE}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_private_definitions_are_used(path, code_trees):
    unused = unreferenced_private_definitions(path, code_trees)
    assert not unused, f"{path.name} defines private names nothing uses: {', '.join(unused)}"


def test_scan_flags_an_unused_private_definition():
    here = Path("m.py")
    trees = {
        here: ast.parse("def _dead(n):\n    return _dead(n - 1)\n"
                        "def _used(): pass\nclass _Kept: pass\n"
                        "def __dunder__(): pass\nx = _used()\n"),
        Path("other.py"): ast.parse("from m import _Kept\n"),
    }
    assert unreferenced_private_definitions(here, trees) == ["_dead (line 1)"]


# `perfbench/` passes this argument; it goes with the benchmark's next change.
UNREAD_PARAMETERS_KEPT = {("reduction", "reduce_derivation", "theory")}


def unread_parameters(tree):
    """(function, parameter) for each parameter of a top-level function
    that the function's body, nested definitions included, never reads."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            yield from ((node.name, x) for x in params if x not in read)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_parameters_are_read(path, code_trees):
    unread = [f"{fn}({param})" for fn, param in unread_parameters(code_trees[path])
              if (path.stem, fn, param) not in UNREAD_PARAMETERS_KEPT]
    assert not unread, f"{path.name} has parameters its functions never read: {', '.join(unread)}"


def test_scan_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d, **e):\n"
                     "    def g(): return b\n"
                     "    return a, g, d\n"
                     "class C:\n    def m(self, unread): pass\n")
    assert list(unread_parameters(tree)) == [("f", "c"), ("f", "e")]


def _resolve(module, name):
    """mdm.<module>.<name>, where name may be Class.method, or None."""
    obj = importlib.import_module("mdm." + module)
    for part in name.split("."):
        obj = vars(obj).get(part) if obj is not None else None
    return obj


def test_traced_targets_resolve():
    # `perfbench/run.py --trace 1` patches each (module, name) of TARGETS;
    # a renamed function must fail here rather than there.  run_path reads
    # the file without importing it, so nothing is written under perfbench/.
    targets = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["TARGETS"]
    missing = [f"{m}.{n}" for m, n, *_ in targets if not callable(_resolve(m, n))]
    assert targets
    assert not missing, f"traced names not found in mdm: {missing}"


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # A process that asks one question pays for importing the package;
    # `dataclasses` and `inspect` together cost about as much as the rest.
    names = sorted(f"mdm.{p.stem}" for p in PACKAGE if p.stem != "__init__")
    code = ("import sys; before = set(sys.modules); "
            f"import {', '.join(names)}; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    added = set(out.stdout.split())
    assert set(names) <= added
    assert not added & {"dataclasses", "inspect"}, f"importing mdm loaded {sorted(added)}"

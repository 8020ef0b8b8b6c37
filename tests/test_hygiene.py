"""Every imported name in the package and the tests is used, and every
function the benchmark's tracer wraps exists.

A name counts as used when the module refers to it anywhere (annotations
written as strings included) or lists it in `__all__`;
`from __future__ import annotations` is exempt.
"""
import ast
import importlib
import runpy
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

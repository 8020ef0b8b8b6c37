"""Every imported name in the package and the tests is used, every
module-private function and class of the package is used, every parameter
of a module-level function of the package is read, every function the
benchmark's tracer wraps exists, importing the package loads neither
`dataclasses` nor `inspect`, the package's functions that call
themselves are the listed ones, and so are its records that write their
own constructor and its public names that nothing outside the tests
calls, every strong-normalization question of the package is asked
at the one node budget `SN_BUDGET`, its process-wide caches are the
listed ones, and each of its modules stays below the number of tokens
at which compiling it costs more memory.

A name counts as used when the module refers to it anywhere (annotations
written as strings included) or lists it in `__all__`;
`from __future__ import annotations` is exempt.
"""
import ast
import importlib
import io
import os
import runpy
import subprocess
import sys
import tokenize
from collections import Counter
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


# Every function of the package that calls itself directly, or hands itself
# to a call that calls it back (the scan does not see other mutual
# recursion).  Each one raises a bare RecursionError on input nested deeper
# than the interpreter's recursion limit, unless its caller turns that into
# an answer.  A new recursive walker joins this list on purpose, or keeps a
# stack of its own.
RECURSIVE = {
    # alpha-canonical forms, which == and hash() read, and printing
    "syntax._canon", "syntax.print_term", "syntax.print_prop", "syntax.print_proof",
    # walkers that rebuild a tree
    "syntax._subst", "syntax.graft", "typecheck.erase", "corpus._generalize",
    "rewriting._match", "rewriting.rewrite_neighbors", "rewriting.normal_form",
    # the inductive interpretation, through semantics._connective
    "semantics.interpret.value",
    # the SN search, whose caller answers SNUnknown("depth limit")
    "reduction.sn_verdict.dfs",
    # enumerators bounded by a size or a depth
    "corpus.enumerate_derivations.enum", "rewriting._tuples_of_total_size",
    # grammar rules, run under _Parser.nested, which reports a ParseError
    "syntax._Parser.prop", "syntax._Parser.proof", "typecheck._DrvParser.node",
}


def self_calling_functions(tree, module):
    """module.name for every function in tree that calls itself, or passes
    itself as an argument of a call: a function by its own name, a method
    through `self`.  Nested definitions are named by their path, as
    `f.inner` or `Class.method`."""
    found = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_itself(e, child.name, in_class)
                       for n in ast.walk(child) if isinstance(n, ast.Call)
                       for e in (n.func, *n.args, *(k.value for k in n.keywords))):
                    found.append(f"{module}.{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def _is_itself(expr, name, method):
    if method:
        return (isinstance(expr, ast.Attribute) and expr.attr == name
                and isinstance(expr.value, ast.Name) and expr.value.id == "self")
    return isinstance(expr, ast.Name) and expr.id == name


def test_recursive_functions_are_the_listed_ones(code_trees):
    found = {f for p in PACKAGE for f in self_calling_functions(code_trees[p], p.stem)}
    assert not found - RECURSIVE, f"new recursive functions: {sorted(found - RECURSIVE)}"
    assert not RECURSIVE - found, f"listed but no longer recursive: {sorted(RECURSIVE - found)}"


def test_scan_finds_functions_that_call_themselves():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "def g():\n    return f(0)\n"
                     "class C:\n"
                     "    def m(self):\n        return self.m()\n"
                     "    def f(self):\n        return f(1)\n"
                     "def h():\n    def inner():\n        return inner()\n    return inner\n"
                     "def k(p):\n    def value(q):\n        return step(q, using=value)\n"
                     "    return step(p, value), k\n")
    assert self_calling_functions(tree, "m") == ["m.f", "m.C.m", "m.h.inner", "m.k.value"]


# Every record class of the package that writes its own `__init__`; every
# other record's constructor is written by `Record` from `_fields` and
# `_defaults`.  `Universe` takes an `order` that is not a field.  A new
# hand-written constructor joins this list on purpose.
OWN_CONSTRUCTOR = {"reducibility.Universe"}


def records_with_own_init(trees):
    """module.Class for every class in trees that derives from `Record`,
    directly or through another class of trees, and defines `__init__`."""
    classes = {(p.stem, node.name): node for p, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    records, grown = {"Record"}, True
    while grown:
        before = len(records)
        records |= {name for (_, name), node in classes.items()
                    if any(isinstance(b, ast.Name) and b.id in records for b in node.bases)}
        grown = len(records) > before
    return {f"{module}.{name}" for (module, name), node in classes.items()
            if name in records and name != "Record"
            and any(isinstance(n, ast.FunctionDef) and n.name == "__init__" for n in node.body)}


def test_records_with_their_own_constructor_are_the_listed_ones(code_trees):
    found = records_with_own_init({p: code_trees[p] for p in PACKAGE})
    assert not found - OWN_CONSTRUCTOR, f"new own constructors: {sorted(found - OWN_CONSTRUCTOR)}"
    assert not OWN_CONSTRUCTOR - found, f"listed but generated: {sorted(OWN_CONSTRUCTOR - found)}"


def test_scan_finds_records_that_write_their_constructor():
    trees = {
        Path("a.py"): ast.parse("class Record:\n    def __init__(self): pass\n"
                                "class R(Record):\n    def __init__(self): pass\n"
                                "class Plain:\n    def __init__(self): pass\n"),
        Path("b.py"): ast.parse("class S(R):\n    def __init__(self): pass\n"
                                "class T(R):\n    _fields = ('x',)\n"),
    }
    assert records_with_own_init(trees) == {"a.R", "b.S"}


# Every public top-level function and class of the package that only the
# tests call: no other statement of its own module, no other module of the
# package and no file of the benchmark refers to it.  A name joins this
# list on purpose, or is deleted once its last caller goes.
# `candidate_close` and `sn_slice` are the closure and the SN slice as sets
# of terms; `random_candidates` reads both as masks.
NO_CALLER_OUTSIDE_TESTS = {
    "reducibility.candidate_close", "reducibility.sn_slice",
    "rewriting.detect_confusion", "search.church_forall_defect_demo",
    "suite.run_suite", "syntax.parse_term",
    "typecheck.print_derivation", "typecheck.parse_context",
}


def mentioned_names(nodes):
    """referenced_names, and every string constant (so that a name the
    benchmark's tracer looks up by its text counts as used)."""
    nodes = list(nodes)
    strings = {n.value for node in nodes for n in ast.walk(node)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return referenced_names(nodes) | strings


def public_names_without_a_caller(package, others):
    """module.name for each public top-level function and class of the
    package trees that no other top-level statement of its module, no other
    package tree and no tree of others mentions."""
    mentions = {p: [mentioned_names([n]) for n in t.body]
                for p, t in {**package, **others}.items()}
    found = set()
    for path, tree in package.items():
        elsewhere = set().union(*(names for p, stmts in mentions.items() if p != path
                                  for names in stmts))
        here = Counter(name for names in mentions[path] for name in names)
        for d, names in zip(tree.body, mentions[path]):
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not d.name.startswith("_")
                    # no statement but d itself (by recursion) mentions it
                    and here[d.name] == (d.name in names)
                    and d.name not in elsewhere):
                found.add(f"{path.stem}.{d.name}")
    return found


def test_public_names_without_a_caller_are_the_listed_ones(code_trees):
    bench = {p: code_trees[p] for p in sorted(ROOT.glob("perfbench/*.py"))}
    found = public_names_without_a_caller({p: code_trees[p] for p in PACKAGE}, bench)
    assert not found - NO_CALLER_OUTSIDE_TESTS, \
        f"new names with no caller outside tests: {sorted(found - NO_CALLER_OUTSIDE_TESTS)}"
    assert not NO_CALLER_OUTSIDE_TESTS - found, \
        f"listed but called: {sorted(NO_CALLER_OUTSIDE_TESTS - found)}"


def test_scan_finds_public_names_without_a_caller():
    package = {
        Path("a.py"): ast.parse("def lone(n):\n    return lone(n - 1)\n"
                                "def used_here(): pass\nx = used_here()\n"
                                "def imported(): pass\nclass Traced: pass\n"
                                "def _private(): pass\n"),
        Path("b.py"): ast.parse("from a import imported as alias\n"),
    }
    bench = {Path("bench.py"): ast.parse("TARGETS = [('a', 'Traced')]\n")}
    assert public_names_without_a_caller(package, bench) == {"a.lone"}


# Every SN question of the package is asked at the one node budget
# `reduction.SN_BUDGET`; `sn_cached` forwards its own parameter.
SN_QUESTIONS = {"sn_cached", "sn_verdict"}


def sn_questions_off_budget(tree):
    """The text of every call of sn_cached or sn_verdict in tree, outside
    the definition of sn_cached, whose budget is not the name SN_BUDGET."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "sn_cached":
            continue
        for n in ast.walk(stmt):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) not in SN_QUESTIONS:
                continue
            budget = n.args[1] if len(n.args) > 1 else next(
                (k.value for k in n.keywords if k.arg == "node_budget"), None)
            if not (isinstance(budget, ast.Name) and budget.id == "SN_BUDGET"):
                found.append(ast.unparse(n))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_sn_questions_are_asked_at_sn_budget(path, code_trees):
    off = sn_questions_off_budget(code_trees[path])
    assert not off, f"{path.name} asks SN questions at another budget: {', '.join(off)}"


def test_scan_finds_sn_questions_off_budget():
    tree = ast.parse("def sn_cached(p, node_budget):\n    return sn_verdict(p, node_budget)\n"
                     "def ok(p):\n"
                     "    return sn_cached(p, SN_BUDGET), r.sn_verdict(p, node_budget=SN_BUDGET)\n"
                     "def step(p, fuel):\n"
                     "    return sn_cached(p, fuel), sn_verdict(p), r.sn_verdict(p, 60)\n")
    assert sn_questions_off_budget(tree) == [
        "sn_cached(p, fuel)", "sn_verdict(p)", "r.sn_verdict(p, 60)"]


# Every process-wide cache of the package: each `functools` cache, and
# each dict or set bound at module or class level that the package writes
# to.  The benchmark empties the first three before each pass; the others
# hold what every pass may share (interned nodes and name sets, and the
# derivation searches, which `DerivationSearch.cache_clear` empties).  What
# is built from one universe lives on it, never in a table keyed by id().
# A new cache joins this list on purpose.
PROCESS_WIDE_CACHES = {
    "rewriting.congruent", "reduction.beta_reducts", "reduction.sn_cached",
    "search.DerivationSearch._shared", "syntax._TABLE", "syntax._SETS",
}
_CACHE_DECORATORS = {"cache", "lru_cache"}
_CONTAINERS = {"dict", "set", "defaultdict", "OrderedDict", "Counter",
               "WeakValueDictionary", "WeakKeyDictionary"}
_WRITES = {"add", "update", "setdefault", "pop", "popitem", "clear", "discard", "remove",
           "__setitem__", "__delitem__", "difference_update", "intersection_update",
           "symmetric_difference_update"}


def _is_container(value):
    if isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)):
        return True
    f = getattr(value, "func", None)
    return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in _CONTAINERS


def _written_names(tree):
    """The names that a subscript assignment or deletion, an augmented
    assignment or a writing method call anywhere in tree writes through,
    whether the name stands alone (`x[k] = v`) or as an attribute
    (`cls.x.clear()`)."""
    def name(expr):
        if isinstance(expr, ast.Name):
            return expr.id
        return expr.attr if isinstance(expr, ast.Attribute) else None

    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = n.targets if isinstance(n, (ast.Assign, ast.Delete)) else [n.target]
            for t in targets:
                if isinstance(t, ast.Subscript):
                    out.add(name(t.value))
                elif isinstance(n, ast.AugAssign):
                    out.add(name(t))
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and n.func.attr in _WRITES):
            out.add(name(n.func.value))
    return out


def process_wide_caches(tree, module):
    """module.name for each function of tree under a functools cache
    decorator, and each dict or set bound at module or class level (a
    class's as Class.name) that tree writes to."""
    written = _written_names(tree)
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    f = d.func if isinstance(d, ast.Call) else d
                    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) \
                            in _CACHE_DECORATORS:
                        found.append(f"{module}.{prefix}{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.extend(f"{module}.{prefix}{t.id}" for t in targets
                             if isinstance(t, ast.Name) and t.id in written)

    visit(tree.body, "")
    return found


def test_process_wide_caches_are_the_listed_ones(code_trees):
    found = {c for p in PACKAGE for c in process_wide_caches(code_trees[p], p.stem)}
    assert not found - PROCESS_WIDE_CACHES, f"new caches: {sorted(found - PROCESS_WIDE_CACHES)}"
    assert not PROCESS_WIDE_CACHES - found, \
        f"listed but not caches: {sorted(PROCESS_WIDE_CACHES - found)}"


def test_scan_finds_process_wide_caches():
    tree = ast.parse("import functools\n"
                     "@functools.lru_cache(maxsize=None)\ndef f(x): return x\n"
                     "@cache\ndef g(x): return x\n"
                     "TABLE = {}\nCONSTANT = {'a': 1}\nSEEN = set()\nBY_ID = dict()\n"
                     "class C:\n    _memo = {}\n    _defaults = {}\n"
                     "    def put(self, k): self._memo[k] = 1\n"
                     "def h(k):\n    TABLE[id(k)] = k\n    SEEN.add(k)\n"
                     "    BY_ID.setdefault(id(k), k)\n    return CONSTANT[k]\n")
    assert process_wide_caches(tree, "m") == [
        "m.f", "m.g", "m.TABLE", "m.SEEN", "m.BY_ID", "m.C._memo"]


# CPython's compiler needs about 460 KB more memory for a module of about
# 8,192 tokens or more.  The benchmark compiles the package from source in
# every pass, so the largest module's compile sets every pass's peak
# memory; a module that reaches the step is split.
COMPILE_TOKEN_STEP = 8192


def compiled_tokens(text):
    """The tokens `tokenize` yields for text, less comments and the NL
    tokens of blank and continued lines."""
    return sum(1 for t in tokenize.generate_tokens(io.StringIO(text).readline)
               if t.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_modules_stay_below_the_compile_step(path):
    n = compiled_tokens(path.read_text(encoding="utf-8"))
    assert n < COMPILE_TOKEN_STEP, \
        f"{path.name} has {n} tokens, {COMPILE_TOKEN_STEP} or more: split it"


def test_scan_counts_tokens_without_comments_or_blank_lines():
    # NAME OP NUMBER NEWLINE, a comment, a blank line, then NAME OP OP
    # NUMBER OP (NL) NUMBER OP NEWLINE, and the ENDMARKER
    assert compiled_tokens("x = 1  # one\n\n# two\ny = (1,\n     2)\n") == 13
    assert compiled_tokens("x = 1\n" * 2047) == COMPILE_TOKEN_STEP - 3
    assert compiled_tokens("x = 1\n" * 2048) == COMPILE_TOKEN_STEP + 1

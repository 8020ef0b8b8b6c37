"""The lines of `src/mdm` that no traffic reaches.

    python3 tools/traffic_lines.py [--seeds 0 1 2 5]

The traffic is every benchmark workload of `perfbench/workloads.py`, its
set-up and its pass at each seed, each pass after emptying the caches
that `perfbench/one_pass.py` empties and the shared derivation searches,
and then `mdm.suite.run_suite` in quick and in full mode, all under one
`sys.settrace` line trace.  For each
function of each `src/mdm` module, in file order, the report lists the
lines of the function's own code that the trace never reached, each with
its number and text; a comprehension's or generator expression's lines
count as its function's, and a function every line of which ran is left
out.  A line that only module or class-body code holds (imports,
constants, class attributes) belongs to no function and is not listed.

The tool imports `perfbench/workloads.py` and changes nothing there.
The report goes to standard output.
"""
from __future__ import annotations

import argparse
import inspect
import io
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mdm"

# the code objects of functions, lambdas, comprehensions and generators
_FUNCTION = inspect.CO_OPTIMIZED | inspect.CO_NEWLOCALS


def function_lines(path: Path) -> dict:
    """qualified name -> (first line, {code key: the lines that hold its
    code}) for each function compiled from the file, where a code key is
    (qualified name, first line) of a code object; the code of a
    comprehension, lambda or generator expression counts as that of the
    function it sits in, if any."""
    out = {}

    def walk(code, owner):
        if code.co_flags & _FUNCTION == _FUNCTION:
            if owner is None or not code.co_name.startswith("<") or code.co_name == "<lambda>":
                owner = code.co_qualname
            _, codes = out.setdefault(owner, (code.co_firstlineno, {}))
            codes.setdefault((code.co_qualname, code.co_firstlineno), set()).update(
                line for _, _, line in code.co_lines() if line is not None)
        else:
            owner = None
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const, owner)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), None)
    return out


def trace_lines(paths, run) -> dict:
    """Call run() under a line trace, and return filename -> {code key:
    the lines it ran} for the files of paths (see `function_lines`; a
    code object's first line counts as run when it is called).  Lines are
    kept per code object, so that the line of a nested `def`, which its
    enclosing code runs, is not taken for a call of the nested function."""
    files = {str(p) for p in paths}
    reached = defaultdict(lambda: defaultdict(set))
    local = {}

    def tracer_for(seen):
        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        return line

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        tracer = local.get(code)
        if tracer is None:
            seen = reached[code.co_filename][code.co_qualname, code.co_firstlineno]
            tracer = local[code] = tracer_for(seen)
        tracer(frame, "line", arg)
        return tracer

    old = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(old)
    return reached


def unreached(path: Path, reached: dict) -> list:
    """(qualified name, first line, the lines of its code that did not
    run, whether it ran at all) for each function of the file with such
    lines, in file order; reached is what `trace_lines` found for the
    file."""
    out = []
    for name, (first, codes) in function_lines(path).items():
        missing = set()
        for key, lines in codes.items():
            missing |= lines - reached.get(key, set())
        if missing:
            ran = any(reached.get(key) for key in codes)
            out.append((name, first, sorted(missing), ran))
    return sorted(out, key=lambda f: f[1])


def report(paths, reached: dict, root: Path = ROOT) -> str:
    """The listing of `unreached` for each file of paths, in the order
    given."""
    out = []
    for path in paths:
        functions = unreached(path, reached.get(str(path), {}))
        if not functions:
            continue
        text = path.read_text(encoding="utf-8").splitlines()
        out.append(str(path.relative_to(root)))
        for name, first, missing, ran in functions:
            out.append(f"  {name} (line {first}{'' if ran else ', never called'})")
            out += [f"    {n:5d}  {text[n - 1].strip()}" for n in missing]
    return "\n".join(out) + "\n" if out else ""


def traffic(seeds) -> None:
    """Every workload's set-up and pass at each seed, on cold caches, then
    run_suite in quick and full mode."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from mdm.search import DerivationSearch
    from mdm.suite import run_suite

    for seed in seeds:
        for setup, run in workloads.WORKLOADS.values():
            inputs = setup(seed)
            workloads.cold_caches()
            DerivationSearch.cache_clear()
            run(inputs, workloads.Verdicts())
    for quick in (True, False):
        run_suite(quick=quick, stream=io.StringIO())


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 5])
    args = parser.parse_args(argv)
    paths = sorted(PACKAGE.rglob("*.py"))
    reached = trace_lines(paths, lambda: traffic(args.seeds))
    sys.stdout.write(report(paths, reached))


if __name__ == "__main__":
    main()

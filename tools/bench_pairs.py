"""Alternating pairs of cold benchmark passes: a base commit against the
working tree.

    python3 tools/bench_pairs.py --workload closure-lemmas [--workload ...] \\
        [--seeds 0 1] [--pairs 12] [--base HEAD] [--out BENCH_<n>.json] \\
        [--change TEXT] [--claim TEXT]

The base defaults to HEAD, the parent of uncommitted work; once the change
is committed, pass its parent.  Each side runs from its own temporary
directory: the base from `git archive <base>`, the change from a copy of
the working tree's files that git tracks or would track (`git ls-files
--cached --others --exclude-standard`).  One warm-up pass per side and
workload comes first; it warms the file cache, and writes the bytecode
caches unless PYTHONDONTWRITEBYTECODE is set, in which case every pass
compiles `mdm` from source, as the benchmark's own passes then do.  Each
pair then runs one `perfbench/one_pass.py` process per side, one after
the other, and the pairs alternate which side goes first; the machine's
drift falls on both sides alike.

For each workload, seed and metric (`setup_s`, `pass_s`, `peak_rss_mb`)
the summary holds each side's median and interquartile range, the pairs
the change won out of the pairs run (a tie counts for neither side),
whether the claim rule is met, and the raw values; and for each side the
verdict digests its passes gave, with whether they equal the one recorded
in `perfbench/digests.json`.  The claim rule holds when the change won at
least nine pairs in ten and its median is better than the parent's by
more than the parent's interquartile range.
The JSON goes to standard output, or to `--out`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = (("setup_s", "lower"), ("pass_s", "lower"), ("peak_rss_mb", "lower"))
SIDES = ("parent", "change")


def summarize(parent, change, better="lower") -> dict:
    """One metric over n pairs: parent[i] and change[i] ran in pair i."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs of values")
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    sign = 1 if better == "lower" else -1
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    n = len(parent)
    return {
        "parent_median": round(pm, 4), "parent_iqr": round(p3 - p1, 4),
        "change_median": round(cm, 4), "change_iqr": round(c3 - c1, 4),
        "change_vs_parent": round(cm / pm - 1, 4) if pm else None,
        "pairs_won": f"{won}/{n}", "pairs_lost": f"{lost}/{n}",
        "claim_rule_met": 10 * won >= 9 * n and sign * (pm - cm) > p3 - p1,
        "runs": {"parent": [round(x, 4) for x in parent],
                 "change": [round(x, 4) for x in change]},
    }


def summarize_passes(passes, recorded=None) -> dict:
    """The summary of one workload and seed; passes maps each side to its
    one_pass.py results in pair order."""
    out = {"pairs": len(passes["parent"])}
    for name, better in METRICS:
        out[name] = summarize([r[name] for r in passes["parent"]],
                              [r[name] for r in passes["change"]], better)
    for side in SIDES:
        digests = sorted({r["digest"] for r in passes[side]})
        first = passes[side][0]
        out[f"{side}_digests"] = digests
        out[f"{side}_shares"] = {
            "decided_share": first["decided"] / first["verdicts"],
            "correct_share": 1 - sum(first["defects"].values()) / first["verdicts"],
        }
        if recorded is not None:
            out[f"{side}_digest_recorded"] = digests == [recorded]
    return out


def _export_base(base, dest):
    archive = subprocess.run(["git", "archive", base], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def _copy_working_tree(dest):
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True, text=True)
    for rel in filter(None, listed.stdout.split("\0")):
        src = ROOT / rel
        if src.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def run_pass(tree, workload, seed) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "one_pass.py"), "--workload", workload,
         "--seed", str(seed)], cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--change", default="")
    parser.add_argument("--claim", default="")
    args = parser.parse_args(argv)

    base = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    report = {
        "change": args.change,
        "base": base,
        "hardware": f"{os.cpu_count()} CPUs, {platform.machine()}, {platform.system()}, "
                    f"Python {platform.python_version()}",
        "method": "tools/bench_pairs.py: base (git archive) and change (working tree) in two "
                  "fresh directories, one warm-up pass per side and workload, then one "
                  "perfbench/one_pass.py process per side per pair, pairs alternating which "
                  "side runs first. Medians and IQRs are statistics.quantiles(n=4, "
                  "inclusive); pairs_won counts pairs where the change read better, ties "
                  "counting for neither side.",
        "every_pass_compiles_mdm": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "claim": args.claim,
        "one_pass_pairs": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        _export_base(base, trees["parent"])
        _copy_working_tree(trees["change"])
        for workload in args.workload:
            for tree in trees.values():
                run_pass(tree, workload, args.seeds[0])
            for seed in args.seeds:
                passes = {side: [] for side in SIDES}
                order = []
                for i in range(args.pairs):
                    sides = SIDES if i % 2 == 0 else SIDES[::-1]
                    order.append(sides[0])
                    for side in sides:
                        passes[side].append(run_pass(trees[side], workload, seed))
                    print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: pass_s "
                          f"{passes['parent'][-1]['pass_s']:.4f} -> "
                          f"{passes['change'][-1]['pass_s']:.4f}", file=sys.stderr)
                summary = {"workload": workload, "seed": seed, "first": order}
                summary.update(summarize_passes(
                    passes, recorded.get(workload, {}).get(str(seed))))
                report["one_pass_pairs"][f"{workload}/seed{seed}"] = summary
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: cold passes of one workload, checked and timed.

    python3 perfbench/run.py --workload kernel-corpus --seed 0 --seconds 40 --trace 0

Each pass runs in a fresh interpreter (`one_pass.py`) with empty caches.
Passes run one after another, and are started until the next one would
end after `--seconds`, with at least MIN_PASSES of them; the run reports
medians.  With `--trace 1`, untraced and traced passes alternate and the
per-layer metrics come from the traced ones.

The run fails (exit 1, "correct": false) when a verdict digest differs
between passes or from the one recorded in `digests.json` for this seed,
or when a verdict contradicts its known answer for a reason other than
the two known defects.  The last line of standard output is one JSON
object: correct, the verdicts of one pass attempted and failed (every
pass asks the same verdicts, which the digest check enforces, so these
depend on the workload and seed only, not on how many passes fitted in
`--seconds`), and the metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
TRACES = HERE / "traces"
WORKLOADS = ("kernel-corpus", "closure-lemmas", "candidate-algebra")
KNOWN_DEFECTS = ("retype-imp-elim", "arrow-cr2")
MIN_PASSES = 4
PASS_TIMEOUT_S = 150


def run_pass(workload, seed, trace=False, env=None, index=0):
    """Run one pass in a fresh interpreter and return its result dict."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        TRACES.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(TRACES / f"{workload}-seed{seed}-pass{index}.jsonl")]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass of {workload} failed with exit code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["traced"] = trace
    return result


def run_passes(workload, seed, seconds, trace):
    """Run passes one at a time until the next would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes)
            <= seconds):
        passes.append(run_pass(workload, seed, trace and len(passes) % 2 == 1,
                               index=len(passes)))
    return passes


def problems(passes, recorded):
    """Reasons why the passes are not correct (empty when they are)."""
    out = []
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        out.append(f"verdict digests differ between passes: {sorted(digests)}")
    if recorded is not None and recorded not in digests:
        out.append(f"verdict digest {sorted(digests)[0]} differs from the recorded {recorded}")
    for defect in sorted({d for p in passes for d in p["defects"]}):
        if defect not in KNOWN_DEFECTS:
            out.append(f"verdict contradicts its known answer: {defect}")
    return out


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(plain):
    first = plain[0]
    return {
        "setup_s": metric(statistics.median(p["setup_s"] for p in plain), "s"),
        "pass_s": metric(statistics.median(p["pass_s"] for p in plain), "s"),
        "decided_share": metric(first["decided"] / first["verdicts"], "ratio"),
        "correct_share": metric(1 - sum(first["defects"].values()) / first["verdicts"], "ratio"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
    }


def per_layer(plain, traced):
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        out[name] = metric(statistics.median_low(p["layers"][name][0] for p in traced), unit)
    overhead = (statistics.median(p["pass_s"] for p in traced)
                - statistics.median(p["pass_s"] for p in plain))
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


def report(workload, seed, passes):
    """Human-readable lines before the JSON result."""
    for i, p in enumerate(passes, 1):
        kind = "traced" if p["traced"] else "plain"
        print(f"pass {i} ({kind}): setup {p['setup_s']:.3f} s, pass {p['pass_s']:.3f} s, "
              f"{p['verdicts']} verdicts, peak RSS {p['peak_rss_mb']:.1f} MB, "
              f"defects {dict(p['defects'])}, digest {p['digest'][:16]}")
    plain = [p for p in passes if not p["traced"]]
    per_pass = plain[0]["verdicts"]
    if per_pass >= 100:
        lat = [x for p in plain for x in p["latencies_ms"]]
        print(f"{workload} seed {seed}: verdict_p50_ms {percentile(lat, 50):.4f}, "
              f"verdict_p90_ms {percentile(lat, 90):.4f} over {len(lat)} verdicts "
              f"of {len(plain)} passes")
    else:
        print(f"{workload} seed {seed}: {per_pass} verdicts per pass, too few for "
              f"verdict_p50_ms/verdict_p90_ms")
    failed = sum(plain[0]["defects"].values())
    print(f"failed_share {failed / per_pass:.6f} ({failed} of {per_pass} verdicts contradict "
          f"their known answer: {dict(plain[0]['defects'])})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mdm" / "__init__.py").is_file():
        print(f"error: no mdm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))

    report(args.workload, args.seed, passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    bad = problems(passes, recorded)
    if recorded is None:
        print(f"no digest recorded for seed {args.seed}; known answers checked only")
    for reason in bad:
        print(f"INCORRECT: {reason}", file=sys.stderr)
    result = {
        "correct": not bad,
        "attempted": plain[0]["verdicts"],
        "failed": sum(plain[0]["defects"].values()),
        "metrics": per_layer(plain, traced) if args.trace else end_to_end(plain),
    }
    print(json.dumps(result))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

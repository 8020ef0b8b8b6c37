"""One cold pass of one workload in a fresh interpreter.

    python3 perfbench/one_pass.py --workload NAME --seed N [--trace] [--spans PATH]

Prints one JSON object: set-up and pass wall times, peak resident memory,
every verdict latency, the verdict digest and tallies, and with --trace
the per-layer metrics.  `run.py` starts one of these per pass, so that
every pass pays for a cold interpreter and cold caches as a user's
process does.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import mdm
    if Path(mdm.__file__).resolve().parent != ROOT / "src" / "mdm":
        raise SystemExit(f"imported mdm from {mdm.__file__}, not from {ROOT / 'src'}")
    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install([workloads])
    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_s = time.perf_counter() - t0

    if tracer:
        tracer.start_pass()
    workloads.cold_caches()
    book = workloads.Verdicts()
    t1 = time.perf_counter()
    run(inputs, book)
    pass_s = time.perf_counter() - t1

    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdicts": len(book.rows),
        "decided": book.decided(),
        "defects": Counter(book.defects()),
        "digest": book.digest(),
        "latencies_ms": [x * 1000 for x in book.latencies],
    }
    if tracer:
        info = {cache.__name__: cache.cache_info() for cache in workloads.CACHES}
        result["layers"] = tracer.metrics(info)
        result["spans"] = len(tracer.spans) - tracer.pass_start
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

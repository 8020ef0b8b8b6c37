"""Steadiness self-check and digest recording for the benchmark.

    python3 perfbench/selfcheck.py
        Runs one traced pass of every workload at seed 0 under
        PYTHONHASHSEED=1 and under PYTHONHASHSEED=2, and fails unless the
        verdict digests and every per-layer count and ratio are exactly
        equal.  `str` hashing changes set iteration order between the
        two, so this catches verdicts or work that depend on it.

    python3 perfbench/selfcheck.py --record 0-31
        Runs one pass of every workload at each seed and writes the verdict
        digests to digests.json.  Only do this when a change is meant to
        change verdicts (a fixed defect), and say so in the change.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from run import DIGESTS, WORKLOADS, run_pass

HASH_SEEDS = ("1", "2")
SEED = 0


def steadiness():
    failures = []
    for workload in WORKLOADS:
        results = []
        for hash_seed in HASH_SEEDS:
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            results.append(run_pass(workload, SEED, trace=True, env=env))
        a, b = results
        if a["digest"] != b["digest"]:
            failures.append(f"{workload}: digest {a['digest']} != {b['digest']}")
        exact = [name for name, (_, unit) in a["layers"].items() if unit in ("count", "ratio")]
        for name in exact:
            if a["layers"][name][0] != b["layers"][name][0]:
                failures.append(f"{workload}: {name} {a['layers'][name][0]} != {b['layers'][name][0]}")
        print(f"{workload} seed {SEED}: digest {a['digest'][:16]}, {len(exact)} counts compared "
              f"under PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
    return failures


def record(seeds):
    digests = json.loads(DIGESTS.read_text())
    for workload in WORKLOADS:
        table = digests.setdefault(workload, {})
        for seed in seeds:
            table[str(seed)] = run_pass(workload, seed)["digest"]
            print(f"{workload} seed {seed}: {table[str(seed)]}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="FIRST-LAST")
    args = parser.parse_args(argv)
    if args.record:
        first, last = map(int, args.record.split("-"))
        record(range(first, last + 1))
        return 0
    failures = steadiness()
    for line in failures:
        print(f"NOT STEADY: {line}", file=sys.stderr)
    print("steady" if not failures else f"{len(failures)} difference(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

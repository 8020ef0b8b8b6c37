"""Every benchmark workload still reaches its recorded verdicts.

Each test runs one cold pass of a workload at seed 0 in a fresh
interpreter, exactly as `perfbench/run.py` does, and compares the digest
of its verdicts with the one recorded in `perfbench/digests.json`.  A
speedup that changes a verdict, a count or a boundary tally fails here.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_seed_0_digest_is_recorded(workload):
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "one_pass.py"), "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(out.stdout)
    assert result["digest"] == RECORDED[workload]["0"]

"""Every benchmark workload still reaches its recorded verdicts.

Each test runs one cold pass of a workload in a fresh interpreter,
exactly as `perfbench/run.py` does, and compares the digest of its
verdicts with the one recorded in `perfbench/digests.json`: every
workload at seed 0, kernel-corpus also at seeds 1-7 and candidate-algebra
at seeds 1-3.  A speedup that changes a verdict, a count or a boundary
tally fails here, and so does a change of the name a binder is renamed to.
Each pass otherwise draws a random hash seed, so every workload's seed 0
is also run under three fixed ones: a verdict that depends on set order
fails here every time, not only now and then.  Every workload's traced
counts and ratios are compared under two hash seeds as well, as
`perfbench/selfcheck.py` compares them.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


def _pass(workload, seed, hash_seed=None, trace=False):
    env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "one_pass.py"), "--workload", workload, "--seed", str(seed)]
        + ["--trace"] * trace,
        capture_output=True, text=True, check=True, timeout=300, env=env,
    )
    return json.loads(out.stdout)


def _digest(workload, seed, hash_seed=None):
    return _pass(workload, seed, hash_seed)["digest"]


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_seed_0_digest_is_recorded(workload):
    assert _digest(workload, 0) == RECORDED[workload]["0"]


@pytest.mark.parametrize("seed", range(1, 8))
def test_kernel_corpus_digest_is_recorded(seed):
    # the workload where the congruence search does real work, and whose
    # printed Church subjects and witnesses show the names of binders
    assert _digest("kernel-corpus", seed) == RECORDED["kernel-corpus"][str(seed)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_candidate_algebra_digest_is_recorded(seed):
    # each seed draws four new sub-seeds of random candidates, which go
    # through candidate_close and cr3prime
    assert _digest("candidate-algebra", seed) == RECORDED["candidate-algebra"][str(seed)]


@pytest.mark.parametrize("hash_seed", [1, 2, 3])
def test_kernel_corpus_digest_ignores_hash_seed(hash_seed):
    assert _digest("kernel-corpus", 0, hash_seed) == RECORDED["kernel-corpus"]["0"]


@pytest.mark.parametrize("hash_seed", [1, 2, 3])
def test_closure_lemmas_digest_ignores_hash_seed(hash_seed):
    # the closures share derivation searches keyed on a theory's identity
    # and on the catalog as a frozenset
    assert _digest("closure-lemmas", 0, hash_seed) == RECORDED["closure-lemmas"]["0"]


@pytest.mark.parametrize("hash_seed", [1, 2, 3])
def test_candidate_algebra_digest_ignores_hash_seed(hash_seed):
    assert _digest("candidate-algebra", 0, hash_seed) == RECORDED["candidate-algebra"]["0"]


def _traced_counts(workload, hash_seed):
    layers = _pass(workload, 0, hash_seed, trace=True)["layers"]
    return {name: value for name, (value, unit) in layers.items() if unit in ("count", "ratio")}


def test_candidate_algebra_traced_counts_ignore_hash_seed():
    # the work done, not only the verdicts: the expansion scans, the arrow
    # and the reduct walks visit the same terms whatever the set order
    a, b = (_traced_counts("candidate-algebra", hash_seed) for hash_seed in (1, 2))
    assert a and a == b


def test_kernel_corpus_traced_counts_ignore_hash_seed():
    # the congruence search expands each node's neighbours in canonical
    # order, so it visits the same propositions whatever the set order
    a, b = (_traced_counts("kernel-corpus", hash_seed) for hash_seed in (1, 2))
    assert a and a == b


def test_closure_lemmas_traced_counts_ignore_hash_seed():
    # stage 0 asks about a universe's members in the order `build_universe`
    # made them, and the expansion scans and the arrow's applications follow
    # the same order, so the shared derivation search settles the same
    # queries, and the same terms are built and dropped, whatever the set
    # order
    a, b = (_traced_counts("closure-lemmas", hash_seed) for hash_seed in (1, 2))
    assert a and a == b

"""Every benchmark workload still reaches its recorded verdicts.

Each test runs one cold pass of a workload in a fresh interpreter,
exactly as `perfbench/run.py` does, and compares the digest of its
verdicts with the one recorded in `perfbench/digests.json`: every
workload at seed 0, kernel-corpus also at seeds 1-7 and candidate-algebra
at seeds 1-3.  A speedup that changes a verdict, a count or a boundary
tally fails here, and so does a change of the name a binder is renamed to.
Each pass otherwise draws a random hash seed, so every workload's seed 0
is also run under three fixed ones: a verdict that depends on set order
fails here every time, not only now and then.  Every workload's seed 0
is run under a recursion limit of 10000 as well, ten times the default,
so a verdict that depends on how deep a walk may recurse fails here.
Every workload's traced counts and ratios are compared under two hash
seeds as well, as `perfbench/selfcheck.py` compares them, and the traced
closure-lemmas and candidate-algebra passes must count every family of
the tracer that they counted before the candidate algebra, the stage-0
search and Cl^k were split into three modules: a function the tracer no
longer finds counts 0 under both hash seeds alike.
"""
import functools
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


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_seed_0_digest_ignores_the_recursion_limit(workload):
    # a verdict that stops at the interpreter's recursion limit, as a
    # "depth limit" answer does, would move with it; one_pass.py runs as a
    # script does, with its directory first on the path
    code = (f"import runpy, sys; sys.setrecursionlimit(10000); "
            f"sys.path.insert(0, {str(PERFBENCH)!r}); "
            f"runpy.run_path({str(PERFBENCH / 'one_pass.py')!r}, run_name='__main__')")
    out = subprocess.run(
        [sys.executable, "-c", code, "--workload", workload, "--seed", "0"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert json.loads(out.stdout)["digest"] == RECORDED[workload]["0"]


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


@functools.cache
def _traced_layers(workload, hash_seed):
    return _pass(workload, 0, hash_seed, trace=True)["layers"]


def _traced_counts(workload, hash_seed):
    return {name: value for name, (value, unit) in _traced_layers(workload, hash_seed).items()
            if unit in ("count", "ratio")}


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


# The per-layer metrics that a seed-0 pass under PYTHONHASHSEED=1 read as
# nonzero when `mdm.candidates` still held the candidate algebra, the
# search and Cl^k, among them candidates.cl0_calls 11, cl_step_calls 22
# and provable_calls 24610 on closure-lemmas, and candidates.cr_calls 2538
# on candidate-algebra.  Timed families count as their time.
COUNTED_FAMILIES = {
    "closure-lemmas": (
        "candidates.arrow_untested", "candidates.build_universe_s", "candidates.cl0_calls",
        "candidates.cl0_s", "candidates.cl_step_calls", "candidates.cl_step_s",
        "candidates.closure_s", "candidates.imp_candidate_s", "candidates.provable_calls",
        "candidates.self_s", "candidates.stage_members", "candidates.verify_clfamorph_s",
        "candidates.verify_clramorph_s", "candidates.verify_clsubst_s",
        "candidates.verify_lambdacl_s", "candidates.verify_mink_s",
        "candidates.verify_monotone_s", "reduction.beta_reducts_calls",
        "reduction.beta_reducts_hit_ratio", "reduction.redex_paths_calls", "reduction.self_s",
        "reduction.sn_calls", "reduction.sn_hit_ratio", "reduction.sn_s",
        "rewriting.congruent_calls", "rewriting.congruent_ex_calls", "rewriting.congruent_ex_s",
        "rewriting.congruent_hit_ratio", "rewriting.self_s", "syntax.canon_calls",
        "syntax.canon_s", "syntax.self_s", "syntax.subst_calls", "syntax.subst_s",
    ),
    "candidate-algebra": (
        "candidates.arrow_untested", "candidates.build_universe_s", "candidates.cr_calls",
        "candidates.cr_s", "candidates.imp_candidate_s", "candidates.random_candidates_s",
        "candidates.self_s", "reduction.beta_reducts_calls", "reduction.beta_reducts_hit_ratio",
        "reduction.self_s", "reduction.sn_calls", "reduction.sn_s", "syntax.canon_calls",
        "syntax.canon_s", "syntax.self_s", "syntax.subst_calls", "syntax.subst_s",
    ),
}


@pytest.mark.parametrize("workload", sorted(COUNTED_FAMILIES))
def test_traced_pass_counts_every_family_it_counted(workload):
    layers = _traced_layers(workload, 1)
    silent = [name for name in COUNTED_FAMILIES[workload] if not layers[name][0]]
    assert not silent, f"{workload}: traced metrics read 0: {silent}"

import functools
import gc
import itertools
import os
import random
import runpy
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import pytest

from mdm import closure as closure_module, reducibility
from mdm.closure import (
    ClosureTable, adequacy_check, cl0, cl_step, closure, closure_oracle, verify_clfamorph,
    verify_clramorph, verify_clsubst, verify_lambdacl, verify_mink, verify_monotone,
)
from mdm.demos import builtin_theory
from mdm.reducibility import (
    ArrowResult, FiniteCandidate, Universe, _occurrences, build_universe, candidate_close, cr1,
    cr2, cr3, cr3aux, cr3prime, decompositions, expansion_rows, forall_candidate, imp_candidate,
    imp_candidate_ex, random_candidates, sn_slice,
)
from mdm.reduction import SNUnknown, beta_reducts, is_normal
from mdm.search import (
    _NEVER, ClosureOracle, DerivationSearch, SearchBounds, UniversalContext,
    church_forall_defect_demo,
)
from mdm.suite import _closure_inputs
from mdm.syntax import (
    CHURCH, CURRY, Atom, Fun, Imp, PApp, PLam, PVar, TLam, Var, apply_capture_subst, canon,
    is_neutral, parse_proof, parse_prop, parse_term, print_prop, proof_height, size,
)
from mdm.typecheck import Context, axiom, imp_elim, imp_intro, parse_context
from mdm.verdict import Verdict

import helpers
from helpers import (
    failure_sets, lemma_violations, reference_candidate_close, reference_closure, reference_cr1,
    reference_cr2, reference_cr3, reference_cr3aux, reference_cr3prime, reference_expansions,
    reference_forall_candidate, reference_occurrences, reference_search, reference_stage0,
    reference_universe,
)

DD = parse_proof(r"(\a. a a) (\a. a a)")
P = Atom("P")
ROOT = Path(__file__).resolve().parents[1]
# the indexes a universe builds on first use, each a cached property
UNIVERSE_INDEXES = ("redexes", "positions", "reducts", "sn_classes", "applications",
                    "reduct_rows")


@pytest.fixture(scope="module")
def u5():
    return build_universe(5, ("g", "h"))


@pytest.fixture(scope="module")
def u6():
    return build_universe(6, ("g", "h"))


@pytest.fixture(scope="module")
def u7():
    return build_universe(7, ("h1", "h2", "h3"))


@pytest.fixture(scope="module")
def delta7():
    return Context((("h1", P), ("h2", P), ("h3", Imp(P, P))))


@pytest.fixture(scope="module")
def bounds7(u7):
    return SearchBounds(u7, depth=3, fuel=60, k_max=3, n_max=2)


class TestUniverse:
    def test_counts_modulo_alpha(self):
        u = build_universe(3, ("a",))
        # size 1: a; size 2: \v.v, \v.a; size 3: \v.\w coverage + apps
        assert PVar("a") in u.members
        assert parse_proof(r"\b. b") in u.members
        assert parse_proof("a a") in u.members
        assert len([p for p in u.members if size(p) == 1]) == 1

    def test_pool_name_of_a_binder_form_is_refused(self):
        # with v1 free in the pool, \v1. v1 would stand for both the
        # identity and the abstraction of the free v1
        assert len(build_universe(2, ("a",))) == 3
        with pytest.raises(ValueError, match=r"\['v1'\] have the form v<digits>"):
            build_universe(2, ("v1",))
        assert len(build_universe(2, ("v",))) == 3

    def test_indexes_are_built_on_first_use(self):
        u = build_universe(5, ("g", "h"))
        assert not set(UNIVERSE_INDEXES) & set(vars(u)) and u._rows == {}
        assert all(getattr(u, name) is getattr(u, name) for name in UNIVERSE_INDEXES)
        assert u.rows(2, False) is u.rows(2, False) and list(u._rows) == [(2, False)]
        # the benchmark's set-up builds its universes, and no index of them:
        # each is built in the timed pass that first asks for it
        workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
        algebra = workloads["setup_candidate_algebra"](0)
        lemmas = workloads["setup_closure_lemmas"](0)
        for u in (algebra["u"], lemmas["bounds"].universe, lemmas["bounds2"].universe):
            assert not set(UNIVERSE_INDEXES) & set(vars(u)) and u._rows == {}

    def test_redexes_are_the_non_normal_members_in_order(self, u5):
        assert u5.redexes == tuple(p for p in u5.order if not is_normal(p))
        assert len(u5.redexes) == 35

    @pytest.mark.parametrize("running", [True, False])
    def test_build_pauses_and_restores_the_collector(self, monkeypatch, running):
        # the layers are filled with the cyclic collector paused, and the
        # build leaves it as it found it
        seen = []
        keep = reducibility.keep_canon

        def watching_keep_canon(p, c):
            seen.append(gc.isenabled())
            keep(p, c)

        monkeypatch.setattr(reducibility, "keep_canon", watching_keep_canon)
        was = gc.isenabled()
        try:
            gc.enable() if running else gc.disable()
            assert len(build_universe(4, ("a",))) == len(reference_universe(4, ("a",)))
            assert seen and not any(seen)
            assert gc.isenabled() is running
        finally:
            gc.enable() if was else gc.disable()

    def test_collector_is_restored_after_an_exception(self, monkeypatch):
        def failing_papp(f, a):
            raise RuntimeError("no application")

        monkeypatch.setattr(reducibility, "PApp", failing_papp)
        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="no application"):
            build_universe(4, ("a",))
        assert gc.isenabled()

    def test_applications_are_the_fitting_ones(self, u5):
        # each pair holds the bits of the argument and the application, and
        # only the members with a pair are listed
        listed = {p: (bit, pairs) for bit, p, pairs in u5.applications}
        assert list(listed) == [p for p in u5.order if p in listed]
        for p in u5.order:
            fits = {m: PApp(p, m) for m in u5.members
                    if size(PApp(p, m)) <= u5.max_size}
            assert all(app in u5.members for app in fits.values())
            bit, pairs = listed.get(p, (1 << u5.positions[p], ()))
            assert bit == 1 << u5.positions[p]
            decoded = [(u5.members_of(arg), u5.members_of(app)) for arg, app in pairs]
            assert {m: app for [m], [app] in decoded} == fits
            assert [size(m) for [m], _ in decoded] == sorted(size(m) for m in fits)
        assert 0 < len(listed) < len(u5)


def renamed_copy(p, names, env=None):
    """The pure proof-term p with each binder renamed to the next of the
    iterator names."""
    env = env or {}
    if isinstance(p, PVar):
        return PVar(env.get(p.name, p.name))
    if isinstance(p, PApp):
        return PApp(renamed_copy(p.fn, names, env), renamed_copy(p.arg, names, env))
    var = next(names)
    return PLam(var, renamed_copy(p.body, names, {**env, p.var: var}))


def scratch_canon(p) -> tuple:
    """canon(p) computed from scratch: under a term binder, every node of
    p lies below a binder, so `_canon` reads no tuple kept on a node; the
    pure p has no term-variable for the binder to bind."""
    return canon(TLam("z", p))[1]


UNIVERSE_CASES = ([(n, ("a",)) for n in range(1, 9)]
                  + [(n, pool) for pool in (("g", "h"), ("h1", "h2", "h3")) for n in range(1, 8)])


@pytest.mark.parametrize("max_size, pool", UNIVERSE_CASES,
                         ids=[f"{n}-{'.'.join(pool)}" for n, pool in UNIVERSE_CASES])
def test_layered_build_matches_the_recursive_one(max_size, pool):
    u = build_universe(max_size, pool)
    reference = reference_universe(max_size, pool)
    assert u.order == tuple(reference) and u.members == frozenset(reference)
    names = (f"w{i}" for i in itertools.count())
    for m in u.order:
        copy = renamed_copy(m, names)
        assert m._canon == scratch_canon(copy)
        assert m == copy and hash(m) == hash(copy)


class TestCRProperties:
    def test_cr1_singleton_identity(self):
        assert cr1(FiniteCandidate(frozenset({parse_proof(r"\a. a")}))).ok

    def test_cr1_divergent_fails(self):
        v = cr1(FiniteCandidate(frozenset({DD})))
        assert v.status == "fail"

    def test_cr1_empty_vacuous(self):
        assert cr1(FiniteCandidate(frozenset())).ok

    def test_cr2_closed_pair(self, u5):
        s = FiniteCandidate(frozenset({parse_proof(r"(\a. a) g"), PVar("g")}))
        assert cr2(s, u5).ok

    def test_cr2_missing_reduct(self, u5):
        s = FiniteCandidate(frozenset({parse_proof(r"(\a. a) g")}))
        v = cr2(s, u5)
        assert v.status == "fail"
        assert (parse_proof(r"(\a. a) g"), PVar("g")) in v.failures

    def test_cr2_sn_slice_closed(self, u5):
        assert cr2(sn_slice(u5), u5).ok

    def test_cr3_requires_neutral_normal_terms(self, u5):
        gg = PApp(PVar("g"), PVar("g"))
        s = FiniteCandidate(sn_slice(u5).members - {gg})
        v = cr3(s, u5)
        assert v.status == "fail"
        assert gg in v.failures

    def test_cr3aux_ignores_normal_neutrals(self, u5):
        gg = PApp(PVar("g"), PVar("g"))
        full = candidate_close(sn_slice(u5).members - {gg}, u5)
        s = FiniteCandidate(full - {gg})
        assert gg not in s.members
        assert cr3aux(s, u5).ok

    def test_cr3prime_single_hole(self, u5):
        s = FiniteCandidate(frozenset({PVar("g")}))
        v = cr3prime(s, u5)
        assert v.status == "fail"
        assert any(p == parse_proof(r"(\b. b) g") for p, _ in v.failures)

    def test_cr3prime_closure_passes(self, u5):
        s = FiniteCandidate(candidate_close({PVar("g")}, u5))
        assert cr3prime(s, u5).ok

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("universe", ["u5", "u7"])
    def test_closures_pass_cr2_and_cr3prime(self, request, universe, seed):
        # why random_candidates checks only cr1 on the closures it draws
        u = request.getfixturevalue(universe)
        rng = random.Random(seed)
        base = sorted(sn_slice(u).members, key=str)
        s = FiniteCandidate(candidate_close(rng.sample(base, rng.randint(1, len(base) // 3)), u))
        assert cr2(s, u).ok and cr3prime(s, u).ok


# Terms with two disjoint marked occurrences, marked subterms with two
# reducts, and a marked subterm under a binder of one of its variables.
HAND_MARKED = (
    r"((\a. a) g) ((\a. a) h)",
    r"g ((\a. a) h) ((\b. b) g)",
    r"(h ((\a. a) h) ((\b. b) g)) (g ((\a. a a) g) ((\c. h) g))",
    r"\v. (v ((\a. a) v)) ((\b. b) g)",
    r"(\v. v ((\a. a) g)) (h ((\a. a) h))",
)


class TestDecompositions:
    def test_grafting_reconstructs(self, u5):
        for p in list(u5.members)[:200]:
            for nu, pairs in decompositions(p, 2):
                assert apply_capture_subst(pairs, nu) == p

    def test_capture_marking_allowed_by_default(self):
        p = PLam("a", PApp(PLam("b", PVar("b")), PVar("a")))
        decs = list(decompositions(p, 1, captured_ok=True))
        assert decs  # the inner redex mentions the bound a
        assert not list(decompositions(p, 1, captured_ok=False))

    @pytest.mark.parametrize("captured_ok", [True, False])
    @pytest.mark.parametrize("universe", ["u6", "u5-without-g"])
    def test_expansion_table_follows_decompositions(self, universe, captured_ok):
        if universe == "u6":
            u = build_universe(6, ("g", "h"))  # size 6 admits members with several rows
        else:
            # (\a. a) g reduces to g, which this universe lacks
            u = Universe(5, ("g", "h"), build_universe(5, ("g", "h")).members - {G})
        compiled = u.rows(2, captured_ok)
        assert u.rows(2, captured_ok) is compiled
        assert "rows" not in vars(u) and len(u._rows) == 1
        by_member = {p: (bit, rows) for bit, p, rows, _, _ in compiled}
        escaping = 0
        for p in u.order:
            rows = list(expansion_rows(p, 2, captured_ok))
            decs = list(decompositions(p, 2, captured_ok))
            assert [pairs for pairs, _ in rows] == [pairs for _, pairs in decs]
            for pairs, instances in rows:
                if len(pairs) == 1:
                    assert set(instances) <= beta_reducts(p)
            # the compiled rows: the bits of the instances before the first
            # one outside the universe, and whether there is such a one
            bit, prow = by_member.get(p, (None, ()))
            assert (bit is not None) == bool(rows)
            assert bit is None or bit == 1 << u.positions[p]
            assert len(prow) == len(rows)
            for (pairs, pre, escapes, unknown), (ref_pairs, instances) in zip(prow, rows):
                cut = next((k for k, q in enumerate(instances) if q not in u.members),
                           len(instances))
                assert pairs == ref_pairs and escapes == (cut < len(instances))
                assert pre == u.mask(instances[:cut]) and unknown == 0
                escaping += escapes
        if universe == "u5-without-g":
            # rows escape the universe, and `_forced` tallies them as boundary
            assert escaping
        assert [p for _, p, _, _, _ in compiled] == [p for p in u.redexes if p in by_member]
        # a member's wait mask is the | of its rows' pre bits
        for _, _, prow, wait, unknown in compiled:
            assert wait == functools.reduce(int.__or__, (pre for _, pre, _, _ in prow))
            assert unknown == 0

    @pytest.mark.parametrize("captured_ok", [True, False])
    @pytest.mark.parametrize("universe", ["h", "g", "hand"])
    def test_path_built_rows_are_the_graft_built_ones(self, universe, captured_ok):
        # replacing each marked subterm at its path gives the very nodes
        # that grafting the reducts into the hole term gives.  The size-6
        # universes of criterion 8 have one reduct per marked subterm and
        # one hole per row; the hand-made terms have two of each.
        if universe == "hand":
            u = Universe(15, ("g", "h"), frozenset(map(parse_proof, HAND_MARKED)))
        else:
            u = build_universe(6, tuple(universe + str(i) for i in (1, 2, 3)))
        reference = reference_expansions(u, 2, captured_ok)
        rows = [row for rows in reference.values() for row in rows]
        assert rows
        if universe == "hand":
            assert any(len(pairs) == 2 for pairs, _ in rows)
            assert any(len(instances) == 4 for _, instances in rows)
        for p in u.order:
            rows = list(expansion_rows(p, 2, captured_ok))
            assert len(rows) == len(reference.get(p, ()))
            for (pairs, instances), (ref_pairs, ref_instances) in zip(rows, reference.get(p, ())):
                assert pairs == ref_pairs
                assert len(instances) == len(ref_instances)
                assert all(a is b for a, b in zip(instances, ref_instances))

    @pytest.mark.parametrize("universe", ["u5", "u6"])
    def test_built_rows_equal_the_walked_rows(self, request, universe):
        # a built universe's rows take the hole names from its binders; the
        # same members in a hand-made universe find them by walking each one
        u = request.getfixturevalue(universe)
        walked = Universe(u.max_size, u.pool, u.members, u.order)
        assert u.binders and walked.binders is None
        for n_max, captured_ok in itertools.product((1, 2), (True, False)):
            assert u.rows(n_max, captured_ok) == walked.rows(n_max, captured_ok)
        holes = {h for _, _, prow, _, _ in u.rows(2, True) for row in prow for h, _ in row[0]}
        assert "hole1" in holes and holes <= {"hole1", "hole2"}

    def test_a_member_binding_a_hole_name_gets_a_fresh_one(self):
        p = parse_proof(r"\hole1. (\a. a) g")
        u = Universe(6, ("g",), frozenset({p}))
        assert u.binders is None
        (_, q, prow, _, _), = u.rows(1, True)
        assert q == p
        assert [row[0] for row in prow] == [(("hole1_1", parse_proof(r"(\a. a) g")),)]

    @pytest.mark.parametrize("captured_ok", [True, False])
    @pytest.mark.parametrize("universe", ["u6", "u7"])
    def test_occurrences_match_the_reference(self, request, universe, captured_ok):
        u = request.getfixturevalue(universe)
        for p in u.members:
            assert _occurrences(p, captured_ok) == reference_occurrences(p, captured_ok)

    @pytest.mark.parametrize("size", [5, 6])
    def test_uncapturing_marked_subterms_are_members(self, size):
        # why cr3prime and candidate_close need no membership test on
        # marked subterms: each is no larger than its term and free only
        # in the pool
        u = build_universe(size, ("g", "h"))
        for p in u.members:
            for pairs, _ in expansion_rows(p, 2, captured_ok=False):
                assert all(m in u.members for _, m in pairs)


class TestExpansionRule:
    def test_escaped_instance_forces_nothing(self, u5):
        # a hand-made universe without g: the six members that reduce to g
        # have their only instance outside it
        g = PVar("g")
        u = Universe(5, ("g", "h"), u5.members - {g})
        to_g = frozenset(p for p in u.members if g in beta_reducts(p))
        assert parse_proof(r"(\a. a) g") in to_g and len(to_g) == 6
        none = FiniteCandidate(frozenset())
        v = cr3prime(none, u)
        assert v.ok and v.boundary == 6
        aux = cr3aux(none, u)
        assert aux.ok and aux.boundary == 6
        stage, boundary, unknown = cl_step(frozenset(), u, 2)
        assert not stage & to_g and (boundary, unknown) == (6, 0)
        closed = candidate_close({PVar("h")}, u)
        assert not closed & to_g
        assert cr3prime(FiniteCandidate(closed), u).ok


class TestCandidateAlgebra:
    def test_full_universe_absorbs(self, u5):
        full = FiniteCandidate(u5.members)
        some = FiniteCandidate(frozenset({PVar("g")}))
        assert imp_candidate(some, full, u5).members == u5.members

    def test_identity_in_arrow_of_sn_closure(self, u5):
        s = FiniteCandidate(candidate_close({PVar("g"), PVar("h")}, u5))
        arrow = imp_candidate(s, s, u5)
        assert parse_proof(r"\a. a") in arrow.members

    def test_forall_singleton(self, u5):
        c = FiniteCandidate(frozenset({PVar("g")}))
        assert forall_candidate([c]).members == c.members

    def test_forall_intersection(self):
        a = FiniteCandidate(frozenset({PVar("g"), PVar("h")}))
        b = FiniteCandidate(frozenset({PVar("h")}))
        assert forall_candidate([a, b]).members == {PVar("h")}

    def test_forall_empty_family_rejected(self):
        with pytest.raises(ValueError):
            forall_candidate([])

    def test_forall_is_greatest_lower_bound(self, u5):
        cands = random_candidates(u5, 8, seed=3)
        for i in range(0, len(cands) - 2, 3):
            fam = cands[i:i + 3]
            meet = forall_candidate(fam)
            for c in fam:
                assert meet.members <= c.members
            for lower in cands:
                if all(lower.members <= c.members for c in fam):
                    assert lower.members <= meet.members


def arrow_by_brute_force(a, b, u):
    """Reference arrow: build every application, then measure it."""
    members, boundary, untested, partial = [], 0, [], []
    for p in u.members:
        ok, tested, escaped = True, 0, 0
        for m in a.members:
            app = PApp(p, m)
            if size(app) > u.max_size:
                escaped += 1
                continue
            tested += 1
            if app not in b.members:
                ok = False
                break
        if ok:
            members.append(p)
            boundary += escaped
            if escaped and not tested:
                untested.append(p)
            elif escaped:
                partial.append(p)
    return ArrowResult(FiniteCandidate(frozenset(members)), boundary,
                       frozenset(untested), frozenset(partial))


class TestArrowReference:
    def test_matches_brute_force(self, u5):
        cands = random_candidates(u5, 3, seed=1)
        cands.append(FiniteCandidate(candidate_close({PVar("g"), PVar("h")}, u5)))
        seen = {"rejected": 0, "partial": 0, "untested": 0}
        for a in cands:
            for b in cands:
                got = imp_candidate_ex(a, b, u5)
                assert got == arrow_by_brute_force(a, b, u5)
                seen["rejected"] += len(got.members.members) < len(u5.members)
                seen["partial"] += len(got.partially_tested)
                seen["untested"] += len(got.untested)
        assert all(seen.values()), seen  # every branch of the arrow was exercised

    def test_source_outside_the_universe_is_refused(self, u5):
        k = PVar("k")
        assert k not in u5.members
        some = random_candidates(u5, 1, seed=2)[0]
        with pytest.raises(ValueError):
            imp_candidate_ex(FiniteCandidate(some.members | {k}), some, u5)

    def test_size_6_closure_tables(self, empty_theory, delta7):
        u = build_universe(6, ("h1", "h2", "h3"))
        bounds = SearchBounds(u, depth=3, fuel=60, k_max=3, n_max=2)
        tables = [closure(empty_theory, delta7, prop, {}, 3, bounds)
                  for prop in (P, Imp(P, P))]
        for a in tables:
            for b in tables:
                got = imp_candidate_ex(a, b, u)
                assert got == arrow_by_brute_force(a, b, u)
                assert got.members.members and got.untested and got.partially_tested


# ---------------------------------------------------------------------------
# The bit index against the frozenset algebra (`helpers.reference_*`)

G = PVar("g")
DIVERGING = (DD, PApp(G, DD), PApp(DD, G), PLam("v1", DD))


def _pool_context(pool):
    """Every pool name but the last a hypothesis of P, the last one of P => P."""
    return Context(tuple((h, P) for h in pool[:-1]) + ((pool[-1], Imp(P, P)),))


def _bit_sets(u, theory):
    """Named sets over u: candidates that carry their mask there (random
    candidates, meets, arrows, the SN slice) and sets that are converted
    (closure tables, the empty set, the redexes, every member)."""
    cands = random_candidates(u, 6, seed=5)
    sets = {f"candidate {i}": c for i, c in enumerate(cands)}
    sets.update({f"meet {i}": forall_candidate(cands[i:i + 2 + i % 2]) for i in (0, 2, 3)})
    sets.update({f"arrow {i}{j}": imp_candidate(cands[i], cands[j], u)
                 for i in range(3) for j in range(3)})
    sets["arrow from nothing"] = imp_candidate(FiniteCandidate(frozenset()), cands[0], u)
    sets["sn slice"] = sn_slice(u)
    bounds = SearchBounds(u, depth=3, fuel=60, k_max=3, n_max=2)
    delta = _pool_context(u.pool)
    for prop in (P, Imp(P, P)):
        sets[f"closure of {print_prop(prop)}"] = closure(theory, delta, prop, {}, 3, bounds)
    sets["empty"] = FiniteCandidate(frozenset())
    sets["redexes"] = FiniteCandidate(frozenset(u.redexes))
    sets["every member"] = FiniteCandidate(u.members)
    return sets


@functools.cache
def _bit_case(name):
    """(universe, the reference's cr3prime rows, named sets over it).  A
    size-5 universe without g, and one with diverging members, take the
    size-5 sets, whose masks are over another universe.  Only the sets
    that lie in the universe are kept, since every check over it refuses
    any other (`test_a_set_outside_the_universe_is_refused`): without g,
    the sets without g."""
    theory = builtin_theory("empty")
    u5 = build_universe(5, ("g", "h"))
    if name == "u5":
        u, sets = u5, _bit_sets(u5, theory)
    elif name == "u6":
        u = build_universe(6, ("h1", "h2", "h3"))
        sets = _bit_sets(u, theory)
    else:
        sets = _bit_case("u5")[2]
        members = u5.members - {G} if name == "u5-without-g" else u5.members | set(DIVERGING)
        u = Universe(5 if name == "u5-without-g" else 11, ("g", "h"), members)
        sets = {**sets, "every member": FiniteCandidate(u.members),
                "arrow from nothing": imp_candidate(FiniteCandidate(frozenset()), sets["empty"], u)}
    sets["g"] = FiniteCandidate(frozenset({G}))
    sets["a pool name"] = FiniteCandidate(frozenset({PVar(u.pool[0])}))
    # CR3 and CR3' force the missing redex back: its reducts all lie in u
    redex = next(p for p in u.redexes if is_neutral(p) and beta_reducts(p) <= u.members)
    sets["every member but a redex"] = FiniteCandidate(u.members - {redex})
    sets = {label: s for label, s in sets.items() if s.members <= u.members}
    return u, reference_expansions(u, 2, False), sets


BIT_UNIVERSES = ["u5", "u6", "u5-without-g", "u5-with-diverging"]


def _facts(v):
    return v.status, Counter(v.failures), v.boundary, v.unknown, v.name


OUTSIDE_SETS = ["outside only", "candidate 0 and DD", "redexes and outside"]


@functools.cache
def _outside_sets():
    """Sets holding terms outside the size-5 universe over g and h, alone
    and with members of it: DD reduces to itself, and (\a. a) ((\b. b) g)
    to two members."""
    u, _, sets = _bit_case("u5")
    outside = parse_proof(r"(\a. a) ((\b. b) g)")
    return u, {"outside only": FiniteCandidate(frozenset({DD, outside})),
               "candidate 0 and DD": FiniteCandidate(
                   sets["candidate 0"].members | {DD, PApp(G, DD)}),
               "redexes and outside": FiniteCandidate(sets["redexes"].members | {outside})}


# The checks and steps over a universe, each asked of a set s over u.
REFUSING_CHECKS = {
    "cr2": cr2, "cr3": cr3, "cr3aux": cr3aux, "cr3prime": cr3prime,
    "arrow source": lambda s, u: imp_candidate_ex(s, sn_slice(u), u),
    "arrow target": lambda s, u: imp_candidate_ex(sn_slice(u), s, u),
    "candidate_close": lambda s, u: candidate_close(s.members, u),
    "cl_step": lambda s, u: cl_step(s.members, u, 2),
}


class TestBitsAgreeWithTheReference:
    @pytest.mark.parametrize("name", BIT_UNIVERSES)
    def test_cr_properties(self, name):
        u, table, sets = _bit_case(name)
        seen = Counter()
        for label, s in sets.items():
            checks = {
                "cr1": (cr1(s), reference_cr1(s)),
                "cr2": (cr2(s, u), reference_cr2(s, u)),
                "cr3": (cr3(s, u), reference_cr3(s, u)),
                "cr3aux": (cr3aux(s, u), reference_cr3aux(s, u)),
                "cr3prime": (cr3prime(s, u), reference_cr3prime(s, u, table)),
            }
            for check, (got, want) in checks.items():
                assert _facts(got) == _facts(want), (label, check)
                seen[check, "fail"] += got.status == "fail"
                seen[check, "boundary"] += got.boundary > 0
        # cr1 reads no universe, so it takes the sets that hold DD as well
        for label, s in _outside_sets()[1].items():
            got = cr1(s)
            assert _facts(got) == _facts(reference_cr1(s)), label
            seen["cr1", "fail"] += got.status == "fail"
        # every check failed somewhere; without g, a reduct or instance
        # escapes the universe in every check but cr1
        assert all(seen[check, "fail"] for check in checks)
        if name == "u5-without-g":
            assert all(seen[check, "boundary"] for check in checks if check != "cr1")

    def test_candidate_close_equals_its_full_scan_version(self, u5, monkeypatch):
        # `_close` examines only the members waiting on a member that joined
        # since its last expansion scan; the full-scan version examines all
        rows = u5.rows(2, captured_ok=False)
        forced = reducibility._forced
        scans = []

        def counting_forced(*args, **kwargs):
            scans.append(kwargs.get("changed"))
            return forced(*args, **kwargs)

        def full_scan_close(mask):
            fresh = mask
            while True:
                while fresh:
                    reached = 0
                    for bit, _, inside, _ in u5.reducts:
                        if fresh & bit:
                            reached |= inside
                    fresh = reached & ~mask
                    mask |= fresh
                fresh = forced(mask, rows)[0]
                if not fresh:
                    return mask
                mask |= fresh

        monkeypatch.setattr(reducibility, "_forced", counting_forced)
        base = u5.members_of(u5.sn_classes[0])
        later_scans = 0
        for seed in range(20):
            rng = random.Random(seed)
            seed_members = rng.sample(base, rng.randint(1, len(base) // 3))
            mask = u5.mask(seed_members)
            scans.clear()
            closed = reducibility._close(mask, u5)
            assert all(changed is not None for changed in scans)
            later_scans += len(scans) - 1
            assert closed == full_scan_close(mask), seed
            assert candidate_close(seed_members, u5) == frozenset(u5.members_of(closed))
        # some closures force members in one scan and scan again for the
        # members that wait on them
        assert later_scans

    @pytest.mark.parametrize("name", BIT_UNIVERSES)
    def test_candidate_close(self, name):
        u, table, sets = _bit_case(name)
        for label, s in sets.items():
            closed = candidate_close(s.members, u)
            assert closed == reference_candidate_close(s.members, u, table), label
            assert closed >= s.members

    @pytest.mark.parametrize("name", BIT_UNIVERSES)
    def test_meets_and_the_masks_they_carry(self, name):
        u, _, sets = _bit_case(name)
        family = list(sets.values())
        for i in range(len(family) - 2):
            fam = family[i:i + 3]
            assert forall_candidate(fam) == reference_forall_candidate(fam)
        # a carried mask is exactly the candidate's members
        carriers = [s for s in sets.values() if getattr(s, "_bits", None)]
        assert carriers
        for s in carriers:
            over, mask = s._bits
            assert frozenset(over.members_of(mask)) == s.members

    @pytest.mark.parametrize("check", REFUSING_CHECKS)
    @pytest.mark.parametrize("label", OUTSIDE_SETS)
    def test_a_set_outside_the_universe_is_refused(self, label, check):
        # every check over a universe reads its sets as masks there, and a
        # set with a member outside it has none
        u, sets = _outside_sets()
        s = sets[label]
        assert not s.members <= u.members
        with pytest.raises(ValueError, match="outside the universe"):
            REFUSING_CHECKS[check](s, u)


# Prints the failures of cr1, cr2, cr3 and cr3prime on `failure_sets`.
FAILURE_LISTING = """
from helpers import failure_sets
from mdm.reducibility import cr1, cr2, cr3, cr3prime
for u, s in failure_sets():
    print(repr([cr1(s).failures, cr2(s, u).failures, cr3(s, u).failures,
                cr3prime(s, u).failures]))
"""

# Prints the violations of the four lemma checks on `lemma_violations`.
LEMMA_LISTING = """
from helpers import lemma_violations
_, out = lemma_violations()
print(repr(sorted(out.items())))
"""


def _listing(code, hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


class TestFailureOrder:
    def test_failures_follow_the_universe_order(self):
        lengths = Counter()
        for u, s in failure_sets():
            at = u.positions.__getitem__
            listed = {
                "cr1": [at(p) for p in cr1(s).failures],
                "cr2": [(at(p), at(r)) for p, r in cr2(s, u).failures],
                "cr3": [at(p) for p in cr3(s, u).failures],
                "cr3prime": [at(p) for p, _ in cr3prime(s, u).failures],
            }
            for check, positions in listed.items():
                assert positions == sorted(set(positions)), check
                lengths[check] = max(lengths[check], len(positions))
        assert min(lengths.values()) > 1

    def test_failures_ignore_the_hash_seed(self):
        first = _listing(FAILURE_LISTING, 0)
        assert first.count("\n") == len(failure_sets()) and "PApp" in first
        assert _listing(FAILURE_LISTING, 1) == first

    def test_lemma_violations_follow_the_universe_order(self):
        u, out = lemma_violations()
        at = u.positions.__getitem__
        (_, diff), = out["clsubst"]
        listed = {
            # each member of the universe is checked under each binder
            "lambdacl": [at(lam.body) for lam, _ in out["lambdacl"]],
            "clsubst": [at(p) for p in diff],
            "clfamorph": [at(p) for tag, p in out["clfamorph"] if tag == "not in intersection"],
            "clfamorph backward": [at(p) for tag, p in out["clfamorph"]
                                   if tag == "not in quantified closure"],
        }
        for check, positions in listed.items():
            assert positions == sorted(positions) and len(set(positions)) > 1, check
        assert len(set(listed["clsubst"])) == len(diff)
        # verify_mink reads a table alone, and lists in canon order
        mink = [canon(p) for p, *_ in out["mink"]]
        assert mink == sorted(mink) and len(set(mink)) > 1

    def test_lemma_violations_ignore_the_hash_seed(self):
        first = _listing(LEMMA_LISTING, 0)
        assert all(check in first for check in ("clfamorph", "clsubst", "lambdacl", "mink"))
        assert _listing(LEMMA_LISTING, 1) == first

    def test_cr1_of_a_set_without_a_universe_lists_in_canon_order(self):
        s = FiniteCandidate(frozenset(DIVERGING) | {G})
        assert cr1(s).failures == tuple(sorted(DIVERGING, key=canon))


class TestUniversalContext:
    def test_deterministic_and_injective(self):
        c1, c2 = UniversalContext(), UniversalContext()
        assert c1.var_name(P, 0) == c2.var_name(P, 0)
        assert c1.var_name(P, 0) != c1.var_name(P, 1)
        assert c1.var_name(P, 0) != c1.var_name(Imp(P, P), 0)

    def test_names_are_pinned(self):
        # church_forall_defect_demo prints these names in its report
        ctx = UniversalContext()
        assert (ctx.var_name(P, 0), ctx.var_name(Imp(P, P), 1)) == ("hc61a4a_0", "hcc239e_1")

    def test_slice_is_a_context(self):
        ctx = UniversalContext().slice([(P, 2), (Imp(P, P), 1)])
        assert len(ctx) == 3
        assert sum(1 for _, p in ctx if p == P) == 2


class TestCl0:
    def test_empty_theory_atom(self, empty_theory, u7, delta7, bounds7):
        s0 = cl0(empty_theory, delta7, P, {}, bounds7)
        assert PVar("h1") in s0 and PVar("h2") in s0
        assert parse_proof("h3 h1") in s0
        # an abstraction cannot prove an atom when no rule reshapes it
        assert parse_proof(r"\a. h1") not in s0

    def test_empty_theory_arrow(self, empty_theory, u7, delta7, bounds7):
        s0 = cl0(empty_theory, delta7, Imp(P, P), {}, bounds7)
        assert parse_proof(r"\a. a") in s0
        assert parse_proof(r"\a. h1") in s0

    def test_selfapp_contains_self_application(self, selfapp, u7, bounds7):
        A = Atom("A")
        delta = Context((("h1", A), ("h2", A), ("h3", A)))
        s0 = cl0(selfapp, delta, A, {}, bounds7)
        assert parse_proof(r"\a. a a") in s0


class TestClosure:
    def test_stage_zero_only(self, empty_theory, delta7, bounds7):
        t = closure(empty_theory, delta7, P, {}, 0, bounds7)
        assert len(t.stages) == 1

    def test_monotone_and_mink(self, empty_theory, delta7, bounds7):
        t = closure(empty_theory, delta7, P, {}, 3, bounds7)
        assert verify_monotone(t).ok
        assert verify_mink(t).ok

    def test_normal_members_enter_at_stage_zero(self, empty_theory, delta7, bounds7):
        t = closure(empty_theory, delta7, P, {}, 3, bounds7)
        for p, k in t.first_stage.items():
            if is_normal(p):
                assert k == 0

    def test_cl_step_single_hole_example(self, u5):
        prev = frozenset({PVar("g")})
        nxt, boundary, unknown = cl_step(prev, u5, 1)
        assert parse_proof(r"(\a. a) g") in nxt

    def test_cl_step_fixpoint(self, u5):
        s = candidate_close({PVar("g")}, u5)
        nxt, _, _ = cl_step(s, u5, 2)
        assert nxt == s

    def test_stages_satisfy_cr1_cr2(self, empty_theory, u7, delta7, bounds7):
        t = closure(empty_theory, delta7, Imp(P, P), {}, 3, bounds7)
        for stage in t.stages:
            c = FiniteCandidate(stage)
            assert cr1(c).ok
            assert cr2(c, u7).ok


# (theory, universal context, targets, instantiation terms): every bundled
# theory, with quantified hypotheses where the theory has a unary predicate
SEARCH_CASES = [
    ("empty", "h1:P, h2:P, h3:P => P", ("P", "P => P"), ()),
    # g3 g2 : R(c) needs g2 : !y. R(c), the second quantified catalog entry
    ("empty", "g1:!x. R(x), g2:R(c), g3:(!y. R(c)) => R(c)", ("R(c)", "!x. R(x)"), ("c", "d")),
    ("selfapp", "h1:A", ("A", "A => A"), ()),
    ("confusion", "h1:A => !x. B, h2:A", ("!x. (A => B)", "B", "A => B"), ()),
    ("arith-toy", "k1:Nonneg(s(z)), k2:!x. Odd(x)", ("Nonneg(z)", "Odd(s(z))"), ("z", "s(z)")),
]
SEARCH_IDS = ["empty", "empty-forall", "selfapp", "confusion", "arith-toy"]
SEARCH_DEPTHS = (1, 2, 3, 4)
# the depths a refutation kept for every depth is checked at
EVERY_DEPTH = (1, 2, 3, 4, 5)


@functools.cache
def _search_case(name, delta_text, targets, inst):
    """The case's inputs on a size-5 universe, and the reference stage-0
    set of each (target, style, depth)."""
    theory = builtin_theory(name)
    sig = theory.signature
    delta = parse_context(delta_text, sig)
    bounds = SearchBounds(build_universe(5, delta.names()), fuel=60, k_max=2, n_max=2,
                          inst_terms=tuple(parse_term(t, sig) for t in inst))
    targets = [parse_prop(t, sig) for t in targets]
    ref = {(target, style, d): reference_stage0(theory, delta, target, bounds, d, style)
           for target in targets for style in (CURRY, CHURCH) for d in EVERY_DEPTH}
    return theory, delta, targets, bounds, ref


class TestSharedSearch:
    """`cl0` and every `closure` share one derivation search per theory and
    context, whose memo serves every depth.  Whatever order the depths and
    universes are asked in, each stage set must equal that of the plain
    recursive search."""

    @pytest.fixture(autouse=True)
    def fresh_searches(self, monkeypatch):
        monkeypatch.setattr(DerivationSearch, "_shared", {})

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    @pytest.mark.parametrize("case", SEARCH_CASES, ids=SEARCH_IDS)
    def test_stage_sets_equal_the_reference(self, case, order):
        theory, delta, targets, bounds, refs = _search_case(*case)
        u = bounds.universe
        # a smaller universe over the same pool: the same searches, and every
        # stage set is the larger one's restricted to it
        u4 = build_universe(4, u.pool)
        depths = SEARCH_DEPTHS if order == "ascending" else SEARCH_DEPTHS[::-1]
        for target in targets:
            ref = {(style, d): refs[target, style, d] for style in (CURRY, CHURCH)
                   for d in SEARCH_DEPTHS}
            found = {}
            for d in depths:
                at_d = bounds.replace(depth=d)
                for style in (CURRY, CHURCH):
                    found[style, d] = cl0(theory, delta, target, {}, at_d, style)
                    assert found[style, d] == ref[style, d], (style, d)
                    small = cl0(theory, delta, target, {}, at_d.replace(universe=u4), style)
                    assert small == ref[style, d] & u4.members, (style, d)
                stages = [ref[CURRY, d]]
                for _ in range(bounds.k_max):
                    stages.append(cl_step(stages[-1], u, bounds.n_max)[0])
                    if stages[-1] == stages[-2]:
                        break
                table = closure(theory, delta, target, {}, bounds.k_max, at_d)
                assert table.stages == tuple(stages), d
            # each set asked again, from the warm memo, is the same set, in
            # either universe
            for d in depths:
                at_d = bounds.replace(depth=d)
                for style in (CURRY, CHURCH):
                    assert cl0(theory, delta, target, {}, at_d, style) == found[style, d]
                    assert cl0(theory, delta, target, {}, at_d.replace(universe=u4), style) \
                        == ref[style, d] & u4.members
            # a subject proved at depth d is proved at depth d+1
            for style in (CURRY, CHURCH):
                for d in SEARCH_DEPTHS[:-1]:
                    assert found[style, d] <= found[style, d + 1]
                    assert ref[style, d] <= ref[style, d + 1]

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("order", ["rising", "falling", "shuffled"])
    @pytest.mark.parametrize("case", SEARCH_CASES, ids=SEARCH_IDS)
    def test_every_depth_in_any_order_equals_the_reference(self, case, order, warm):
        # a query refuted for no reason of depth is kept as refuted at every
        # depth, so each depth is asked here after others, above and below,
        # on the searches the autouse fixture makes fresh or on warmed ones
        theory, delta, targets, bounds, refs = _search_case(*case)
        u = bounds.universe
        depths = list(EVERY_DEPTH)
        if order == "falling":
            depths.reverse()
        elif order == "shuffled":
            random.Random(SEARCH_CASES.index(case)).shuffle(depths)
        for target in targets:
            for style in (CURRY, CHURCH):
                search = DerivationSearch.shared(theory, delta, target, bounds, style)
                if warm:
                    # every member asked at every depth, the other way round
                    for d in depths[::-1]:
                        for p in u.order:
                            assert search.provable(p, target, d) == (p in refs[target, style, d])
                    assert search._memo
                for d in depths:
                    got = cl0(theory, delta, target, {}, bounds.replace(depth=d), style)
                    assert got == refs[target, style, d], (print_prop(target), style, d)

    def test_a_refutation_that_reads_no_depth_is_kept_for_every_depth(
            self, empty_theory, delta7, bounds7, monkeypatch):
        # no rule concludes an atom from an abstraction, and the context has
        # no quantifier for a silent rule: the query fails before any
        # sub-query, at any depth
        search = DerivationSearch.shared(empty_theory, delta7, P, bounds7)
        lam = parse_proof(r"\a. h1")
        assert not search.provable(lam, P, 3)
        assert search._memo[lam, P, ()] == (_NEVER, _NEVER)
        tried = []
        try_rules = DerivationSearch._try
        monkeypatch.setattr(DerivationSearch, "_try",
                            lambda s, *args: tried.append(args) or try_rules(s, *args))
        assert not search.provable(lam, P, 50) and not tried
        # h1 h1 : P asks h1 : a => P for every catalog a, and each fails at
        # any depth: so does the query
        app = parse_proof("h1 h1")
        assert not search.provable(app, P, 2)
        assert search._memo[app, P, ()] == (_NEVER, _NEVER)
        # a query below its subject's height is cut untried and kept nowhere
        tall = parse_proof(r"(\a. a) h1")
        tried.clear()
        assert not search.provable(tall, P, 2) and not tried
        assert (tall, P, ()) not in search._memo

    def test_a_refutation_the_height_test_cut_is_kept_for_its_depth_only(self):
        # g2 : R(d) under g2 : R(c) tries the silent instantiation rule, which
        # asks g2 : !x. R(x) one level lower, which asks g2 : R(x) one level
        # lower still.  Until that last query passes the height test, a cut
        # query refutes the first only up to its depth; from depth 3 on it
        # is refuted with every branch failing for a reason of no depth
        theory, delta, targets, bounds, _ = _search_case(*SEARCH_CASES[1])
        sig = theory.signature
        goal, forall, opened = (parse_prop(t, sig) for t in ("R(d)", "!x. R(x)", "R(x)"))
        search = DerivationSearch.shared(theory, delta, targets[0], bounds)
        provable = reference_search(theory, delta, targets[0], bounds)
        g2 = PVar("g2")
        for d in (1, 2):
            assert not search.provable(g2, goal, d) and not provable(g2, goal, (), d)
            assert search._memo[g2, goal, ()] == (_NEVER, d)
        assert (g2, opened, ()) not in search._memo
        assert search._memo[g2, forall, ()] == (_NEVER, 1)
        assert not search.provable(g2, goal, 3) and not provable(g2, goal, (), 3)
        assert search._memo[g2, opened, ()] == search._memo[g2, forall, ()] \
            == search._memo[g2, goal, ()] == (_NEVER, _NEVER)

    @pytest.mark.parametrize("case", SEARCH_CASES, ids=SEARCH_IDS)
    def test_subject_taller_than_the_depth_is_refuted_untried(self, case, monkeypatch):
        # every rule adds at most one level to the subject, so a query whose
        # depth is below the subject's height is refuted before any rule
        theory, delta, targets, bounds, _ = _search_case(*case)
        tried = []
        try_rules = DerivationSearch._try

        def counting_try(search, *args):
            tried.append(args)
            return try_rules(search, *args)

        monkeypatch.setattr(DerivationSearch, "_try", counting_try)
        members = bounds.universe.members
        for target in targets:
            for style in (CURRY, CHURCH):
                search = DerivationSearch.shared(theory, delta, target, bounds, style)
                # on a fresh search, and again once every depth has been searched
                for warm in (False, True):
                    if warm:
                        for d in SEARCH_DEPTHS:
                            cl0(theory, delta, target, {}, bounds.replace(depth=d), style)
                        assert tried
                    memo, rules = len(search._memo), len(search._rules)
                    tried.clear()
                    cut = 0
                    for d in SEARCH_DEPTHS:
                        for p in members:
                            if d < proof_height(p):
                                assert not search.provable(p, target, d), (style, d, p)
                                cut += 1
                    assert cut
                    assert not tried
                    assert (len(search._memo), len(search._rules)) == (memo, rules)

    @pytest.mark.parametrize("name, pool, terms", [
        ("arith-toy", ("k1", "k2"), ("z", "s(z)")),
        ("empty", ("g1",), ("c", "d")),
    ])
    def test_defect_demo_cases_equal_the_reference(self, name, pool, terms):
        # the demo's Church subjects are TApp nodes, which the universes of
        # SEARCH_CASES never hold
        theory = builtin_theory(name)
        sig = theory.signature
        terms = tuple(parse_term(t, sig) for t in terms)
        bounds = SearchBounds(build_universe(4, pool), fuel=100, k_max=1, n_max=1,
                              inst_terms=terms)
        for d in SEARCH_DEPTHS:
            rep = church_forall_defect_demo(theory, bounds.replace(depth=d), terms)
            assert rep["cases"]
            for c in rep["cases"]:
                delta = parse_context(c["hypothesis"], sig)
                target = parse_prop(c["instance"], sig)
                for style, subject, found in (
                        (CHURCH, parse_proof(c["church_subject"], CHURCH, sig),
                         c["church_in_stage0"]),
                        (CURRY, PVar(c["curry_subject"]), c["curry_in_stage0"])):
                    provable = reference_search(theory, delta, target, bounds, style)
                    assert found == provable(subject, target, (), d), (style, d, c)

    def test_one_search_per_theory_context_catalog_and_fuel(self, empty_theory, delta7, bounds7):
        def search(target, bounds):
            return DerivationSearch.shared(empty_theory, delta7, target, bounds)

        shared = search(P, bounds7)
        # another universe, depth or target with the same catalog
        assert search(Imp(P, P), bounds7.replace(universe=build_universe(3, ("h1",)), depth=1)) \
            is shared
        assert search(P, bounds7.replace(fuel=61)) is not shared
        assert search(parse_prop("R(c)", empty_theory.signature), bounds7) is not shared


# The theories of SEARCH_CASES whose closures the equivalence tests compare:
# every bundled theory once.
CLOSURE_CASES = [case for case, name in zip(SEARCH_CASES, SEARCH_IDS) if name != "empty-forall"]
CLOSURE_IDS = [name for name in SEARCH_IDS if name != "empty-forall"]


@functools.cache
def _closure_case(name, delta_text, targets, inst, size):
    theory, delta, targets, bounds, _ = _search_case(name, delta_text, targets, inst)
    return theory, delta, targets, bounds.replace(universe=build_universe(size, delta.names()))


class TestClosureTables:
    """`closure` keeps each table on the shared search, and builds a new
    one as the plain loop of `cl0` and full expansion steps over
    graft-built rows (`helpers.reference_closure`) does, although its own
    steps are semi-naive: each examines only the members waiting on one
    that the step before added."""

    @pytest.mark.parametrize("size", [5, 6, 7])
    @pytest.mark.parametrize("case", CLOSURE_CASES, ids=CLOSURE_IDS)
    def test_tables_equal_the_reference_loop(self, case, size):
        theory, delta, targets, bounds = _closure_case(*case, size)
        rows = reference_expansions(bounds.universe, bounds.n_max, True)
        grew = 0
        for target in targets:
            for depth in (2, 3, 4):
                at_d = bounds.replace(depth=depth)
                for k_max in (1, 2, 3, 4):
                    table = closure(theory, delta, target, {}, k_max, at_d)
                    ref = reference_closure(theory, delta, target, {}, k_max, at_d, rows)
                    for field in ClosureTable._fields:
                        assert getattr(table, field) == getattr(ref, field), \
                            (print_prop(target), depth, k_max, field)
                    grew = max(grew, len(set(map(len, table.stages))) - 1)
        # every closure grows; at size 7, some grow in two steps
        assert grew >= (2 if size == 7 else 1)

    @pytest.mark.parametrize("case", CLOSURE_CASES, ids=CLOSURE_IDS)
    def test_semi_naive_tallies_equal_the_full_steps(self, case, monkeypatch):
        # the closures above have no boundary row and no unknown verdict.
        # Here a fresh universe lacks a quarter of its normal members of
        # size 4, so rows escape it, and every fifth marked subterm gets an
        # unknown SN verdict; the searches, which keep each row's SN
        # status, are fresh too
        monkeypatch.setattr(DerivationSearch, "_shared", {})
        theory, delta, targets, bounds, _ = _search_case(*case)
        full = build_universe(7, delta.names())
        dropped = sorted((p for p in full.order if size(p) == 4 and is_normal(p)), key=canon)
        u = Universe(7, full.pool, full.members.difference(random.Random(0).sample(
            dropped, len(dropped) // 4)))
        marked = sorted({m for p in u.redexes for pairs, _ in expansion_rows(p, 2, True)
                         for _, m in pairs}, key=canon)
        unknown = frozenset(marked[::5])
        sn = closure_module.sn_cached

        def sn_with_unknowns(p, budget):
            return SNUnknown(budget) if p in unknown else sn(p, budget)

        monkeypatch.setattr(closure_module, "sn_cached", sn_with_unknowns)
        monkeypatch.setattr(helpers, "sn_cached", sn_with_unknowns)
        rows = reference_expansions(u, bounds.n_max, True)
        grew = boundary = 0
        for target in targets:
            for depth in (2, 3, 4):
                at_d = bounds.replace(universe=u, depth=depth)
                for k_max in (1, 2, 3, 4):
                    table = closure(theory, delta, target, {}, k_max, at_d)
                    ref = reference_closure(theory, delta, target, {}, k_max, at_d, rows)
                    for field in ClosureTable._fields:
                        assert getattr(table, field) == getattr(ref, field), \
                            (print_prop(target), depth, k_max, field)
                    grew = max(grew, len(set(map(len, table.stages))) - 1)
                    boundary += table.boundary_escapes
                    assert table.unknown_mu
        assert grew >= 2 and boundary

    @pytest.mark.parametrize("universe", ["u6", "u7", "u5-without-g"])
    def test_steps_equal_the_reference_steps(self, request, universe, monkeypatch):
        # the closures above grow in one step, with no boundary row and no
        # unknown verdict; these runs have all three.  Every fifth marked
        # subterm gets an unknown SN verdict, in cl_step and in the reference
        if universe == "u5-without-g":
            u5 = request.getfixturevalue("u5")
            u = Universe(5, ("g", "h"), u5.members - {PVar("g")})
        else:
            u = request.getfixturevalue(universe)
        marked = sorted({m for p in u.redexes for pairs, _ in expansion_rows(p, 2, True)
                         for _, m in pairs}, key=canon)
        unknown = frozenset(marked[::5])
        sn = closure_module.sn_cached

        def sn_with_unknowns(p, budget):
            return SNUnknown(budget) if p in unknown else sn(p, budget)

        monkeypatch.setattr(closure_module, "sn_cached", sn_with_unknowns)
        monkeypatch.setattr(helpers, "sn_cached", sn_with_unknowns)
        reference_table = reference_expansions(u, 2, True)
        small_normal = [p for p in u.order if is_normal(p) and size(p) <= 3]
        growing = boundary = unknowns = 0
        for seed in range(4):
            rng = random.Random(seed)
            stage = frozenset(p for p in small_normal if rng.random() < 0.7)
            for k in range(1, 8):
                nxt, b, um = cl_step(stage, u, 2)
                assert (nxt, b, um) == helpers.reference_step(stage, u, reference_table)
                boundary += b
                unknowns += um
                if nxt == stage:
                    assert nxt is stage
                    break
                growing = max(growing, k)
                stage = nxt
        # u7 grows in two steps, and the universe without g has boundary rows
        assert growing == (2 if universe == "u7" else 1) and unknowns
        assert boundary or universe != "u5-without-g"

    @pytest.mark.parametrize("target", ["P", "P => P"])
    def test_a_step_reads_the_rows_of_the_members_waiting_on_what_joined(
            self, empty_theory, delta7, bounds7, u7, target):
        reads = []

        class Rows(tuple):
            def __iter__(self):
                reads.append(self)
                return super().__iter__()

        target = parse_prop(target, empty_theory.signature)
        rows = tuple((bit, p, Rows(prow), wait, n) for bit, p, prow, wait, n
                     in closure_module._sn_rows(u7.rows(2, captured_ok=True)))
        stage = cl0(empty_theory, delta7, target, {}, bounds7)
        state = closure_module._Steps(rows, u7.mask(stage))
        added = None
        per_step = []
        while True:
            outside = [(bit, wait) for bit, _, _, wait, _ in rows if not state.mask & bit]
            reads.clear()
            nxt, _, _ = cl_step(stage, u7, 2, state)
            expected = [bit for bit, wait in outside if added is None or wait & added]
            assert len(reads) == len(expected)
            per_step.append((len(reads), len(outside)))
            if nxt is stage:
                break
            added = u7.mask(nxt - stage)
            stage = nxt
        # the first step reads every member outside stage 0, and the step
        # that confirms the fixpoint reads no row (P => P: 1737 members
        # read, then 1 of 1399 and 0 of 1398)
        assert per_step[0][0] == per_step[0][1] > 0 and per_step[-1][0] == 0
        assert nxt == closure(empty_theory, delta7, target, {}, 4, bounds7).members

    def test_a_universe_in_another_order_gets_its_own_rows(self, empty_theory, delta7, bounds7,
                                                           u7):
        # the search keeps the rows with their SN status per member set, and
        # their bits are positions in the universe's order
        closure(empty_theory, delta7, Imp(P, P), {}, 3, bounds7)
        reordered = Universe(u7.max_size, u7.pool, u7.members, u7.order[::-1])
        at = bounds7.replace(universe=reordered, depth=2)
        table = closure(empty_theory, delta7, Imp(P, P), {}, 3, at)
        assert table == reference_closure(empty_theory, delta7, Imp(P, P), {}, 3, at)
        assert len(table.stages[-1]) > len(table.stages[0])

    def test_an_equal_key_returns_the_same_table(self, empty_theory, delta7, bounds7, u7):
        table = closure(empty_theory, delta7, P, {}, 3, bounds7)
        assert closure(empty_theory, delta7, P, {}, 3, bounds7) is table
        # the key holds the universe's members, the proposition as
        # instantiated by the environment, and the bounds the steps read
        same_members = Universe(u7.max_size, u7.pool, u7.members, u7.order)
        assert closure(empty_theory, delta7, P, {}, 3,
                       bounds7.replace(universe=same_members)) is table
        assert closure(empty_theory, delta7, P, {"x": Fun("c")}, 3, bounds7) is table
        # bounds.k_max is not read: the k_max argument is
        assert closure(empty_theory, delta7, P, {}, 3, bounds7.replace(k_max=1)) is table

    def test_a_different_key_builds_another_table(self, empty_theory, delta7, bounds7):
        table = closure(empty_theory, delta7, P, {}, 3, bounds7)
        others = [
            closure(empty_theory, delta7, P, {}, 2, bounds7),
            closure(empty_theory, delta7, P, {}, 3, bounds7.replace(n_max=1)),
            closure(empty_theory, delta7, P, {}, 3, bounds7.replace(depth=2)),
            closure(empty_theory, delta7, P, {}, 3,
                    bounds7.replace(universe=build_universe(6, ("h1", "h2", "h3")))),
        ]
        assert all(t is not table for t in others)
        assert len({id(t) for t in others}) == len(others)

    def test_a_table_is_built_again_after_cache_clear(self, empty_theory, delta7, bounds7):
        table = closure(empty_theory, delta7, Imp(P, P), {}, 3, bounds7)
        assert DerivationSearch.cache_info().currsize >= 1
        DerivationSearch.cache_clear()
        info = DerivationSearch.cache_info()
        assert info == (0, 0, None, 0)
        assert (info.hits, info.misses, info.maxsize, info.currsize) == info
        again = closure(empty_theory, delta7, Imp(P, P), {}, 3, bounds7)
        assert again is not table and again == table
        info = DerivationSearch.cache_info()
        assert info.currsize == 1 and info.misses == 1 and info.hits >= 1
        assert closure(empty_theory, delta7, Imp(P, P), {}, 3, bounds7) is again


def _renamed(p):
    """The member p of a built universe with each binder name v<i> written
    b<i>, bound and binding occurrences alike: the same member, modulo
    alpha, under other names, since no pool name has either form."""
    if isinstance(p, PLam):
        return PLam("b" + p.var[1:], _renamed(p.body))
    if isinstance(p, PApp):
        return PApp(_renamed(p.fn), _renamed(p.arg))
    return PVar("b" + p.name[1:]) if p.name[0] == "v" else p


def _record_stage0(monkeypatch):
    """The list to which each `DerivationSearch.stage0` call appends its
    (target, depth) from now on."""
    asked = []
    stage0 = DerivationSearch.stage0

    def recording(search, universe, target, depth):
        asked.append((target, depth))
        return stage0(search, universe, target, depth)

    monkeypatch.setattr(DerivationSearch, "stage0", recording)
    return asked


class TestClosureOracle:
    """`closure_oracle` answers `p in` as the last stage of the table that
    `closure` builds for the same arguments, member by member, and keeps
    its answers on the shared search."""

    @pytest.mark.parametrize("size", [5, 6])
    @pytest.mark.parametrize("case", CLOSURE_CASES, ids=CLOSURE_IDS)
    def test_membership_equals_the_table(self, case, size, monkeypatch):
        theory, delta, targets, bounds = _closure_case(*case, size)
        u = bounds.universe
        renamed = [(q, p) for p in u.order if str(q := _renamed(p)) != str(p)]
        assert renamed and all(q == p for q, p in renamed)
        outside = (DD, PVar("zz"))
        assert not any(t in u for t in outside)
        grew = 0
        for target in targets:
            for depth in (2, 3, 4):
                at_d = bounds.replace(depth=depth)
                # a fresh search, where each oracle is asked before its table
                # exists, then the warm one, which has every table
                monkeypatch.setattr(DerivationSearch, "_shared", {})
                oracles = {}
                for k_max in (0, 1, 2, 3):
                    oracle = closure_oracle(theory, delta, target, {}, k_max, at_d)
                    assert isinstance(oracle, ClosureOracle)
                    oracles[k_max] = ([p in oracle for p in u.order],
                                      [q in oracle for q, _ in renamed],
                                      [t in oracle for t in outside])
                for k_max, (members, others, outer) in oracles.items():
                    table = closure(theory, delta, target, {}, k_max, at_d)
                    why = (print_prop(target), depth, k_max)
                    assert members == [p in table for p in u.order], why
                    assert others == [p in table for _, p in renamed], why
                    assert outer == [False, False], why
                    assert closure_oracle(theory, delta, target, {}, k_max, at_d) is table
                    search = DerivationSearch.shared(theory, delta, target, at_d)
                    warm = ClosureOracle(search, u, target, depth, k_max,
                                         closure_module._kept_rows(search, u, at_d.n_max))
                    assert [p in warm for p in u.order] == members, why
                    grew = max(grew, sum(members) - len(table.stages[0]))
        assert grew > 0

    def test_an_oracle_is_kept_on_the_search(self, empty_theory, delta7, bounds7, monkeypatch):
        monkeypatch.setattr(DerivationSearch, "_shared", {})
        asked = _record_stage0(monkeypatch)
        deeper = bounds7.replace(depth=4)
        oracle = closure_oracle(empty_theory, delta7, P, {}, 3, deeper)
        assert parse_proof("h3 h1") in oracle and parse_proof("h1 h1") not in oracle
        assert closure_oracle(empty_theory, delta7, P, {}, 3, deeper) is oracle
        search = DerivationSearch.shared(empty_theory, delta7, P, deeper)
        assert list(search.oracles.values()) == [oracle] and not search.closures
        # stage 0 was asked member by member: no stage-0 set was built
        assert not asked

    def test_cache_clear_drops_the_oracles(self, empty_theory, delta7, bounds7):
        oracle = closure_oracle(empty_theory, delta7, Imp(P, P), {}, 3, bounds7.replace(depth=4))
        assert parse_proof(r"\a. a") in oracle
        DerivationSearch.cache_clear()
        assert DerivationSearch.cache_info().currsize == 0
        again = closure_oracle(empty_theory, delta7, Imp(P, P), {}, 3, bounds7.replace(depth=4))
        assert again is not oracle and parse_proof(r"\a. a") in again
        search = DerivationSearch.shared(empty_theory, delta7, Imp(P, P), bounds7)
        assert list(search.oracles.values()) == [again]

    def test_a_k_max_past_the_fixpoint_needs_no_deeper_interpreter_stack(
            self, empty_theory, delta7):
        # each stage the rule reads is a frame of the oracle's own stack,
        # and the stages asked stop at the number of members with a row
        # that can force them: here 356, more than the 100 frames allowed
        u = build_universe(6, delta7.names())
        bounds = SearchBounds(u, depth=3, fuel=60, n_max=2)
        table = closure(empty_theory, delta7, P, {}, 3, bounds)
        assert table.fixpoint_at is not None
        oracle = closure_oracle(empty_theory, delta7, P, {}, 10 ** 6, bounds)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(traceback.extract_stack()) + 100)
        try:
            members = [p in oracle for p in u.order]
        finally:
            sys.setrecursionlimit(limit)
        assert members == [p in table for p in u.order]


def _lemma_checks(name):
    """(check, reference, args) for the arrow and quantifier lemma checks
    on the inputs of criterion 8 (closure-lemmas' at size 6, full mode's
    at size 7), or on a theory's closure case at size 5."""
    if name.startswith("criterion-8"):
        empty = builtin_theory("empty")
        sig = empty.signature
        P_, delta, bounds = _closure_inputs(6 if name.endswith("quick") else 7, depth=3)
        delta2 = Context((("g1", parse_prop("!x. R(x)", sig)), ("g2", parse_prop("R(c)", sig)),
                          ("g3", parse_prop("R(d)", sig))))
        terms = (Fun("c"), Fun("d"))
        bounds2 = SearchBounds(build_universe(bounds.universe.max_size, delta2.names()),
                               depth=3, fuel=60, k_max=3, n_max=2, inst_terms=terms)
        return [(verify_clramorph, helpers.reference_clramorph,
                 (empty, delta, P_, P_, {}, 3, bounds)),
                (verify_clfamorph, helpers.reference_clfamorph,
                 (empty, delta2, "x", parse_prop("R(x)", sig), {}, 3, bounds2, terms))]
    case = CLOSURE_CASES[CLOSURE_IDS.index(name)]
    theory, delta, targets, bounds = _closure_case(*case, 5)
    sig = theory.signature
    out = [(verify_clramorph, helpers.reference_clramorph, (theory, delta, a, b, {}, 3, bounds))
           for a in targets for b in targets]
    if name == "arith-toy":
        families = [(parse_prop(body, sig), bounds.inst_terms) for body in ("Odd(x)", "Nonneg(x)")]
    else:
        families = [(targets[0], (Var("x"), Var("y")))]
    return out + [(verify_clfamorph, helpers.reference_clfamorph,
                   (theory, delta, "x", body, {}, 3, bounds, terms)) for body, terms in families]


LEMMA_INPUTS = ["criterion-8-quick", "criterion-8-full", "arith-toy", "selfapp"]


class TestLemmasAskMembership:
    """verify_clramorph and verify_clfamorph ask the closures one level
    deeper only about the members they compare (`closure_oracle`), and
    return the Verdicts of the checks that built those closures whole
    (`helpers.reference_clramorph`, `helpers.reference_clfamorph`)."""

    @pytest.mark.parametrize("name", LEMMA_INPUTS)
    def test_verdicts_equal_the_whole_table_checks(self, name, monkeypatch):
        checks = _lemma_checks(name)
        # each side on searches of its own, so that no oracle reads a
        # table the reference built
        monkeypatch.setattr(DerivationSearch, "_shared", {})
        got = [check(*args) for check, _, args in checks]
        monkeypatch.setattr(DerivationSearch, "_shared", {})
        want = [reference(*args) for _, reference, args in checks]
        assert got == want
        assert all(v.checked for v in got)
        # arith-toy's Nonneg(x) fails on both sides: k1 lies in the closures
        # of both instances over the two terms, not in the quantified one's
        assert any(not v.ok for v in got) == (name == "arith-toy")

    def test_the_deeper_closures_build_no_stage0_set(self, monkeypatch):
        (ramorph, _, ra_args), (famorph, _, fa_args) = _lemma_checks("criterion-8-quick")
        monkeypatch.setattr(DerivationSearch, "_shared", {})
        asked = _record_stage0(monkeypatch)
        famorph(*fa_args)
        assert {depth for _, depth in asked} == {3}
        monkeypatch.setattr(DerivationSearch, "_shared", {})
        asked.clear()
        ramorph(*ra_args)
        # the deeper arrow closure is still a whole table
        assert {target for target, depth in asked if depth == 4} == {Imp(P, P)}


class TestLemmas:
    def test_clramorph_empty_theory(self, empty_theory, delta7, bounds7):
        rep = verify_clramorph(empty_theory, delta7, P, P, {}, 3, bounds7)
        assert rep.ok, rep.summary()

    def test_lambdacl_empty_theory(self, empty_theory, delta7, bounds7):
        rep = verify_lambdacl(empty_theory, delta7, P, P, {}, 3, bounds7)
        assert rep.ok, rep.summary()
        assert rep.checked > 0

    def test_clsubst_and_clfamorph(self, empty_theory):
        sig = empty_theory.signature
        body = parse_prop("R(x)", sig)
        u = build_universe(7, ("g1", "g2", "g3"))
        delta = Context((("g1", parse_prop("!x. R(x)", sig)),
                         ("g2", parse_prop("R(c)", sig)),
                         ("g3", parse_prop("R(d)", sig))))
        terms = (Fun("c"), Fun("d"))
        bounds = SearchBounds(u, depth=3, fuel=60, k_max=3, n_max=2, inst_terms=terms)
        rep = verify_clsubst(empty_theory, delta, body, "x", Fun("c"), {}, 3, bounds)
        assert rep.ok, rep.summary()
        rep2 = verify_clfamorph(empty_theory, delta, "x", body, {}, 3, bounds, terms)
        assert rep2.ok, rep2.summary()

    def test_clsubst_rejects_entangled_environment(self, empty_theory, delta7, bounds7):
        with pytest.raises(ValueError):
            verify_clsubst(empty_theory, delta7, parse_prop("R(x)", empty_theory.signature),
                           "x", Var("y"), {"y": Fun("c")}, 2, bounds7)


class TestAdequacy:
    def test_identity_derivation(self, empty_theory, delta7, bounds7):
        tables = {prop: closure(empty_theory, delta7, prop, {}, 3, bounds7)
                  for prop in (P, Imp(P, P))}
        ident = imp_intro(axiom(Context().extend("a", P), "a"))
        assert adequacy_check(ident, lambda prop, env: tables[prop], {}, {}, bounds7).ok

    def test_axiom_with_adequate_substitution(self, empty_theory, delta7, bounds7):
        tP = closure(empty_theory, delta7, P, {}, 3, bounds7)
        d = axiom(Context((("a", P),)), "a")
        v = adequacy_check(d, lambda prop, env: tP, {"a": parse_proof("h3 h1")}, {}, bounds7)
        assert v.ok

    def test_inadequate_substitution_fails(self, empty_theory, delta7, bounds7):
        tP = closure(empty_theory, delta7, P, {}, 3, bounds7)
        d = axiom(Context((("a", P),)), "a")
        v = adequacy_check(d, lambda prop, env: tP, {"a": parse_proof("h1 h1")}, {}, bounds7)
        assert v.status == "fail"

    def test_unmapped_hypothesis_is_not_adequate(self, empty_theory, delta7, bounds7):
        tP = closure(empty_theory, delta7, P, {}, 3, bounds7)
        d = axiom(Context((("a", P),)), "a")
        v = adequacy_check(d, lambda prop, env: tP, {}, {}, bounds7)
        assert v == Verdict("fail", (("a", P, "substitution not adequate"),), name="adequacy")

    def test_subject_outside_the_universe_is_unknown(self, empty_theory, delta7, bounds7):
        PP = Imp(P, P)
        tables = {prop: closure(empty_theory, delta7, prop, {}, 3, bounds7)
                  for prop in (P, PP)}
        ctx = Context((("f", PP), ("a", P)))
        d = imp_elim(axiom(ctx, "f"), axiom(ctx, "a"), P)
        f = parse_proof(r"(\b. \c. h1) (\b. b)")
        assert f in tables[PP] and size(f) == bounds7.universe.max_size - 1
        sigma = {"f": f, "a": PVar("h1")}
        v = adequacy_check(d, lambda prop, env: tables[prop], sigma, {}, bounds7)
        assert v == Verdict("unknown", boundary=1, unknown=1, name="adequacy")

    def test_candidates_serve_as_values(self, empty_theory, delta7, bounds7):
        cP = FiniteCandidate(closure(empty_theory, delta7, P, {}, 3, bounds7).members)
        d = axiom(Context((("a", P),)), "a")
        v = adequacy_check(d, lambda prop, env: cP, {"a": parse_proof("h3 h1")}, {}, bounds7)
        assert v.ok


class TestRandomCandidates:
    def test_all_pass_three_properties(self, u5):
        cands = random_candidates(u5, 10, seed=42)
        assert len(cands) == 10
        for c in cands:
            assert cr1(c).ok and cr2(c, u5).ok and cr3prime(c, u5).ok

    def test_deterministic(self, u5):
        a = random_candidates(u5, 5, seed=1)
        b = random_candidates(u5, 5, seed=1)
        assert [c.members for c in a] == [c.members for c in b]


class TestDefectDemo:
    def test_arith_toy_exhibits(self, arith_toy):
        u = build_universe(6, ("k1", "k2"))
        bounds = SearchBounds(u, depth=3, fuel=100, k_max=2, n_max=2)
        z, sz = Fun("z"), Fun("s", (Fun("z"),))
        rep = church_forall_defect_demo(arith_toy, bounds, (z, sz))
        assert rep["defect_exhibited"]
        bad = [c for c in rep["cases"] if not c["church_in_stage0"]]
        assert all(c["curry_in_stage0"] for c in bad)

    def test_no_quantified_proposition_available(self, selfapp):
        u = build_universe(4, ("k1",))
        bounds = SearchBounds(u, depth=2, fuel=50, k_max=1, n_max=1)
        rep = church_forall_defect_demo(selfapp, bounds, (Var("x"), Var("y")))
        assert rep["cases"] == []
        assert "note" in rep

import functools
import random
from dataclasses import replace

import pytest

from mdm.candidates import (
    DerivationSearch, FiniteCandidate, SearchBounds, UniversalContext, Universe, adequacy_check,
    build_universe, candidate_close, church_forall_defect_demo, cl0, cl_step,
    closure, cr1, cr2, cr3, cr3aux, cr3prime, decompositions, _occurrences,
    ArrowResult, forall_candidate, imp_candidate, imp_candidate_ex, random_candidates, sn_slice,
    verify_clfamorph, verify_clramorph, verify_clsubst, verify_lambdacl,
    verify_mink, verify_monotone,
)
from mdm.demos import builtin_theory
from mdm.reduction import beta_reducts, is_normal
from mdm.semantics import env_key
from mdm.syntax import (
    CHURCH, CURRY, Atom, Fun, Imp, PApp, PLam, PVar, Var, apply_capture_subst,
    parse_proof, parse_prop, parse_term, proof_height, size,
)
from mdm.typecheck import Context, axiom, imp_intro, parse_context

from helpers import reference_occurrences, reference_search, reference_stage0

DD = parse_proof(r"(\a. a a) (\a. a a)")
P = Atom("P")


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
        assert "redexes" not in vars(u) and "applications" not in vars(u)
        assert u.redexes is u.redexes and u.applications is u.applications

    def test_redexes_are_the_non_normal_members_in_order(self, u5):
        assert u5.redexes == tuple(p for p in u5.order if not is_normal(p))
        assert len(u5.redexes) == 35

    def test_applications_are_the_fitting_ones(self, u5):
        for p in u5.members:
            fits = {m: PApp(p, m) for m in u5.members
                    if size(PApp(p, m)) <= u5.max_size}
            assert u5.applications[p] == fits
            assert all(app in u5.members for app in fits.values())


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
        v = cr3prime(s, u5, n_max=1)
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
    def test_expansion_table_follows_decompositions(self, captured_ok):
        u = build_universe(6, ("g", "h"))  # size 6 admits members with several rows
        table = u.expansions(2, captured_ok)
        assert u.expansions(2, captured_ok) is table
        for p in u.members:
            rows = table[p]
            decs = list(decompositions(p, 2, captured_ok))
            assert [pairs for pairs, _ in rows] == [pairs for _, pairs in decs]
            for pairs, instances in rows:
                if len(pairs) == 1:
                    assert set(instances) <= beta_reducts(p)
            assert table[p] is rows

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
        table = u.expansions(2, captured_ok=False)
        for p in u.members:
            for pairs, _ in table[p]:
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
        stage, boundary, unknown = cl_step(frozenset(), u, 2, 1000)
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
        tables = [closure(empty_theory, delta7, prop, {}, 3, bounds).candidate()
                  for prop in (P, Imp(P, P))]
        for a in tables:
            for b in tables:
                got = imp_candidate_ex(a, b, u)
                assert got == arrow_by_brute_force(a, b, u)
                assert got.members.members and got.untested and got.partially_tested


class TestUniversalContext:
    def test_deterministic_and_injective(self):
        c1, c2 = UniversalContext(), UniversalContext()
        assert c1.var_name(P, 0) == c2.var_name(P, 0)
        assert c1.var_name(P, 0) != c1.var_name(P, 1)
        assert c1.var_name(P, 0) != c1.var_name(Imp(P, P), 0)

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
        nxt, boundary, unknown = cl_step(prev, u5, 1, 1000)
        assert parse_proof(r"(\a. a) g") in nxt

    def test_cl_step_fixpoint(self, u5):
        s = candidate_close({PVar("g")}, u5)
        nxt, _, _ = cl_step(s, u5, 2, 1000)
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
           for target in targets for style in (CURRY, CHURCH) for d in SEARCH_DEPTHS}
    return theory, delta, targets, bounds, ref


class TestSharedSearch:
    """`cl0` and every `closure` share one derivation search per theory and
    context, whose memo serves every depth and which keeps every stage-0 set
    it computes.  Whatever order the depths and universes are asked in, each
    stage set must equal that of the plain recursive search."""

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
                at_d = replace(bounds, depth=d)
                for style in (CURRY, CHURCH):
                    found[style, d] = cl0(theory, delta, target, {}, at_d, style)
                    assert found[style, d] == ref[style, d], (style, d)
                    small = cl0(theory, delta, target, {}, replace(at_d, universe=u4), style)
                    assert small == ref[style, d] & u4.members, (style, d)
                stages = [ref[CURRY, d]]
                for _ in range(bounds.k_max):
                    stages.append(cl_step(stages[-1], u, bounds.n_max, bounds.fuel)[0])
                    if stages[-1] == stages[-2]:
                        break
                table = closure(theory, delta, target, {}, bounds.k_max, at_d)
                assert table.stages == tuple(stages), d
            # each set asked again is the kept one, in either universe
            for d in depths:
                at_d = replace(bounds, depth=d)
                for style in (CURRY, CHURCH):
                    assert cl0(theory, delta, target, {}, at_d, style) is found[style, d]
                    assert cl0(theory, delta, target, {}, replace(at_d, universe=u4), style) \
                        == ref[style, d] & u4.members
            # a subject proved at depth d is proved at depth d+1
            for style in (CURRY, CHURCH):
                for d in SEARCH_DEPTHS[:-1]:
                    assert found[style, d] <= found[style, d + 1]
                    assert ref[style, d] <= ref[style, d + 1]

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
                            cl0(theory, delta, target, {}, replace(bounds, depth=d), style)
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
            rep = church_forall_defect_demo(theory, replace(bounds, depth=d), terms)
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
        assert search(Imp(P, P), replace(bounds7, universe=build_universe(3, ("h1",)), depth=1)) \
            is shared
        assert search(P, replace(bounds7, fuel=61)) is not shared
        assert search(parse_prop("R(c)", empty_theory.signature), bounds7) is not shared


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
        tP = closure(empty_theory, delta7, P, {}, 3, bounds7)
        tPP = closure(empty_theory, delta7, Imp(P, P), {}, 3, bounds7)
        tables = {(P, env_key({})): tP, (Imp(P, P), env_key({})): tPP}
        ident = imp_intro(axiom(Context().extend("a", P), "a"))
        assert adequacy_check(ident, tables, {}, {}, bounds7).ok

    def test_axiom_with_adequate_substitution(self, empty_theory, delta7, bounds7):
        tP = closure(empty_theory, delta7, P, {}, 3, bounds7)
        tables = {(P, env_key({})): tP}
        d = axiom(Context((("a", P),)), "a")
        v = adequacy_check(d, tables, {"a": parse_proof("h3 h1")}, {}, bounds7)
        assert v.ok

    def test_inadequate_substitution_fails(self, empty_theory, delta7, bounds7):
        tP = closure(empty_theory, delta7, P, {}, 3, bounds7)
        tables = {(P, env_key({})): tP}
        d = axiom(Context((("a", P),)), "a")
        v = adequacy_check(d, tables, {"a": parse_proof("h1 h1")}, {}, bounds7)
        assert v.status == "fail"


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

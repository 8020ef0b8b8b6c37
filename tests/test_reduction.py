import pytest
from hypothesis import given, settings

from helpers import delta_delta_derivation, forall_chain, reference_reducts
from mdm.candidates import build_universe
from mdm.corpus import generate_corpus
from mdm.demos import builtin_theory
from mdm.reduction import (
    Diverges, SN, SNUnknown, beta_reducts, beta_steps, contract, is_normal,
    one_step_reducts, redex_paths, reduce_derivation, sn_verdict, subterm_at,
)
from mdm.rewriting import Theory
from mdm.syntax import (
    CHURCH, CURRY, Atom, Fun, PApp, PLam, PVar, TApp, TLam, Var, parse_proof,
    parse_prop,
)
from mdm.typecheck import (
    Context, TransformError, axiom, check_derivation, erase, forall_elim,
    forall_intro, imp_elim, imp_intro,
)
from strats import SIG, proofs

DELTA = parse_proof(r"\a. a a")
DD = PApp(DELTA, DELTA)


def pf(s, style="curry"):
    return parse_proof(s, style)


class TestBetaReducts:
    def test_self_application_loops(self):
        assert beta_reducts(DD) == {DD}

    def test_variable_normal(self):
        assert beta_reducts(PVar("a")) == frozenset()

    def test_two_positions(self):
        p = pf(r"(\a. a) ((\b. b) e)")
        assert beta_reducts(p) == {pf(r"(\b. b) e"), pf(r"(\a. a) e")}

    def test_church_term_redex(self):
        p = TApp(TLam("x", PVar("a")), Fun("c"))
        assert beta_reducts(p) == {PVar("a")}

    def test_steps_match_positions(self):
        p = pf(r"(\a. a) ((\b. b) e)")
        assert len(beta_steps(p)) == len(redex_paths(p)) == 2

    def test_alpha_equal_reducts_collapse_in_set_only(self):
        # both redex positions contract to (\x. x) e, so the set has one
        # element while two positions exist
        p = PApp(PLam("a", PVar("a")), PApp(PLam("b", PVar("b")), PVar("e")))
        inner_first = PApp(PLam("a", PVar("a")), PVar("e"))
        outer_first = PApp(PLam("b", PVar("b")), PVar("e"))
        assert inner_first == outer_first
        assert len(beta_steps(p)) == 2
        assert beta_reducts(p) == {inner_first}

    @settings(max_examples=60, deadline=None)
    @given(proofs(max_leaves=8))
    def test_positions_bound_reducts(self, p):
        assert len(beta_reducts(p)) <= len(redex_paths(p))


@pytest.fixture(scope="module")
def walked():
    """Every member of the size-7 universe over three pool variables, and
    the subjects of a corpus of every bundled theory in both styles."""
    terms = sorted(build_universe(7, ("h1", "h2", "h3")).members, key=str)
    for name in ("empty", "selfapp", "confusion", "arith-toy"):
        theory = builtin_theory(name)
        for style in (CURRY, CHURCH):
            terms += [d.subject for d in generate_corpus(theory, style, 25, seed=11)]
    return terms


class TestDirectWalk:
    def test_terms_hold_both_kinds_of_redex(self, walked):
        # (\a. p) q everywhere, and (^x. p) [t] from the Church corpora
        kinds = {type(subterm_at(p, path)) for p in walked for path in redex_paths(p)}
        assert kinds == {PApp, TApp}
        assert sum(bool(redex_paths(p)) for p in walked) > 1000

    def test_reducts_are_the_path_reducts(self, walked):
        for p in walked:
            expected = reference_reducts(p)
            got = one_step_reducts(p)
            assert len(got) == len(expected), str(p)
            assert all(g is e for g, e in zip(got, expected)), str(p)

    def test_steps_pair_paths_with_reducts(self, walked):
        for p in walked:
            steps = beta_steps(p)
            assert [path for path, _ in steps] == redex_paths(p)
            assert all(r is e for (_, r), e in zip(steps, reference_reducts(p)))

    def test_normal_means_no_redex_path(self, walked):
        for p in walked:
            assert is_normal(p) == (not redex_paths(p)), str(p)

    def test_normality_is_decided_past_the_recursion_limit(self):
        normal, redex = PVar("a"), pf(r"(\a. a) b")
        for _ in range(3000):
            normal, redex = PLam("a", normal), PApp(PVar("c"), PLam("a", redex))
        assert is_normal(normal)
        assert not is_normal(redex)


class TestNormal:
    def test_variable(self):
        assert is_normal(PVar("a"))

    def test_neutral_self_application(self):
        assert is_normal(PApp(PVar("a"), PVar("a")))

    def test_redex_not_normal(self):
        assert not is_normal(pf(r"(\a. a) b"))


class TestSNVerdict:
    def test_delta_delta_diverges(self):
        v = sn_verdict(DD, 1000)
        assert isinstance(v, Diverges)
        assert v.cycle_length == 1

    def test_identity_is_normal(self):
        assert sn_verdict(pf(r"\a. a"), 10) == SN(0, 1)

    def test_two_step_chain(self):
        v = sn_verdict(pf(r"(\a. a a) (\b. b)"), 100)
        assert v == SN(2, 3)

    def test_budget_exhaustion(self):
        v = sn_verdict(pf(r"(\a. a a) (\b. b)"), 1)
        assert v == SNUnknown(1, "node budget")

    def test_depth_limit_is_its_own_reason(self):
        p = PVar("a")
        for _ in range(3000):
            p = PLam("a", p)
        assert sn_verdict(p, 100) == SNUnknown(0, "depth limit")

    def test_longer_cycle(self):
        # (\a. a a) e has no cycle; build a 1-cycle nested under context
        p = PApp(PVar("e"), DD)
        v = sn_verdict(p, 100)
        assert isinstance(v, Diverges)

    @settings(max_examples=40, deadline=None)
    @given(proofs(max_leaves=7))
    def test_sn_decreases_along_reduction(self, p):
        v = sn_verdict(p, 2000)
        if isinstance(v, SN):
            for r in beta_reducts(p):
                vr = sn_verdict(r, 2000)
                assert isinstance(vr, SN) and vr.max_length < v.max_length


class TestReduceDerivation:
    def _plain(self):
        return Theory(signature=SIG, rules=())

    def test_identity_redex(self):
        P = Atom("P")
        g = Context((("h", P),))
        ident = imp_intro(axiom(g.extend("a", P), "a"))
        arg = axiom(g, "h")
        d = imp_elim(ident, arg, b=P)
        assert d.subject == pf(r"(\a. a) h")
        out = reduce_derivation(self._plain(), d, ())
        assert out.subject == PVar("h")
        assert out.ctx == d.ctx and out.prop == d.prop
        assert check_derivation(self._plain(), out).ok

    def test_delta_delta_head_redex(self, selfapp):
        d = delta_delta_derivation()
        out = reduce_derivation(selfapp, d, ())
        assert out.subject == d.subject  # the loop reduces to itself
        assert out.ctx == d.ctx and out.prop == d.prop
        assert check_derivation(selfapp, out, 50).ok

    def test_church_term_redex(self):
        g = Context((("a", parse_prop("Q(x)", SIG)),))
        prem = axiom(g, "a", style=CHURCH)
        # generalizing over a fresh variable, then instantiating at c
        gen = forall_intro(prem, "y")
        d = forall_elim(gen, "y", parse_prop("Q(x)", SIG), Fun("c"))
        assert d.subject == TApp(TLam("y", PVar("a")), Fun("c"))
        out = reduce_derivation(self._plain(), d, ())
        assert out.subject == PVar("a")
        assert check_derivation(self._plain(), out).ok

    def test_inner_redex_path(self):
        P = Atom("P")
        g = Context((("h", P),))
        ident = imp_intro(axiom(g.extend("a", P), "a"))
        inner = imp_elim(ident, axiom(g, "h"), b=P)
        ident2 = imp_intro(axiom(g.extend("b", P), "b"))
        d = imp_elim(ident2, inner, b=P)
        assert d.subject == pf(r"(\b. b) ((\a. a) h)")
        out = reduce_derivation(self._plain(), d, (1,))
        assert out.subject == pf(r"(\b. b) h")
        assert check_derivation(self._plain(), out).ok

    def test_redex_under_silent_quantifier(self):
        P = Atom("P")
        g = Context((("h", P),))
        ident = imp_intro(axiom(g.extend("a", P), "a"))
        app = imp_elim(ident, axiom(g, "h"), b=P)
        wrapped = forall_elim(forall_intro(app, "x"), "x", P, Fun("c"))
        assert wrapped.subject == app.subject
        out = reduce_derivation(self._plain(), wrapped, ())
        assert out.subject == PVar("h")
        assert check_derivation(self._plain(), out).ok

    @pytest.mark.parametrize("style", [CURRY, CHURCH])
    def test_redex_under_a_deep_chain(self, style):
        # 3000 quantifier nodes above the redex: silent in Curry style, one
        # path component each in Church style
        P = Atom("P")
        g = Context((("h", P),))
        ident = imp_intro(axiom(g.extend("a", P), "a", style=style))
        app = imp_elim(ident, axiom(g, "h", style=style), b=P)
        depth = 3000
        path = () if style == CURRY else (0,) * depth
        out = reduce_derivation(self._plain(), forall_chain(app, depth), path)
        assert out == forall_chain(reduce_derivation(self._plain(), app, ()), depth)
        assert check_derivation(self._plain(), out).ok

    def test_invalid_path_rejected(self):
        P = Atom("P")
        d = axiom(Context((("h", P),)), "h")
        with pytest.raises(TransformError):
            reduce_derivation(self._plain(), d, (0,))
        with pytest.raises(TransformError):
            reduce_derivation(self._plain(), d, ())
        lam = imp_intro(axiom(Context((("h", P), ("a", P))), "h"))
        with pytest.raises(TransformError):
            reduce_derivation(self._plain(), lam, (1,))  # \a. h has no child 1
        g = Context((("a", parse_prop("!x. Q(x)", SIG)),))
        inst = forall_elim(axiom(g, "a", style=CHURCH), "x", parse_prop("Q(x)", SIG), Fun("c"))
        with pytest.raises(TransformError):
            reduce_derivation(self._plain(), inst, (1,))  # a [c]: the term holds no redex


class TestErasureSimulation:
    def test_proof_beta_maps_to_curry_beta(self):
        church = PApp(PLam("a", TApp(PVar("a"), Var("x"))), PVar("b"))
        reduct = contract(church)
        assert erase(reduct) in beta_reducts(erase(church))

    def test_term_beta_erases_to_equality(self):
        church = TApp(TLam("x", PApp(PVar("a"), PVar("b"))), Fun("c"))
        reduct = contract(church)
        assert erase(church) == erase(reduct)

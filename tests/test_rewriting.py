import pytest
from hypothesis import given, settings

from mdm.rewriting import (
    No, RewriteRule, Theory, TheoryError, Unknown, Yes, congruent,
    detect_confusion, enumerate_props, enumerate_terms, parse_theory,
    rewrite_neighbors,
)
from mdm.syntax import Atom, Forall, Fun, Imp, Signature, Var, parse_prop
from strats import SIG, props

A = Atom("A")
AA = Imp(A, A)


def test_theory_files_load(empty_theory, selfapp, confusion, arith_toy):
    assert empty_theory.rules == ()
    assert len(selfapp.rules) == 1
    assert selfapp.rules[0].oriented
    assert not confusion.rules[0].oriented
    assert arith_toy.has_term_rules


class TestRuleValidation:
    def test_var_lhs_rejected(self):
        with pytest.raises(TheoryError):
            RewriteRule(Var("x"), Fun("c"))

    def test_fresh_rhs_vars_rejected(self):
        with pytest.raises(TheoryError):
            RewriteRule(Atom("Q", (Var("x"),)), Atom("Q", (Var("y"),)))

    def test_mixed_levels_rejected(self):
        with pytest.raises(TheoryError):
            RewriteRule(Atom("P"), Fun("c"))

    def test_rule_off_signature_rejected(self):
        with pytest.raises(Exception):
            Theory(signature=Signature(predicates=(("P", 0),)),
                   rules=(RewriteRule(Atom("P"), Atom("Z")),))


class TestNeighbors:
    def test_atom_one_step(self, selfapp):
        assert rewrite_neighbors(selfapp, A) == {AA}

    def test_imp_all_positions(self, selfapp):
        got = rewrite_neighbors(selfapp, AA)
        assert got == {A, Imp(AA, A), Imp(A, AA)}

    def test_empty_theory(self, empty_theory):
        assert rewrite_neighbors(empty_theory, parse_prop("P", empty_theory.signature)) == frozenset()

    def test_term_rule_inside_atom(self, arith_toy):
        sig = arith_toy.signature
        p = parse_prop("Nonneg(plus(z, z))", sig)
        assert parse_prop("Nonneg(z)", sig) in rewrite_neighbors(arith_toy, p)

    def test_unary_atom_rule_under_quantifier(self, arith_toy):
        sig = arith_toy.signature
        p = parse_prop("!x. Nonneg(s(x))", sig)
        assert parse_prop("!x. Nonneg(x)", sig) in rewrite_neighbors(arith_toy, p)

    @settings(max_examples=40, deadline=None)
    @given(props(max_leaves=4))
    def test_symmetry(self, p):
        theory = Theory(
            signature=SIG,
            rules=(RewriteRule(Atom("P"), Imp(Atom("P"), Atom("P"))),
                   RewriteRule(Fun("f", (Var("x"),)), Var("x"), oriented=False)),
        )
        for q in rewrite_neighbors(theory, p):
            assert p in rewrite_neighbors(theory, q)


class TestCongruent:
    def test_selfapp_yes(self, selfapp):
        assert congruent(selfapp, A, AA, 10) == Yes(1)

    def test_empty_distinct_atoms_no(self, empty_theory):
        sig = empty_theory.signature
        v = congruent(empty_theory, parse_prop("P", sig), parse_prop("Q", sig), 10)
        assert v == No()

    def test_reflexive_zero_path(self, selfapp):
        assert congruent(selfapp, AA, AA, 1) == Yes(0)

    def test_alpha_classes_join(self, confusion):
        sig = confusion.signature
        a = parse_prop("!x. (A => B)", sig)
        b = parse_prop("A => !y. B", sig)
        assert isinstance(congruent(confusion, a, b, 50), Yes)

    def test_unknown_when_fuel_too_small(self, selfapp):
        deep = Imp(Imp(Imp(AA, A), A), A)
        assert isinstance(congruent(selfapp, A, deep, 1), Unknown)

    def test_symmetry_and_transitivity(self, selfapp):
        b = Imp(AA, A)
        c = Imp(AA, AA)
        assert isinstance(congruent(selfapp, A, b, 200), Yes)
        assert isinstance(congruent(selfapp, b, A, 200), Yes)
        assert isinstance(congruent(selfapp, b, c, 200), Yes)
        assert isinstance(congruent(selfapp, A, c, 400), Yes)

    def test_constructor_compatibility(self, selfapp):
        # A == A=>A and A == A=>A give A=>A == (A=>A)=>(A=>A)
        assert isinstance(congruent(selfapp, AA, Imp(AA, AA), 500), Yes)
        assert isinstance(congruent(selfapp, Forall("x", A), Forall("x", AA), 200), Yes)

    def test_term_rule_congruence(self, arith_toy):
        sig = arith_toy.signature
        a = parse_prop("Nonneg(plus(z, s(z)))", sig)
        b = parse_prop("Nonneg(z)", sig)
        assert isinstance(congruent(arith_toy, a, b, 200), Yes)


class TestDetectConfusion:
    def test_confusing_theory(self, confusion):
        assert isinstance(detect_confusion(confusion, 4, 2000), Yes)

    def test_empty_theory(self, empty_theory):
        assert detect_confusion(empty_theory, 3, 2000) == No()

    def test_selfapp_not_confusing_at_moderate_bounds(self, selfapp):
        assert detect_confusion(selfapp, 4, 5000) == No()


class TestEnumeration:
    def test_terms_all_sizes(self):
        ts = enumerate_terms(SIG, 2, variables=("x",))
        assert Var("x") in ts and Fun("c") in ts and Fun("f", (Var("x"),)) in ts

    def test_props_alpha_deduped(self):
        sig = Signature(functions=(("c", 0),), predicates=(("Q", 1),))
        ps = enumerate_props(sig, 3, variables=("x", "y"))
        quantified = [p for p in ps if isinstance(p, Forall)]
        # !x. Q(x) and !y. Q(y) collapse; !x. Q(c), !x. Q(y), !x. Q(x) remain
        assert len(quantified) == len(set(quantified))


class TestTheoryParsing:
    def test_comments_and_layout(self):
        t = parse_theory("# header\npred P/0.\n\nrule P <-> P.  # trailing\n")
        assert len(t.rules) == 1

    def test_missing_dot(self):
        with pytest.raises(TheoryError):
            parse_theory("pred P/0")

    def test_bad_rule_arrow(self):
        with pytest.raises(TheoryError):
            parse_theory("pred P/0.\nrule P = P.")

    def test_term_rule_parsed(self):
        t = parse_theory("pred P/0.\nfun f/1.\nrule f(x) --> x.")
        assert t.rules[0].is_term_rule

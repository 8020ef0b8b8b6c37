import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mdm.rewriting import (
    No, RewriteRule, Theory, TheoryError, Unknown, Yes, congruent,
    congruent_ex, detect_confusion, enumerate_props, enumerate_terms,
    normal_form, parse_theory, rewrite_neighbors,
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
        assert congruent(selfapp, A, deep, 1) == Unknown(1, "fuel")

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

    @pytest.mark.parametrize("name, atom", [("arith-toy", "E"), ("selfapp", "A")])
    def test_too_deep_to_walk_is_a_depth_limit(self, request, name, atom):
        theory = request.getfixturevalue(name.replace("-", "_"))
        x = Atom(atom)
        p = x
        for _ in range(3000):
            p = Imp(x, p)
        verdict, spent = congruent_ex(theory, p, x, 10)
        assert verdict == Unknown(spent, "depth limit")


def reference_congruent_ex(theory, a, b, fuel):
    """The bidirectional search alone, with neither the normal-form
    pre-filter nor the early exit: it stops only when fuel runs out or
    both closures saturate."""
    if a == b:
        return Yes(0), 0
    dist = ({a: 0}, {b: 0})
    frontier = ([a], [b])
    spent = 0
    while spent < fuel and (frontier[0] or frontier[1]):
        side = 0 if frontier[0] and (not frontier[1] or len(frontier[0]) <= len(frontier[1])) else 1
        new = []
        for p in frontier[side]:
            if spent >= fuel:
                new.append(p)
                continue
            spent += 1
            for q in rewrite_neighbors(theory, p):
                if q in dist[side]:
                    continue
                dist[side][q] = dist[side][p] + 1
                if q in dist[1 - side]:
                    return Yes(dist[side][q] + dist[1 - side][q]), spent
                new.append(q)
        frontier = (new, frontier[1]) if side == 0 else (frontier[0], new)
    if not frontier[0] or not frontier[1]:
        return No(), spent
    return Unknown(spent), spent


def arith_terms():
    return st.recursive(
        st.sampled_from([Var("x"), Var("y"), Fun("z")]),
        lambda sub: st.one_of(
            st.builds(lambda t: Fun("s", (t,)), sub),
            st.builds(lambda t, u: Fun("plus", (t, u)), sub, sub),
        ),
        max_leaves=4,
    )


def arith_props():
    return st.recursive(
        st.one_of(
            st.just(Atom("E")),
            st.builds(lambda t: Atom("Nonneg", (t,)), arith_terms()),
            st.builds(lambda t: Atom("Odd", (t,)), arith_terms()),
        ),
        lambda sub: st.one_of(
            st.builds(Imp, sub, sub),
            st.builds(Forall, st.sampled_from(["x", "y"]), sub),
        ),
        max_leaves=3,
    )


def _agrees_with_reference(theory, a, b, fuel):
    ref = reference_congruent_ex(theory, a, b, fuel)
    got = congruent_ex(theory, a, b, fuel)
    if isinstance(ref[0], Yes):
        assert got == ref
    elif isinstance(ref[0], No):
        assert got[0] == No()
    # a reference Unknown allows any verdict


class TestNormalForms:
    def test_arith_toy_pairs_agree_with_search(self, arith_toy):
        ps = enumerate_props(arith_toy.signature, 3)
        for a, b in itertools.product(ps, ps):
            _agrees_with_reference(arith_toy, a, b, 40)

    @settings(max_examples=40, deadline=None)
    @given(arith_props(), st.data())
    def test_drawn_arith_toy_pairs_agree_with_search(self, arith_toy, a, data):
        # b is either drawn on its own or a few rewrite steps away from a,
        # so that both joined and distinct pairs occur
        b = a
        for _ in range(data.draw(st.integers(0, 3))):
            step = sorted(rewrite_neighbors(arith_toy, b), key=str)
            if step:
                b = data.draw(st.sampled_from(step))
        if data.draw(st.booleans()):
            b = data.draw(arith_props())
        _agrees_with_reference(arith_toy, a, b, 40)

    def test_normal_form(self, arith_toy):
        sig = arith_toy.signature
        p = parse_prop("!x. Nonneg(s(plus(z, s(x)))) => Odd(plus(z, plus(z, z)))", sig)
        assert normal_form(arith_toy, p) == parse_prop("!y. Nonneg(y) => Odd(z)", sig)

    def test_distinct_normal_forms_decided_without_search(self, arith_toy):
        sig = arith_toy.signature
        v = congruent_ex(arith_toy, parse_prop("Odd(z)", sig), parse_prop("Odd(s(z))", sig), 2000)
        assert v == (No(), 0)

    def test_search_stops_when_one_side_saturates(self):
        t = parse_theory("pred A/0.\npred E/0.\nrule A --> A => A.\n")
        assert not t.convergent
        verdict, spent = congruent_ex(t, A, Atom("E"), 50)
        assert verdict == No() and spent <= 3
        assert reference_congruent_ex(t, A, Atom("E"), 50) == (No(), 50)


class TestConvergence:
    def test_bundled_theories(self, empty_theory, arith_toy, selfapp, confusion):
        assert empty_theory.convergent and arith_toy.convergent
        assert not selfapp.convergent  # A --> A => A grows
        assert not confusion.convergent  # <-> and a quantifier

    @pytest.mark.parametrize("text", [
        "fun f/3.\nfun g/2.\npred P/1.\nrule f(x, y, u) --> g(x, x).",  # duplicating
        "fun z/0.\nfun plus/2.\npred P/1.\nrule plus(z, x) --> x.\nrule plus(x, z) --> x.",  # overlap at the root
        "fun c/0.\nfun f/1.\nfun g/1.\npred P/1.\nrule f(g(x)) --> x.\nrule g(c) --> c.",  # overlap below the root
        "pred P/1.\npred Q/0.\nrule !x. P(x) --> Q.",  # quantified side
        "pred P/0.\npred Q/0.\nrule P => Q <-> Q.",  # unoriented
    ])
    def test_rejected(self, text):
        assert not parse_theory(text).convergent


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

    @pytest.mark.parametrize("line, column", [
        ("rule A --> A => B.", 17),
        ("  rule  A -->  A => B.", 21),
        ("  rule A => B --> A.", 13),
        ("\trule A <-> A => B.", 18),
    ])
    def test_rule_error_column_is_the_line_column(self, line, column):
        with pytest.raises(TheoryError, match=rf"^line 2: .*'B' \(at column {column}\)$"):
            parse_theory("pred A/0.\n" + line)

    def test_term_rule_parsed(self):
        t = parse_theory("pred P/0.\nfun f/1.\nrule f(x) --> x.")
        assert t.rules[0].is_term_rule

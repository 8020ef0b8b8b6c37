import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mdm.rewriting import (
    No, RewriteRule, Theory, TheoryError, Unknown, Yes, congruent,
    congruent_ex, detect_confusion, enumerate_props, enumerate_terms,
    normal_form, parse_theory, rewrite_neighbors,
)
from mdm.syntax import (
    Atom, Forall, Fun, Imp, Signature, Var, apply_prop_subst, apply_term_subst,
    canon, free_term_vars, fresh_name, parse_prop, parse_term,
)
from mdm.typecheck import Context, axiom, check_derivation
from strats import SIG, props

A = Atom("A")
AA = Imp(A, A)


def test_theory_files_load(empty_theory, selfapp, confusion, arith_toy):
    assert empty_theory.rules == ()
    assert len(selfapp.rules) == 1
    assert selfapp.rules[0].oriented
    assert not confusion.rules[0].oriented
    assert arith_toy.term_rules


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
        for q in rewrite_neighbors(FX_THEORY, p):
            assert p in rewrite_neighbors(FX_THEORY, q)


# The two-sort walkers that `_match`, `rewrite_neighbors` and `normal_form`
# replace, kept uncached as a reference: one matcher, root step, neighbour
# walker and normal-form walker per sort, with the rules filtered by sort
# on every call.

def _ref_match_term(pat, tgt, binding, protected):
    if isinstance(pat, Var):
        if pat.name in protected:
            return binding if tgt == pat else None
        if pat.name in binding:
            return binding if binding[pat.name] == tgt else None
        if free_term_vars(tgt) & protected:
            return None
        return {**binding, pat.name: tgt}
    if not isinstance(tgt, Fun) or tgt.name != pat.name or len(tgt.args) != len(pat.args):
        return None
    for pa, ta in zip(pat.args, tgt.args):
        binding = _ref_match_term(pa, ta, binding, protected)
        if binding is None:
            return None
    return binding


def _ref_match_prop(pat, tgt, binding, protected):
    if isinstance(pat, Atom):
        if not isinstance(tgt, Atom) or tgt.pred != pat.pred:
            return None
        for pa, ta in zip(pat.args, tgt.args):
            binding = _ref_match_term(pa, ta, binding, protected)
            if binding is None:
                return None
        return binding
    if isinstance(pat, Imp):
        if not isinstance(tgt, Imp):
            return None
        binding = _ref_match_prop(pat.left, tgt.left, binding, protected)
        if binding is None:
            return None
        return _ref_match_prop(pat.right, tgt.right, binding, protected)
    if not isinstance(tgt, Forall):
        return None
    avoid = free_term_vars(pat.body) | free_term_vars(tgt.body) | protected | set(binding)
    v = fresh_name(pat.var, avoid)
    pbody = apply_prop_subst(pat.body, {pat.var: Var(v)})
    tbody = apply_prop_subst(tgt.body, {tgt.var: Var(v)})
    return _ref_match_prop(pbody, tbody, binding, protected | {v})


def _ref_root_steps(theory, x, term_level):
    match, subst = ((_ref_match_term, apply_term_subst) if term_level
                    else (_ref_match_prop, apply_prop_subst))
    out = []
    for r in theory.rules:
        if r.is_term_rule == term_level:
            for lhs, rhs in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                b = match(lhs, x, {}, frozenset())
                if b is not None:
                    out.append(subst(rhs, b))
    return out


def _ref_term_neighbors(theory, t):
    out = _ref_root_steps(theory, t, True)
    if isinstance(t, Fun):
        for i, a in enumerate(t.args):
            for a2 in _ref_term_neighbors(theory, a):
                out.append(Fun(t.name, t.args[:i] + (a2,) + t.args[i + 1:]))
    return out


def reference_rewrite_neighbors(theory, p):
    out = _ref_root_steps(theory, p, False)
    if isinstance(p, Atom):
        for i, a in enumerate(p.args):
            for a2 in _ref_term_neighbors(theory, a):
                out.append(Atom(p.pred, p.args[:i] + (a2,) + p.args[i + 1:]))
    elif isinstance(p, Imp):
        out.extend(Imp(l2, p.right) for l2 in reference_rewrite_neighbors(theory, p.left))
        out.extend(Imp(p.left, r2) for r2 in reference_rewrite_neighbors(theory, p.right))
    else:
        out.extend(Forall(p.var, b2) for b2 in reference_rewrite_neighbors(theory, p.body))
    return frozenset(out)


def _ref_term_normal_form(theory, t):
    if isinstance(t, Var):
        return t
    t = Fun(t.name, tuple(_ref_term_normal_form(theory, a) for a in t.args))
    for r in theory.rules:
        if r.is_term_rule:
            b = _ref_match_term(r.lhs, t, {}, frozenset())
            if b is not None:
                return _ref_term_normal_form(theory, apply_term_subst(r.rhs, b))
    return t


def reference_normal_form(theory, p):
    if isinstance(p, Forall):
        return Forall(p.var, reference_normal_form(theory, p.body))
    if isinstance(p, Imp):
        p = Imp(reference_normal_form(theory, p.left), reference_normal_form(theory, p.right))
    else:
        p = Atom(p.pred, tuple(_ref_term_normal_form(theory, a) for a in p.args))
    for r in theory.rules:
        if not r.is_term_rule:
            b = _ref_match_prop(r.lhs, p, {}, frozenset())
            if b is not None:
                return reference_normal_form(theory, apply_prop_subst(r.rhs, b))
    return p


FX_THEORY = Theory(
    signature=SIG,
    rules=(RewriteRule(Atom("P"), Imp(Atom("P"), Atom("P"))),
           RewriteRule(Fun("f", (Var("x"),)), Var("x"), oriented=False)),
)


@pytest.fixture
def fx_theory():
    return FX_THEORY


class TestWalkerAgainstReference:
    @pytest.mark.parametrize(
        "name", ["empty_theory", "selfapp", "confusion", "arith_toy", "fx_theory"])
    def test_neighbors_of_small_propositions(self, request, name):
        theory = request.getfixturevalue(name)
        ps = enumerate_props(theory.signature, 4)
        assert ps
        for p in ps:
            assert rewrite_neighbors(theory, p) == reference_rewrite_neighbors(theory, p), p

    @pytest.mark.parametrize("name", ["arith_toy", "fx_theory"])
    def test_neighbors_of_small_terms(self, request, name):
        theory = request.getfixturevalue(name)
        for t in enumerate_terms(theory.signature, 4):
            assert rewrite_neighbors(theory, t) == frozenset(_ref_term_neighbors(theory, t)), t

    def test_normal_forms_on_arith_toy(self, arith_toy):
        for p in enumerate_props(arith_toy.signature, 4):
            assert normal_form(arith_toy, p) == reference_normal_form(arith_toy, p), p
        for t in enumerate_terms(arith_toy.signature, 4):
            assert normal_form(arith_toy, t) == _ref_term_normal_form(arith_toy, t), t

    def test_term_neighbors(self, arith_toy):
        sig = arith_toy.signature
        got = rewrite_neighbors(arith_toy, parse_term("plus(z, s(z))", sig))
        assert got == {parse_term(t, sig) for t in (
            "s(z)", "plus(plus(z, z), s(z))", "plus(z, plus(z, s(z)))", "plus(z, s(plus(z, z)))")}

    def test_term_normal_form(self, arith_toy):
        sig = arith_toy.signature
        t = parse_term("plus(z, plus(z, s(z)))", sig)
        assert normal_form(arith_toy, t) == parse_term("s(z)", sig)


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
    both closures saturate.  It expands each node's neighbours in the same
    `canon` order as `congruent_ex`, so that a `Yes` spends the same fuel."""
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
            for q in sorted(rewrite_neighbors(theory, p), key=canon):
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

    def test_selfapp_pairs_agree_with_search(self, selfapp):
        ps = enumerate_props(selfapp.signature, 4)
        for a, b in itertools.product(ps, ps):
            _agrees_with_reference(selfapp, a, b, 40)

    @pytest.mark.parametrize("name, size", [("selfapp", 7), ("arith_toy", 4), ("empty_theory", 4)])
    def test_normal_form_is_kept_by_every_step(self, request, name, size):
        # the local fact behind "different normal forms, so No": both ends
        # of every symmetric rewrite step have the same normal form
        theory = request.getfixturevalue(name)
        for p in enumerate_props(theory.signature, size):
            for q in rewrite_neighbors(theory, p):
                assert normal_form(theory, q) == normal_form(theory, p), (p, q)

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

    def test_no_rules_returns_the_proposition_itself(self, empty_theory):
        ps = enumerate_props(empty_theory.signature, 3)
        assert ps
        for p in ps:
            assert normal_form(empty_theory, p) is p

    def test_normal_form(self, arith_toy):
        sig = arith_toy.signature
        p = parse_prop("!x. Nonneg(s(plus(z, s(x)))) => Odd(plus(z, plus(z, z)))", sig)
        assert normal_form(arith_toy, p) == parse_prop("!y. Nonneg(y) => Odd(z)", sig)

    def test_distinct_normal_forms_decided_without_search(self, arith_toy):
        sig = arith_toy.signature
        v = congruent_ex(arith_toy, parse_prop("Odd(z)", sig), parse_prop("Odd(s(z))", sig), 2000)
        assert v == (No(), 0)

    def test_selfapp_distinct_normal_forms_decided_without_search(self, selfapp):
        assert congruent_ex(selfapp, A, Forall("x", A), 2000) == (No(), 0)

    def test_selfapp_check_names_the_propositions_that_differ(self, selfapp):
        d = axiom(Context((("a", A),)), "a", prop=Forall("x", A))
        rep = check_derivation(selfapp, d, 50)
        assert not rep.ok
        assert rep.reason == "propositions not congruent: A vs !x. A"

    def test_search_stops_when_one_side_saturates(self):
        # A's class is infinite and its frontier grows, so the search turns
        # to E's side, which saturates at once; the rule has a quantifier,
        # so the theory is not convergent
        t = parse_theory("pred A/0.\npred E/0.\nrule A --> A => !x. A.\n")
        assert not t.convergent
        verdict, spent = congruent_ex(t, A, Atom("E"), 50)
        assert verdict == No() and spent <= 3
        assert reference_congruent_ex(t, A, Atom("E"), 50) == (No(), 50)


class TestConvergence:
    def test_bundled_theories(self, empty_theory, arith_toy, selfapp, confusion):
        assert empty_theory.convergent and arith_toy.convergent
        assert selfapp.convergent  # A --> A => A is read as A => A --> A
        assert not confusion.convergent  # both sides the same size, and a quantifier

    @pytest.mark.parametrize("text", [
        "fun f/3.\nfun g/2.\npred P/1.\nrule f(x, y, u) --> g(x, x).",  # duplicating
        "fun z/0.\nfun plus/2.\npred P/1.\nrule plus(z, x) --> x.\nrule plus(x, z) --> x.",  # overlap at the root
        "fun c/0.\nfun f/1.\nfun g/1.\npred P/1.\nrule f(g(x)) --> x.\nrule g(c) --> c.",  # overlap below the root
        "pred P/1.\npred Q/0.\nrule !x. P(x) --> Q.",  # quantified side
        "pred P/0.\npred Q/0.\nrule P => Q <-> Q => P.",  # neither direction shrinks
    ])
    def test_rejected(self, text):
        assert not parse_theory(text).convergent

    @pytest.mark.parametrize("sig, small, big, convergent", [
        ("pred A/0.", "A", "A => A", True),
        ("pred P/0.\npred Q/0.", "Q", "P => Q", True),
        ("fun z/0.\nfun s/1.\nfun plus/2.\npred N/1.", "s(x)", "plus(z, s(x))", True),
        ("pred A/0.\npred B/0.", "!x. (A => B)", "A => !x. B", False),  # confusion's rule
    ])
    def test_arrow_and_direction_do_not_matter(self, sig, small, big, convergent):
        written = [parse_theory(f"{sig}\nrule {l} {arrow} {r}.\n")
                   for l, r in ((small, big), (big, small)) for arrow in ("-->", "<->")]
        assert [t.convergent for t in written] == [convergent] * 4
        for p in enumerate_props(written[0].signature, 4):
            assert len({normal_form(t, p) for t in written}) == 1, p


class TestDetectConfusion:
    def test_confusing_theory(self, confusion):
        assert isinstance(detect_confusion(confusion, 4, 2000), Yes)

    def test_empty_theory(self, empty_theory):
        assert detect_confusion(empty_theory, 3, 2000) == No()

    def test_selfapp_not_confusing_at_moderate_bounds(self, selfapp):
        assert detect_confusion(selfapp, 4, 5000) == No()

    def test_convergent_theory_needs_no_search(self, selfapp):
        assert detect_confusion(selfapp, 4, 1) == No()


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

    @pytest.mark.parametrize("text, message", [
        ("pred A/0.\nrule B --> A.", "line 2: unknown predicate symbol 'B' (at column 6)"),
        ("pred A/0.\nrule A --> B.", "line 2: unknown predicate symbol 'B' (at column 12)"),
        ("pred A/0.\nrule x --> A.", "line 2: unknown predicate symbol 'x' (at column 6)"),
        ("fun c/0.\npred A/0.\nrule c --> A.",
         "line 3: rule sides must both be propositions or both be terms"),
    ])
    def test_rule_side_fault_is_named(self, text, message):
        # a bare name beside a proposition is an undeclared predicate, not
        # a term variable; a declared function there is a sort mismatch,
        # and a bare variable beside a term is a term (test_term_rule_parsed)
        with pytest.raises(TheoryError) as e:
            parse_theory(text)
        assert str(e.value) == message

    def test_term_rule_parsed(self):
        t = parse_theory("pred P/0.\nfun f/1.\nrule f(x) --> x.")
        assert t.rules[0].is_term_rule

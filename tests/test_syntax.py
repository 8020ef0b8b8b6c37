import dataclasses
import gc
import itertools

import pytest
from hypothesis import assume, given

import hypothesis.strategies as st
from mdm import syntax
from mdm.candidates import build_universe
from mdm.reduction import redex_paths
from mdm.rewriting import TheoryError, parse_theory
from mdm.syntax import (
    CHURCH, CURRY, Atom, Forall, Fun, Imp, PApp, PLam, PVar,
    ParseError, Signature, SignatureError, TApp, TLam, Var,
    apply_capture_subst, apply_proof_subst, apply_prop_subst, bound_proof_vars,
    canon, free_proof_vars, free_term_vars, fresh_name, is_neutral,
    is_normal, parse_proof, parse_prop,
    parse_term, print_proof, print_prop, print_term, proof_height, size,
    subst_proof, subst_term_in_prop, subst_term_in_proof,
)
from mdm.typecheck import parse_context, parse_derivation
from helpers import (
    reference_free_proof_vars, reference_free_term_vars, reference_height, reference_size,
)
from strats import PROOF_VARS, SIG, proofs, props, terms


def pp(s):
    return parse_prop(s, SIG)


def pf(s, style=CURRY):
    return parse_proof(s, style)


class TestSignature:
    def test_empty_predicates_rejected(self):
        with pytest.raises(SignatureError):
            Signature(functions=(), predicates=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(SignatureError):
            Signature(predicates=(("P", 0), ("P", 1)))


class TestParse:
    def test_nullary_atom(self):
        assert pp("P") == Atom("P")

    def test_self_application(self):
        assert pf(r"\a. a a") == PLam("a", PApp(PVar("a"), PVar("a")))

    def test_forall_over_implication(self):
        assert pp("!x. (P => P)") == Forall("x", Imp(Atom("P"), Atom("P")))
        assert pp("!x. P => P") == Forall("x", Imp(Atom("P"), Atom("P")))

    def test_imp_right_assoc(self):
        assert pp("P => P => P") == Imp(Atom("P"), Imp(Atom("P"), Atom("P")))

    def test_app_left_assoc(self):
        assert pf("a b e") == PApp(PApp(PVar("a"), PVar("b")), PVar("e"))

    def test_church_forms(self):
        assert pf("^x. a [c]", CHURCH) == TLam("x", TApp(PVar("a"), Var("c")))

    def test_church_forms_rejected_in_curry(self):
        with pytest.raises(ParseError):
            pf("^x. a")
        with pytest.raises(ParseError):
            pf("a [x]")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            pp("Q(x, y)")
        with pytest.raises(ParseError):
            parse_term("f(x, y)", SIG)

    def test_unknown_symbols(self):
        with pytest.raises(ParseError):
            pp("Nope")
        with pytest.raises(ParseError):
            parse_term("h(x)", SIG)

    def test_position_in_error(self):
        with pytest.raises(ParseError) as e:
            pp("P => => P")
        assert "column" in str(e.value)

    def test_kind_dispatch(self):
        assert parse_term("c", SIG) == Fun("c")
        assert parse_prop("P", SIG) == Atom("P")
        assert parse_proof("a", CURRY) == PVar("a")
        assert parse_proof("a [c]", CHURCH) == TApp(PVar("a"), Var("c"))


DEEP = 3000


class TestDeepInput:
    @pytest.mark.parametrize("parse, text", [
        (parse_prop, "A => " * DEEP + "A"),
        (parse_prop, "!x. " * DEEP + "A"),
        (parse_proof, "\\a. " * DEEP + "a"),
        (parse_term, "f(" * DEEP + "x" + ")" * DEEP),
        (lambda text: parse_context(text, None), "a : " + "A => " * DEEP + "A"),
        (lambda text: parse_derivation(text, CURRY, None),
         '(imp-intro ctx:"" subj:"a" prop:"A" wit:"A => A" ' * DEEP
         + '(axiom ctx:"a:A" subj:"a" prop:"A" wit:"a")' + ")" * DEEP),
    ], ids=["imp", "forall", "lambda", "term", "context", "derivation"])
    def test_nested_too_deeply_is_a_located_parse_error(self, parse, text):
        with pytest.raises(ParseError, match="input nested too deeply") as e:
            parse(text)
        assert 0 < e.value.pos < len(text)

    def test_theory_reports_the_line(self):
        text = "pred A/0.\nrule A --> " + "A => " * DEEP + "A."
        with pytest.raises(TheoryError, match="line 2: input nested too deeply"):
            parse_theory(text)


class TestAlpha:
    def test_bound_rename_equal(self):
        assert pp("!x. Q(x)") == pp("!y. Q(y)")
        assert pf(r"\a. a") == pf(r"\b. b")

    def test_free_vars_differ(self):
        assert pp("Q(x)") != pp("Q(y)")

    def test_cross_category_never_equal(self):
        assert Atom("P") != PVar("P")

    def test_hash_consistency(self):
        assert len({pp("!x. Q(x)"), pp("!z. Q(z)")}) == 1


def reference_canon(x, tenv, penv, td, pd):
    """The alpha-canonical tuple by a plain recursive walk, with no cache."""
    if isinstance(x, Var):
        i = tenv.get(x.name)
        return ("tv", x.name) if i is None else ("tb", i)
    if isinstance(x, Fun):
        return ("fn", x.name, tuple(reference_canon(a, tenv, penv, td, pd) for a in x.args))
    if isinstance(x, Atom):
        return ("at", x.pred, tuple(reference_canon(a, tenv, penv, td, pd) for a in x.args))
    if isinstance(x, Imp):
        return ("im", reference_canon(x.left, tenv, penv, td, pd),
                reference_canon(x.right, tenv, penv, td, pd))
    if isinstance(x, Forall):
        return ("fa", reference_canon(x.body, {**tenv, x.var: td}, penv, td + 1, pd))
    if isinstance(x, PVar):
        i = penv.get(x.name)
        return ("pv", x.name) if i is None else ("pb", i)
    if isinstance(x, PLam):
        return ("pl", reference_canon(x.body, tenv, {**penv, x.var: pd}, td, pd + 1))
    if isinstance(x, PApp):
        return ("pa", reference_canon(x.fn, tenv, penv, td, pd),
                reference_canon(x.arg, tenv, penv, td, pd))
    if isinstance(x, TLam):
        return ("tl", reference_canon(x.body, {**tenv, x.var: td}, penv, td + 1, pd))
    return ("ta", reference_canon(x.fn, tenv, penv, td, pd),
            reference_canon(x.arg, tenv, penv, td, pd))


def rebuild(x, fresh=None, tenv=None, penv=None):
    """x built again node by node; with an iterator of fresh names, every
    binder is renamed to the next one."""
    tenv, penv = tenv or {}, penv or {}
    if isinstance(x, Var):
        return Var(tenv.get(x.name, x.name))
    if isinstance(x, (Fun, Atom)):
        return type(x)(x.name if isinstance(x, Fun) else x.pred,
                       tuple(rebuild(a, fresh, tenv, penv) for a in x.args))
    if isinstance(x, (Imp, PApp, TApp)):
        first, second = (x.left, x.right) if isinstance(x, Imp) else (x.fn, x.arg)
        return type(x)(rebuild(first, fresh, tenv, penv), rebuild(second, fresh, tenv, penv))
    if isinstance(x, PVar):
        return PVar(penv.get(x.name, x.name))
    v = x.var if fresh is None else next(fresh)
    if isinstance(x, PLam):
        return PLam(v, rebuild(x.body, fresh, tenv, {**penv, x.var: v}))
    return type(x)(v, rebuild(x.body, fresh, {**tenv, x.var: v}, penv))


def has_binder(x):
    return any(mark in str(x) for mark in "!\\^")


TREES = st.one_of(terms(), props(max_leaves=8), proofs(CURRY, max_leaves=8),
                  proofs(CHURCH, max_leaves=8))


PRINTED = [
    (Var("x"), "Var(name='x')", "x"),
    (Fun("f", (Var("x"),)), "Fun(name='f', args=(Var(name='x'),))", "f(x)"),
    (Atom("P"), "Atom(pred='P', args=())", "P"),
    (Imp(Atom("P"), Atom("P")),
     "Imp(left=Atom(pred='P', args=()), right=Atom(pred='P', args=()))", "P => P"),
    (Forall("x", Atom("P")), "Forall(var='x', body=Atom(pred='P', args=()))", "!x. P"),
    (PVar("a"), "PVar(name='a')", "a"),
    (PLam("a", PVar("a")), "PLam(var='a', body=PVar(name='a'))", "\\a. a"),
    (PApp(PVar("a"), PVar("b")), "PApp(fn=PVar(name='a'), arg=PVar(name='b'))", "a b"),
    (TLam("x", PVar("a")), "TLam(var='x', body=PVar(name='a'))", "^x. a"),
    (TApp(PVar("a"), Var("x")), "TApp(fn=PVar(name='a'), arg=Var(name='x'))", "a [x]"),
]


class TestHashConsing:
    @given(TREES)
    def test_rebuilt_tree_is_the_same_object(self, x):
        assert rebuild(x) is x

    @given(TREES)
    def test_canon_matches_uncached_walk(self, x):
        assert canon(x) == reference_canon(x, {}, {}, 0, 0)

    @given(TREES)
    def test_renamed_binders_equal_but_distinct(self, x):
        assume(has_binder(x))
        y = rebuild(x, fresh=(f"w{i}" for i in itertools.count()))
        assert y == x and hash(y) == hash(x)
        assert y is not x

    def test_defaults_and_argument_types_agree(self):
        # Names used nowhere else, so the first call below builds the node.
        listed = Fun("listed", [Var("x")])
        assert isinstance(listed.args, tuple) and listed is Fun("listed", (Var("x"),))
        assert Atom("Listed", [Var("x")]) is Atom("Listed", (Var("x"),))
        assert Fun("bare") is Fun("bare", ())

    @pytest.mark.parametrize("node, text, shown", PRINTED,
                             ids=[type(row[0]).__name__ for row in PRINTED])
    def test_printed_forms_and_immutability(self, node, text, shown):
        assert repr(node) == text and str(node) == shown
        assert not hasattr(node, "__dict__") and not dataclasses.is_dataclass(node)
        field = type(node).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(node, field, getattr(node, field))

    def test_unreferenced_nodes_leave_the_table(self):
        leaf_key = (PVar, "held_by_nothing")
        node = PApp(PVar("held_by_nothing"), PVar("held_by_nothing"))
        app_key = (PApp, id(node.fn), id(node.arg))
        assert syntax._TABLE[app_key] is node and leaf_key in syntax._TABLE
        del node
        gc.collect()
        assert app_key not in syntax._TABLE and leaf_key not in syntax._TABLE


class TestFreeVars:
    def test_fully_bound(self):
        assert free_term_vars(pp("!x. Q(x)")) == frozenset()

    def test_left_occurrence_free(self):
        p = Imp(Atom("Q", (Var("x"),)), Forall("x", Atom("Q", (Var("x"),))))
        assert free_term_vars(p) == {"x"}

    def test_binary_atom(self):
        assert free_term_vars(pp("R(x, y)")) == {"x", "y"}

    def test_church_proof_term_vars(self):
        assert free_term_vars(pf("^x. a [g(x, y)]", CHURCH)) == {"y"}

    def test_bound_proof_vars(self):
        assert bound_proof_vars(pf(r"\a. a (\b. c)")) == {"a", "b"}
        assert bound_proof_vars(pf(r"^x. (\a. a) [x]", CHURCH)) == {"a"}
        assert bound_proof_vars(pf("a b")) == frozenset()
        # deeper than the interpreter's recursion limit
        p = PVar("a")
        for i in range(DEEP):
            p = PLam(f"b{i % 3}", p) if i % 2 else PApp(PVar("c"), p)
        assert bound_proof_vars(p) == {"b0", "b1", "b2"}


class TestSubstProp:
    def test_plain(self):
        assert subst_term_in_prop(pp("Q(x)"), "x", Fun("c")) == pp("Q(c)")

    def test_capture_forces_rename(self):
        p = Forall("y", Atom("R", (Var("x"), Var("y"))))
        q = subst_term_in_prop(p, "x", Var("y"))
        assert isinstance(q, Forall)
        assert q.var != "y"
        assert q == Forall("w", Atom("R", (Var("y"), Var("w"))))

    def test_identity(self):
        p = pp("!x. R(x, y)")
        assert subst_term_in_prop(p, "x", Var("x")) == p
        assert subst_term_in_prop(p, "y", Var("y")) == p

    @given(props(), st.sampled_from(["x", "y", "z"]), terms())
    def test_free_var_equation(self, p, x, t):
        got = free_term_vars(subst_term_in_prop(p, x, t))
        expected = free_term_vars(p) - {x}
        if x in free_term_vars(p):
            expected |= free_term_vars(t)
        assert got == expected


class TestSubstProof:
    def test_capture_avoided(self):
        out = subst_proof(PLam("b", PVar("a")), "a", PVar("b"))
        assert out == PLam("z", PVar("b"))
        assert out != PLam("b", PVar("b"))

    def test_direct(self):
        m = pf(r"\a. a a")
        assert subst_proof(PVar("a"), "a", m) == m

    def test_shadowed_binder(self):
        p = PLam("a", PVar("a"))
        assert subst_proof(p, "a", PVar("b")) == p

    def test_church_term_binder_capture(self):
        # substituting a proof-term with free term variable x under ^x
        body = TLam("x", PApp(PVar("a"), PVar("a")))
        arg = TApp(PVar("b"), Var("x"))
        out = subst_proof(body, "a", arg)
        assert isinstance(out, TLam) and out.var != "x"
        assert free_term_vars(out) == {"x"}


class TestSubstTermInProof:
    def test_church_app(self):
        p = TApp(PVar("a"), Var("x"))
        assert subst_term_in_proof(p, "x", Fun("c")) == TApp(PVar("a"), Fun("c"))

    def test_shadowed(self):
        p = TLam("x", PVar("a"))
        assert subst_term_in_proof(p, "x", Fun("c")) == p

    def test_no_occurrence(self):
        assert subst_term_in_proof(PVar("a"), "x", Fun("c")) == PVar("a")

    def test_pure_fragment_untouched(self):
        p = pf(r"\a. a a")
        assert subst_term_in_proof(p, "x", Fun("c")) == p


class TestRenamedBinderNames:
    # Equality is alpha-equivalence, so only the printed form shows which
    # name a binder gets when it is renamed to avoid capture.

    @pytest.mark.parametrize("subst, printed", [
        # forall under a term substitution in a proposition
        (lambda: print_prop(subst_term_in_prop(pp("!y. R(x, y)"), "x", Var("y"))),
         "!y_1. R(y, y_1)"),
        # lambda under a proof substitution
        (lambda: print_proof(subst_proof(pf(r"\b. a b"), "a", PVar("b"))),
         r"\b_1. b b_1"),
        # term abstraction under a proof substitution whose value has x free
        (lambda: print_proof(subst_proof(pf("^x. a [x]", CHURCH), "a", pf("b [x]", CHURCH))),
         "^x_1. b [x] [x_1]"),
        # term abstraction under a term substitution
        (lambda: print_proof(subst_term_in_proof(pf("^y. a [x] [y]", CHURCH), "x", Var("y"))),
         "^y_1. a [y] [y_1]"),
        # renaming the outer binder forces a rename of the inner one
        (lambda: print_prop(subst_term_in_prop(pp("!y. !y_1. R(x, g(y, y_1))"), "x", Var("y"))),
         "!y_1. !y_2. R(y, g(y_1, y_2))"),
    ])
    def test_printed_names(self, subst, printed):
        assert subst() == printed

    def test_renamed_binder_is_not_an_other_key(self):
        # y_1 is not free below the binder, so the binder may take its name
        # but the entry for y_1 must not then replace the bound variable
        p = apply_prop_subst(pp("!y. R(z, y)"), {"z": Var("y"), "y_1": Fun("c")})
        assert print_prop(p) == "!y_1. R(y, y_1)"
        q = apply_proof_subst(pf(r"\b. a b"), {"a": PVar("b"), "b_1": PVar("c")})
        assert print_proof(q) == r"\b_1. b b_1"


class TestCaptureSubst:
    def test_capture_intended(self):
        s = (("a", PVar("b")),)
        assert apply_capture_subst(s, PLam("b", PVar("a"))) == PLam("b", PVar("b"))

    def test_parallel_pairs(self):
        m1, m2 = pf(r"\a. a"), PVar("e")
        s = (("h1", m1), ("h2", m2))
        out = apply_capture_subst(s, PApp(PVar("h1"), PVar("h2")))
        assert out == PApp(m1, m2)

    def test_vacuous(self):
        s = (("a", pf(r"\b. b")),)
        assert apply_capture_subst(s, PVar("e")) == PVar("e")

    def test_order_matters(self):
        s1 = (("a", PVar("b")), ("b", PVar("e")))
        s2 = (("b", PVar("e")), ("a", PVar("b")))
        assert apply_capture_subst(s1, PVar("a")) == PVar("e")
        assert apply_capture_subst(s2, PVar("a")) == PVar("b")

    def test_bound_occurrences_untouched(self):
        s = (("a", PVar("b")),)
        p = PLam("a", PVar("a"))
        assert apply_capture_subst(s, p) == p

    @given(proofs(), st.sampled_from(PROOF_VARS), proofs())
    def test_agrees_with_subst_when_no_capture_possible(self, nu, a, m):
        if free_proof_vars(m) & bound_proof_vars(nu):
            return
        assert apply_capture_subst(((a, m),), nu) == subst_proof(nu, a, m)


class TestNeutral:
    def test_variable(self):
        assert is_neutral(PVar("a"))

    def test_lambda(self):
        assert not is_neutral(pf(r"\a. a"))
        assert not is_neutral(pf("^x. a", CHURCH))

    def test_application(self):
        assert is_neutral(pf(r"(\a. a) b"))
        assert is_neutral(pf("a [c]", CHURCH))


class TestRoundTrip:
    @given(terms())
    def test_terms(self, t):
        assert parse_term(print_term(t), SIG) == t

    @given(props(max_leaves=12))
    def test_props(self, p):
        assert parse_prop(print_prop(p), SIG) == p

    @given(proofs(CURRY, max_leaves=12))
    def test_curry_proofs(self, p):
        assert parse_proof(print_proof(p), CURRY) == p

    @given(proofs(CHURCH, max_leaves=12))
    def test_church_proofs(self, p):
        assert parse_proof(print_proof(p), CHURCH, SIG) == p


def test_fresh_name_deterministic():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x_1"
    assert fresh_name("x_1", {"x", "x_1"}) == "x_2"
    assert fresh_name("x", {"x", "x_1", "x_2"}) == "x_3"


def test_sizes():
    assert size(pp("P => P")) == 3
    assert size(pp("!x. Q(f(x))")) == 4
    assert size(pf(r"(\a. a a) b")) == 6
    assert size(parse_term("g(f(x), c)", SIG)) == 4


class TestProofHeight:
    @given(proofs(CURRY, max_leaves=12))
    def test_curry_proofs_match_the_recursive_reference(self, p):
        assert proof_height(p) == reference_height(p)

    @given(proofs(CHURCH, max_leaves=12))
    def test_church_proofs_match_the_recursive_reference(self, p):
        assert proof_height(p) == reference_height(p)

    def test_examples(self):
        assert proof_height(pf("a")) == 1
        assert proof_height(pf(r"(\a. a a) b")) == 4
        # a TApp's term argument adds no level
        assert proof_height(pf("a [f(f(c))]", CHURCH)) == 2
        assert proof_height(pf(r"^x. \a. a [x]", CHURCH)) == 4

    def test_deep_terms_get_a_height(self):
        lam = spine = PVar("a")
        for _ in range(DEEP):
            lam = PLam("a", lam)
            spine = PApp(PVar("b"), spine)
        assert proof_height(lam) == proof_height(spine) == DEEP + 1


class TestKeptFacts:
    """Every node keeps its size and free variables from its construction,
    and a proof-term node its height and redex flag too: each equals a
    plain recursive reference, and a deep tree gets them all."""

    @staticmethod
    def _agree(x):
        assert size(x) == reference_size(x)
        assert free_term_vars(x) == reference_free_term_vars(x)
        assert free_proof_vars(x) == reference_free_proof_vars(x)

    def _agree_proof(self, p):
        self._agree(p)
        assert proof_height(p) == reference_height(p)
        assert is_normal(p) == (not redex_paths(p))

    @given(terms(max_size=8))
    def test_terms_match_the_recursive_references(self, t):
        self._agree(t)

    @given(props(max_leaves=12))
    def test_props_match_the_recursive_references(self, p):
        self._agree(p)

    @given(proofs(CURRY, max_leaves=12))
    def test_curry_proofs_match_the_recursive_references(self, p):
        self._agree_proof(p)

    @given(proofs(CHURCH, max_leaves=12))
    def test_church_proofs_match_the_recursive_references(self, p):
        self._agree_proof(p)

    def test_examples(self):
        assert size(pf("a [f(f(c))]", CHURCH)) == 5
        assert is_normal(pf(r"\a. a b")) and not is_normal(pf(r"c ((\a. a) b)"))
        assert not is_normal(pf("(^x. a) [c]", CHURCH))
        assert is_normal(pf(r"(\a. a) [c]", CHURCH))
        assert free_proof_vars(pf(r"\a. a b (\b. b e)")) == {"b", "e"}
        assert free_term_vars(pf(r"^x. \a. a [g(x, y)]", CHURCH)) == {"y"}
        assert free_proof_vars(pp("!x. Q(x)")) == free_proof_vars(Var("x")) == frozenset()

    def test_deep_terms_get_every_fact(self):
        # the recursive size walk used to exhaust the interpreter's stack here
        normal, redex = PVar("a"), pf(r"(\a. a) b")
        for _ in range(DEEP):
            normal, redex = PLam("a", normal), PApp(PVar("c"), PLam("a", redex))
        assert size(normal) == DEEP + 1 and size(redex) == 3 * DEEP + 4
        assert proof_height(redex) == 2 * DEEP + 3
        assert is_normal(normal) and not is_normal(redex)
        assert free_proof_vars(normal) == frozenset()
        assert free_proof_vars(redex) == {"b", "c"}

    def test_deep_propositions_and_terms_get_every_fact(self):
        # deeper than the interpreter's recursion limit: a fact that a
        # recursive walk computed would raise here
        imp = forall = Atom("R", (Var("x"), Var("y")))
        term = Var("x")
        for _ in range(DEEP):
            imp, forall, term = Imp(Atom("Q", (Var("z"),)), imp), Forall("x", forall), Fun("f", (term,))
        assert size(imp) == 3 * DEEP + 3 and size(forall) == DEEP + 3 and size(term) == DEEP + 1
        assert free_term_vars(imp) == {"x", "y", "z"}
        assert free_term_vars(forall) == {"y"}
        assert free_term_vars(term) == {"x"}
        assert free_proof_vars(imp) == free_proof_vars(term) == frozenset()

    def test_deep_substitution_of_a_variable_not_free_returns_the_tree(self):
        imp = forall = Atom("R", (Var("x"), Var("y")))
        for _ in range(DEEP):
            imp, forall = Imp(Atom("P"), imp), Forall("x", forall)
        assert subst_term_in_prop(imp, "z", Fun("c")) is imp
        assert subst_term_in_prop(forall, "x", Fun("c")) is forall
        lam = PVar("a")
        for _ in range(DEEP):
            lam = PLam("a", lam)
        assert subst_proof(lam, "a", PVar("b")) is lam


class TestSharedSets:
    """Equal free-variable sets are one object, so a node costs a slot for
    each set and not a set of its own."""

    def test_equal_sets_are_one_object(self):
        a, b = pf(r"\a. a b"), pf("b b")
        assert a is not b and free_proof_vars(a) is free_proof_vars(b)
        p, q = pp("Q(x) => R(x, x)"), pp("!y. Q(f(x))")
        assert p is not q and free_term_vars(p) is free_term_vars(q)
        s, t = pf(r"\a. a b e"), pf(r"(\a. e) b")
        assert free_proof_vars(s) is free_proof_vars(t)
        assert free_proof_vars(pp("P")) is free_term_vars(pf("a")) is free_proof_vars(pf(r"\a. a"))

    def test_a_universe_adds_one_set_per_distinct_set(self):
        pool = ("h1", "h2", "h3")
        before = len(syntax._SETS)
        u = build_universe(6, pool)
        added = len(syntax._SETS) - before
        nodes, todo = {}, list(u.members)
        while todo:
            p = todo.pop()
            if id(p) not in nodes:
                nodes[id(p)] = p
                todo += [getattr(p, f) for f in ("body", "fn", "arg") if hasattr(p, f)]
        distinct = {frozenset(reference_free_proof_vars(p)) for p in nodes.values()}
        assert added <= len(distinct) < len(nodes)
        # the members' free sets are subsets of the pool, one object each
        assert len({id(free_proof_vars(p)) for p in u.members}) <= 2 ** len(pool)
        for p in nodes.values():
            assert free_proof_vars(p) is syntax._SETS[free_proof_vars(p)]

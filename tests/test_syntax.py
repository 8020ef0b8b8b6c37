import gc
import inspect
import itertools

import pytest
from hypothesis import assume, given

import hypothesis.strategies as st
from mdm import syntax
from mdm.closure import ClosureTable
from mdm.reducibility import ArrowResult, FiniteCandidate, Universe, build_universe
from mdm.reduction import SN, Diverges, SNUnknown, redex_paths
from mdm.rewriting import No, RewriteRule, Theory, TheoryError, Unknown, Yes, parse_theory
from mdm.syntax import (
    CHURCH, CURRY, Atom, Forall, Fun, Imp, PApp, PLam, PVar,
    ParseError, Proposition, Record, Signature, SignatureError, TApp, TLam, Term, Var,
    apply_capture_subst, apply_proof_subst, apply_prop_subst, bound_proof_vars,
    canon, check_wf, free_proof_vars, free_term_vars, fresh_name, is_neutral,
    is_normal, parse_proof, parse_prop,
    parse_term, print_proof, print_prop, print_term, proof_height, size,
    subst_proof, subst_term_in_prop, subst_term_in_proof, subterms,
)
from mdm.search import SearchBounds
from mdm.semantics import PreHeytingAlgebra
from mdm.suite import SuiteConfig
from mdm.typecheck import (
    CheckReport, Context, Derivation, DerivationError, axiom, imp_elim, parse_context,
    parse_derivation,
)
from mdm.verdict import Verdict
from helpers import (
    reference_children, reference_free_proof_vars, reference_free_term_vars, reference_height,
    reference_repr, reference_size, reference_subterms,
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

    # Trees too deep to parse, built with the constructors: an Imp chain, a
    # Forall chain, and a Fun chain inside an Atom, DEEP levels each.
    CHAINS = ["imp", "forall", "fun"]

    @staticmethod
    def chain(kind, atom=Atom("P"), term=Var("x")):
        """DEEP levels of one kind over a leaf: Imps or Foralls over the
        atom, or Funs over the term inside an Atom."""
        for _ in range(DEEP):
            if kind == "imp":
                atom = Imp(Atom("P"), atom)
            elif kind == "forall":
                atom = Forall("x", atom)
            else:
                term = Fun("f", (term,))
        return Atom("Q", (term,)) if kind == "fun" else atom

    @pytest.mark.parametrize("kind", CHAINS)
    def test_deep_trees_are_checked_against_the_signature(self, kind):
        check_wf(self.chain(kind), SIG)
        # the wrong arity sits at the bottom of the chain
        bad = self.chain(kind, Atom("Q"), Fun("f"))
        wrong = r"^(predicate 'Q'|function 'f') expects 1 argument\(s\), got 0$"
        with pytest.raises(SignatureError, match=wrong):
            check_wf(bad, SIG)

    @pytest.mark.parametrize("kind", CHAINS)
    def test_a_theory_over_a_deep_rule_is_built_and_tested(self, kind):
        theory = Theory(SIG, (RewriteRule(self.chain(kind), Atom("P")),))
        # only the Fun chain's rule has no quantifier and no head below its root
        assert theory.convergent == (kind == "fun")

    @pytest.mark.parametrize("kind", CHAINS)
    def test_subterms_yields_every_node_of_a_deep_tree(self, kind):
        deep = self.chain(kind)
        nodes = list(subterms(deep))
        assert nodes[0] is deep and len(nodes) == size(deep)

    # (a constructor of one level, its leaf, the printed form of one level
    # and of the leaf)
    @pytest.mark.parametrize("level, leaf, opened, closed", [
        (lambda x: Imp(Atom("P"), x), Atom("P"),
         "Imp(left=Atom(pred='P', args=()), right=", "Atom(pred='P', args=())"),
        (lambda x: Forall("x", x), Atom("P"), "Forall(var='x', body=", "Atom(pred='P', args=())"),
        (lambda x: PLam("a", x), PVar("a"), "PLam(var='a', body=", "PVar(name='a')"),
        (lambda x: PApp(PVar("b"), x), PVar("a"), "PApp(fn=PVar(name='b'), arg=",
         "PVar(name='a')"),
    ], ids=["imp", "forall", "lambda", "spine"])
    def test_repr_of_a_deep_tree(self, level, leaf, opened, closed):
        deep = leaf
        for _ in range(DEEP):
            deep = level(deep)
        assert repr(deep) == opened * DEEP + closed + ")" * DEEP


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
        assert not hasattr(node, "__dict__") and isinstance(node, Record)
        field = type(node).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(node, field, getattr(node, field))

    def test_unreferenced_nodes_leave_the_table(self):
        leaf_key = (PVar, "held_by_nothing")
        node = PApp(PVar("held_by_nothing"), PVar("held_by_nothing"))
        app_key = (PApp, id(node.fn), id(node.arg))
        assert syntax._TABLE[app_key]() is node and leaf_key in syntax._TABLE
        del node
        gc.collect()
        assert app_key not in syntax._TABLE and leaf_key not in syntax._TABLE

    def test_a_late_drop_leaves_the_newer_entry(self):
        # the callback of a dead node's entry, run after a new node has
        # taken its key, must not remove the new node's entry
        key = (PVar, "dropped_late")
        node = PVar("dropped_late")
        stale = syntax._TABLE[key]
        del node
        gc.collect()
        assert stale() is None and key not in syntax._TABLE
        node = PVar("dropped_late")
        newer = syntax._TABLE[key]
        syntax._drop(stale)  # as if the dead node's callback ran only now
        assert syntax._TABLE[key] is newer and newer() is node

    def test_a_dead_entry_is_absent(self):
        key = (PVar, "dead_entry")
        dead = syntax._Entry(Var("dead_entry_referent"), None)
        assert dead() is None
        syntax._TABLE[key] = dead
        node = PVar("dead_entry")
        assert node.name == "dead_entry" and syntax._TABLE[key]() is node
        assert PVar("dead_entry") is node


def leaf_like(x):
    """A leaf of the sort of x: a term, a proposition or a proof-term."""
    if isinstance(x, Term):
        return Var("w")
    return Atom("P") if isinstance(x, Proposition) else PVar("w")


def ids(nodes) -> list:
    return [id(x) for x in nodes]


class TestChildren:
    @given(TREES)
    def test_children_are_the_immediate_subtrees(self, x):
        assert ids(x.children) == ids(reference_children(x))

    @given(TREES)
    def test_rebuilt_over_its_own_children_is_the_node(self, x):
        assert x.with_children(x.children) is x

    @given(TREES)
    def test_rebuilt_over_new_children_keeps_class_and_names(self, x):
        kids = tuple(map(leaf_like, x.children))
        y = x.with_children(kids)
        assert type(y) is type(x) and ids(y.children) == ids(kids)
        names = [f for f in x._fields if isinstance(getattr(x, f), str)]
        assert [getattr(y, f) for f in names] == [getattr(x, f) for f in names]

    @given(TREES)
    def test_subterms_is_the_recursive_preorder(self, x):
        assert ids(subterms(x)) == ids(reference_subterms(x))


# Ill-formed terms and propositions over SIG, each with the error that
# check_wf raises: the first one in pre-order, so a node's own symbol and
# arity are reported before anything below it, and a left child's errors
# before a right child's.
ILL_FORMED = [
    (Fun("h", (Var("x"),)), "unknown function symbol 'h'"),
    (Fun("g", (Var("x"),)), "function 'g' expects 2 argument(s), got 1"),
    (Fun("f", (Fun("g", (Var("x"), Fun("c", (Var("x"),)))),)),
     "function 'c' expects 0 argument(s), got 1"),
    (Atom("S"), "unknown predicate symbol 'S'"),
    (Atom("Q", (Var("x"), Var("x"))), "predicate 'Q' expects 1 argument(s), got 2"),
    (Atom("Q", (Fun("h"), Var("x"))), "predicate 'Q' expects 1 argument(s), got 2"),
    (Atom("R", (Fun("f", (Var("x"), Var("x"))), Fun("h"))),
     "function 'f' expects 1 argument(s), got 2"),
    (Imp(Atom("P"), Forall("x", Atom("Q", (Fun("d", (Var("x"),)),)))),
     "function 'd' expects 0 argument(s), got 1"),
    (Imp(Atom("S"), Atom("Q", (Fun("h"),))), "unknown predicate symbol 'S'"),
    (Forall("y", Imp(Atom("R", (Var("x"), Fun("g", (Fun("c"),)))), Atom("T"))),
     "function 'g' expects 2 argument(s), got 1"),
]


class TestWellFormed:
    @pytest.mark.parametrize("x, message", ILL_FORMED)
    def test_the_first_error_in_preorder_is_raised(self, x, message):
        with pytest.raises(SignatureError) as e:
            check_wf(x, SIG)
        assert str(e.value) == message

    @pytest.mark.parametrize("x, message", ILL_FORMED)
    def test_a_theory_refuses_the_rule(self, x, message):
        with pytest.raises(SignatureError) as e:
            Theory(SIG, (RewriteRule(x, x),))
        assert str(e.value) == message

    @given(st.one_of(terms(), props()))
    def test_generated_trees_are_well_formed(self, x):
        check_wf(x, SIG)


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


# (record, its printed form, a change to its fields).  The printed forms
# are those of the dataclasses the records replaced.
RECORDS = [
    (SN(2, 5), "SN(max_length=2, tree_size=5)", {"tree_size": 6}),
    (Diverges((PVar("a"),)), "Diverges(cycle=(PVar(name='a'),))", {"cycle": ()}),
    (SNUnknown(3), "SNUnknown(fuel_spent=3, reason='node budget')", {"reason": "depth limit"}),
    (Yes(2), "Yes(path_length=2)", {"path_length": 3}),
    (No(), "No()", {}),
    (Unknown(5), "Unknown(fuel_spent=5, reason='fuel')", {"fuel_spent": 6}),
    (CheckReport(False, (0, 1), "bad"),
     "CheckReport(ok=False, path=(0, 1), reason='bad', fuel_spent=0, congruence_checks=0)",
     {"path": (0,), "reason": "worse"}),
    (Verdict("pass", checked=2, name="cr1"),
     "Verdict(status='pass', failures=(), boundary=0, unknown=0, checked=2, skipped=0, "
     "name='cr1')", {"status": "fail", "failures": ("x",)}),
    (Context((("a", Atom("P")),)), "Context(entries=(('a', Atom(pred='P', args=())),))",
     {"entries": ()}),
    (Signature((("f", 1),), (("P", 0),)),
     "Signature(functions=(('f', 1),), predicates=(('P', 0),))", {"functions": ()}),
    (FiniteCandidate(frozenset({PVar("a")})), "FiniteCandidate(members=frozenset({PVar(name='a')}))",
     {"members": frozenset()}),
    (imp_elim(*(axiom(Context((("a", Atom("P")), ("b", Imp(Atom("P"), Atom("P"))))), name)
                for name in "ba"), Atom("P")),
     "Derivation(rule='imp-elim', style='curry', ctx=Context(entries=(('a', Atom(pred='P', "
     "args=())), ('b', Imp(left=Atom(pred='P', args=()), right=Atom(pred='P', args=()))))), "
     "prop=Atom(pred='P', args=()), witness=Imp(left=Atom(pred='P', args=()), "
     "right=Atom(pred='P', args=())), premises=(Derivation(rule='axiom', style='curry', "
     "ctx=Context(entries=(('a', Atom(pred='P', args=())), ('b', Imp(left=Atom(pred='P', "
     "args=()), right=Atom(pred='P', args=()))))), prop=Imp(left=Atom(pred='P', args=()), "
     "right=Atom(pred='P', args=())), witness='b', premises=()), Derivation(rule='axiom', "
     "style='curry', ctx=Context(entries=(('a', Atom(pred='P', args=())), ('b', "
     "Imp(left=Atom(pred='P', args=()), right=Atom(pred='P', args=()))))), "
     "prop=Atom(pred='P', args=()), witness='a', premises=())))",
     {"prop": Atom("Q", (Var("x"),))}),
    (SearchBounds(build_universe(1, ("a",)), depth=2),
     "SearchBounds(universe=Universe(max_size=1, pool=('a',), members=frozenset({PVar(name='a')})), "
     "depth=2, fuel=200, k_max=3, n_max=2, inst_terms=())", {"depth": 3}),
]
over_records = pytest.mark.parametrize("record, text, changes", RECORDS,
                                       ids=[type(row[0]).__name__ for row in RECORDS])


class TestRecords:
    @over_records
    def test_printed_form(self, record, text, changes):
        assert repr(record) == text

    @over_records
    def test_equal_by_class_and_fields(self, record, text, changes):
        copy = record.replace()
        assert copy is not record and copy == record and hash(copy) == hash(record)
        assert record.__eq__(Record()) is NotImplemented
        if changes:
            changed = record.replace(**changes)
            assert changed != record and record != changed

    def test_other_class_with_equal_fields_differs(self):
        assert Unknown(0, "x") != SNUnknown(0, "x")
        assert Unknown(0, "x").__eq__(SNUnknown(0, "x")) is NotImplemented

    @over_records
    def test_immutable_and_slotted(self, record, text, changes):
        assert isinstance(record, Record) and not hasattr(record, "__dict__")
        for name in (*record._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in record._fields:
            with pytest.raises(AttributeError):
                delattr(record, name)

    @over_records
    def test_replace_changes_only_the_named_fields(self, record, text, changes):
        changed = record.replace(**changes)
        assert type(changed) is type(record)
        for name in record._fields:
            assert getattr(changed, name) == changes.get(name, getattr(record, name))
        with pytest.raises(TypeError):
            record.replace(no_such_field=1)

    def test_replace_runs_the_constructor(self):
        ctx = Context((("a", Atom("P")), ("b", Atom("P"))))
        d = axiom(ctx, "a")
        assert d.replace(witness="b").subject == PVar("b") and d.subject == PVar("a")
        with pytest.raises(SignatureError):
            Signature((), (("P", 0),)).replace(predicates=())

    def test_universe_compares_its_members_not_their_order(self):
        u = build_universe(3, ("a",))
        again = Universe(u.max_size, u.pool, u.members, tuple(reversed(u.order)))
        assert again == u and hash(again) == hash(u) and again.order != u.order

    def test_a_theory_equals_only_itself(self):
        sig = Signature((), (("P", 0),))
        t, twin = Theory(sig, (), "t"), Theory(sig, (), "t")
        assert t == t and t != twin and len({t, twin}) == 2
        assert hash(t) == object.__hash__(t)

    @given(st.one_of(terms(), props(max_leaves=12), proofs(CURRY, max_leaves=12),
                     proofs(CHURCH, max_leaves=12)))
    def test_printed_form_is_the_recursive_one(self, x):
        assert repr(x) == reference_repr(x)


def generated_records():
    """Every record class of the package whose constructor `Record` writes:
    those with fields, save the syntax nodes, which are interned by
    `__new__`, and `Universe`, which writes its own."""
    out, todo = [], [Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if (cls._fields and cls.__module__.startswith("mdm.")
                and not issubclass(cls, syntax._Node) and cls is not Universe):
            out.append(cls)
    return out


# The constructor signatures of the records that the benchmark builds or
# reads, as they were when each record wrote its own `__init__`.
PINNED_SIGNATURES = {
    SearchBounds: "(universe, depth=3, fuel=200, k_max=3, n_max=2, inst_terms=())",
    Context: "(entries=())",
    Verdict: "(status, failures=(), boundary=0, unknown=0, checked=0, skipped=0, name='')",
    SN: "(max_length, tree_size)",
    Diverges: "(cycle)",
    SNUnknown: "(fuel_spent, reason='node budget')",
    CheckReport: "(ok, path=None, reason=None, fuel_spent=0, congruence_checks=0)",
    Yes: "(path_length)",
    Unknown: "(fuel_spent, reason='fuel')",
    FiniteCandidate: "(members)",
    ArrowResult: "(members, boundary, untested, partially_tested)",
    ClosureTable: "(stages, first_stage, boundary_escapes=0, unknown_mu=0, fixpoint_at=None)",
}

_CTX = Context((("a", Atom("P")),))


class TestConstructors:
    def test_every_record_with_fields_but_universe_gets_one(self):
        assert set(generated_records()) == {
            Signature, RewriteRule, Theory, Yes, Unknown, SN, Diverges, SNUnknown, Context,
            Derivation, CheckReport, Verdict, PreHeytingAlgebra, FiniteCandidate,
            ArrowResult, SearchBounds, ClosureTable, SuiteConfig}

    @pytest.mark.parametrize("cls", generated_records(), ids=lambda cls: cls.__name__)
    def test_signature_is_the_fields_with_their_defaults(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == list(cls._fields)
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        assert {p.name: p.default for p in params if p.default is not p.empty} == cls._defaults
        assert cls.__init__.__code__.co_filename == f"<{cls.__name__} constructor>"

    @pytest.mark.parametrize("cls", PINNED_SIGNATURES, ids=lambda cls: cls.__name__)
    def test_signatures_the_benchmark_uses_are_kept(self, cls):
        assert str(inspect.signature(cls)) == PINNED_SIGNATURES[cls]

    def test_a_missing_or_unknown_argument_is_refused(self):
        with pytest.raises(TypeError, match="tree_size"):
            SN(1)
        with pytest.raises(TypeError, match="no_such_field"):
            Verdict("pass", no_such_field=1)
        with pytest.raises(TypeError):
            SN(1, 2, 3)

    def test_defaults_must_be_on_the_last_fields(self):
        with pytest.raises(TypeError, match="must come last"):
            class Bad(Record):
                __slots__ = _fields = ("a", "b")
                _defaults = {"a": 1}

    @pytest.mark.parametrize("good, changes, error", [
        (Signature((), (("P", 0),)), {"predicates": ()}, SignatureError),
        (_CTX, {"entries": (("a", Atom("P")), ("a", Atom("Q")))}, DerivationError),
        (axiom(_CTX, "a"), {"premises": (axiom(_CTX, "a"),)}, DerivationError),
    ], ids=["signature", "context", "derivation"])
    def test_check_runs_on_construction_and_on_replace(self, good, changes, error):
        fields = {f: getattr(good, f) for f in good._fields}
        with pytest.raises(error):
            type(good)(**{**fields, **changes})
        with pytest.raises(error):
            good.replace(**changes)

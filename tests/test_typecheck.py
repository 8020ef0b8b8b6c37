import pytest

from helpers import delta_delta_derivation, forall_chain
from mdm.corpus import generate_corpus
from mdm.demos import THEORY_DIR, builtin_theory
from mdm.rewriting import Theory
from mdm.syntax import (
    CHURCH, CURRY, Atom, Forall, Fun, Imp, PApp, PLam, PVar, TApp, TLam, Var,
    ParseError, Record, fresh_name, parse_proof, parse_prop, print_proof, subst_proof,
)
from mdm.typecheck import (
    Context, Derivation, DerivationError, TransformError, axiom,
    check_derivation, erase, erase_derivation, forall_elim, forall_intro,
    imp_elim, imp_forall_transport, imp_intro,
    load_derivation, parse_context, parse_derivation, print_derivation, retype,
    subst_derivation_proof, subst_derivation_term, weaken,
)
from strats import SIG

P = Atom("P")


def pp(s):
    return parse_prop(s, SIG)


def plain_theory():
    return Theory(signature=SIG, rules=(), name="plain")


class TestContext:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DerivationError):
            Context((("a", P), ("a", P)))

    def test_lookup_ignores_order(self):
        g = Context((("a", P), ("b", pp("Q(c)"))))
        assert g.lookup("b") == pp("Q(c)")
        assert g.lookup("missing") is None

    def test_free_term_vars_union(self):
        g = Context((("a", pp("Q(x)")), ("b", pp("R(y, c)"))))
        assert g.free_term_vars() == {"x", "y"}


class TestCheckBasics:
    def test_axiom_ok(self):
        d = axiom(Context((("a", P),)), "a")
        assert check_derivation(plain_theory(), d).ok

    def test_axiom_wrong_prop_fails(self):
        d = axiom(Context((("a", P),)), "a", prop=pp("Q(c)"))
        rep = check_derivation(plain_theory(), d)
        assert not rep.ok and rep.path == ()

    def test_identity_function(self):
        g = Context()
        d = imp_intro(axiom(g.extend("a", P), "a"))
        assert d.prop == Imp(P, P)
        assert check_derivation(plain_theory(), d).ok

    def test_style_uniformity_enforced(self):
        g = Context((("a", P),))
        prem = axiom(g, "a", style=CHURCH)
        with pytest.raises(DerivationError, match="style mismatch"):
            Derivation("forall-intro", CURRY, g, Forall("x", P), Forall("x", P), (prem,))

    def test_forall_intro_side_condition(self):
        g = Context((("a", pp("Q(x)")),))
        prem = axiom(g, "a")
        d = forall_intro(prem, "x")
        rep = check_derivation(plain_theory(), d)
        assert not rep.ok
        assert "occurs free in the context" in rep.reason

    def test_forall_intro_ok_when_var_not_free(self):
        g = Context((("a", pp("Q(c)")),))
        d = forall_intro(axiom(g, "a"), "x")
        assert d.prop == pp("!x. Q(c)")
        assert check_derivation(plain_theory(), d).ok

    def test_forall_elim_curry(self):
        g = Context((("a", pp("!x. Q(x)")),))
        d = forall_elim(axiom(g, "a"), "x", pp("Q(x)"), Fun("c"))
        assert d.prop == pp("Q(c)")
        assert d.subject == PVar("a")
        assert check_derivation(plain_theory(), d).ok

    def test_forall_rules_church(self):
        g = Context((("a", pp("!x. Q(x)")),))
        d = forall_elim(axiom(g, "a", style=CHURCH), "x", pp("Q(x)"), Fun("c"))
        assert d.subject == TApp(PVar("a"), Fun("c"))
        assert check_derivation(plain_theory(), d).ok
        g2 = Context((("a", P),))
        d2 = forall_intro(axiom(g2, "a", style=CHURCH), "x")
        assert d2.subject == TLam("x", PVar("a"))
        assert check_derivation(plain_theory(), d2).ok

    @pytest.mark.parametrize("build, wrong", [
        pytest.param(lambda: axiom(Context((("a", P),)), "a"), PVar("b"), id="axiom"),
        pytest.param(lambda: imp_intro(axiom(Context().extend("a", P), "a")),
                     PLam("b", PVar("a")), id="imp-intro"),
        pytest.param(lambda: imp_elim(axiom(Context((("f", Imp(P, P)), ("a", P))), "f"),
                                      axiom(Context((("f", Imp(P, P)), ("a", P))), "a"), P),
                     PApp(PVar("a"), PVar("f")), id="imp-elim"),
        pytest.param(lambda: forall_intro(axiom(Context((("a", P),)), "a"), "x"),
                     PLam("x", PVar("a")), id="forall-intro-curry"),
        pytest.param(lambda: forall_intro(axiom(Context((("a", P),)), "a", style=CHURCH), "x"),
                     PVar("a"), id="forall-intro-church"),
        pytest.param(lambda: forall_elim(axiom(Context((("a", pp("!x. Q(x)")),)), "a"),
                                         "x", pp("Q(x)"), Fun("c")),
                     PApp(PVar("a"), PVar("c")), id="forall-elim-curry"),
        pytest.param(lambda: forall_elim(axiom(Context((("a", pp("!x. Q(x)")),)), "a",
                                               style=CHURCH), "x", pp("Q(x)"), Fun("c")),
                     TApp(PVar("a"), Fun("d")), id="forall-elim-church"),
    ])
    def test_wrong_subject_fails_at_the_node(self, build, wrong):
        # a node's subject is computed, so a wrong one can only be written:
        # the reader rejects the root's subj field at its column
        d = build()
        text = print_derivation(d)
        assert parse_derivation(text, d.style, SIG) == d
        start = text.index('subj:"')
        end = text.index('"', start + len('subj:"')) + 1
        bad = text[:start] + f'subj:"{print_proof(wrong)}"' + text[end:]
        with pytest.raises(ParseError, match=f"{d.rule} subject must be") as e:
            parse_derivation(bad, d.style, SIG)
        assert e.value.pos == start

    def test_unknown_congruence_fails_check(self, selfapp):
        A = Atom("A")
        deep = Imp(Imp(Imp(Imp(A, A), A), A), A)
        d = axiom(Context((("a", A),)), "a", prop=deep)
        rep = check_derivation(selfapp, d, fuel=1)
        assert not rep.ok
        assert rep.reason == "congruence not established"

    @pytest.mark.parametrize("name, atom", [("arith-toy", "E"), ("selfapp", "A")])
    def test_too_deep_congruence_fails_at_the_node(self, request, name, atom):
        x = Atom(atom)
        p = x
        for _ in range(3000):
            p = Imp(x, p)
        d = axiom(Context((("a", p),)), "a", prop=x)
        rep = check_derivation(request.getfixturevalue(name.replace("-", "_")), d, fuel=10)
        assert not rep.ok and rep.path == ()
        assert rep.reason == "congruence not established (depth limit)"


class TestSelfApplication:
    def test_delta_checks_at_both_types(self, selfapp):
        at_imp, at_atom = delta_delta_derivation().premises
        assert at_imp.prop == Imp(Atom("A"), Atom("A")) and at_atom.prop == Atom("A")
        assert at_imp.subject == at_atom.subject == parse_proof(r"\b. b b")
        assert check_derivation(selfapp, at_imp, 50).ok
        assert check_derivation(selfapp, at_atom, 50).ok

    def test_delta_delta_checks(self, selfapp):
        d = delta_delta_derivation()
        assert d.subject == parse_proof(r"(\a. a a) (\a. a a)")
        rep = check_derivation(selfapp, d, 50)
        assert rep.ok

    def test_delta_delta_fails_without_the_rule(self):
        d = delta_delta_derivation()
        bare = Theory(signature=type(SIG)(functions=(), predicates=(("A", 0),)))
        rep = check_derivation(bare, d, 50)
        assert not rep.ok


class TestRetype:
    def test_retype_to_congruent_prop(self, selfapp):
        A = Atom("A")
        d = axiom(Context((("a", A),)), "a")
        assert check_derivation(selfapp, retype(d, Imp(A, A)), 50).ok

    def test_retype_to_unrelated_prop_fails(self, selfapp):
        A = Atom("A")
        d = axiom(Context((("a", A),)), "a")
        assert not check_derivation(selfapp, retype(d, Forall("x", A)), 50).ok


class TestWeaken:
    def test_axiom_weakened(self):
        d = axiom(Context((("a", P),)), "a")
        g2 = Context((("a", P), ("b", pp("Q(c)"))))
        out = weaken(d, g2)
        assert out.ctx == g2
        assert check_derivation(plain_theory(), out).ok

    def test_identity_weakened(self):
        d = imp_intro(axiom(Context().extend("a", P), "a"))
        g2 = Context((("b", pp("Q(c)")),))
        out = weaken(d, g2)
        assert out.ctx == g2
        assert out.prop == Imp(P, P)
        assert check_derivation(plain_theory(), out).ok

    def test_shadowing_binder_renamed(self):
        d = imp_intro(axiom(Context().extend("a", P), "a"))
        g2 = Context((("a", pp("Q(c)")),))
        out = weaken(d, g2)
        assert check_derivation(plain_theory(), out).ok
        assert out.subject == PLam("z", PVar("z"))  # alpha-equal form

    def test_renamed_binder_avoids_a_name_bound_deep_inside(self):
        # \a. \b. \a_1. a: renaming a must skip a_1, bound only two
        # binders down and named nowhere else
        g = Context((("a", P), ("b", P), ("a_1", P)))
        d = imp_intro(imp_intro(imp_intro(axiom(g, "a"))))
        out = weaken(d, Context((("a", pp("Q(c)")),)))
        assert check_derivation(plain_theory(), out).ok
        assert out.subject.var == "a_2"
        assert out.subject == d.subject

    def test_non_extension_rejected(self):
        d = axiom(Context((("a", P),)), "a")
        with pytest.raises(TransformError):
            weaken(d, Context((("a", pp("Q(c)")),)))


class TestWeakenRenamesEigenvariables:
    """Weakening by a hypothesis that mentions a forall-intro eigenvariable
    renames the eigenvariable, so the intro's side condition still holds."""

    @staticmethod
    def r(v):
        return Atom("R", (Var(v),))  # the unary predicate of `empty`

    def setup_method(self):
        self.g = Context((("h", Forall("x", self.r("x"))),))
        # h : !x. R(x) |- h : !y. R(y), by instantiating at y and generalizing
        self.d = forall_intro(forall_elim(axiom(self.g, "h"), "x", self.r("x"), Var("y")), "y")

    def test_weaken_by_eigenvariable_rechecks(self, empty_theory):
        out = weaken(self.d, self.g.extend("w", self.r("y")))
        assert out.witness.var != "y"
        assert check_derivation(empty_theory, out).ok

    def test_subst_derivation_proof_rechecks(self, empty_theory):
        ctx = self.g.extend("s0", Forall("y", self.r("y"))).extend("w", self.r("y"))
        out = subst_derivation_proof(axiom(ctx, "s0"), "s0", self.d)
        assert out.ctx == self.g.extend("w", self.r("y"))
        assert check_derivation(empty_theory, out).ok

    @pytest.mark.parametrize("style", [CURRY, CHURCH])
    @pytest.mark.parametrize("name", ["empty", "arith-toy"])
    def test_corpus_weakened_by_each_eigenvariable(self, name, style):
        theory = builtin_theory(name)
        pred = next(p for p, arity in theory.signature.predicates if arity == 1)
        tried = 0
        for d in generate_corpus(theory, style, 40, seed=11):
            w = fresh_name("w", set(d.ctx.names()))
            for v in sorted(_eigenvariables(d)):
                out = weaken(d, d.ctx.extend(w, Atom(pred, (Var(v),))))
                rep = check_derivation(theory, out, 400)
                assert rep.ok, f"{d} weakened by {pred}({v}): {rep}"
                tried += 1
        assert tried > 0


def _eigenvariables(d):
    own = {d.witness.var} if d.rule == "forall-intro" else set()
    return own.union(*map(_eigenvariables, d.premises))


class TestMalformedImpIntro:
    """An imp-intro node whose premise context is empty has no hypothesis
    to abstract: building it raises, so no transform is ever handed one."""

    @staticmethod
    def node():
        prem = Derivation("axiom", CURRY, Context(), P, "a")
        return Derivation("imp-intro", CURRY, Context(), Imp(P, P), Imp(P, P), (prem,))

    @pytest.mark.parametrize("transform", [
        pytest.param(lambda d: weaken(d, Context((("b", P),))), id="weaken"),
        pytest.param(lambda d: subst_derivation_term(d, "x", Fun("c")),
                     id="subst_derivation_term"),
        pytest.param(erase_derivation, id="erase_derivation"),
    ])
    def test_empty_premise_context_is_named(self, transform):
        with pytest.raises(DerivationError, match="imp-intro premise has an empty context"):
            transform(self.node())


class TestSubstDerivationProof:
    def test_axiom_base_case(self):
        g1 = Context((("h", pp("Q(c)")),))
        d = axiom(g1.extend("a", P), "a")
        darg = imp_intro(axiom(g1.extend("z", P), "z"))  # h |- \z. z : P => P
        darg = retype(darg, Imp(P, P))
        dmain = axiom(g1.extend("a", Imp(P, P)), "a")
        out = subst_derivation_proof(dmain, "a", darg)
        assert out.ctx == g1
        assert out.subject == darg.subject
        assert check_derivation(plain_theory(), out).ok

    def test_context_prefix_mismatch_rejected(self):
        d = axiom(Context((("a", P),)), "a")
        darg = axiom(Context((("h", pp("Q(c)")),)), "h")
        with pytest.raises(TransformError):
            subst_derivation_proof(d, "a", darg)  # darg's context is not the prefix
        with pytest.raises(TransformError):
            subst_derivation_proof(d, "zz", darg)  # no such hypothesis

    def test_abstraction_case(self):
        # d: [e0:P, a:P] |- \b. a : Q(c) => P ; darg: [e0:P] |- e0 : P
        darg = axiom(Context((("e0", P),)), "e0")
        inner = Context((("e0", P), ("a", P))).extend("b", pp("Q(c)"))
        d = imp_intro(axiom(inner, "a"))
        out = subst_derivation_proof(d, "a", darg)
        assert out.subject == PLam("b", PVar("e0"))
        assert check_derivation(plain_theory(), out).ok

    def test_vacuous_substitution(self):
        g = Context((("h", P), ("a", pp("Q(c)"))))
        d = axiom(g, "h")
        darg = axiom(Context((("h", P),)), "h", prop=pp("Q(c)"))
        out = subst_derivation_proof(d, "a", darg)
        assert out.ctx == Context((("h", P),))
        assert out.subject == PVar("h")
        assert check_derivation(plain_theory(), out).ok

    def test_congruent_hypothesis(self, selfapp):
        A = Atom("A")
        g1 = Context((("h", A),))
        d = axiom(g1.extend("a", Imp(A, A)), "a")  # concludes A => A
        darg = axiom(g1, "h")  # concludes A, congruent to A => A
        out = subst_derivation_proof(d, "a", darg)
        assert check_derivation(selfapp, out, 50).ok


class TestSubstDerivationTerm:
    def test_curry_subject_unchanged(self):
        g = Context((("a", pp("Q(x)")),))
        d = axiom(g, "a")
        out = subst_derivation_term(d, "x", Fun("c"))
        assert out.subject == PVar("a")
        assert out.prop == pp("Q(c)")
        assert out.ctx == Context((("a", pp("Q(c)")),))
        assert check_derivation(plain_theory(), out).ok

    def test_church_subject_substituted(self):
        g = Context((("a", pp("!y. R(y, x)")),))
        d = forall_elim(axiom(g, "a", style=CHURCH), "y", pp("R(y, x)"), Var("x"))
        out = subst_derivation_term(d, "x", Fun("c"))
        assert out.subject == TApp(PVar("a"), Fun("c"))
        assert out.prop == pp("R(c, c)")
        assert check_derivation(plain_theory(), out).ok

    def test_absent_variable_identity(self):
        d = imp_intro(axiom(Context().extend("a", P), "a"))
        out = subst_derivation_term(d, "x", Fun("c"))
        assert out.prop == d.prop and out.subject == d.subject
        assert check_derivation(plain_theory(), out).ok

    def test_bound_variable_untouched(self):
        g = Context((("a", pp("Q(c)")),))
        d = forall_intro(axiom(g, "a"), "x")
        out = subst_derivation_term(d, "x", Fun("d"))
        assert out.prop == pp("!x. Q(c)")
        assert check_derivation(plain_theory(), out).ok

    def test_capture_forces_witness_rename(self):
        base = axiom(Context((("a", pp("Q(y)")),)), "a")
        gen = forall_intro(base, "x")  # [a:Q(y)] |- a : !x. Q(y)
        out = subst_derivation_term(gen, "y", Var("x"))
        assert out.prop == Forall("w", pp("Q(x)"))
        assert out.witness.var != "x"
        assert check_derivation(plain_theory(), out).ok


class TestErase:
    def test_tlam_dropped(self):
        assert erase(TLam("x", PVar("a"))) == PVar("a")

    def test_tapp_dropped(self):
        p = PApp(TApp(PVar("a"), Var("x")), PVar("b"))
        assert erase(p) == PApp(PVar("a"), PVar("b"))

    def test_idempotent_on_curry(self):
        p = parse_proof(r"\a. a a")
        assert erase(p) == p

    def test_commutes_with_subst(self):
        pi = TLam("x", PApp(PVar("a"), PVar("b")))
        arg = TApp(PVar("e"), Var("x"))
        lhs = erase(subst_proof(pi, "a", arg))
        rhs = subst_proof(erase(pi), "a", erase(arg))
        assert lhs == rhs

    def test_erase_derivation_checks(self):
        g = Context((("a", pp("!x. Q(x)")),))
        d = forall_elim(axiom(g, "a", style=CHURCH), "x", pp("Q(x)"), Fun("c"))
        out = erase_derivation(d)
        assert out.style == CURRY
        assert out.subject == PVar("a")
        assert check_derivation(plain_theory(), out).ok

    def test_erase_curry_expressible_tree_is_stable(self, selfapp):
        d = delta_delta_derivation()
        out = erase_derivation(d)
        assert out.subject == d.subject
        assert check_derivation(selfapp, out, 50).ok


class TestTransport:
    def test_confusion_transport(self, confusion):
        sig = confusion.signature
        a, b = parse_prop("A", sig), parse_prop("B", sig)
        g = Context((("h", parse_prop("A => !x. B", sig)),))
        d = axiom(g, "h")
        out = imp_forall_transport(d, "x", a, b)
        assert out.prop == parse_prop("!x. (A => B)", sig)
        assert out.subject == PVar("h")
        assert check_derivation(confusion, out, 100).ok

    def test_transport_fails_without_the_rule(self, empty_theory):
        sig = empty_theory.signature
        g = Context((("h", parse_prop("P => !x. Q", sig)),))
        d = axiom(g, "h")
        out = imp_forall_transport(d, "x", parse_prop("P", sig), parse_prop("Q", sig))
        assert not check_derivation(empty_theory, out, 100).ok


class TestDrvFormat:
    def test_round_trip(self, selfapp):
        d = delta_delta_derivation()
        text = print_derivation(d)
        back = parse_derivation(text, CURRY, selfapp.signature)
        assert back == d
        assert check_derivation(selfapp, back, 50).ok

    def test_bundled_delta_delta_file(self, selfapp):
        d = load_derivation(THEORY_DIR / "deltadelta.drv", CURRY, selfapp.signature)
        assert d == delta_delta_derivation()
        assert check_derivation(selfapp, d, 50).ok
        # the same derivation, built with axiom, imp_elim and imp_intro
        a = Atom("A")
        inner = Context((("a", a), ("b", a)))

        def delta(prop):
            bb = imp_elim(axiom(inner, "b", prop=Imp(a, a)), axiom(inner, "b"), b=a)
            return imp_intro(bb, prop=prop)
        assert d == imp_elim(delta(Imp(a, a)), delta(a), b=a)

    def test_context_parsing(self):
        g = parse_context("a:P, b:Q(c)", SIG)
        assert g == Context((("a", P), ("b", pp("Q(c)"))))
        assert parse_context("", SIG) == Context()

    def test_malformed_node_rejected(self, selfapp):
        text = '(axiom ctx:"" subj:"a")'
        with pytest.raises(ParseError, match="axiom is missing the 'prop' field") as e:
            parse_derivation(text, CURRY, selfapp.signature)
        assert e.value.pos == text.index("axiom")

    AXIOM_A = '(axiom ctx:"a:A" subj:"a" prop:"A" wit:"a")'

    @pytest.mark.parametrize("text, marker, reason", [
        ('(forall-elim ctx:"a:!x. A" subj:"a" prop:"A" wit:"!x. A" '
         '(axiom ctx:"a:!x. A" subj:"a" prop:"!x. A" wit:"a"))',
         "forall-elim", "forall-elim is missing the 'inst' field"),
        ('(imp-intro ctx:"" subj:"\\a. a" prop:"A => A" wit:"A" ' + AXIOM_A + ")",
         "imp-intro", "imp-intro witness must be"),
        ('(imp-intro ctx:"" subj:"\\a. a" prop:"A => A" wit:"A => A" '
         + AXIOM_A[:-1] + " " + AXIOM_A + "))",
         "axiom", r"axiom takes 0 premise\(s\), got 1"),
        ('(imp-intro ctx:"" subj:"\\a. a" prop:"A => A" wit:"A => A" '
         '(axiom ctx:"" subj:"a" prop:"A" wit:"a"))',
         "imp-intro", "imp-intro premise has an empty context"),
    ], ids=["no-inst", "witness-shape", "premise-count", "empty-premise-context"])
    def test_ill_formed_node_is_located_at_its_rule(self, selfapp, text, marker, reason):
        # the fault is the node's, not one field's, so it is reported where
        # the node's rule is named: the first such node in the text
        with pytest.raises(ParseError, match=reason) as e:
            parse_derivation(text, CURRY, selfapp.signature)
        assert e.value.pos == text.index(marker)

    def test_field_error_reports_its_column_in_the_text(self, selfapp):
        text = '(axiom ctx:"a:A" subj:"a" prop:"A =>" wit:"a")'
        with pytest.raises(ParseError, match="end of input") as e:
            parse_derivation(text, CURRY, selfapp.signature)
        assert e.value.pos == text.index('=>"') + 2

    def test_repeated_field_rejected_at_its_column(self, selfapp):
        text = '(axiom ctx:"a:A" subj:"a" prop:"A" wit:"a" wit:"b")'
        with pytest.raises(ParseError, match="repeated field 'wit'") as e:
            parse_derivation(text, CURRY, selfapp.signature)
        assert e.value.pos == text.rindex("wit")

    def test_inst_only_on_forall_elim(self, selfapp):
        text = '(axiom ctx:"a:A" subj:"a" prop:"A" wit:"a" inst:"c")'
        with pytest.raises(ParseError, match="axiom has no field 'inst'") as e:
            parse_derivation(text, CURRY, selfapp.signature)
        assert e.value.pos == text.index("inst")

    def test_deep_derivation_prints_and_reads_back(self, empty_theory):
        d = forall_chain(axiom(Context((("a", P),)), "a"), 900)
        back = parse_derivation(print_derivation(d), CURRY, empty_theory.signature)
        assert back == d and hash(back) == hash(d)

    def test_deep_derivations_differ_at_the_leaf(self, empty_theory):
        # read back from its text; the copy differs only in the leaf's
        # hypothesis, every other node keeps its own fields
        d = forall_chain(axiom(Context((("a", P), ("b", P))), "a"), 900)
        back = parse_derivation(print_derivation(d), CURRY, empty_theory.signature)
        assert back == d
        spine = [back]
        while spine[-1].premises:
            spine.append(spine[-1].premises[0])
        changed = spine[-1].replace(witness="b")
        for node in reversed(spine[:-1]):
            changed = node.replace(premises=(changed,))
        # the leaf's subject comes up the silent spine
        assert changed.subject == PVar("b") and changed.prop == d.prop
        assert changed != d and d != changed

    def test_corpus_round_trips(self):
        rules = set()
        for name in ("empty", "selfapp", "confusion", "arith-toy"):
            theory = builtin_theory(name)
            for style in (CURRY, CHURCH):
                for d in generate_corpus(theory, style, 25, seed=11):
                    back = parse_derivation(print_derivation(d), style, theory.signature)
                    assert back == d, print_derivation(d)
                    assert check_derivation(theory, back, 400).ok
                    rules |= _rules(d)
        assert rules == {"axiom", "imp-intro", "imp-elim", "forall-intro", "forall-elim"}


def _rules(d):
    return {d.rule}.union(*map(_rules, d.premises))


class TestDeepDerivations:
    """The checker, erasure and the substitution transforms walk a
    derivation with an explicit stack, so 3000 nested nodes neither exhaust
    the interpreter's stack nor change which failure is reported."""

    DEPTH = 3000

    def test_check(self, empty_theory):
        d = forall_chain(axiom(Context((("a", P),)), "a"), self.DEPTH)
        rep = check_derivation(empty_theory, d)
        # the axiom's check, then one per intro and two per elim
        assert rep.ok and rep.congruence_checks == 1 + self.DEPTH // 2 * 3

    def test_failing_leaf_is_reported_at_its_path(self, empty_theory):
        leaf = axiom(Context((("a", P),)), "a", prop=Forall("y", P))
        rep = check_derivation(empty_theory, forall_chain(leaf, self.DEPTH))
        assert not rep.ok and rep.path == (0,) * self.DEPTH
        assert rep.reason == "propositions not congruent: P vs !y. P"
        assert rep.congruence_checks == 1

    def test_erase(self, empty_theory):
        church = forall_chain(axiom(Context((("a", P),)), "a", style=CHURCH), self.DEPTH)
        out = erase_derivation(church)
        assert out == forall_chain(axiom(Context((("a", P),)), "a"), self.DEPTH)
        assert out.subject == PVar("a")
        assert check_derivation(empty_theory, out).ok

    def test_weaken(self, empty_theory):
        d = forall_chain(axiom(Context((("a", P),)), "a"), self.DEPTH)
        wider = Context((("a", P), ("b", P)))
        out = weaken(d, wider)
        assert out == forall_chain(axiom(wider, "a"), self.DEPTH)
        assert check_derivation(empty_theory, out).ok

    def test_subst_derivation_term(self):
        def at(t):
            return Atom("Q", (t,))
        d = forall_chain(axiom(Context((("a", at(Var("y"))),)), "a"), self.DEPTH)
        out = subst_derivation_term(d, "y", Fun("c"))
        assert out == forall_chain(axiom(Context((("a", at(Fun("c"))),)), "a"), self.DEPTH)

    def test_subst_derivation_proof(self, empty_theory):
        d = forall_chain(axiom(Context((("b", P), ("a", P))), "a"), self.DEPTH)
        leaf = axiom(Context((("b", P),)), "b")
        out = subst_derivation_proof(d, "a", leaf)
        assert out == forall_chain(leaf, self.DEPTH)
        assert check_derivation(empty_theory, out).ok

    def test_repr(self):
        leaf = axiom(Context((("a", P),)), "a")
        text = repr(forall_chain(leaf, self.DEPTH))
        assert text.startswith("Derivation(rule='forall-elim', ")
        assert text.count("Derivation(") == self.DEPTH + 1
        assert text.endswith(repr(leaf) + ",))" * self.DEPTH)
        # the record form that every other record prints
        shallow = forall_chain(leaf, 3)
        assert repr(shallow) == Record.__repr__(shallow)

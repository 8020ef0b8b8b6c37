import functools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from mdm.corpus import (
    DerivationGenerator, base_context, enumerate_derivations, generate_corpus, ground_terms,
)
from mdm.demos import builtin_theory
from mdm.reduction import redex_paths
from mdm.rewriting import Yes, congruent, congruent_ex, enumerate_props, parse_theory, \
    rewrite_neighbors
from mdm.syntax import CHURCH, CURRY, Atom, Fun, Imp, parse_prop, size
from mdm.typecheck import Context, check_derivation

THEORIES = ("empty", "selfapp", "confusion", "arith-toy")


@functools.cache
def _props(name):
    theory = builtin_theory(name)
    return theory, tuple(enumerate_props(theory.signature, 4))


@pytest.mark.parametrize("name", THEORIES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generator_congruence_answers_as_congruent(name, data):
    # the generator answers an equal pair, and any pair over a theory with
    # no rules, without asking `congruent`; b is drawn on its own, as a copy
    # of a, or a few rewrite steps away from it
    theory, props = _props(name)
    a = data.draw(st.sampled_from(props))
    how = data.draw(st.sampled_from(["drawn", "copy", "steps"]))
    if how == "drawn":
        b = data.draw(st.sampled_from(props))
    elif how == "copy":
        b = parse_prop(str(a), theory.signature)
    else:
        b = a
        for _ in range(data.draw(st.integers(1, 3))):
            step = sorted(rewrite_neighbors(theory, b), key=str)
            if step:
                b = data.draw(st.sampled_from(step))
    gen = DerivationGenerator(theory, fuel=40)
    assert gen._congruent(a, b) == isinstance(congruent(theory, a, b, 40), Yes)


@pytest.mark.parametrize("name", THEORIES)
def test_generator_congruence_of_a_pair_too_deep_to_compare(name):
    theory = builtin_theory(name)
    atom = Atom(next(pred for pred, k in theory.signature.predicates if k == 0))
    deep = copy = atom
    for _ in range(3000):
        deep, copy = Imp(atom, deep), Imp(atom, copy)
    gen = DerivationGenerator(theory, fuel=40)
    # as congruent_ex, which answers Unknown with reason "depth limit" where
    # the theory has rules: not Yes, so not congruent
    assert not isinstance(congruent_ex(theory, deep, atom, 40)[0], Yes)
    assert gen._congruent(deep, atom) is False
    assert congruent_ex(theory, deep, copy, 40)[0] == Yes(0)
    assert gen._congruent(deep, copy) is True


@pytest.mark.parametrize("style", [CURRY, CHURCH])
def test_corpus_checks_everywhere(style, empty_theory, selfapp, confusion, arith_toy):
    for theory in (empty_theory, selfapp, confusion, arith_toy):
        corpus = generate_corpus(theory, style, 8, seed=5)
        assert len(corpus) == 8
        for d in corpus:
            assert size(d.subject) <= 10
            rep = check_derivation(theory, d, 200)
            assert rep.ok, f"{theory.name}/{style}: {rep}"


def test_corpus_deterministic(empty_theory):
    a = generate_corpus(empty_theory, CURRY, 6, seed=9)
    b = generate_corpus(empty_theory, CURRY, 6, seed=9)
    assert a == b
    c = generate_corpus(empty_theory, CURRY, 6, seed=10)
    assert a != c


def test_require_redex(selfapp):
    corpus = generate_corpus(selfapp, CURRY, 6, seed=1, require_redex=True)
    assert all(redex_paths(d.subject) for d in corpus)


def test_ground_terms_fallback():
    t = load_theory_like_no_constants()
    assert ground_terms(t) != []


def load_theory_like_no_constants():
    return parse_theory("pred P/0.\n")


def test_base_context_covers_predicates(arith_toy):
    ctx = base_context(arith_toy)
    assert len(ctx) == 3
    assert all(p is not None for _, p in ctx)


class TestEnumeration:
    def test_depth_one_is_axioms(self, empty_theory):
        sig = empty_theory.signature
        ctx = Context((("a", parse_prop("P", sig)),))
        derivs = enumerate_derivations(empty_theory, ctx, [parse_prop("P", sig)],
                                       (Fun("c"),), CURRY, 1)
        assert len(derivs) == 1
        assert derivs[0].rule == "axiom"

    def test_monotone_in_depth(self, empty_theory):
        sig = empty_theory.signature
        ctx = Context((("a", parse_prop("P", sig)),))
        props = [parse_prop("P", sig), parse_prop("Q", sig)]
        sizes = [len(enumerate_derivations(empty_theory, ctx, props, (Fun("c"),), CHURCH, d))
                 for d in (1, 2, 3)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_all_check(self, empty_theory):
        sig = empty_theory.signature
        ctx = Context((("a", parse_prop("P", sig)), ("b", parse_prop("!x. R(x)", sig))))
        props = [parse_prop("P", sig), parse_prop("R(c)", sig)]
        for d in enumerate_derivations(empty_theory, ctx, props, (Fun("c"),), CHURCH, 3):
            assert check_derivation(empty_theory, d, 50).ok

    def test_congruent_retypings_with_rules(self, selfapp):
        sig = selfapp.signature
        A = parse_prop("A", sig)
        ctx = Context((("a", A),))
        derivs = enumerate_derivations(selfapp, ctx, [A, Imp(A, A)], (), CURRY, 2)
        # the axiom can conclude both A and A => A
        axiom_props = {d.prop for d in derivs if d.rule == "axiom"}
        assert A in axiom_props and Imp(A, A) in axiom_props

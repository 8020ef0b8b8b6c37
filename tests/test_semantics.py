import random

import pytest
from hypothesis import given, settings

import hypothesis.strategies as st
from mdm.rewriting import Theory
from mdm.semantics import (
    InterpretError, check_algebra_laws, check_lsub, check_model, interpret,
    powerset_algebra, ValuedStructure,
)
from mdm.syntax import Atom, Fun, Imp, Var, parse_prop
from strats import SIG, props

B2 = powerset_algebra(2)
TOP2 = frozenset({0, 1})
BOT = frozenset()
UNIVERSE = (Fun("c"), Fun("d"))
C = Fun("c")
# A universe with a variable in it: substituting y for x must agree with
# sending x to y's value under the environment, not to y itself.
SUBST_UNIVERSE = (C, Var("y"))


def pp(s):
    return parse_prop(s, SIG)


def const_structure(alg, value):
    return ValuedStructure(alg, lambda name, args: value)


def table_structure(table, default):
    return ValuedStructure(B2, lambda name, args: table.get((name, args), default))


def inductive(vs, term_universe=UNIVERSE):
    return lambda p, env: interpret(vs, p, env, term_universe)


def random_structure(seed):
    rng = random.Random(seed)
    elems = sorted(B2.elements, key=sorted)
    cache = {}

    def pred(name, args):
        if (name, args) not in cache:
            cache[name, args] = rng.choice(elems)
        return cache[name, args]

    return ValuedStructure(B2, pred)


class TestPowersetAlgebra:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_laws_exhaustive(self, n):
        assert check_algebra_laws(powerset_algebra(n)) == []

    def test_two_element_boolean(self):
        alg = powerset_algebra(1)
        assert alg.elements == {frozenset(), frozenset({0})}

    def test_empty_family_meets_to_top(self):
        assert B2.glb(frozenset()) == TOP2

    def test_imp_from_top(self):
        for b in B2.elements:
            assert B2.imp(TOP2, b) == b

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            powerset_algebra(0)
        with pytest.raises(ValueError):
            powerset_algebra(6)


class TestInterpret:
    def test_atom_constant(self):
        vs = const_structure(B2, TOP2)
        assert interpret(vs, pp("P"), {}, UNIVERSE) == TOP2

    def test_imp_of_equal_sides_is_top(self):
        for v in B2.elements:
            vs = const_structure(B2, v)
            assert interpret(vs, pp("P => P"), {}, UNIVERSE) == TOP2

    def test_forall_is_glb_over_universe(self):
        table = {("Q", (Fun("c"),)): TOP2, ("Q", (Fun("d"),)): BOT}
        vs = table_structure(table, TOP2)
        assert interpret(vs, pp("!x. Q(x)"), {}, UNIVERSE) == BOT

    def test_env_applies_to_atom_args(self):
        table = {("Q", (Fun("c"),)): TOP2}
        vs = table_structure(table, BOT)
        assert interpret(vs, pp("Q(x)"), {"x": Fun("c")}, UNIVERSE) == TOP2
        assert interpret(vs, pp("Q(x)"), {"x": Fun("d")}, UNIVERSE) == BOT

    def test_alpha_invariance_and_irrelevant_env(self):
        table = {("Q", (Fun("c"),)): TOP2}
        vs = table_structure(table, BOT)
        a = interpret(vs, pp("!x. Q(x)"), {}, UNIVERSE)
        b = interpret(vs, pp("!y. Q(y)"), {"z": Fun("c")}, UNIVERSE)
        assert a == b

    def test_binder_colliding_with_env_range(self):
        # env sends y to a term mentioning x; the bound x must not capture it
        table = {("R", (Fun("c"), Var("x"))): TOP2}
        vs = table_structure(table, BOT)
        val = interpret(vs, pp("!x. R(x, y)"), {"y": Var("x")}, (Fun("c"),))
        assert val == TOP2

    def test_empty_universe_rejected(self):
        vs = const_structure(B2, TOP2)
        with pytest.raises(InterpretError):
            interpret(vs, pp("!x. Q(x)"), {}, ())


class TestLsub:
    def test_atomic(self):
        vs = const_structure(B2, TOP2)
        assert check_lsub(vs, pp("Q(x)"), "x", Fun("c"), {}, UNIVERSE)

    def test_quantified(self):
        rng = random.Random(7)
        elems = sorted(B2.elements, key=sorted)
        table = {("R", (s, t)): rng.choice(elems) for s in UNIVERSE for t in UNIVERSE}
        vs = table_structure(table, BOT)
        assert check_lsub(vs, pp("!y. R(x, y)"), "x", Fun("c"), {}, UNIVERSE)

    def test_variable_not_free(self):
        vs = const_structure(B2, TOP2)
        assert check_lsub(vs, pp("P"), "x", Fun("c"), {}, UNIVERSE)

    @settings(max_examples=60, deadline=None)
    @given(props(max_leaves=5), st.sampled_from(["x", "y", "z"]),
           st.sampled_from(UNIVERSE + (Var("x"), Var("y"))), st.integers(0, 2**16))
    def test_lsub_random_structures(self, p, x, t, seed):
        vs = random_structure(seed)
        env = {"y": Fun("d")} if x != "y" else {}
        assert check_lsub(vs, p, x, t, env, UNIVERSE)


def check_inductive(vs, theory, props, envs, fuel=10_000):
    return check_model(inductive(vs), props, envs, vs.algebra, theory, UNIVERSE, fuel)


class TestInductiveModel:
    def test_empty_theory_always_passes(self, empty_theory):
        sig = empty_theory.signature
        vs = const_structure(B2, TOP2)
        samples = [parse_prop("P", sig), parse_prop("Q", sig),
                   parse_prop("P => Q", sig)]
        v = check_inductive(vs, empty_theory, samples, [{}])
        assert v.ok, v.summary()

    def test_selfapp_with_top_interpretation(self, selfapp):
        A = Atom("A")
        vs = const_structure(B2, TOP2)
        v = check_inductive(vs, selfapp, [A, Imp(A, A)], [{}], fuel=50)
        # one connective comparison at A => A, one congruence comparison
        # of A with A => A
        assert v.ok and v.checked == 2 and v.unknown == 0

    def test_selfapp_with_bottom_interpretation_fails(self, selfapp):
        A = Atom("A")
        vs = const_structure(B2, BOT)
        v = check_inductive(vs, selfapp, [A, Imp(A, A)], [{}], fuel=50)
        assert v.status == "fail"
        ((tag, a, b, env, va, vb),) = v.failures
        assert (tag, a, b, env) == ("congruence", A, Imp(A, A), {})
        assert {va, vb} == {BOT, B2.imp(BOT, BOT)}

    def test_empty_universe_rejected(self):
        vs = const_structure(B2, TOP2)
        with pytest.raises(InterpretError):
            check_model(inductive(vs, ()), [pp("!x. Q(x)")], [{}], B2,
                        Theory(signature=SIG), ())


class TestModel2:
    def _props(self):
        return [pp("P"), pp("Q(x)"), pp("Q(c)"), pp("Q(d)"), pp("P => Q(x)"),
                pp("!x. Q(x)")]

    def test_inductive_interpretation_passes(self):
        vs = random_structure(3)
        envs = [{}, {"x": Fun("c")}, {"x": Fun("d")}]
        report = check_model(inductive(vs), self._props(), envs, B2, Theory(signature=SIG),
                             UNIVERSE)
        assert report.ok, report.summary()
        assert report.checked > 0

    def test_arbitrary_implication_entry_fails_connectives(self):
        value = inductive(const_structure(B2, TOP2))
        broken_at = (pp("P => Q(x)"), {})

        def broken(p, env):
            return BOT if (p, env) == broken_at else value(p, env)

        report = check_model(broken, self._props(), [{}], B2, Theory(signature=SIG), UNIVERSE)
        assert report.status == "fail"
        assert [f[:3] for f in report.failures] == [("connectives", pp("P => Q(x)"), {})]

    def test_substitution_agrees_with_check_lsub(self):
        vs = table_structure({("Q", (C,)): TOP2}, BOT)
        p, env = pp("Q(x)"), {"y": C}
        assert check_lsub(vs, p, "x", Var("y"), env, SUBST_UNIVERSE)
        report = check_model(inductive(vs, SUBST_UNIVERSE), [p], [env], B2,
                             Theory(signature=SIG), SUBST_UNIVERSE)
        assert report.ok, report.failures

    @settings(max_examples=80, deadline=None)
    @given(st.lists(props(max_leaves=4), min_size=1, max_size=3), st.integers(0, 2**16))
    def test_inductive_interpretation_is_a_model(self, ps, seed):
        vs = random_structure(seed)
        report = check_model(inductive(vs, SUBST_UNIVERSE), ps, [{}, {"y": C}], B2,
                             Theory(signature=SIG), SUBST_UNIVERSE)
        assert report.ok, report.failures

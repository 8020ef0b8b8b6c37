import random

import pytest
from hypothesis import given, settings

import hypothesis.strategies as st
from mdm.rewriting import Theory
from mdm.semantics import (
    InterpretError, check_algebra_laws, check_model, interpret, powerset_algebra,
)
from mdm.syntax import Atom, Fun, Imp, Signature, Var, parse_prop
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


def const_pred(value):
    return lambda name, args: value


def table_pred(table, default):
    return lambda name, args: table.get((name, args), default)


def inductive(pred, term_universe=UNIVERSE):
    return interpret(B2, pred, term_universe)


def random_pred(seed):
    rng = random.Random(seed)
    elems = sorted(B2.elements, key=sorted)
    cache = {}

    def pred(name, args):
        if (name, args) not in cache:
            cache[name, args] = rng.choice(elems)
        return cache[name, args]

    return pred


class TestPowersetAlgebra:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_laws_exhaustive(self, n):
        v = check_algebra_laws(powerset_algebra(n))
        assert v.ok and v.checked > 0, v.failures

    def test_law_failures_are_counted_among_the_checked(self):
        broken = check_algebra_laws(B2.replace(glb=lambda family: BOT))
        assert broken.status == "fail"
        assert broken.checked == check_algebra_laws(B2).checked
        assert "glb not greatest for frozenset(): frozenset({0, 1}) below all members" \
            in broken.failures

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
        assert inductive(const_pred(TOP2))(pp("P"), {}) == TOP2

    def test_imp_of_equal_sides_is_top(self):
        for v in B2.elements:
            assert inductive(const_pred(v))(pp("P => P"), {}) == TOP2

    def test_forall_is_glb_over_universe(self):
        table = {("Q", (Fun("c"),)): TOP2, ("Q", (Fun("d"),)): BOT}
        assert inductive(table_pred(table, TOP2))(pp("!x. Q(x)"), {}) == BOT

    def test_env_applies_to_atom_args(self):
        value = inductive(table_pred({("Q", (Fun("c"),)): TOP2}, BOT))
        assert value(pp("Q(x)"), {"x": Fun("c")}) == TOP2
        assert value(pp("Q(x)"), {"x": Fun("d")}) == BOT

    def test_alpha_invariance_and_irrelevant_env(self):
        value = inductive(table_pred({("Q", (Fun("c"),)): TOP2}, BOT))
        assert value(pp("!x. Q(x)"), {}) == value(pp("!y. Q(y)"), {"z": Fun("c")})

    def test_binder_colliding_with_env_range(self):
        # env sends y to a term mentioning x; the bound x must not capture it
        value = inductive(table_pred({("R", (Fun("c"), Var("x"))): TOP2}, BOT), (Fun("c"),))
        assert value(pp("!x. R(x, y)"), {"y": Var("x")}) == TOP2

    def test_empty_universe_rejected(self):
        with pytest.raises(InterpretError):
            inductive(const_pred(TOP2), ())(pp("!x. Q(x)"), {})

    def test_family_not_admissible_raises(self):
        singletons = B2.replace(admits=lambda family: len(family) <= 1)
        value = interpret(singletons, table_pred({("Q", (Fun("c"),)): TOP2}, BOT), UNIVERSE)
        assert value(pp("Q(c) => Q(d)"), {}) == BOT
        with pytest.raises(InterpretError, match="not admissible"):
            value(pp("!x. Q(x)"), {})


def substitution_check(value, p, env, term_universe=UNIVERSE):
    """check_model on p alone under env: its substitution condition, one
    comparison per free or environment variable x and term t of the
    universe, and for a connective also the connective condition."""
    return check_model(value, [p], [env], B2, Theory(signature=SIG), term_universe)


class TestLsub:
    def test_atomic(self):
        v = substitution_check(inductive(const_pred(TOP2)), pp("Q(x)"), {})
        assert v.ok and v.checked == len(UNIVERSE)

    def test_quantified(self):
        # substituting y for x under !y renames the binder
        universe = UNIVERSE + (Var("y"),)
        rng = random.Random(7)
        elems = sorted(B2.elements, key=sorted)
        table = {("R", (s, t)): rng.choice(elems) for s in universe for t in universe}
        value = inductive(table_pred(table, BOT), universe)
        p = pp("!y. R(x, y)")
        assert value(pp("!z. R(y, z)"), {}) == value(p, {"x": Var("y")})
        v = substitution_check(value, p, {}, universe)
        assert v.ok, v.failures
        assert v.checked == 1 + len(universe)  # the connective, then x := each term

    def test_variable_not_free(self):
        # the environment binds x, which is not free in P: each substitution
        # is vacuous, and both sides are the value of P
        v = substitution_check(inductive(const_pred(TOP2)), pp("P"), {"x": Fun("d")})
        assert v.ok and v.checked == len(UNIVERSE)

    @settings(max_examples=60, deadline=None)
    @given(props(max_leaves=5), st.booleans(), st.integers(0, 2**16))
    def test_lsub_random_structures(self, p, with_env, seed):
        # variables among the terms t, under an environment that binds y
        universe = UNIVERSE + (Var("x"), Var("y"))
        env = {"y": Fun("d")} if with_env else {}
        v = substitution_check(inductive(random_pred(seed), universe), p, env, universe)
        assert v.ok, v.failures


def check_inductive(pred, theory, props, envs, fuel=10_000):
    return check_model(inductive(pred), props, envs, B2, theory, UNIVERSE, fuel)


class TestInductiveModel:
    def test_empty_theory_always_passes(self, empty_theory):
        sig = empty_theory.signature
        samples = [parse_prop("P", sig), parse_prop("Q", sig),
                   parse_prop("P => Q", sig)]
        v = check_inductive(const_pred(TOP2), empty_theory, samples, [{}])
        assert v.ok, v.summary()

    def test_selfapp_with_top_interpretation(self, selfapp):
        A = Atom("A")
        v = check_inductive(const_pred(TOP2), selfapp, [A, Imp(A, A)], [{}], fuel=50)
        # one connective comparison at A => A, one congruence comparison
        # of A with A => A
        assert v.ok and v.checked == 2 and v.unknown == 0

    def test_selfapp_with_bottom_interpretation_fails(self, selfapp):
        A = Atom("A")
        v = check_inductive(const_pred(BOT), selfapp, [A, Imp(A, A)], [{}], fuel=50)
        assert v.status == "fail"
        ((tag, a, b, env, va, vb),) = v.failures
        assert (tag, a, b, env) == ("congruence", A, Imp(A, A), {})
        assert {va, vb} == {BOT, B2.imp(BOT, BOT)}

    def test_empty_universe_rejected(self):
        with pytest.raises(InterpretError):
            check_model(inductive(const_pred(TOP2), ()), [pp("!x. Q(x)")], [{}], B2,
                        Theory(signature=SIG), ())

    def test_family_not_admissible_is_a_failure(self):
        # R(c) and R(d) differ, so the family of !x. R(x) has two members,
        # and the algebra admits no family of more than one; the check
        # records each comparison that meets it and goes on
        singletons = B2.replace(admits=lambda family: len(family) <= 1)
        value = interpret(singletons, table_pred({("R", (C,)): frozenset({0})}, BOT), UNIVERSE)
        sig = Signature(functions=(("c", 0), ("d", 0)), predicates=(("P", 0), ("R", 1)))
        p = parse_prop("!x. R(x)", sig)
        v = check_model(value, [p, Imp(Atom("P"), p)], [{}], singletons,
                        Theory(signature=sig), UNIVERSE)
        raised = "quantifier family not admissible for !x. R(x)"
        assert v.status == "fail" and v.checked == 2
        assert v.failures == (("connectives", p, {}, raised, "family not admissible"),
                              ("connectives", Imp(Atom("P"), p), {}, raised, raised))


class TestModel2:
    def _props(self):
        return [pp("P"), pp("Q(x)"), pp("Q(c)"), pp("Q(d)"), pp("P => Q(x)"),
                pp("!x. Q(x)")]

    def test_inductive_interpretation_passes(self):
        envs = [{}, {"x": Fun("c")}, {"x": Fun("d")}]
        report = check_model(inductive(random_pred(3)), self._props(), envs, B2,
                             Theory(signature=SIG), UNIVERSE)
        assert report.ok, report.summary()
        assert report.checked > 0

    def test_arbitrary_implication_entry_fails_connectives(self):
        value = inductive(const_pred(TOP2))
        broken_at = (pp("P => Q(x)"), {})

        def broken(p, env):
            return BOT if (p, env) == broken_at else value(p, env)

        report = check_model(broken, self._props(), [{}], B2, Theory(signature=SIG), UNIVERSE)
        assert report.status == "fail"
        assert [f[:3] for f in report.failures] == [("connectives", pp("P => Q(x)"), {})]

    def test_substitution_sends_x_to_the_value_of_t(self):
        value = inductive(table_pred({("Q", (C,)): TOP2}, BOT), SUBST_UNIVERSE)
        p, env = pp("Q(x)"), {"y": C}
        # Q(y) under y := c reads Q(c), and so does Q(x) under x := c, the
        # value of y; sending x to the term y itself reads Q(y) instead
        assert value(pp("Q(y)"), env) == value(p, {**env, "x": C}) == TOP2
        assert value(p, {**env, "x": Var("y")}) == BOT
        report = check_model(value, [p], [env], B2, Theory(signature=SIG), SUBST_UNIVERSE)
        assert report.ok, report.failures

    @settings(max_examples=80, deadline=None)
    @given(st.lists(props(max_leaves=4), min_size=1, max_size=3), st.integers(0, 2**16))
    def test_inductive_interpretation_is_a_model(self, ps, seed):
        report = check_model(inductive(random_pred(seed), SUBST_UNIVERSE), ps, [{}, {"y": C}],
                             B2, Theory(signature=SIG), SUBST_UNIVERSE)
        assert report.ok, report.failures

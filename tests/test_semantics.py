import random

import pytest
from hypothesis import given, settings

import hypothesis.strategies as st
from mdm.rewriting import Theory
from mdm.semantics import (
    InterpretationTable, InterpretError, check_algebra_laws,
    check_lsub, check_model, env_key, interpret,
    powerset_algebra, table_from_inductive, tabulated_preds, ValuedStructure,
)
from mdm.syntax import Atom, Fun, Imp, Var, parse_prop
from strats import SIG, props

B2 = powerset_algebra(2)
TOP2 = frozenset({0, 1})
BOT = frozenset()
UNIVERSE = (Fun("c"), Fun("d"))


def pp(s):
    return parse_prop(s, SIG)


def const_structure(alg, value):
    return ValuedStructure(alg, lambda name, args: value)


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
        vs = ValuedStructure(B2, tabulated_preds(table, TOP2))
        assert interpret(vs, pp("!x. Q(x)"), {}, UNIVERSE) == BOT

    def test_env_applies_to_atom_args(self):
        table = {("Q", (Fun("c"),)): TOP2}
        vs = ValuedStructure(B2, tabulated_preds(table, BOT))
        assert interpret(vs, pp("Q(x)"), {"x": Fun("c")}, UNIVERSE) == TOP2
        assert interpret(vs, pp("Q(x)"), {"x": Fun("d")}, UNIVERSE) == BOT

    def test_alpha_invariance_and_irrelevant_env(self):
        table = {("Q", (Fun("c"),)): TOP2}
        vs = ValuedStructure(B2, tabulated_preds(table, BOT))
        a = interpret(vs, pp("!x. Q(x)"), {}, UNIVERSE)
        b = interpret(vs, pp("!y. Q(y)"), {"z": Fun("c")}, UNIVERSE)
        assert a == b

    def test_binder_colliding_with_env_range(self):
        # env sends y to a term mentioning x; the bound x must not capture it
        table = {("R", (Fun("c"), Var("x"))): TOP2}
        vs = ValuedStructure(B2, tabulated_preds(table, BOT))
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
        vs = ValuedStructure(B2, tabulated_preds(table, BOT))
        assert check_lsub(vs, pp("!y. R(x, y)"), "x", Fun("c"), {}, UNIVERSE)

    def test_variable_not_free(self):
        vs = const_structure(B2, TOP2)
        assert check_lsub(vs, pp("P"), "x", Fun("c"), {}, UNIVERSE)

    @settings(max_examples=60, deadline=None)
    @given(props(max_leaves=5), st.sampled_from(["x", "y", "z"]),
           st.sampled_from(UNIVERSE + (Var("x"), Var("y"))), st.integers(0, 2**16))
    def test_lsub_random_structures(self, p, x, t, seed):
        rng = random.Random(seed)
        elems = sorted(B2.elements, key=sorted)
        cache = {}

        def pred(name, args):
            key = (name, args)
            if key not in cache:
                cache[key] = rng.choice(elems)
            return cache[key]

        vs = ValuedStructure(B2, pred)
        env = {"y": Fun("d")} if x != "y" else {}
        assert check_lsub(vs, p, x, t, env, UNIVERSE)


def check_inductive(vs, theory, props, envs, fuel=10_000):
    tab = table_from_inductive(vs, props, envs, UNIVERSE)
    return check_model(tab, vs.algebra, theory, UNIVERSE, fuel)


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


class TestModel2:
    def _props(self):
        return [pp("P"), pp("Q(x)"), pp("Q(c)"), pp("Q(d)"), pp("P => Q(x)"),
                pp("!x. Q(x)")]

    def test_table_from_inductive_passes(self, empty_theory):
        rng = random.Random(3)
        elems = sorted(B2.elements, key=sorted)
        cache = {}

        def pred(name, args):
            return cache.setdefault((name, args), rng.choice(elems))

        vs = ValuedStructure(B2, pred)
        envs = [{}, {"x": Fun("c")}, {"x": Fun("d")}]
        tab = table_from_inductive(vs, self._props(), envs, UNIVERSE)
        report = check_model(tab, B2, Theory(signature=SIG), UNIVERSE)
        assert report.ok, report.summary()
        assert report.checked > 0

    def test_arbitrary_implication_entry_fails_connectives(self):
        vs = const_structure(B2, TOP2)
        envs = [{}]
        tab = table_from_inductive(vs, self._props(), envs, UNIVERSE)
        broken = dict(tab.entries)
        broken[(pp("P => Q(x)"), env_key({}))] = BOT
        tab2 = InterpretationTable(broken, tab.props, tab.envs, tab.default)
        report = check_model(tab2, B2, Theory(signature=SIG), UNIVERSE)
        assert report.status == "fail"
        assert [f[:3] for f in report.failures] == [("connectives", pp("P => Q(x)"), {})]

    def test_lookup_without_default_raises(self):
        tab = InterpretationTable({}, (), (), None)
        with pytest.raises(InterpretError):
            tab.lookup(pp("P"), {})

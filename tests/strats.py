"""Shared hypothesis strategies over a fixed test signature."""
import hypothesis.strategies as st

from mdm.syntax import (
    CURRY, Atom, Forall, Fun, Imp, PApp, PLam, PVar, Signature, TApp, TLam,
    Var,
)

SIG = Signature(
    functions=(("c", 0), ("d", 0), ("f", 1), ("g", 2)),
    predicates=(("P", 0), ("Q", 1), ("R", 2)),
)

TERM_VARS = ["x", "y", "z"]
PROOF_VARS = ["a", "b", "e"]


def terms(max_size=4):
    base = st.sampled_from([Var(v) for v in TERM_VARS] + [Fun("c"), Fun("d")])
    return st.recursive(
        base,
        lambda sub: st.one_of(
            st.builds(lambda t: Fun("f", (t,)), sub),
            st.builds(lambda s, t: Fun("g", (s, t)), sub, sub),
        ),
        max_leaves=max_size,
    )


def atoms(max_size=4):
    return st.one_of(
        st.just(Atom("P")),
        st.builds(lambda t: Atom("Q", (t,)), terms(max_size)),
        st.builds(lambda s, t: Atom("R", (s, t)), terms(max_size), terms(max_size)),
    )


def props(max_leaves=6):
    return st.recursive(
        atoms(),
        lambda sub: st.one_of(
            st.builds(Imp, sub, sub),
            st.builds(Forall, st.sampled_from(TERM_VARS), sub),
        ),
        max_leaves=max_leaves,
    )


def proofs(style=CURRY, max_leaves=6):
    base = st.sampled_from([PVar(a) for a in PROOF_VARS])
    if style == CURRY:
        def extend(sub):
            return st.one_of(
                st.builds(PLam, st.sampled_from(PROOF_VARS), sub),
                st.builds(PApp, sub, sub),
            )
    else:
        def extend(sub):
            return st.one_of(
                st.builds(PLam, st.sampled_from(PROOF_VARS), sub),
                st.builds(PApp, sub, sub),
                st.builds(TLam, st.sampled_from(TERM_VARS), sub),
                st.builds(TApp, sub, terms(3)),
            )
    return st.recursive(base, extend, max_leaves=max_leaves)

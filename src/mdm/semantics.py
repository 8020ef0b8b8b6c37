"""Pre-Heyting algebras, valued structures, and model checking.

An interpretation is any function `value(p, env)` from a proposition and
an environment to an algebra element (or, for the candidate checks of
`candidates.adequacy_check`, to a set of proof-terms).  Being a model is
three separately checkable conditions: adapted to the connectives, the
substitution property, and adapted to the congruence.  `check_model`
checks all three on a sample of propositions and environments and returns
one `Verdict` whose failures are tagged with the condition they break.

The first two conditions are each stated once.  `_connective` gives the
value of an implication (the algebra's arrow of its two sides) or a
quantifier (the greatest lower bound of its body's family over the term
universe) from the values of its parts; the inductive interpretation
(`interpret`) is built from it, and `check_model` compares against it.
`_substituted` gives the two sides of the substitution property,
[[(t/x)A]]env = [[A]](env + <x, [[t]]env>); `check_lsub` and
`check_model` both compare them.

The term model is always the set of terms itself; environments are
substitutions.  Every quantifier is evaluated over a caller-supplied
finite term universe, which is the single global finitization and is
recorded in each verdict.
"""
from __future__ import annotations

import itertools

from .rewriting import Theory, Unknown, Yes, congruent
from .syntax import (
    Atom, Forall, Imp, Proposition, Record, Term, apply_term_subst, free_term_vars,
    open_forall, print_prop, subst_term_in_prop,
)
from .verdict import Verdict


class InterpretError(ValueError):
    pass


class PreHeytingAlgebra(Record):
    """Pre-ordered domain with an arrow operation and an infinitary
    greatest lower bound over an admissible family of subsets.  `glb`
    maps a frozenset of elements to an element, and `admits` says which
    families have one (by default, every family).

    `elements` may be None for algebras whose domain is not enumerated
    (then the exhaustive law checker is unavailable).
    """

    __slots__ = _fields = ("leq", "imp", "glb", "elements", "admits", "name")
    _defaults = {"elements": None, "admits": lambda family: True, "name": ""}


def powerset_algebra(n: int) -> PreHeytingAlgebra:
    """Subsets of an n-element base, ordered by inclusion; the arrow is
    material implication and the glb is intersection (the empty family
    meets to the full set)."""
    if not 1 <= n <= 5:
        raise ValueError("powerset algebra supported for 1 <= n <= 5")
    base = frozenset(range(n))
    elements = frozenset(frozenset(s) for r in range(n + 1)
                         for s in itertools.combinations(base, r))

    def glb(family):
        family = frozenset(family)
        if not family:
            return base
        out = base
        for a in family:
            out &= a
        return out

    return PreHeytingAlgebra(
        leq=lambda a, b: a <= b,
        imp=lambda a, b: (base - a) | b,
        glb=glb,
        elements=elements,
        name=f"powerset:{n}",
    )


def check_algebra_laws(alg: PreHeytingAlgebra) -> list:
    """Exhaustive law check; returns a list of violation descriptions."""
    if alg.elements is None:
        raise InterpretError("algebra domain is not enumerated")
    elems = sorted(alg.elements, key=repr)
    out = []
    for a in elems:
        if not alg.leq(a, a):
            out.append(f"reflexivity fails at {a!r}")
    for a, b, c in itertools.product(elems, repeat=3):
        if alg.leq(a, b) and alg.leq(b, c) and not alg.leq(a, c):
            out.append(f"transitivity fails at {a!r}, {b!r}, {c!r}")
    subsets = [frozenset(s) for r in range(len(elems) + 1)
               for s in itertools.combinations(elems, r)]
    for a in elems:
        for s in subsets:
            fam = frozenset(alg.imp(a, b) for b in s)
            if not all(x in alg.elements for x in fam):
                out.append(f"arrow leaves the domain at {a!r} over {s!r}")
            if not alg.admits(fam):
                out.append(f"arrow image of admissible family not admissible at {a!r}")
    for s in subsets:
        g = alg.glb(s)
        if g not in alg.elements:
            out.append(f"glb leaves the domain at {s!r}")
            continue
        for x in s:
            if not alg.leq(g, x):
                out.append(f"glb not a lower bound of {s!r} at {x!r}")
        for l in elems:
            if all(alg.leq(l, x) for x in s) and not alg.leq(l, g):
                out.append(f"glb not greatest for {s!r}: {l!r} below all members")
    return out


# ---------------------------------------------------------------------------
# Valued structures and the inductive interpretation

class ValuedStructure(Record):
    """Structure over the syntactic term model: function symbols interpret
    themselves and predicates map argument tuples to algebra elements
    (`pred_interp` takes a name and a tuple of Terms)."""

    __slots__ = _fields = ("algebra", "pred_interp")


Environment = dict  # term-variable name -> Term


def _connective(alg: PreHeytingAlgebra, p: Proposition, env: Environment, value,
                term_universe):
    """The value of the `Imp` or `Forall` p under env, from `value` at its
    parts: the arrow of its two sides, or the glb of its body's family over
    term_universe; None when that family is not admissible."""
    if isinstance(p, Imp):
        return alg.imp(value(p.left, env), value(p.right, env))
    if not term_universe:
        raise InterpretError("term universe must be non-empty")
    v, body = open_forall(p, set(env).union(*map(free_term_vars, env.values())))
    family = frozenset(value(body, {**env, v: e}) for e in term_universe)
    return alg.glb(family) if alg.admits(family) else None


def _substituted(value, p: Proposition, x: str, t: Term, env: Environment):
    """The two sides of the substitution property at p: the value of p
    with t for x, and the value of p with x sent to t's value under env."""
    return (value(subst_term_in_prop(p, x, t), env),
            value(p, {**env, x: apply_term_subst(t, env)}))


def interpret(vs: ValuedStructure, p: Proposition, env: Environment, term_universe):
    """Inductive interpretation; quantifiers range over term_universe."""
    if isinstance(p, Atom):
        return vs.pred_interp(p.pred, tuple(apply_term_subst(a, env) for a in p.args))
    out = _connective(vs.algebra, p, env,
                      lambda q, e: interpret(vs, q, e, term_universe), term_universe)
    if out is None:
        raise InterpretError(f"quantifier family not admissible for {print_prop(p)}")
    return out


def check_lsub(vs: ValuedStructure, p: Proposition, x: str, t: Term,
               env: Environment, term_universe) -> bool:
    """Substitution property of the inductive interpretation: substituting
    in the proposition agrees with extending the environment."""
    lhs, rhs = _substituted(lambda q, e: interpret(vs, q, e, term_universe), p, x, t, env)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Model checking

def check_model(value, props, envs, alg: PreHeytingAlgebra, theory: Theory,
                term_universe, fuel: int = 10_000) -> Verdict:
    """Check the three model conditions of the interpretation `value(p,
    env)` on props x envs.

    Each failure is tagged "connectives", "substitution" or "congruence";
    `checked` counts the comparisons made and `unknown` the proposition
    pairs whose congruence search was inconclusive, which are never
    treated as failures."""
    failures = []
    checked = 0

    def compare(tag, got, want, *where):
        nonlocal checked
        checked += 1
        if got != want:
            failures.append((tag, *where, got, want))

    for p in props:
        if isinstance(p, (Imp, Forall)):
            for env in envs:
                want = _connective(alg, p, env, value, term_universe)
                compare("connectives", value(p, env),
                        "family not admissible" if want is None else want, p, dict(env))

    for p in props:
        for env in envs:
            for x in sorted(free_term_vars(p) | set(env)):
                for t in term_universe:
                    compare("substitution", *_substituted(value, p, x, t, env),
                            p, x, t, dict(env))

    unknown = 0
    for a, b in itertools.combinations(props, 2):
        v = congruent(theory, a, b, fuel)
        if isinstance(v, Unknown):
            unknown += 1
        elif isinstance(v, Yes):
            for env in envs:
                compare("congruence", value(a, env), value(b, env), a, b, dict(env))

    return Verdict.of(failures, unknown=unknown, checked=checked, name="model")

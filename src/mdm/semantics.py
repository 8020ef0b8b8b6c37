"""Pre-Heyting algebras, valued structures, and model checking.

An interpretation is a table from (proposition, environment) pairs to
algebra elements, and being a model is three separately checkable
conditions: adapted to the connectives, the substitution property, and
adapted to the congruence.  `check_model` checks all three and returns one
`Verdict` whose failures are tagged with the condition they break.

The inductive interpretation fixes values on atoms and pushes implication
through the algebra's arrow operation and the quantifier through its
greatest lower bound (`interpret`); `table_from_inductive` tabulates it,
and that table is its one route to the model checker.

The term model is always the set of terms itself; environments are
substitutions.  Every quantifier is evaluated over a caller-supplied
finite term universe, which is the single global finitization and is
recorded in each verdict.
"""
from __future__ import annotations

import itertools
from typing import Callable

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


def tabulated_preds(table: dict, default) -> Callable:
    """Predicate interpretation from a {(name, args): element} dict."""

    def interp(name, args):
        return table.get((name, tuple(args)), default)

    return interp


Environment = dict  # term-variable name -> Term


def interpret(vs: ValuedStructure, p: Proposition, env: Environment, term_universe):
    """Inductive interpretation; quantifiers range over term_universe."""
    alg = vs.algebra
    if isinstance(p, Atom):
        return vs.pred_interp(p.pred, tuple(apply_term_subst(a, env) for a in p.args))
    if isinstance(p, Imp):
        return alg.imp(interpret(vs, p.left, env, term_universe),
                       interpret(vs, p.right, env, term_universe))
    if not term_universe:
        raise InterpretError("term universe must be non-empty")
    v, body = open_forall(p, set(env).union(*map(free_term_vars, env.values())))
    family = frozenset(interpret(vs, body, {**env, v: e}, term_universe)
                       for e in term_universe)
    if not alg.admits(family):
        raise InterpretError(f"quantifier family not admissible for {print_prop(p)}")
    return alg.glb(family)


def check_lsub(vs: ValuedStructure, p: Proposition, x: str, t: Term,
               env: Environment, term_universe) -> bool:
    """Substitution property of the inductive interpretation: substituting
    in the proposition agrees with extending the environment."""
    lhs = interpret(vs, subst_term_in_prop(p, x, t), env, term_universe)
    rhs = interpret(vs, p, {**env, x: apply_term_subst(t, env)}, term_universe)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Table-based interpretations

def env_key(env: Environment):
    return frozenset(env.items())


class InterpretationTable(Record):
    """Interpretation as raw data: values on a declared sample space of
    (proposition, environment) pairs, with a default rule for the rest.
    `entries` maps (Proposition, env_key) to an element, `envs` holds
    Environment dicts, and `default`, when not None, maps (prop, env) to
    an element."""

    __slots__ = _fields = ("entries", "props", "envs", "default")
    _defaults = {"default": None}

    def lookup(self, p: Proposition, env: Environment):
        key = (p, env_key(env))
        if key in self.entries:
            return self.entries[key]
        if self.default is None:
            raise InterpretError(f"no table entry for {print_prop(p)} under {env}")
        return self.default(p, env)


def table_from_inductive(vs: ValuedStructure, props, envs, term_universe) -> InterpretationTable:
    """The inductive interpretation tabulated on props x envs, computed by
    `interpret` off that sample space; `check_model` checks it."""
    entries = {}
    for p in props:
        for env in envs:
            entries[(p, env_key(env))] = interpret(vs, p, env, term_universe)
    return InterpretationTable(
        entries=entries, props=tuple(props), envs=tuple(dict(e) for e in envs),
        default=lambda p, env: interpret(vs, p, env, term_universe))


def check_model(tab: InterpretationTable, alg: PreHeytingAlgebra, theory: Theory,
                term_universe, fuel: int = 10_000) -> Verdict:
    """Check the three model conditions of a table-based interpretation.

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

    for p in tab.props:
        for env in tab.envs:
            got = tab.lookup(p, env)
            if isinstance(p, Imp):
                want = alg.imp(tab.lookup(p.left, env), tab.lookup(p.right, env))
                compare("connectives", got, want, p, dict(env))
            elif isinstance(p, Forall):
                v, body = open_forall(p, set(env).union(*map(free_term_vars, env.values())))
                family = frozenset(tab.lookup(body, {**env, v: t}) for t in term_universe)
                want = alg.glb(family) if alg.admits(family) else "family not admissible"
                compare("connectives", got, want, p, dict(env))

    for p in tab.props:
        for env in tab.envs:
            for x in sorted(free_term_vars(p) | set(env)):
                for t in term_universe:
                    compare("substitution", tab.lookup(subst_term_in_prop(p, x, t), env),
                            tab.lookup(p, {**env, x: t}), p, x, t, dict(env))

    unknown = 0
    for a, b in itertools.combinations(tab.props, 2):
        v = congruent(theory, a, b, fuel)
        if isinstance(v, Unknown):
            unknown += 1
        elif isinstance(v, Yes):
            for env in tab.envs:
                compare("congruence", tab.lookup(a, env), tab.lookup(b, env), a, b, dict(env))

    return Verdict.of(failures, unknown=unknown, checked=checked, name="model")

"""Pre-Heyting algebras, the inductive interpretation, and model checking.

An interpretation is any function `value(p, env)` from a proposition and
an environment to an algebra element (or, for the candidate checks of
`closure.adequacy_check`, to a set of proof-terms).  Being a model is
three separately checkable conditions: adapted to the connectives, the
substitution property, and adapted to the congruence.  `check_model`
checks all three on a sample of propositions and environments and returns
one `Verdict` whose failures are tagged with the condition they break.

`_connective` states the first condition once: it gives the value of an
implication (the algebra's arrow of its two sides) or a quantifier (the
greatest lower bound of its body's family over the term universe) from
the values of its parts.  The inductive interpretation (`interpret`) is
built from it, and `check_model` compares against it.  The substitution
property, [[(t/x)A]]env = [[A]](env + <x, [[t]]env>), is compared by
`check_model` alone, for every inductive interpretation as for any other.

The term model is always the set of terms itself; environments are
substitutions.  Every quantifier is evaluated over a caller-supplied
finite term universe, which is the single global finitization and is
recorded in each verdict.
"""
from __future__ import annotations

import itertools

from .rewriting import Theory, Unknown, Yes, congruent
from .syntax import (
    Atom, Forall, Imp, Proposition, Record, apply_term_subst, free_term_vars,
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


def check_algebra_laws(alg: PreHeytingAlgebra) -> Verdict:
    """Exhaustive law check.  `checked` counts the law instances evaluated
    and `failures` describes the ones that fail."""
    if alg.elements is None:
        raise InterpretError("algebra domain is not enumerated")
    elems = sorted(alg.elements, key=repr)
    failures = []
    checked = 0

    def law(holds, text, *at):
        nonlocal checked
        checked += 1
        if not holds:
            failures.append(text.format(*at))
        return holds

    for a in elems:
        law(alg.leq(a, a), "reflexivity fails at {!r}", a)
    for a, b, c in itertools.product(elems, repeat=3):
        law(not (alg.leq(a, b) and alg.leq(b, c)) or alg.leq(a, c),
            "transitivity fails at {!r}, {!r}, {!r}", a, b, c)
    subsets = [frozenset(s) for r in range(len(elems) + 1)
               for s in itertools.combinations(elems, r)]
    for a in elems:
        for s in subsets:
            fam = frozenset(alg.imp(a, b) for b in s)
            law(all(x in alg.elements for x in fam), "arrow leaves the domain at {!r} over {!r}", a, s)
            law(alg.admits(fam), "arrow image of admissible family not admissible at {!r}", a)
    for s in subsets:
        g = alg.glb(s)
        if not law(g in alg.elements, "glb leaves the domain at {!r}", s):
            continue
        for x in s:
            law(alg.leq(g, x), "glb not a lower bound of {!r} at {!r}", s, x)
        for l in elems:
            law(not all(alg.leq(l, x) for x in s) or alg.leq(l, g),
                "glb not greatest for {!r}: {!r} below all members", s, l)
    return Verdict.of(failures, checked=checked, name="algebra laws")


# ---------------------------------------------------------------------------
# The inductive interpretation

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


def interpret(alg: PreHeytingAlgebra, pred, term_universe):
    """The inductive interpretation over the syntactic term model, as the
    function `value(p, env)`: function symbols interpret themselves, an
    atom is `pred(name, args)` at its arguments under env, and the
    connectives are `_connective`'s, with quantifiers over term_universe.
    `value` raises InterpretError on a family that is not admissible."""
    def value(p: Proposition, env: Environment):
        if isinstance(p, Atom):
            return pred(p.pred, tuple(apply_term_subst(a, env) for a in p.args))
        out = _connective(alg, p, env, value, term_universe)
        if out is None:
            raise InterpretError(f"quantifier family not admissible for {print_prop(p)}")
        return out

    return value


# ---------------------------------------------------------------------------
# Model checking

def check_model(value, props, envs, alg: PreHeytingAlgebra, theory: Theory,
                term_universe, fuel: int = 10_000) -> Verdict:
    """Check the three model conditions of the interpretation `value(p,
    env)` on props x envs, with quantifiers over term_universe, which must
    not be empty.

    Each failure is tagged "connectives", "substitution" or "congruence";
    `checked` counts the comparisons made and `unknown` the proposition
    pairs whose congruence search was inconclusive, which are never
    treated as failures.  A comparison whose side raises InterpretError
    (as the inductive interpretation does on a family the algebra does
    not admit) fails, with the error's text in place of that side."""
    if not term_universe:
        raise InterpretError("term universe must be non-empty")
    failures = []
    checked = 0

    def compare(tag, got, want, *where):
        nonlocal checked
        checked += 1
        if got != want:  # an InterpretError equals nothing but itself
            failures.append((tag, *where, _shown(got), _shown(want)))

    for p in props:
        if isinstance(p, (Imp, Forall)):
            for env in envs:
                want = _attempt(_connective, alg, p, env, value, term_universe)
                compare("connectives", _attempt(value, p, env),
                        "family not admissible" if want is None else want, p, dict(env))

    for p in props:
        for env in envs:
            for x in sorted(free_term_vars(p) | set(env)):
                for t in term_universe:
                    compare("substitution", _attempt(value, subst_term_in_prop(p, x, t), env),
                            _attempt(value, p, {**env, x: apply_term_subst(t, env)}),
                            p, x, t, dict(env))

    unknown = 0
    for a, b in itertools.combinations(props, 2):
        v = congruent(theory, a, b, fuel)
        if isinstance(v, Unknown):
            unknown += 1
        elif isinstance(v, Yes):
            for env in envs:
                compare("congruence", _attempt(value, a, env), _attempt(value, b, env),
                        a, b, dict(env))

    return Verdict.of(failures, unknown=unknown, checked=checked, name="model")


def _attempt(f, *args):
    """f(*args), or the InterpretError it raises."""
    try:
        return f(*args)
    except InterpretError as e:
        return e


def _shown(side):
    """A compared side as a failure records it: an InterpretError by its
    text."""
    return str(side) if isinstance(side, InterpretError) else side

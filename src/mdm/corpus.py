"""Random well-typed derivations and bounded exhaustive enumeration.

The generator works top-down from a target proposition, picking rules the
target can conclude and recursing on the premises; every move keeps the
side conditions true by construction, so the output re-checks.  All
randomness goes through an explicit seed.
"""
from __future__ import annotations

import itertools
import random

from .rewriting import Theory, Yes, congruent
from .syntax import (
    CURRY, Atom, Forall, Fun, Imp, Proposition, Term, Var, free_term_vars,
    fresh_name, is_normal, open_forall, size, subst_term_in_prop,
)
from .typecheck import Context, axiom, forall_elim, forall_intro, imp_elim, imp_intro


def ground_terms(theory: Theory):
    """Up to three closed terms over the signature (variables as fallback)."""
    sig = theory.signature
    consts = [Fun(n) for n, k in sig.functions if k == 0]
    out = list(consts[:3])
    for n, k in sig.functions:
        if k == 1 and consts:
            out.append(Fun(n, (consts[0],)))
        if len(out) >= 3:
            break
    if not out:
        out = [Var("u0")]
    return out[:3]


def base_context(theory: Theory) -> Context:
    """Up to three hypotheses over small ground atoms and rule sides, for
    generation."""
    props = []
    terms = ground_terms(theory)
    for name, k in theory.signature.predicates:
        if k == 0:
            props.append(Atom(name))
        else:
            args = tuple(terms[i % len(terms)] for i in range(k))
            props.append(Atom(name, args))
    for r in theory.prop_rules:
        if r.lhs not in props:
            props.append(r.lhs)
    entries = tuple((f"n{i}", p) for i, p in enumerate(props[:3]))
    return Context(entries)


def _generalize(p: Proposition, t: Term, x: str) -> Proposition:
    """Replace every occurrence of the term t in atom arguments by x."""

    def in_term(u):
        if u == t:
            return Var(x)
        if isinstance(u, Fun):
            return Fun(u.name, tuple(in_term(a) for a in u.args))
        return u

    if isinstance(p, Atom):
        return Atom(p.pred, tuple(in_term(a) for a in p.args))
    if isinstance(p, Imp):
        return Imp(_generalize(p.left, t, x), _generalize(p.right, t, x))
    return Forall(p.var, _generalize(p.body, t, x))


class DerivationGenerator:
    def __init__(self, theory: Theory, style: str = CURRY, seed: int = 0,
                 fuel: int = 60, max_depth: int = 4):
        self.theory = theory
        self.style = style
        self.rng = random.Random(seed)
        self.fuel = fuel
        self.max_depth = max_depth
        self.terms = ground_terms(theory)

    def _congruent(self, a, b):
        return isinstance(congruent(self.theory, a, b, self.fuel), Yes)

    def _axiom(self, ctx: Context, target: Proposition):
        hyps = [n for n, p in ctx if self._congruent(p, target)]
        if not hyps:
            return None
        return axiom(ctx, self.rng.choice(hyps), prop=target, style=self.style)

    def _prop_pool(self, ctx: Context, target: Proposition):
        pool = [p for _, p in ctx]
        if isinstance(target, Imp):
            pool.extend((target.left, target.right))
        return pool

    def generate(self, ctx: Context, target: Proposition, depth: int | None = None):
        """A derivation of ctx |- ? : target, or None if the budget ran out."""
        if depth is None:
            depth = self.max_depth
        if depth <= 0:
            return self._axiom(ctx, target)
        moves = ["axiom", "imp_elim", "redex"]
        if isinstance(target, Imp):
            moves.extend(["imp_intro", "imp_intro"])
        if isinstance(target, Forall):
            moves.extend(["forall_intro", "forall_intro"])
        if isinstance(target, Atom) or depth >= 2:
            moves.append("forall_elim")
        self.rng.shuffle(moves)
        moves.append("axiom")  # final fallback
        for move in moves:
            d = getattr(self, f"_move_{move}")(ctx, target, depth)
            if d is not None:
                return d
        return None

    def _move_axiom(self, ctx, target, depth):
        return self._axiom(ctx, target)

    def _move_imp_intro(self, ctx, target, depth):
        if not isinstance(target, Imp):
            return None
        name = fresh_name("p", set(ctx.names()))
        prem = self.generate(ctx.extend(name, target.left), target.right, depth - 1)
        if prem is None:
            return None
        return imp_intro(prem, prop=target)

    def _move_imp_elim(self, ctx, target, depth):
        pool = self._prop_pool(ctx, target)
        if not pool:
            return None
        a = self.rng.choice(pool)
        left = self.generate(ctx, Imp(a, target), depth - 1)
        if left is None:
            return None
        right = self.generate(ctx, a, depth - 1)
        if right is None:
            return None
        return imp_elim(left, right, b=target)

    def _move_redex(self, ctx, target, depth):
        """Introduce and immediately eliminate: subject gains a beta-redex."""
        pool = self._prop_pool(ctx, target)
        if not pool or depth < 2:
            return None
        a = self.rng.choice(pool)
        name = fresh_name("p", set(ctx.names()))
        body = self.generate(ctx.extend(name, a), target, depth - 1)
        if body is None:
            return None
        arg = self.generate(ctx, a, depth - 1)
        if arg is None:
            return None
        return imp_elim(imp_intro(body, prop=Imp(a, target)), arg, b=target)

    def _move_forall_intro(self, ctx, target, depth):
        if not isinstance(target, Forall):
            return None
        x, body = open_forall(target, ctx.free_term_vars())
        prem = self.generate(ctx, body, depth - 1)
        if prem is None:
            return None
        return forall_intro(prem, x, prop=target)

    def _move_forall_elim(self, ctx, target, depth):
        if depth < 2:
            return None
        x = fresh_name("x", free_term_vars(target) | ctx.free_term_vars())
        candidates = [t for t in self.terms] or [Var("u0")]
        t = self.rng.choice(candidates)
        if self.rng.random() < 0.7:
            body = _generalize(target, t, x)
        else:
            body = target  # vacuous generalization
        prem = self.generate(ctx, Forall(x, body), depth - 1)
        if prem is None:
            return None
        return forall_elim(prem, x, body, t, prop=target)


def generate_corpus(theory: Theory, style: str, count: int, seed: int,
                    fuel: int = 60, require_redex: bool = False):
    """Deterministic corpus of well-typed derivations of depth at most 4
    with subjects of size at most 10."""
    gen = DerivationGenerator(theory, style, seed, fuel, 4)
    ctx = base_context(theory)
    targets = [p for _, p in ctx]
    targets += [Imp(a, b) for a in targets[:2] for b in targets[:2]]
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        target = gen.rng.choice(targets)
        d = gen.generate(ctx, target)
        if d is None or size(d.subject) > 10:
            continue
        if require_redex and is_normal(d.subject):
            continue
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# Bounded exhaustive enumeration.  Conclusions are built syntactically
# (exact up to alpha), which enumerates every derivation shape when the
# congruence is trivial; with rewrite rules, congruent retypings of each
# conclusion over the proposition pool are added.

def enumerate_derivations(theory: Theory, ctx: Context, props, terms,
                          style: str, depth: int, fuel: int = 50):
    """All checkable derivations over ctx of height <= depth (deduplicated
    by conclusion and subject)."""
    trivial = not theory.rules

    def conclusions(p):
        if trivial:
            return [p]
        out = [p]
        for q in props:
            if q != p and isinstance(congruent(theory, p, q, fuel), Yes):
                out.append(q)
        return out

    memo = {}

    def enum(ctx_now: Context, d: int):
        key = (ctx_now, d)
        if key in memo:
            return memo[key]
        found = {}

        def add(deriv):
            k = (deriv.rule, deriv.subject, deriv.prop)
            if k not in found:
                found[k] = deriv

        for name, p in ctx_now:
            for c in conclusions(p):
                add(axiom(ctx_now, name, prop=c, style=style))
        if d > 1:
            below = enum(ctx_now, d - 1)
            for a in props:
                ext = ctx_now.extend(fresh_name("q", set(ctx_now.names())), a)
                for prem in enum(ext, d - 1):
                    for c in conclusions(Imp(a, prem.prop)):
                        add(imp_intro(prem, prop=c))
            for left, right in itertools.product(below, repeat=2):
                lp = left.prop
                if isinstance(lp, Imp) and lp.left == right.prop:
                    for c in conclusions(lp.right):
                        add(imp_elim(left, right, b=lp.right, prop=c))
            fv = ctx_now.free_term_vars()
            for prem in below:
                for x in ("x", "y"):
                    if x in fv:
                        continue
                    for c in conclusions(Forall(x, prem.prop)):
                        add(forall_intro(prem, x, prop=c))
            for prem in below:
                if isinstance(prem.prop, Forall):
                    f = prem.prop
                    for t in terms:
                        inst = subst_term_in_prop(f.body, f.var, t)
                        for c in conclusions(inst):
                            add(forall_elim(prem, f.var, f.body, t, prop=c))
        memo[key] = list(found.values())
        return memo[key]

    return enum(ctx, depth)

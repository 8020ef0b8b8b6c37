"""Rewrite rules, the congruence they generate, and confusion detection.

A theory is a signature plus a finite set of rewrite rules between
propositions (and optionally between terms).  The congruence is the
least equivalence containing every rule instance and closed under the
function, predicate, implication and quantifier constructors, so a rule
counts in both directions whatever its arrow.  One walker matches,
steps and normalizes terms and propositions alike; a rule rewrites only
expressions of its own sort.  Normal forms read each rule in the
direction that shrinks it, so `A --> A => A` takes `A => A` to `A`.
When the rules so read are convergent (`Theory.convergent`), two
propositions with different normal forms are not congruent, and that
`No` is returned without a search (Dowek, Hardin & Kirchner, "Theorem
proving modulo", JAR 2003; Knuth & Bendix 1970).  Other pairs are
searched by bounded bidirectional breadth-first rewriting.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property

from .syntax import (
    Atom, Forall, Fun, Imp, Proposition, Signature, Term, Var,
    apply_prop_subst, apply_term_subst, check_prop_wf, check_term_wf,
    ParseError, _Parser, canon, free_term_vars, fresh_name, is_identifier, print_prop,
    print_term, size,
)


class TheoryError(ValueError):
    pass


@dataclass(frozen=True)
class RewriteRule:
    lhs: Proposition | Term
    rhs: Proposition | Term
    oriented: bool = True  # '-->' in the source, else '<->'; it only affects printing

    def __post_init__(self):
        lp = isinstance(self.lhs, Proposition)
        rp = isinstance(self.rhs, Proposition)
        if lp != rp:
            raise TheoryError("rule sides must both be propositions or both be terms")
        if isinstance(self.lhs, Var):
            raise TheoryError("term rule left-hand side must not be a bare variable")
        if not free_term_vars(self.rhs) <= free_term_vars(self.lhs):
            raise TheoryError("free variables of the right-hand side must occur on the left")

    @property
    def is_term_rule(self) -> bool:
        return isinstance(self.lhs, Term)

    @cached_property
    def shrinking(self) -> tuple | None:
        """(left, right): the rule read in the direction that strictly
        shrinks it, or None.  A direction shrinks when the size goes down
        and no variable occurs more often on the right than on the left,
        so every instance shrinks too."""
        for left, right in ((self.lhs, self.rhs), (self.rhs, self.lhs)):
            if size(right) < size(left) and not _var_occurrences(right) - _var_occurrences(left):
                return left, right
        return None

    def __str__(self):
        arrow = "-->" if self.oriented else "<->"
        show = print_term if self.is_term_rule else print_prop
        return f"{show(self.lhs)} {arrow} {show(self.rhs)}"


@dataclass(frozen=True, eq=False)
class Theory:
    """A signature and its rewrite rules.  Two theories are equal only when
    they are the same object, so a theory hashes in constant time as a
    cache key (`congruent`); iterate no container keyed by theories, since
    identity hashes differ between runs."""

    signature: Signature
    rules: tuple = ()
    name: str = ""

    def __post_init__(self):
        for r in self.rules:
            if r.is_term_rule:
                check_term_wf(r.lhs, self.signature)
                check_term_wf(r.rhs, self.signature)
            else:
                check_prop_wf(r.lhs, self.signature)
                check_prop_wf(r.rhs, self.signature)

    @cached_property
    def term_rules(self) -> tuple:
        return tuple(r for r in self.rules if r.is_term_rule)

    @cached_property
    def prop_rules(self) -> tuple:
        return tuple(r for r in self.rules if not r.is_term_rule)

    def rules_for(self, x) -> tuple:
        """The rules that rewrite x: the term rules when x is a term, the
        proposition rules when it is a proposition."""
        return self.term_rules if type(x) in (Var, Fun) else self.prop_rules

    @cached_property
    def convergent(self) -> bool:
        """Whether the rules, each read in the direction that shrinks it,
        terminate and are confluent.

        A sufficient syntactic test.  Every rule shrinks in one direction
        (`RewriteRule.shrinking`), so every step shrinks the proposition
        and rewriting terminates, and every rule is quantifier-free; the
        head symbols of the shrinking left sides are pairwise distinct and
        none occurs below the root of one of them, so no two redexes
        overlap, there is no critical pair, and with termination the rules
        are confluent.  Then two propositions are congruent iff their
        normal forms are alpha-equal.
        """
        heads = []
        inner = set()
        for r in self.rules:
            if r.shrinking is None:
                return False
            left, right = r.shrinking
            lhs = list(_subexpressions(left))
            if any(isinstance(x, Forall) for x in lhs + list(_subexpressions(right))):
                return False
            heads.append(_head(left))
            inner.update(_head(x) for x in lhs[1:])
        return len(set(heads)) == len(heads) and not inner & set(heads)


def _subexpressions(x):
    """x and every term and proposition below it, root first."""
    yield x
    if isinstance(x, (Fun, Atom)):
        for a in x.args:
            yield from _subexpressions(a)
    elif isinstance(x, Imp):
        yield from _subexpressions(x.left)
        yield from _subexpressions(x.right)
    elif isinstance(x, Forall):
        yield from _subexpressions(x.body)


def _head(x):
    if isinstance(x, Fun):
        return ("fun", x.name)
    if isinstance(x, Atom):
        return ("pred", x.pred)
    if isinstance(x, Imp):
        return ("=>",)
    return None


def _var_occurrences(x) -> Counter:
    return Counter(y.name for y in _subexpressions(x) if isinstance(y, Var))


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class Yes:
    """The two sides were joined; path_length counts rewrite steps."""
    path_length: int


@dataclass(frozen=True)
class No:
    """The two sides are not congruent: their normal forms differ, or one
    congruence class was exhausted without meeting the other."""


@dataclass(frozen=True)
class Unknown:
    """No verdict: the fuel ran out, or a proposition is nested deeper than
    the interpreter's recursion limit allows to walk."""
    fuel_spent: int
    reason: str = "fuel"


CongruenceVerdict = Yes | No | Unknown


# ---------------------------------------------------------------------------
# Rewriting.  Terms and propositions go through the same three functions:
# `_match` matches a rule side, `rewrite_neighbors` takes one step and
# `normal_form` normalizes.  A rule rewrites only expressions of its own
# sort, so a term rule applies at the terms inside atoms and a proposition
# rule at propositions.  Pattern variables are the free term-variables of
# the rule side being matched.  Variables bound inside the pattern are
# renamed in lockstep with the target's binders and may not leak into a
# binding (they would escape their scope in the instance).

def _match(pat, tgt, binding: dict, protected: frozenset) -> dict | None:
    cls = type(pat)
    if cls is Var:
        if pat.name in protected:
            return binding if tgt == pat else None
        if pat.name in binding:
            return binding if binding[pat.name] == tgt else None
        if free_term_vars(tgt) & protected:
            return None
        b = dict(binding)
        b[pat.name] = tgt
        return b
    if type(tgt) is not cls:
        return None
    if cls is Imp:
        binding = _match(pat.left, tgt.left, binding, protected)
        if binding is None:
            return None
        return _match(pat.right, tgt.right, binding, protected)
    if cls is Forall:
        avoid = free_term_vars(pat.body) | free_term_vars(tgt.body) | protected | set(binding)
        v = fresh_name(pat.var, avoid)
        pbody = apply_prop_subst(pat.body, {pat.var: Var(v)})
        tbody = apply_prop_subst(tgt.body, {tgt.var: Var(v)})
        return _match(pbody, tbody, binding, protected | {v})
    # Fun or Atom: the same symbol and arity, then the arguments
    symbol_differs = pat.name != tgt.name if cls is Fun else pat.pred != tgt.pred
    if symbol_differs or len(pat.args) != len(tgt.args):
        return None
    for pa, ta in zip(pat.args, tgt.args):
        binding = _match(pa, ta, binding, protected)
        if binding is None:
            return None
    return binding


def _with_args(x, args: tuple):
    return Fun(x.name, args) if type(x) is Fun else Atom(x.pred, args)


def rewrite_neighbors(theory: Theory, x) -> frozenset:
    """All terms or propositions one symmetric rewrite step away from x.

    Steps apply at every position, in both rule directions, so the result
    is symmetric: y in neighbors(x) iff x in neighbors(y).  Root steps come
    first, in rule order, then the steps inside each child, left to right.
    """
    out = []
    for r in theory.rules_for(x):
        for lhs, rhs in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
            b = _match(lhs, x, {}, frozenset())
            if b is not None:
                out.append(apply_term_subst(rhs, b))
    cls = type(x)
    if cls is Imp:
        out.extend(Imp(l2, x.right) for l2 in rewrite_neighbors(theory, x.left))
        out.extend(Imp(x.left, r2) for r2 in rewrite_neighbors(theory, x.right))
    elif cls is Forall:
        out.extend(Forall(x.var, b2) for b2 in rewrite_neighbors(theory, x.body))
    elif cls is not Var and theory.term_rules:
        for i, a in enumerate(x.args):
            out.extend(_with_args(x, x.args[:i] + (a2,) + x.args[i + 1:])
                       for a2 in rewrite_neighbors(theory, a))
    return frozenset(out)


def normal_form(theory: Theory, x):
    """x rewritten innermost-first by each rule that shrinks one way, read
    that way, until none applies.  It terminates; the result is unique
    when `theory.convergent`."""
    if not theory.rules:
        return x
    cls = type(x)
    if cls is Imp:
        x = Imp(normal_form(theory, x.left), normal_form(theory, x.right))
    elif cls is Forall:
        x = Forall(x.var, normal_form(theory, x.body))
    elif cls is not Var and theory.term_rules:
        x = _with_args(x, tuple(normal_form(theory, a) for a in x.args))
    for r in theory.rules_for(x):
        if r.shrinking is not None:
            left, right = r.shrinking
            b = _match(left, x, {}, frozenset())
            if b is not None:
                return normal_form(theory, apply_term_subst(right, b))
    return x


# ---------------------------------------------------------------------------
# Bounded congruence decision

def congruent_ex(theory: Theory, a: Proposition, b: Proposition, fuel: int):
    """Bidirectional breadth-first closure from both sides.

    Returns (verdict, expansions_used).  Fuel counts node expansions, i.e.
    calls to rewrite_neighbors.  `No` is returned when the theory is
    convergent and the normal forms of a and b differ (with no expansion),
    or when one side's closure saturated (no unexpanded proposition left)
    without meeting the other.  Pairs with equal normal forms still go
    through the search, so every `Yes` carries its path length.
    Neighbours are expanded in `canon` order, so the work does not depend
    on set order.  A proposition too deep to walk gives `Unknown` with
    reason "depth limit".
    """
    spent = 0
    try:
        if a == b:
            return Yes(0), 0
        if theory.convergent and normal_form(theory, a) != normal_form(theory, b):
            return No(), 0
        dist = ({a: 0}, {b: 0})
        frontier = ([a], [b])
        while spent < fuel and frontier[0] and frontier[1]:
            side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
            new = []
            for p in frontier[side]:
                if spent >= fuel:
                    new.append(p)  # unexpanded: carries over, closure not saturated
                    continue
                spent += 1
                for q in sorted(rewrite_neighbors(theory, p), key=canon):
                    if q in dist[side]:
                        continue
                    dist[side][q] = dist[side][p] + 1
                    if q in dist[1 - side]:
                        return Yes(dist[side][q] + dist[1 - side][q]), spent
                    new.append(q)
            frontier = (new, frontier[1]) if side == 0 else (frontier[0], new)
    except RecursionError:
        return Unknown(spent, "depth limit"), spent
    if not frontier[0] or not frontier[1]:
        return No(), spent
    return Unknown(spent), spent


@cache
def congruent(theory: Theory, a: Proposition, b: Proposition, fuel: int) -> CongruenceVerdict:
    """Decide a == b modulo the theory, within `fuel` node expansions."""
    return congruent_ex(theory, a, b, fuel)[0]


# ---------------------------------------------------------------------------
# Proposition enumeration and confusion detection

def enumerate_terms(sig: Signature, max_size: int, variables=("x", "y")):
    """All terms of size <= max_size over the signature and the given variables."""
    by_size = {0: []}
    for n in range(1, max_size + 1):
        items = []
        if n == 1:
            items.extend(Var(v) for v in variables)
        for fname, k in sig.functions:
            if k == 0 and n == 1:
                items.append(Fun(fname))
            elif k > 0 and n >= k + 1:
                for args in _tuples_of_total_size(by_size, k, n - 1):
                    items.append(Fun(fname, args))
        by_size[n] = items
    out = []
    for n in range(1, max_size + 1):
        out.extend(by_size[n])
    return out


def _tuples_of_total_size(by_size, k, total):
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - k + 2):
        for t in by_size.get(first, []):
            for rest in _tuples_of_total_size(by_size, k - 1, total - first):
                yield (t,) + rest


def enumerate_props(sig: Signature, max_size: int, variables=("x", "y")):
    """All propositions of size <= max_size, deduplicated modulo alpha."""
    terms_by_size = {}
    for t in enumerate_terms(sig, max_size - 1, variables):
        terms_by_size.setdefault(size(t), []).append(t)
    by_size = {}
    for n in range(1, max_size + 1):
        items = []
        for pname, k in sig.predicates:
            if k == 0 and n == 1:
                items.append(Atom(pname))
            elif k > 0 and n >= k + 1:
                for args in _tuples_of_total_size(terms_by_size, k, n - 1):
                    items.append(Atom(pname, args))
        for i in range(1, n - 1):
            for l in by_size.get(i, []):
                for r in by_size.get(n - 1 - i, []):
                    items.append(Imp(l, r))
        for v in variables:
            for body in by_size.get(n - 1, []):
                items.append(Forall(v, body))
        by_size[n] = list(dict.fromkeys(items))
    # alpha-equal propositions have the same size, so the buckets are disjoint
    return [p for n in range(1, max_size + 1) for p in by_size[n]]


def detect_confusion(theory: Theory, size_bound: int, fuel: int) -> CongruenceVerdict:
    """Search for an implication congruent to a universal proposition.

    Seeds every quantifier-headed proposition of size <= size_bound and
    expands its congruence class breadth-first, pruning propositions larger
    than 2*size_bound.  Yes carries the length of the witnessing path; No
    means every class saturated (relative to the size cap) without meeting
    an implication; Unknown means fuel ran out first.

    A convergent theory gets `No` without a search: its rules have no
    quantifier, so a universal proposition's normal form keeps its head,
    and an implication's normal form never gets one.
    """
    if theory.convergent:
        return No()
    cap = 2 * size_bound
    seeds = [p for p in enumerate_props(theory.signature, size_bound) if isinstance(p, Forall)]
    spent = 0
    saturated_all = True
    for seed in seeds:
        dist = {seed: 0}
        frontier = [seed]
        saturated = False
        while frontier:
            if spent >= fuel:
                break
            p = frontier.pop(0)
            spent += 1
            for q in rewrite_neighbors(theory, p):
                if size(q) > cap or q in dist:
                    continue
                dist[q] = dist[p] + 1
                if isinstance(q, Imp):
                    return Yes(dist[q])
                frontier.append(q)
        else:
            saturated = True
        if not saturated:
            saturated_all = False
    return No() if saturated_all else Unknown(spent)


# ---------------------------------------------------------------------------
# Theory files (.mdm): line-oriented, UTF-8.
#
#   # comment
#   pred P/0.
#   fun f/1.
#   rule <prop> <-> <prop>.
#   rule <prop> --> <prop>.

def parse_theory(text: str, name: str = "") -> Theory:
    functions = []
    predicates = []
    rule_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.endswith("."):
            raise TheoryError(f"line {lineno}: missing terminating '.'")
        line = line[:-1].strip()
        if line.startswith("pred "):
            predicates.append(_parse_decl(line[5:], lineno, predicates))
        elif line.startswith("fun "):
            functions.append(_parse_decl(line[4:], lineno, functions))
        elif line.startswith("rule "):
            rule_lines.append((lineno, raw, line[5:], len(raw) - len(raw.lstrip()) + 5))
        else:
            raise TheoryError(f"line {lineno}: expected pred/fun/rule declaration")
    sig = Signature(functions=tuple(functions), predicates=tuple(predicates))
    rules = []
    for lineno, raw, body, col in rule_lines:
        if "<->" in body:
            lhs_txt, rhs_txt = body.split("<->", 1)
            oriented = False
        elif "-->" in body:
            lhs_txt, rhs_txt = body.split("-->", 1)
            oriented = True
        else:
            raise TheoryError(f"line {lineno}: rule needs '<->' or '-->'")
        try:
            starts = (col, col + len(lhs_txt) + len("-->"))
            spans = [(c, c + len(part.rstrip())) for c, part in zip(starts, (lhs_txt, rhs_txt))]
            lhs, rhs = (_parse_side(raw, span, sig) for span in spans)
            if isinstance(lhs, Proposition) or isinstance(rhs, Proposition):
                # an undeclared name reads as a term variable, but beside a
                # proposition it stands where a predicate belongs: reading
                # it as a proposition raises the error that names it
                for side, span in zip((lhs, rhs), spans):
                    if isinstance(side, Var):
                        _parse_side(raw, span, sig, (_Parser.prop,))
            rules.append(RewriteRule(lhs, rhs, oriented))
        except (ParseError, TheoryError) as e:
            raise TheoryError(f"line {lineno}: {e}") from e
    return Theory(signature=sig, rules=tuple(rules), name=name)


def _parse_decl(body: str, lineno: int, declared):
    """The (name, arity) of a `name/arity` declaration, whose name must be
    one identifier not among the (name, arity) pairs already declared."""
    parts = body.strip().split("/")
    if len(parts) != 2 or not parts[1].strip().isdigit():
        raise TheoryError(f"line {lineno}: expected 'name/arity'")
    name = parts[0].strip()
    if not is_identifier(name):
        raise TheoryError(f"line {lineno}: {name!r} is not a symbol name")
    if any(n == name for n, _ in declared):
        raise TheoryError(f"line {lineno}: {name!r} is declared twice")
    return name, int(parts[1].strip())


def _parse_side(line: str, span, sig: Signature, readers=(_Parser.prop, _Parser.term)):
    # The readers are tried in turn: a side whose head symbol is a function
    # parses as a term rule side.  When none parses, the one that got
    # further says why.  The side is parsed in place, as the slice span of
    # its line, so an error reports its column in the line.
    errors = []
    for read in readers:
        p = _Parser(line, sig, span)
        try:
            return p.whole(read, p)
        except ParseError as e:
            errors.append(e)
    raise max(errors, key=lambda e: e.pos)


def load_theory(path) -> Theory:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_theory(text, name=os.path.splitext(os.path.basename(str(path)))[0])

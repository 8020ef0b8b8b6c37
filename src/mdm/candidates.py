"""Reducibility candidates over finite proof-term universes.

Everything here is a bounded, executable rendition of candidate
machinery: the CR closure properties, the candidate algebra operations
(arrow and intersection), and the staged expansion closure Cl^k of the
proofs of a proposition from a universal context.

One expansion rule (`_forced`) carries CR3, CR3', the closure step Cl^k
and the candidate generator: a member outside a set is forced into it by
an expansion row whose marked subterms pass the caller's test and whose
instances (the term's reducts, or the simultaneous-reduct instances of a
marked decomposition) all lie in the set.  An instance outside the
universe is no evidence either way: its row forces nothing and is tallied
as boundary.

Stage 0 of Cl^k holds the universe members that one `DerivationSearch`
proves to be subjects of the proposition under the universal context,
within a depth bound.  Every rule adds at most one level to its subject,
so only the members no taller than the bound are asked at all, in the
universe's order: at depth 3 over the size-6 universe of three
hypotheses, 203 of the 932 members.  Each node keeps its height
(`proof_height`), so the cut costs one read per member.  The search keeps
each stage-0 set it computes, and a closure asked again over the same
universe, target and depth reads it.

A Universe indexes, once and on first use, what these operations read of
it: the members that contain a redex (the only ones with expansion rows),
each member's applications to the members that fit the size cap (the
arrow's evidence; every size is read from its node, `size`), and the
expansion tables themselves.  None of it is built with the universe, only
when a check first asks for it.

Bounds are first-class: a Universe fixes the term pool and size cap,
derivation search depth under-approximates the stage-0 sets, and any
quantified instance that escapes the universe is excluded from a check
and tallied.  Every check (the CR properties, the closure lemmas
`verify_*` and `adequacy_check`) returns a `Verdict`, whose
"pass" is always a pass-within-bounds, with the boundary, unknown and
skipped tallies reported alongside.
"""
from __future__ import annotations

import hashlib
import itertools
import random
import re
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property

from .reduction import (
    SN, SN_BUDGET, Diverges, _positions, beta_reducts, replace_at, sn_cached,
)
from .rewriting import Theory, Yes, _subexpressions, congruent
from .syntax import (
    CHURCH, CURRY, Atom, Forall, Imp, PApp, PLam, PVar, Proposition,
    ProofTerm, TApp, TLam, Term, Var, apply_proof_subst, apply_prop_subst,
    bound_proof_vars, canon, free_proof_vars, free_term_vars, fresh_name,
    graft, is_neutral, is_normal, open_forall, print_proof, print_prop,
    proof_height, size, subst_proof, subst_term_in_prop,
)
from .typecheck import Context
from .verdict import Verdict


# ---------------------------------------------------------------------------
# Universes

@dataclass(frozen=True)
class Universe:
    """All pure lambda proof-terms of size <= max_size (modulo alpha) whose
    free variables come from the pool.  A one-step reduct of a member may
    leave the size bound; the universe does not record such terms, and each
    check tallies the escapes it meets as its own boundary.

    `order` lists the members once each, in `build_universe`'s generation
    order (in `canon` order when not given), so that a scan of the universe
    does the same work whatever the hash seed.

    A universe indexes its members for the checks that scan it: `redexes`,
    `applications` and the `expansions` tables.  Each index is built on its
    first use and kept for the life of the universe."""

    max_size: int
    pool: tuple
    members: frozenset
    order: tuple = field(default=None, compare=False, repr=False)
    _expansions: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.order is None:
            object.__setattr__(self, "order", tuple(sorted(self.members, key=canon)))

    def __contains__(self, p):
        return p in self.members

    def __len__(self):
        return len(self.members)

    @cached_property
    def redexes(self) -> tuple:
        """The members that contain a redex, in `order`.  Only these have
        expansion rows: every marked subterm holds a redex, and a normal
        term has no one-step reduct."""
        return tuple(p for p in self.order if not is_normal(p))

    @cached_property
    def applications(self) -> dict:
        """member p -> {m: PApp(p, m)} over the members m whose application
        to p fits the size cap, smaller m first."""
        by_size = defaultdict(list)
        for m in self.order:
            by_size[size(m)].append(m)
        out = {}
        for p in self.order:
            room = self.max_size - 1 - size(p)
            out[p] = {m: PApp(p, m) for n in range(1, room + 1) for m in by_size[n]}
        return out

    def expansions(self, n_max: int, captured_ok: bool) -> dict:
        """The simultaneous-expansion table: member -> one (pairs, instances)
        row per marked decomposition p = [m_i/h_i] nu, in the order
        `decompositions` yields them, with the simultaneous-reduct instances
        of `_instances`.  A member's rows are built on its first lookup and
        kept for the life of the universe."""
        key = (n_max, captured_ok)
        if key not in self._expansions:
            self._expansions[key] = _ExpansionTable(n_max, captured_ok)
        return self._expansions[key]


def build_universe(max_size: int, pool) -> Universe:
    """Every term up to max_size over the pool.  Binders are named v1, v2,
    ... by depth, so a pool name of that form would be captured by them
    and is refused."""
    pool = tuple(pool)
    clashes = [v for v in pool if re.fullmatch(r"v\d+", v)]
    if clashes:
        raise ValueError(f"pool names {clashes} have the form v<digits> of the universe's binders")
    cache = {}

    def gen(n, depth):
        key = (n, depth)
        if key in cache:
            return cache[key]
        items = []
        if n == 1:
            items.extend(PVar(v) for v in pool)
            items.extend(PVar(f"v{i}") for i in range(1, depth + 1))
        else:
            items.extend(PLam(f"v{depth + 1}", b) for b in gen(n - 1, depth + 1))
            for i in range(1, n - 1):
                for f in gen(i, depth):
                    items.extend(PApp(f, a) for a in gen(n - 1 - i, depth))
        cache[key] = items
        return items

    members = []
    for n in range(1, max_size + 1):
        members.extend(gen(n, 0))
    return Universe(max_size, pool, frozenset(members), tuple(members))


@dataclass(frozen=True)
class FiniteCandidate:
    """A set of universe members standing in for a reducibility candidate."""

    members: frozenset

    def __contains__(self, p):
        return p in self.members

    def __len__(self):
        return len(self.members)


# ---------------------------------------------------------------------------
# CR properties, bounded

def cr1(s: FiniteCandidate) -> Verdict:
    """Every member strongly normalizing (within the node budget)."""
    failures = []
    unknown = 0
    for p in s.members:
        v = sn_cached(p, SN_BUDGET)
        if isinstance(v, Diverges):
            failures.append(p)
        elif not isinstance(v, SN):
            unknown += 1
    if failures:
        return Verdict("fail", tuple(failures), unknown=unknown, name="cr1")
    return Verdict("unknown" if unknown else "pass", unknown=unknown, name="cr1")


def cr2(s: FiniteCandidate, u: Universe) -> Verdict:
    """Closed under one-step reduction; reducts escaping the universe are
    tallied, not failed."""
    failures = []
    boundary = 0
    for p in s.members:
        for r in beta_reducts(p):
            if r not in u.members:
                boundary += 1
            elif r not in s.members:
                failures.append((p, r))
    return Verdict.of(failures, boundary=boundary, name="cr2")


def cr3(s: FiniteCandidate, u: Universe) -> Verdict:
    """Every neutral universe member whose reducts all belong to s belongs
    to s.  Neutral terms with a reduct outside the universe impose nothing
    (see `_forced` for the boundary tally).  This is cr3aux plus the
    normal neutral members, which have no reducts and so must all belong
    to s."""
    aux = cr3aux(s, u)
    failures = aux.failures + tuple(
        p for p in u.members if is_neutral(p) and is_normal(p) and p not in s.members)
    return Verdict.of(failures, boundary=aux.boundary, name="cr3")


def cr3aux(s: FiniteCandidate, u: Universe) -> Verdict:
    """cr3 restricted to non-normal terms: normal neutral terms (such as a
    variable applied to a variable) impose nothing.  Each neutral
    non-normal member has one expansion row, its one-step reducts."""
    table = {p: (((), tuple(sorted(beta_reducts(p), key=canon))),) if is_neutral(p) else ()
             for p in u.redexes if p not in s.members}
    forced, boundary = _forced(s.members, u, table)
    return Verdict.of(tuple(forced), boundary=boundary, name="cr3aux")


# ---------------------------------------------------------------------------
# Occurrence-marked decompositions p = [m_i/h_i] nu.
#
# A decomposition marks up to n_max pairwise-disjoint subterm occurrences
# that are neutral and not normal; each marked occurrence becomes a fresh
# hole variable in nu.  Grafting the marked subterms back (substitution
# with capture) reconstructs p exactly, which is why holes may sit under
# binders of variables free in the subterm.

def _occurrences(p: ProofTerm, captured_ok: bool):
    """(path, subterm) pairs with the subterm neutral and not normal, in
    the pre-order of `reduction._positions`, which lists every subterm that
    holds a redex; unless captured_ok, occurrences with a free variable
    that a PLam above the position binds are skipped."""
    return [(path, q) for path, q, bound in _positions(p)
            if is_neutral(q) and (captured_ok or free_proof_vars(q).isdisjoint(bound))]


def _disjoint(paths) -> bool:
    for a, b in itertools.combinations(paths, 2):
        if a[:len(b)] == b or b[:len(a)] == a:
            return False
    return True


def decompositions(p: ProofTerm, n_max: int, captured_ok: bool = True):
    """Yield (nu, pairs) where pairs is a tuple of (hole-name, subterm) and
    grafting the pairs into nu (in order) rebuilds p."""
    occs = _occurrences(p, captured_ok)
    taken = free_proof_vars(p) | bound_proof_vars(p)
    for n in range(1, min(n_max, len(occs)) + 1):
        for chosen in itertools.combinations(occs, n):
            paths = [path for path, _ in chosen]
            if not _disjoint(paths):
                continue
            nu = p
            pairs = []
            for i, (path, sub) in enumerate(chosen):
                hole = f"hole{i + 1}"
                if hole in taken:
                    hole = fresh_name(hole, taken)
                nu = replace_at(nu, path, PVar(hole))
                pairs.append((hole, sub))
            yield nu, tuple(pairs)


def _instances(nu: ProofTerm, pairs) -> tuple:
    """All simultaneous-reduct instances of a decomposition: one reduct per
    marked occurrence, grafted back with capture."""
    reduct_sets = [sorted(beta_reducts(m), key=canon) for _, m in pairs]
    out = []
    for combo in itertools.product(*reduct_sets):
        inst = nu
        for (hole, _), r in zip(pairs, combo):
            inst = graft(inst, hole, r)
        out.append(inst)
    return tuple(out)


class _ExpansionTable(dict):
    """Rows of `Universe.expansions`, filled per member on first lookup."""

    def __init__(self, n_max: int, captured_ok: bool):
        super().__init__()
        self.n_max = n_max
        self.captured_ok = captured_ok

    def __missing__(self, p):
        rows = tuple((pairs, _instances(nu, pairs))
                     for nu, pairs in decompositions(p, self.n_max, self.captured_ok))
        self[p] = rows
        return rows


# ---------------------------------------------------------------------------
# The expansion rule shared by CR3, CR3', Cl^k and candidate_close

def _forced(s, u: Universe, table, usable=None):
    """({p: pairs of p's first forcing row}, boundary rows) over the members
    p of u outside s.  A row (pairs, instances) of table[p] forces p when
    usable(pairs) holds (if given) and every instance lies in s.  A row
    whose first instance outside s is outside u is tallied as boundary: an
    escaped instance neither forces p nor makes it a failure.  Only the
    members in `u.redexes` are looked up: no other member has a row."""
    members = u.members
    forced = {}
    boundary = 0
    for p in u.redexes:
        if p in s:
            continue
        for pairs, instances in table[p]:
            if usable is not None and not usable(pairs):
                continue
            for inst in instances:
                if inst not in s:
                    boundary += inst not in members
                    break
            else:
                forced[p] = pairs
                break
    return forced, boundary


# The number of holes in the simultaneous expansion property, and in the
# candidates generated to satisfy it.
_CR3PRIME_HOLES = 2


def cr3prime(s: FiniteCandidate, u: Universe, n_max: int = _CR3PRIME_HOLES) -> Verdict:
    """Simultaneous expansion property: whenever every simultaneous-reduct
    instance of a marked term lies in s, the marked term itself must.

    Marked subterms are the neutral non-normal subterms that capture no
    enclosing binder; each is itself a universe member, being no larger
    than the term and free only in the pool.  A row with an instance
    outside the universe constrains nothing and may be tallied as boundary
    (see `_forced`).  Failures are the forced non-members with the pairs
    of their first forcing row.
    """
    forced, boundary = _forced(s.members, u, u.expansions(n_max, captured_ok=False))
    return Verdict.of(tuple(forced.items()), boundary=boundary, name="cr3prime")


# ---------------------------------------------------------------------------
# The candidate algebra operations

@dataclass(frozen=True)
class ArrowResult:
    members: FiniteCandidate
    boundary: int  # applications that left the universe
    untested: frozenset  # members none of whose applications fit the universe
    partially_tested: frozenset  # members with some escaped applications


def imp_candidate_ex(a: FiniteCandidate, b: FiniteCandidate, u: Universe) -> ArrowResult:
    """Arrow operation: members sending every member of a into b.

    The members of a must be members of u.  Applications that leave the
    universe do not constrain membership; they are tallied, and members
    whose evidence is partial or empty are reported so callers can treat
    them as boundary cases.
    """
    sources, targets = a.members, b.members
    if not sources <= u.members:
        raise ValueError("the arrow's source has members outside the universe")
    members = []
    boundary = 0
    untested = []
    partial = []
    # Each member's fitting applications are read from the universe and
    # kept when their argument is in a; the other members of a escape.
    # Most members have few or none that fit, fewer than a has members.
    for p, apps in u.applications.items():
        ok = True
        tested = 0
        for m, app in apps.items():
            if m in sources:
                tested += 1
                if app not in targets:
                    ok = False
                    break
        if ok:
            members.append(p)
            escaped = len(sources) - tested
            boundary += escaped
            if escaped and not tested:
                untested.append(p)
            elif escaped:
                partial.append(p)
    return ArrowResult(FiniteCandidate(frozenset(members)), boundary,
                       frozenset(untested), frozenset(partial))


def imp_candidate(a: FiniteCandidate, b: FiniteCandidate, u: Universe) -> FiniteCandidate:
    return imp_candidate_ex(a, b, u).members


def forall_candidate(family) -> FiniteCandidate:
    """Greatest lower bound for inclusion: plain intersection."""
    family = list(family)
    if not family:
        raise ValueError("quantifier candidate needs a non-empty family")
    out = family[0].members
    for c in family[1:]:
        out &= c.members
    return FiniteCandidate(out)


# ---------------------------------------------------------------------------
# The universal context

@dataclass
class UniversalContext:
    """Deterministic supply of hypothesis variables, unboundedly many per
    proposition; only the finite slice a run materializes is ever built."""

    prefix: str = "h"
    _names: dict = field(default_factory=dict)

    def var_name(self, prop: Proposition, index: int) -> str:
        key = (prop, index)
        if key not in self._names:
            digest = hashlib.sha1(repr(canon(prop)).encode()).hexdigest()[:6]
            self._names[key] = f"{self.prefix}{digest}_{index}"
        return self._names[key]

    def slice(self, pairs) -> Context:
        """Materialize [(prop, count), ...] as a context."""
        entries = []
        for prop, count in pairs:
            for i in range(count):
                entries.append((self.var_name(prop, i), prop))
        return Context(tuple(entries))


# ---------------------------------------------------------------------------
# Bounded derivation search (stage 0 of the closure).
#
# Typability of a bare proof-term modulo an arbitrary congruence is
# undecidable, so stage 0 is an under-approximation: the subjects of
# derivations found by rule-directed search over a finite proposition
# catalog, a finite instantiation term set, and a depth bound.

@dataclass(frozen=True)
class SearchBounds:
    universe: Universe
    depth: int = 3
    fuel: int = 200
    k_max: int = 3
    n_max: int = 2
    inst_terms: tuple = ()  # terms usable by quantifier elimination


def proposition_catalog(theory: Theory, delta: Context, target: Proposition):
    """Subformula closure of the search goal, the universal-context slice,
    and both sides of every rewrite rule."""
    roots = [target, *(p for _, p in delta)]
    for r in theory.prop_rules:
        roots += (r.lhs, r.rhs)
    return tuple(dict.fromkeys(
        q for p in roots for q in _subexpressions(p) if isinstance(q, Proposition)))


@dataclass
class _GoalRules:
    """What the rules can do with one goal, computed once per goal."""

    elim: tuple  # (a, a => goal) for every catalog a: imp-elim premises
    intro: tuple  # catalog pairs (a, b) with goal congruent to a => b
    opened: tuple  # foralls congruent to the goal: quantifier introduction
    instantiated: tuple  # foralls with an instance congruent to the goal
    applied: dict = field(default_factory=dict)  # Church term argument -> foralls


# A query never proved has no least proving depth.
_NEVER = float("inf")


class DerivationSearch:
    """Goal-directed provability search: does the fixed universal context
    grant `subject : goal` within a depth bound?

    One search answers every query over the same theory, context `delta`,
    style, catalog (as a set), instantiation terms and congruence fuel:
    `DerivationSearch.shared` keys the searches on exactly these, so every
    `cl0` call asking over them, whatever its universe, target or depth,
    reuses the same instance table, goal tables and memo.  The catalog
    keeps the order of the first caller.

    Every rule adds at most one level to the subject (imp-elim, imp-intro,
    TLam and TApp one, Curry's silent quantifier rules none), so a subject
    of height h needs depth >= h, and a query below that depth is refuted
    before any rule is tried or any table is built.  The height is read
    from the subject's node (`proof_height`).

    Provability is monotone in depth, and a query at depth d asks only
    queries at depth d-1.  So the memo records, for each (subject, goal,
    extension) query, the least depth that proved it and the greatest depth
    that refuted it, and a query at any depth between the two is searched
    once more.  The depth is always the caller's: a shared search has no
    depth of its own.

    `stage0` keeps each stage-0 set it computes, keyed by the universe's
    members, the target and the depth, so a closure asked again over the
    same three reuses it.  The key holds the member set and not the
    universe, whose indexes the search need not keep alive.
    """

    _shared = {}

    @classmethod
    def shared(cls, theory: Theory, delta: Context, target: Proposition,
               bounds: SearchBounds, style: str = CURRY) -> DerivationSearch:
        """The one search over what a search of `target` within `bounds`
        reads: everything but the universe and the depth."""
        catalog = proposition_catalog(theory, delta, target)
        key = (theory, delta, style, frozenset(catalog), bounds.inst_terms, bounds.fuel)
        search = cls._shared.get(key)
        if search is None:
            search = cls._shared[key] = cls(
                theory, delta, catalog, bounds.inst_terms, bounds.fuel, style)
        return search

    def __init__(self, theory: Theory, delta: Context, catalog: tuple,
                 inst_terms: tuple, fuel: int, style: str):
        self.theory = theory
        self.delta = delta
        self.fuel = fuel
        self.style = style
        self.catalog = catalog
        self.foralls = tuple(p for p in catalog if isinstance(p, Forall))
        inst = list(inst_terms)
        # the quantifier rules of the unbounded system range over all
        # terms; a designated fresh variable keeps generic instantiation
        # reachable alongside the ground instances
        gen = Var(fresh_name("w", set().union(
            *(free_term_vars(p) for p in catalog)) if catalog else set()))
        if gen not in inst:
            inst.append(gen)
        self.inst_terms = tuple(inst)
        self.instances = tuple(
            (f, tuple(subst_term_in_prop(f.body, f.var, t) for t in self.inst_terms))
            for f in self.foralls) if style == CURRY else ()
        self.delta_fv = delta.free_term_vars()
        self._memo = {}  # query -> (least depth proving it, greatest refuting it)
        self._rules = {}  # goal -> _GoalRules
        self._stage0 = {}  # (universe members, target, depth) -> stage-0 set

    def _cong(self, a, b):
        return isinstance(congruent(self.theory, a, b, self.fuel), Yes)

    def stage0(self, universe: Universe, target: Proposition, depth: int) -> frozenset:
        """The members of universe proved to be subjects of target within
        depth.  Only the members no taller than depth are asked, in the
        universe's order."""
        key = (universe.members, target, depth)
        out = self._stage0.get(key)
        if out is None:
            out = self._stage0[key] = frozenset(
                p for p in universe.order
                if proof_height(p) <= depth and self.provable(p, target, depth))
        return out

    def provable(self, subject: ProofTerm, goal: Proposition, depth: int, ext=()) -> bool:
        if depth < proof_height(subject):
            return False
        key = (subject, goal, ext)
        proved, refuted = self._memo.get(key, (_NEVER, 0))
        if depth >= proved:
            return True
        if depth <= refuted:
            return False
        out = self._try(subject, goal, ext, depth)
        # the search may have answered the same query at a smaller depth
        proved, refuted = self._memo.get(key, (_NEVER, 0))
        self._memo[key] = (min(proved, depth), refuted) if out else (proved, max(refuted, depth))
        return out

    def _goal_rules(self, goal) -> _GoalRules:
        rules = self._rules.get(goal)
        if rules is None:
            cong = self._cong
            rules = self._rules[goal] = _GoalRules(
                tuple((a, Imp(a, goal)) for a in self.catalog),
                tuple((a, b) for a in self.catalog for b in self.catalog
                      if cong(goal, Imp(a, b))),
                tuple(f for f in self.foralls if cong(goal, f)),
                tuple(f for f, insts in self.instances if any(cong(i, goal) for i in insts)))
        return rules

    def _lookup(self, name, ext):
        for n, p in reversed(ext):
            if n == name:
                return p
        return self.delta.lookup(name)

    def _ctx_fv(self, ext):
        if not ext:
            return self.delta_fv
        return self.delta_fv.union(*(free_term_vars(p) for _, p in ext))

    def _try(self, subject, goal, ext, depth):
        provable = self.provable
        less = depth - 1
        if isinstance(subject, PVar):
            declared = self._lookup(subject.name, ext)
            if declared is not None and self._cong(declared, goal):
                return True
        rules = self._goal_rules(goal)
        if isinstance(subject, PApp):
            for a, imp in rules.elim:
                if provable(subject.fn, imp, less, ext) and provable(subject.arg, a, less, ext):
                    return True
        if isinstance(subject, PLam):
            for a, b in rules.intro:
                if provable(subject.body, b, less, ext + ((subject.var, a),)):
                    return True
        if self.style == CURRY:
            # silent quantifier rules apply to any subject
            if rules.opened:
                ctx_fv = self._ctx_fv(ext)
                for f in rules.opened:
                    if provable(subject, open_forall(f, ctx_fv)[1], less, ext):
                        return True
            for f in rules.instantiated:
                if provable(subject, f, less, ext):
                    return True
        else:
            if isinstance(subject, TLam) and rules.opened:
                x = subject.var
                if x not in self._ctx_fv(ext):
                    for f in rules.opened:
                        if x != f.var and x in free_term_vars(f.body):
                            continue
                        body = subst_term_in_prop(f.body, f.var, Var(x))
                        if provable(subject.body, body, less, ext):
                            return True
            if isinstance(subject, TApp):
                t = subject.arg
                if t not in rules.applied:
                    rules.applied[t] = tuple(
                        f for f in self.foralls
                        if self._cong(subst_term_in_prop(f.body, f.var, t), goal))
                for f in rules.applied[t]:
                    if provable(subject.fn, f, less, ext):
                        return True
        return False


# ---------------------------------------------------------------------------
# The closure Cl^k

@dataclass
class ClosureTable:
    stages: tuple  # cumulative member sets, stage 0 first
    first_stage: dict  # member -> stage index of first entry
    boundary_escapes: int = 0
    unknown_mu: int = 0
    fixpoint_at: int | None = None

    def members(self) -> frozenset:
        return self.stages[-1]

    def candidate(self) -> FiniteCandidate:
        return FiniteCandidate(self.members())

    def __contains__(self, p):
        return p in self.stages[-1]


def cl0(theory: Theory, delta: Context, prop: Proposition, env: dict,
        bounds: SearchBounds, style: str = CURRY) -> frozenset:
    """Stage 0: universe members that are provably subjects of the
    environment-instantiated proposition under the universal context."""
    target = apply_prop_subst(prop, env)
    search = DerivationSearch.shared(theory, delta, target, bounds, style)
    return search.stage0(bounds.universe, target, bounds.depth)


def cl_step(prev: frozenset, u: Universe, n_max: int, fuel: int):
    """One expansion stage: add the universe members admitting a marked
    decomposition into Omega subterms all of whose simultaneous-reduct
    instances already belong to the previous stage.  Marked subterms are
    neutral and not normal by construction, so Omega membership is their
    strong normalization.

    Returns (members, boundary_escapes, unknown_mu)."""
    unknown_mu = 0

    def all_sn(pairs):
        nonlocal unknown_mu
        ok = True
        for _, m in pairs:
            v = sn_cached(m, fuel)
            if not isinstance(v, SN):
                ok = False
                unknown_mu += not isinstance(v, Diverges)
        return ok

    forced, boundary = _forced(prev, u, u.expansions(n_max, captured_ok=True), all_sn)
    return prev.union(forced), boundary, unknown_mu


def closure(theory: Theory, delta: Context, prop: Proposition, env: dict,
            k_max: int, bounds: SearchBounds) -> ClosureTable:
    """Stage 0 by derivation search, then k_max expansion steps (stopping
    at a fixpoint), recording each member's first stage."""
    stage0 = cl0(theory, delta, prop, env, bounds)
    stages = [stage0]
    first = {p: 0 for p in stage0}
    boundary = 0
    unknown = 0
    fix = None
    for k in range(1, k_max + 1):
        nxt, b, um = cl_step(stages[-1], bounds.universe, bounds.n_max, bounds.fuel)
        boundary += b
        unknown += um
        for p in nxt - stages[-1]:
            first[p] = k
        if nxt == stages[-1]:
            fix = k - 1
            stages.append(nxt)
            break
        stages.append(nxt)
    return ClosureTable(tuple(stages), first, boundary, unknown, fix)


# ---------------------------------------------------------------------------
# Lemma-shaped verifications.  Each returns a Verdict that passes when the
# lemma has no violation within the bounds; the boundary and skipped
# tallies say how much of the quantification the universe could not carry.

def verify_monotone(table: ClosureTable) -> Verdict:
    """Stage sets weakly increase."""
    bad = tuple(k for k in range(len(table.stages) - 1)
                if not table.stages[k] <= table.stages[k + 1])
    return Verdict.of(bad, checked=len(table.stages) - 1, name="monotone")


def verify_mink(table: ClosureTable) -> Verdict:
    """First-entry stage of a member is at most its maximal reduction
    length; normal members sit in stage 0."""
    violations = []
    unknown = 0
    checked = 0
    for p, k in table.first_stage.items():
        v = sn_cached(p, SN_BUDGET)
        if not isinstance(v, SN):
            unknown += 1
            continue
        checked += 1
        if k > v.max_length:
            violations.append((p, k, v.max_length))
        if is_normal(p) and k != 0:
            violations.append((p, k, "normal member outside stage 0"))
    return Verdict.of(violations, checked=checked, unknown=unknown, name="mink")


def verify_lambdacl(theory: Theory, delta: Context, a_prop: Proposition,
                    b_prop: Proposition, env: dict, k_max: int,
                    bounds: SearchBounds) -> Verdict:
    """Abstraction compatibility: renaming the abstracted variable to a
    universal-context variable of the antecedent and landing in the
    consequent's closure forces the abstraction into the arrow closure.

    The abstraction adds one rule application, so the hypothesis closure is
    computed one derivation level shallower than the conclusion closure;
    both stay within the stated depth bound.
    """
    u = bounds.universe
    hyp_bounds = replace(bounds, depth=max(1, bounds.depth - 1))
    table_b = closure(theory, delta, b_prop, env, k_max, hyp_bounds)
    table_ab = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, bounds)
    phi_a = apply_prop_subst(a_prop, env)
    delta_vars_at_a = [n for n, p in delta if p == phi_a]
    violations = []
    checked = skipped = boundary = 0
    binders = sorted(set(u.pool) | {"vfresh"})
    for p in u.members:
        # measure before building: every abstraction of p has size 1 + size(p)
        if size(p) + 1 > u.max_size:
            boundary += len(binders)
            continue
        for beta in binders:
            lam = PLam(beta, p)
            alphas = [a for a in delta_vars_at_a if a not in free_proof_vars(p)]
            if not alphas:
                skipped += 1
                continue
            renamed = subst_proof(p, beta, PVar(alphas[0]))
            if renamed not in table_b.members():
                continue
            checked += 1
            if lam not in table_ab.members():
                violations.append((lam, renamed))
    return Verdict.of(violations, checked=checked, boundary=boundary, skipped=skipped,
                      name="lambdacl")


def _deeper(bounds: SearchBounds) -> SearchBounds:
    return replace(bounds, depth=bounds.depth + 1)


def verify_clramorph(theory: Theory, delta: Context, a_prop: Proposition,
                     b_prop: Proposition, env: dict, k_max: int,
                     bounds: SearchBounds) -> Verdict:
    """The arrow closure equals the arrow of the closures, both inclusions,
    restricted to the universe.

    Each inclusion direction costs one extra rule application (an
    elimination forward, an introduction backward), so membership on the
    target side of either inclusion is decided in tables one derivation
    level deeper than the source side; depth-d members must appear at
    depth d+1.  Arrow members whose application evidence lies entirely out
    of the universe carry no information and are skipped; escaped
    applications are tallied as boundary.
    """
    u = bounds.universe
    t_a = closure(theory, delta, a_prop, env, k_max, bounds)
    t_b = closure(theory, delta, b_prop, env, k_max, bounds)
    t_ab = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, bounds)
    t_b_deep = closure(theory, delta, b_prop, env, k_max, _deeper(bounds))
    t_ab_deep = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, _deeper(bounds))

    violations = []
    boundary = 0
    checked = 0
    # As in imp_candidate_ex: the applications that fit are read from the
    # universe, and closure members are universe members.
    sources, targets = t_a.members(), t_b_deep.members()
    for p in t_ab.members():
        tested = 0
        for m, app in u.applications[p].items():
            if m in sources:
                tested += 1
                if app not in targets:
                    violations.append(("not in arrow", p, m))
        checked += tested
        boundary += len(sources) - tested

    res = imp_candidate_ex(t_a.candidate(), t_b.candidate(), u)
    boundary += res.boundary
    backward_pool = res.members.members - t_ab_deep.members()
    skipped = len(backward_pool & res.untested)
    for p in sorted(backward_pool - res.untested, key=canon):
        violations.append(("not in closure", p))
    checked += len(res.members.members) - skipped
    return Verdict.of(violations, checked=checked, boundary=boundary, skipped=skipped,
                      name="clramorph")


def verify_clsubst(theory: Theory, delta: Context, prop: Proposition, x: str,
                   t: Term, env: dict, k_max: int, bounds: SearchBounds) -> Verdict:
    """Substituting in the proposition equals extending the environment,
    stage by stage.  Requires the usual independence of x, t and the
    environment (substitutions must commute)."""
    if x in env or any(x in free_term_vars(v) for v in env.values()) \
            or free_term_vars(t) & set(env):
        raise ValueError("substitution and environment are not independent")
    lhs = closure(theory, delta, subst_term_in_prop(prop, x, t), env, k_max, bounds)
    rhs = closure(theory, delta, prop, {**env, x: t}, k_max, bounds)
    violations = []
    for k in range(max(len(lhs.stages), len(rhs.stages))):
        sl = lhs.stages[min(k, len(lhs.stages) - 1)]
        sr = rhs.stages[min(k, len(rhs.stages) - 1)]
        if sl != sr:
            diff = tuple(sl ^ sr)
            violations.append((k, diff))
    checked = sum(len(s) for s in lhs.stages)
    return Verdict.of(violations, checked=checked, name="clsubst")


def verify_clfamorph(theory: Theory, delta: Context, x: str, body: Proposition,
                     env: dict, k_max: int, bounds: SearchBounds,
                     term_universe) -> Verdict:
    """The closure of a quantified proposition is the intersection of the
    closures of its instances over the term universe, both inclusions.

    As with the arrow morphism, each direction spends one silent
    quantifier rule, so the target side of each inclusion is computed one
    derivation level deeper.
    """
    lhs = closure(theory, delta, Forall(x, body), env, k_max, bounds)
    lhs_deep = closure(theory, delta, Forall(x, body), env, k_max, _deeper(bounds))
    family = [closure(theory, delta, body, {**env, x: t}, k_max, bounds)
              for t in term_universe]
    family_deep = [closure(theory, delta, body, {**env, x: t}, k_max, _deeper(bounds))
                   for t in term_universe]
    rhs = forall_candidate([tb.candidate() for tb in family])
    rhs_deep = forall_candidate([tb.candidate() for tb in family_deep])
    forward = tuple(p for p in lhs.members() if p not in rhs_deep.members)
    backward = tuple(p for p in rhs.members if p not in lhs_deep.members())
    violations = tuple(("not in intersection", p) for p in forward) \
        + tuple(("not in quantified closure", p) for p in backward)
    checked = len(lhs.members()) + len(rhs.members)
    return Verdict.of(violations, checked=checked, name="clfamorph")


# ---------------------------------------------------------------------------
# Adequacy: a checked derivation, instantiated by a substitution adequate
# for its context, lands in the closure of its proposition.

def adequacy_check(d, tables: dict, sigma: dict, env: dict, bounds: SearchBounds) -> Verdict:
    """tables maps (proposition, frozenset(env.items())) to ClosureTable.

    Preconditions checked here: every context hypothesis has a table and
    sigma sends it into that table.  The instantiated subject escaping the
    universe is reported as unknown, not failure.
    """
    key = frozenset(env.items())
    for name, prop in d.ctx:
        tab = tables.get((prop, key))
        if tab is None:
            raise ValueError(f"no closure table for hypothesis {name}:{print_prop(prop)}")
        if name not in sigma or sigma[name] not in tab:
            return Verdict("fail", ((name, prop, "substitution not adequate"),),
                           name="adequacy")
    subject = apply_proof_subst(d.subject, sigma)
    tab = tables.get((d.prop, key))
    if tab is None:
        raise ValueError(f"no closure table for conclusion {print_prop(d.prop)}")
    if subject not in bounds.universe.members:
        return Verdict("unknown", boundary=1, unknown=1, name="adequacy")
    if subject in tab:
        return Verdict("pass", name="adequacy")
    return Verdict("fail", ((subject, d.prop),), name="adequacy")


# ---------------------------------------------------------------------------
# Random closed candidates (for the algebra-law battery)

def sn_slice(u: Universe) -> FiniteCandidate:
    return FiniteCandidate(frozenset(
        p for p in u.members if isinstance(sn_cached(p, SN_BUDGET), SN)))


def candidate_close(seed_members, u: Universe) -> frozenset:
    """The least superset of the seed closed under in-universe one-step
    reducts and under the expansion rule of cr3prime: a member joins when
    some marked decomposition has all its simultaneous-reduct instances in
    the set, and a decomposition with an instance outside the universe
    forces nothing.  The result passes cr3prime by construction."""
    s = set(seed_members)
    table = u.expansions(_CR3PRIME_HOLES, captured_ok=False)
    todo = list(s)
    while True:
        while todo:
            for r in beta_reducts(todo.pop()):
                if r in u.members and r not in s:
                    s.add(r)
                    todo.append(r)
        forced, _ = _forced(s, u, table)
        if not forced:
            return frozenset(s)
        s.update(forced)
        todo = list(forced)


def random_candidates(u: Universe, count: int, seed: int):
    """Deterministically sample non-empty subsets of the strongly
    normalizing slice and close them with `candidate_close`; only closures
    passing CR1 are returned (at most 20 tries per candidate).  CR2 and
    CR3' hold by construction of the closure."""
    rng = random.Random(seed)
    base = sorted(sn_slice(u).members, key=canon)
    if not base:
        return []
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 20:
        attempts += 1
        k = rng.randint(1, max(1, len(base) // 3))
        cand = FiniteCandidate(candidate_close(rng.sample(base, min(k, len(base))), u))
        if not cand.members:
            continue
        if cr1(cand).ok:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# The quantifier synchronization defect of term-carrying proof-terms.
#
# With subjects recording quantifier eliminations, the intersection-style
# interpretation of a quantified proposition demands that applying a
# member to one term lands in the interpretation of EVERY instance; a
# hypothesis variable of the quantified proposition already fails this.
# The pure (Curry) subjects avoid it because their quantifier rules are
# silent, so the same variable inhabits every instance's stage-0 set.

def church_forall_defect_demo(theory: Theory, bounds: SearchBounds,
                              term_universe) -> dict:
    sig = theory.signature
    unary = [name for name, k in sig.predicates if k == 1]
    report = {
        "theory": theory.name,
        "universe_terms": sorted(str(t) for t in term_universe),
        "cases": [],
    }
    terms = sorted(set(term_universe), key=str)
    if not unary or len(terms) < 2:
        report["note"] = "no quantified proposition with distinct instances available"
        return report
    inst_bounds = replace(bounds, inst_terms=tuple(term_universe))
    ctx = UniversalContext()
    x = "x"
    for pred in unary:
        body = Atom(pred, (Var(x),))
        forall_prop = Forall(x, body)
        hyp = ctx.var_name(forall_prop, 0)
        delta = Context(((hyp, forall_prop),))
        for ta, tb in itertools.permutations(terms, 2):
            target = subst_term_in_prop(body, x, tb)
            church_subject = TApp(PVar(hyp), ta)
            church_search = DerivationSearch.shared(theory, delta, target, inst_bounds, CHURCH)
            curry_search = DerivationSearch.shared(theory, delta, target, inst_bounds, CURRY)
            report["cases"].append({
                "hypothesis": f"{hyp} : {print_prop(forall_prop)}",
                "applied_to": str(ta),
                "instance": print_prop(target),
                "church_subject": print_proof(church_subject),
                "church_in_stage0": church_search.provable(
                    church_subject, target, inst_bounds.depth),
                "curry_subject": hyp,
                "curry_in_stage0": curry_search.provable(PVar(hyp), target, inst_bounds.depth),
            })
    report["defect_exhibited"] = any(
        c["curry_in_stage0"] and not c["church_in_stage0"] for c in report["cases"])
    return report

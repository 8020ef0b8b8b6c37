"""Stage 0 of the closure Cl: bounded derivation search from the
universal context, and the membership oracle of Cl^k that asks it one
member at a time.

Stage 0 of Cl^k holds the universe members that one `DerivationSearch`
proves to be subjects of the proposition under the universal context,
within a depth bound.  Every rule adds at most one level to its subject,
so only the members no taller than the bound are asked at all, in the
universe's order: at depth 3 over the size-6 universe of three
hypotheses, 203 of the 932 members.  Each node keeps its height
(`proof_height`), so the cut costs one read per member.  The search keeps
each closure table and membership oracle that `mdm.closure` makes over
it, not the stage-0 sets they are built from; an oracle
(`ClosureOracle`) asks the stage-0 question of one member at a time, as
`stage0` asks it, and reads the expansion rows for the later stages.
Provability only grows with the depth, so the search records for each
query the depths that proved and refuted it, and a refutation that read
no depth, for every depth.

The universal context supplies the hypotheses, unboundedly many per
proposition (`UniversalContext`), and `church_forall_defect_demo` shows
why the closure is built over Curry-style subjects: a Church-style
subject records its quantifier eliminations.
"""
from __future__ import annotations

import hashlib
import itertools
from collections import namedtuple

from .reducibility import Universe
from .rewriting import Theory, Yes, congruent
from .syntax import (
    CHURCH, CURRY, Atom, Forall, Imp, PApp, PLam, PVar, Proposition, ProofTerm,
    Record, TApp, TLam, Var, canon, free_term_vars, fresh_name, open_forall,
    print_proof, print_prop, proof_height, subst_term_in_prop, subterms,
)
from .typecheck import Context


# ---------------------------------------------------------------------------
# The universal context

class UniversalContext:
    """Deterministic supply of hypothesis variables, unboundedly many per
    proposition; only the finite slice a run materializes is ever built."""

    def __init__(self):
        self._names = {}

    def var_name(self, prop: Proposition, index: int) -> str:
        key = (prop, index)
        if key not in self._names:
            digest = hashlib.sha1(repr(canon(prop)).encode()).hexdigest()[:6]
            self._names[key] = f"h{digest}_{index}"
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

class SearchBounds(Record):
    """`fuel` is the congruence fuel of the derivation search, and
    `inst_terms` holds the terms usable by quantifier elimination."""

    __slots__ = _fields = ("universe", "depth", "fuel", "k_max", "n_max", "inst_terms")
    _defaults = {"depth": 3, "fuel": 200, "k_max": 3, "n_max": 2, "inst_terms": ()}


def proposition_catalog(theory: Theory, delta: Context, target: Proposition):
    """Subformula closure of the search goal, the universal-context slice,
    and both sides of every rewrite rule."""
    roots = [target, *(p for _, p in delta)]
    for r in theory.prop_rules:
        roots += (r.lhs, r.rhs)
    return tuple(dict.fromkeys(
        q for p in roots for q in subterms(p) if isinstance(q, Proposition)))


class _GoalRules:
    """What the rules can do with one goal, computed once per goal."""

    def __init__(self, elim: tuple, intro: tuple, opened: tuple, instantiated: tuple):
        self.elim = elim  # (a, a => goal) for every catalog a: imp-elim premises
        self.intro = intro  # catalog pairs (a, b) with goal congruent to a => b
        self.opened = opened  # foralls congruent to the goal: quantifier introduction
        self.instantiated = instantiated  # foralls with an instance congruent to the goal
        self.applied = {}  # Church term argument -> foralls


# A query never proved has no least proving depth.
_NEVER = float("inf")

# What `DerivationSearch.cache_info` returns, in the shape of
# `functools.lru_cache`'s `cache_info()`.
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


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

    A refutation holds at every depth when no sub-query it asked was
    refuted by the depth: none was cut by the height test, and none was
    refuted for a reason that holds only up to some depth.  The branches
    a query tries (the goal's rules, the context lookups, congruence at
    the search's fixed fuel) do not depend on the depth, so at any depth
    every branch fails again, each for the same reason.  Such a query is
    recorded as refuted at every depth (`_NEVER`) and never searched again.
    A query that asks itself at a smaller depth always reaches the height
    test, so a cycle is never taken for a refutation at every depth.  The
    flag `_cut` carries "some refutation read the depth" up from the
    sub-queries of each query being tried.  In a pass of the benchmark's
    closure-lemmas workload, 3,767 of the 6,191 queries are so recorded,
    and 6,854 queries have their rules tried (7,696 when every
    refutation was kept only up to its depth).

    `closures` keeps each `ClosureTable` that `closure` builds over the
    search, keyed by the universe's members, the target, the depth,
    `k_max` and `n_max`.  So a closure asked again over the same universe,
    target and bounds is the table built the first time, and asks no
    stage-0 question again; `stage0` keeps no set, only the memo's
    answers.
    `oracles` keeps each `ClosureOracle` that `closure_oracle` makes over
    the search, keyed as `closures` is, with the answers it has given: a
    closure asked about some members only is decided member by member,
    and asked again it answers from the same memo.  `sn_rows` keeps, per
    universe members and `n_max`, the expansion rows that the closures'
    steps and the oracles read, with each row's SN status, and the
    universe order their bits refer to.  The keys hold the member set and
    not the universe, whose indexes the search need not keep alive; an
    oracle keeps the universe it was made over, to map a term to its bit.

    `cache_clear` and `cache_info` treat the shared searches as one cache,
    in the shape of a `functools.lru_cache`: `currsize` is the number of
    shared searches, and hits and misses count the calls of `shared`.
    """

    _shared = {}
    _hits = _misses = 0

    @classmethod
    def shared(cls, theory: Theory, delta: Context, target: Proposition,
               bounds: SearchBounds, style: str = CURRY) -> DerivationSearch:
        """The one search over what a search of `target` within `bounds`
        reads: everything but the universe and the depth."""
        catalog = proposition_catalog(theory, delta, target)
        key = (theory, delta, style, frozenset(catalog), bounds.inst_terms, bounds.fuel)
        search = cls._shared.get(key)
        if search is None:
            cls._misses += 1
            search = cls._shared[key] = cls(
                theory, delta, catalog, bounds.inst_terms, bounds.fuel, style)
        else:
            cls._hits += 1
        return search

    @classmethod
    def cache_clear(cls) -> None:
        """Drop every shared search, with its memo, closure tables,
        oracles and rows."""
        cls._shared.clear()
        cls._hits = cls._misses = 0

    @classmethod
    def cache_info(cls) -> CacheInfo:
        return CacheInfo(cls._hits, cls._misses, None, len(cls._shared))

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
        self._cut = False  # whether a refutation since the flag was reset read the depth
        self._depths = {}  # each pair of depths of the memo -> itself
        self._rules = {}  # goal -> _GoalRules
        # (universe members, target, depth, k_max, n_max) -> ClosureTable
        self.closures = {}
        # the same keys -> ClosureOracle
        self.oracles = {}
        # (universe members, n_max) -> (universe order, the expansion rows
        # with their SN status, `closure._sn_rows`)
        self.sn_rows = {}

    def _cong(self, a, b):
        return isinstance(congruent(self.theory, a, b, self.fuel), Yes)

    def stage0(self, universe: Universe, target: Proposition, depth: int) -> frozenset:
        """The members of universe proved to be subjects of target within
        depth.  Only the members no taller than depth are asked, in the
        universe's order.  The set is not kept: `closures` keeps the
        tables built from it, and the memo every answer."""
        return frozenset(p for p in universe.order
                         if proof_height(p) <= depth and self.provable(p, target, depth))

    def provable(self, subject: ProofTerm, goal: Proposition, depth: int, ext=()) -> bool:
        if depth < proof_height(subject):
            self._cut = True
            return False
        key = (subject, goal, ext)
        proved, refuted = self._memo.get(key, (_NEVER, 0))
        if depth >= proved:
            return True
        if depth <= refuted:
            self._cut |= refuted < _NEVER
            return False
        outer, self._cut = self._cut, False
        out = self._try(subject, goal, ext, depth)
        cut = self._cut
        self._cut = outer or (cut and not out)
        # the search may have answered the same query at a smaller depth
        proved, refuted = self._memo.get(key, (_NEVER, 0))
        if out:
            depths = (min(proved, depth), refuted)
        else:
            depths = (proved, max(refuted, depth) if cut else _NEVER)
        # the few distinct pairs of depths are shared by all the queries
        self._memo[key] = self._depths.setdefault(depths, depths)
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
# Membership in the last stage of a closure, member by member.
#
# Stage 0 is one search query, and a member lies in stage k >= 1 when it
# lies in stage k - 1 or one of its expansion rows forces it by stage
# k - 1: the row has no instance outside the universe, and its `pre`
# members all lie in stage k - 1 (the rule of `reducibility._forced`).
# Stages past the fixpoint are all equal, so stage k_max holds the members
# of the closure table.  The oracle lives here, beside the search it asks,
# and `mdm.closure` makes it: every benchmark pass compiles `mdm` from
# source, and the compile of the module it would grow sets the pass's
# peak memory.

# The (least stage holding, greatest stage not holding) of a member not
# asked yet.
_UNASKED = (_NEVER, -1)


class ClosureOracle:
    """`p in oracle` is `p in closure(...).members` for the arguments that
    `closure.closure_oracle` was given, decided for p alone: only the
    stages and members that the rule reads from p down are asked, each
    once.  A term outside the universe is in no stage, and a member is
    asked under the universe's own node (`Universe.positions`), whatever
    its binder names.  `rows` are the closure's expansion rows with their
    SN status (`closure._sn_rows`).

    Each member's answers are kept as the least stage known to hold it and
    the greatest known not to (stages only grow).  The questions still
    being answered wait on a stack, one frame per stage at most, so no
    k_max deepens the interpreter's stack."""

    __slots__ = ("_search", "_u", "_target", "_depth", "_k_max", "_rows", "_memo")

    def __init__(self, search: DerivationSearch, u: Universe, target: Proposition,
                 depth: int, k_max: int, rows: tuple):
        self._search, self._u, self._target, self._depth = search, u, target, depth
        # position -> the `pre` bits of each row with no instance outside u
        self._rows = {}
        for bit, _, prow, _, _ in rows:
            pres = tuple(pre for _, pre, escapes, _ in prow if not escapes)
            if pres:
                self._rows[bit.bit_length() - 1] = pres
        # each step before the fixpoint adds a member with such a row
        self._k_max = min(k_max, len(self._rows))
        self._memo = {}

    def __contains__(self, p) -> bool:
        i = self._u.positions.get(p)
        return i is not None and self._holds(i)

    def _holds(self, i: int) -> bool:
        """Whether the member at position i lies in stage k_max.  Each
        frame of the stack is a member, its stage and the generator of
        `_questions` that is sent the answers to what it asked."""
        memo, rows = self._memo, self._rows
        k = self._k_max
        stack = []
        while True:
            lo, hi = memo.get(i, _UNASKED)
            if k >= lo or k <= hi:
                out = k >= lo
            elif k and i in rows:
                frame = self._questions(i)
                stack.append((i, k, frame))
                i, k = next(frame), k - 1
                continue
            else:
                # stage 0, asked as `DerivationSearch.stage0` asks it
                p = self._u.order[i]
                out = proof_height(p) <= self._depth and self._search.provable(
                    p, self._target, self._depth)
                # a member with no row is in every stage or in none
                memo[i] = (0, hi) if out else (lo, 0 if i in rows else _NEVER)
            while stack:
                i, k, frame = stack[-1]
                try:
                    j = frame.send(out)
                except StopIteration as done:
                    stack.pop()
                    out = done.value
                    lo, hi = memo.get(i, _UNASKED)
                    memo[i] = (min(lo, k), hi) if out else (lo, max(hi, k))
                else:
                    i, k = j, k - 1
                    break
            else:
                return out

    def _questions(self, i: int):
        """Whether the member at position i lies in a stage k, given the
        answers to the positions it yields, each asked of stage k - 1 in
        the order the rule reads them: i itself, then each row's `pre`
        bits, lowest first, up to the first one outside."""
        if (yield i):
            return True
        for pre in self._rows[i]:
            while pre:
                low = pre & -pre
                if not (yield low.bit_length() - 1):
                    break
                pre ^= low
            else:
                return True
        return False


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
    inst_bounds = bounds.replace(inst_terms=tuple(term_universe))
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

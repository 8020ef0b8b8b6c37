"""The closure Cl^k of the proofs of a proposition, and the checks of
the completeness half's lemmas and of adequacy.

Stage 0 is the derivation search of `mdm.search`.  Each later stage adds
the universe members that the expansion rule of `mdm.reducibility`
(`_forced`) forces by the previous stage, until a fixpoint or k_max steps.
The shared search keeps each closure table built over it: a closure asked
again over the same universe, target, depth, k_max and n_max is the table
built the first time (a pass of the benchmark's closure-lemmas workload
asks for 13 closures and builds 7 tables).  It also keeps, per universe
and n_max, each expansion row's SN status: whether its marked subterms
are all SN, and how many have an unknown verdict.

A check that only asks whether some members lie in a closure asks a
membership oracle (`closure_oracle`, which makes a `search.ClosureOracle`)
in place of the table: the top-down half of Bancilhon & Ramakrishnan
(SIGMOD 1986), of which the semi-naive steps below are the bottom-up
half.  The oracle answers `p in` as the table's last stage would, asking
stage 0 of only the members that the expansion rule reads from p down,
each once, and keeps its answers on the shared search as the tables are
kept.  The arrow and quantifier lemma checks ask their closures one
derivation level deeper so, and criterion 10's adequacy check its
closure model: a closure-lemmas pass makes 4 oracles, which hold answers
for 107 members, where 4 depth-4 tables searched 737 of the 932 members
each.  An oracle decides universe members only, and two-valued; a term
beyond the universe is in none of its stages.

The steps of one closure are semi-naive (Bancilhon & Ramakrishnan, SIGMOD
1986): the first examines every member outside stage 0, and each later
one only the members with a row waiting on a member that the step before
added (a member's wait mask, the | of its rows' `pre` bits).  The
boundary and unknown tallies stay those of full steps.  Every stage is a
set of universe members, so a row's outcome reads only its `pre` bits:
whether they all lie in the stage (and then it forces, or counts as
boundary when its first instance escapes the universe), and its SN
status, which never changes.  A member none of whose waited members
joined forces nothing and tallies what it did when last examined, which
the steps' state keeps.  So a step that only confirms the fixpoint reads
no row at all.

Bounds are first-class: derivation search depth under-approximates the
stage-0 sets, and any quantified instance that escapes the universe is
excluded from a check and tallied.  Every check (the closure lemmas
`verify_*` and `adequacy_check`) returns a `Verdict`, whose "pass" is
always a pass-within-bounds, with the boundary, unknown and skipped
tallies reported alongside.  Violations are listed in the universe's
order, and those of `verify_mink`, which reads a table alone, in `canon`
order: the same whatever the hash seed.

`adequacy_check` reads its model the way `semantics.check_model` does: as
a function `value(prop, env)`, here into sets of proof-terms (closure
tables, oracles or candidates), so one memoized closure model can serve
both the completeness and the soundness check.
"""
from __future__ import annotations

from .reducibility import (
    FiniteCandidate, Universe, _bits_over, _forced, _wait, forall_candidate, imp_candidate_ex,
)
from .reduction import SN, SN_BUDGET, Diverges, sn_cached
from .rewriting import Theory
from .search import ClosureOracle, DerivationSearch, SearchBounds
from .syntax import (
    CURRY, Forall, Imp, PLam, PVar, Proposition, Record, Term, apply_proof_subst,
    apply_prop_subst, canon, free_proof_vars, free_term_vars, is_normal, size,
    subst_proof, subst_term_in_prop,
)
from .typecheck import Context
from .verdict import Verdict


# ---------------------------------------------------------------------------
# The closure Cl^k

class ClosureTable(Record):
    """`stages` holds the cumulative member sets, stage 0 first (a step
    that adds nothing repeats the set it started from), and
    `first_stage` maps each member to the index of the stage it entered;
    `fixpoint_at` is the stage index at which the closure stopped growing,
    or None.  `members` is the last stage, so a table serves wherever the
    candidate operations read a `FiniteCandidate`."""

    __slots__ = _fields = ("stages", "first_stage", "boundary_escapes", "unknown_mu",
                           "fixpoint_at")
    _defaults = {"boundary_escapes": 0, "unknown_mu": 0, "fixpoint_at": None}

    @property
    def members(self) -> frozenset:
        return self.stages[-1]

    def __contains__(self, p):
        return p in self.members


def cl0(theory: Theory, delta: Context, prop: Proposition, env: dict,
        bounds: SearchBounds, style: str = CURRY) -> frozenset:
    """Stage 0: universe members that are provably subjects of the
    environment-instantiated proposition under the universal context."""
    target = apply_prop_subst(prop, env)
    search = DerivationSearch.shared(theory, delta, target, bounds, style)
    return search.stage0(bounds.universe, target, bounds.depth)


def _sn_rows(rows: tuple) -> tuple:
    """The entries of `rows` (see `Universe.rows`) with each row dropped
    whose marked subterms are not all SN at `SN_BUDGET`, and the marked
    subterms of neither SN nor Diverges verdict in the dropped rows
    counted: before each kept row in the row, and in all in the entry.  An
    entry that drops no row is kept as it is."""
    out = []
    for entry in rows:
        bit, p, prow, _, _ = entry
        kept = []
        unknown = 0
        for row in prow:
            usable = True
            for _, m in row[0]:
                v = sn_cached(m, SN_BUDGET)
                if not isinstance(v, SN):
                    usable = False
                    unknown += not isinstance(v, Diverges)
            if usable:
                kept.append(row if not unknown else (*row[:3], unknown))
        if len(kept) == len(prow):
            out.append(entry)
        else:
            out.append((bit, p, tuple(kept), _wait(kept), unknown))
    return tuple(out)


class _Steps:
    """What one closure's expansion steps carry from each to the next: the
    rows with their SN status (`_sn_rows`), the mask of the last stage,
    the bits the last step added (None before the first step, which
    examines every member) and each examined member's last tallies
    (`_forced`)."""

    __slots__ = ("rows", "mask", "changed", "last")

    def __init__(self, rows: tuple, mask: int):
        self.rows = rows
        self.mask = mask
        self.changed = None
        self.last = {}


def cl_step(prev: frozenset, u: Universe, n_max: int, state: _Steps | None = None):
    """One expansion stage: add the universe members admitting a marked
    decomposition into Omega subterms all of whose simultaneous-reduct
    instances already belong to the previous stage.  Marked subterms are
    neutral and not normal by construction, so Omega membership is their
    strong normalization, asked at the node budget `SN_BUDGET`.

    prev is a set of members of u.  With no `state` the step refuses a
    prev holding a term outside u (see `reducibility._bits_over`), and
    scans every member outside prev.  `closure` passes its steps' state,
    whose last stage is prev, and the step is semi-naive: it examines only
    the members outside prev with a row waiting on a member that the
    previous step added, and every other one tallies what it did when last
    examined (see `_forced`).

    Returns (members, boundary_escapes, unknown_mu); members is prev
    itself when nothing joins."""
    if state is None:
        state = _Steps(_sn_rows(u.rows(n_max, captured_ok=True)),
                       _bits_over(FiniteCandidate(prev), u))
    added, forced, boundary, unknown_mu = _forced(
        state.mask, state.rows, state.changed, state.last)
    state.mask |= added
    state.changed = added
    return prev.union(forced) if forced else prev, boundary, unknown_mu


def _keyed(theory: Theory, delta: Context, prop: Proposition, env: dict, k_max: int,
           bounds: SearchBounds) -> tuple:
    """(the shared search, the instantiated proposition, the key of its
    closure tables and oracles) of a closure's arguments."""
    target = apply_prop_subst(prop, env)
    search = DerivationSearch.shared(theory, delta, target, bounds)
    return search, target, (bounds.universe.members, target, bounds.depth, k_max, bounds.n_max)


def _kept_rows(search: DerivationSearch, u: Universe, n_max: int) -> tuple:
    """The rows of `_sn_rows` over u, kept on the search per universe
    members and n_max; the rows' bits are positions in the universe's
    order, so a universe in another order gets its own."""
    kept = search.sn_rows.get((u.members, n_max))
    if kept is None or kept[0] != u.order:
        kept = search.sn_rows[u.members, n_max] = (
            u.order, _sn_rows(u.rows(n_max, captured_ok=True)))
    return kept[1]


def closure(theory: Theory, delta: Context, prop: Proposition, env: dict,
            k_max: int, bounds: SearchBounds) -> ClosureTable:
    """Stage 0 by derivation search, then k_max expansion steps (stopping
    at a fixpoint), recording each member's first stage.

    The table is built once per shared search (`DerivationSearch.closures`),
    universe members, environment-instantiated proposition, depth, k_max
    and n_max: a closure asked again returns the same table, which its
    callers only read."""
    search, target, key = _keyed(theory, delta, prop, env, k_max, bounds)
    table = search.closures.get(key)
    if table is not None:
        return table
    u = bounds.universe
    stages = [cl0(theory, delta, prop, env, bounds)]
    first = dict.fromkeys(stages[0], 0)
    boundary = unknown = 0
    fix = None
    if k_max:
        state = _Steps(_kept_rows(search, u, bounds.n_max), u.mask(stages[0]))
    for k in range(1, k_max + 1):
        nxt, b, um = cl_step(stages[-1], u, bounds.n_max, state)
        boundary += b
        unknown += um
        if nxt is stages[-1]:
            stages.append(nxt)
            fix = k - 1
            break
        first.update(dict.fromkeys(nxt - stages[-1], k))
        stages.append(nxt)
    table = search.closures[key] = ClosureTable(tuple(stages), first, boundary, unknown, fix)
    return table


def closure_oracle(theory: Theory, delta: Context, prop: Proposition, env: dict,
                   k_max: int, bounds: SearchBounds):
    """Membership in `closure(theory, delta, prop, env, k_max, bounds)`:
    the table itself when the shared search has built it, else the
    search's `ClosureOracle` for the same key (`DerivationSearch.oracles`),
    which builds no table and keeps its answers for the next caller."""
    search, target, key = _keyed(theory, delta, prop, env, k_max, bounds)
    found = search.closures.get(key)
    if found is None:
        found = search.oracles.get(key)
    if found is None:
        u = bounds.universe
        rows = _kept_rows(search, u, bounds.n_max) if k_max else ()
        found = search.oracles[key] = ClosureOracle(search, u, target, bounds.depth, k_max, rows)
    return found


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
    # a table knows no universe, so its violations are listed in canon order
    violations.sort(key=lambda v: canon(v[0]))
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
    hyp_bounds = bounds.replace(depth=max(1, bounds.depth - 1))
    table_b = closure(theory, delta, b_prop, env, k_max, hyp_bounds)
    table_ab = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, bounds)
    phi_a = apply_prop_subst(a_prop, env)
    hyps_at_a = [PVar(n) for n, p in delta if p == phi_a]
    violations = []
    checked = skipped = boundary = 0
    binders = sorted(set(u.pool) | {"vfresh"})
    for p in u.order:
        # measure before building: every abstraction of p has size 1 + size(p)
        if size(p) + 1 > u.max_size:
            boundary += len(binders)
            continue
        free = free_proof_vars(p)
        alpha = next((a for a in hyps_at_a if a.name not in free), None)
        if alpha is None:
            skipped += len(binders)
            continue
        for beta in binders:
            renamed = subst_proof(p, beta, alpha) if beta in free else p
            if renamed not in table_b.members:
                continue
            checked += 1
            # only a checked pair's abstraction is built
            lam = PLam(beta, p)
            if lam not in table_ab.members:
                violations.append((lam, renamed))
    return Verdict.of(violations, checked=checked, boundary=boundary, skipped=skipped,
                      name="lambdacl")


def _deeper(bounds: SearchBounds) -> SearchBounds:
    return bounds.replace(depth=bounds.depth + 1)


def verify_clramorph(theory: Theory, delta: Context, a_prop: Proposition,
                     b_prop: Proposition, env: dict, k_max: int,
                     bounds: SearchBounds) -> Verdict:
    """The arrow closure equals the arrow of the closures, both inclusions,
    restricted to the universe.

    Each inclusion direction costs one extra rule application (an
    elimination forward, an introduction backward), so membership on the
    target side of either inclusion is decided one derivation level deeper
    than the source side; depth-d members must appear at depth d+1.
    Forward, the deeper closure of the consequent is asked only about the
    applications compared, by membership (`closure_oracle`); backward, the
    deeper arrow closure is a whole table, since every arrow member with
    no application evidence is looked up in it to count the skipped ones.
    Arrow members whose application evidence lies entirely out of the
    universe carry no information and are skipped; escaped applications
    are tallied as boundary.
    """
    u = bounds.universe
    t_a = closure(theory, delta, a_prop, env, k_max, bounds)
    t_b = closure(theory, delta, b_prop, env, k_max, bounds)
    t_ab = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, bounds)
    b_deep = closure_oracle(theory, delta, b_prop, env, k_max, _deeper(bounds))
    t_ab_deep = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, _deeper(bounds))

    violations = []
    boundary = 0
    checked = 0
    # As in imp_candidate_ex: the applications in the universe are read
    # from it, in its order, and closure members are universe members.
    sources, ab = u.mask(t_a.members), u.mask(t_ab.members)
    tested = 0
    for bit, p, apps in u.applications:
        if ab & bit:
            for arg, app in apps:
                if sources & arg:
                    tested += 1
                    if u.order[app.bit_length() - 1] not in b_deep:
                        violations.append(("not in arrow", p, u.order[arg.bit_length() - 1]))
    checked += tested
    boundary += sources.bit_count() * ab.bit_count() - tested

    res = imp_candidate_ex(t_a, t_b, u)
    boundary += res.boundary
    backward_pool = res.members.members - t_ab_deep.members
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
    u = bounds.universe
    violations = []
    for k in range(max(len(lhs.stages), len(rhs.stages))):
        sl = lhs.stages[min(k, len(lhs.stages) - 1)]
        sr = rhs.stages[min(k, len(rhs.stages) - 1)]
        if sl != sr:
            diff = tuple(u.members_of(u.mask(sl ^ sr)))
            violations.append((k, diff))
    checked = sum(len(s) for s in lhs.stages)
    return Verdict.of(violations, checked=checked, name="clsubst")


def verify_clfamorph(theory: Theory, delta: Context, x: str, body: Proposition,
                     env: dict, k_max: int, bounds: SearchBounds,
                     term_universe) -> Verdict:
    """The closure of a quantified proposition is the intersection of the
    closures of its instances over the term universe, both inclusions.

    As with the arrow morphism, each direction spends one silent
    quantifier rule, so the target side of each inclusion is decided one
    derivation level deeper, by membership (`closure_oracle`): forward,
    each member of the quantified closure is asked of the instances'
    deeper closures in turn, up to the first that lacks it; backward, each
    member of the intersection is asked of the quantified deeper closure.
    Both sides are asked in the universe's order.
    """
    lhs = closure(theory, delta, Forall(x, body), env, k_max, bounds)
    lhs_deep = closure_oracle(theory, delta, Forall(x, body), env, k_max, _deeper(bounds))
    family = [closure(theory, delta, body, {**env, x: t}, k_max, bounds)
              for t in term_universe]
    family_deep = [closure_oracle(theory, delta, body, {**env, x: t}, k_max, _deeper(bounds))
                   for t in term_universe]
    rhs = forall_candidate(family)
    u = bounds.universe
    forward = [p for p in u.members_of(u.mask(lhs.members))
               if not all(p in deep for deep in family_deep)]
    backward = [p for p in u.members_of(u.mask(rhs.members)) if p not in lhs_deep]
    violations = tuple(("not in intersection", p) for p in forward) \
        + tuple(("not in quantified closure", p) for p in backward)
    checked = len(lhs.members) + len(rhs.members)
    return Verdict.of(violations, checked=checked, name="clfamorph")


# ---------------------------------------------------------------------------
# Adequacy: a checked derivation, instantiated by a substitution adequate
# for its context, lands in the closure of its proposition.

def adequacy_check(d, value, sigma: dict, env: dict, bounds: SearchBounds) -> Verdict:
    """`value(prop, env)` is an interpretation into sets of proof-terms,
    such as `ClosureTable`s, `ClosureOracle`s or `FiniteCandidate`s: only
    membership is asked of them.

    Precondition checked here: sigma sends every context hypothesis into
    the value of its proposition.  The instantiated subject escaping the
    universe is reported as unknown, not failure.
    """
    for name, prop in d.ctx:
        if name not in sigma or sigma[name] not in value(prop, env):
            return Verdict("fail", ((name, prop, "substitution not adequate"),),
                           name="adequacy")
    subject = apply_proof_subst(d.subject, sigma)
    if subject not in bounds.universe.members:
        return Verdict("unknown", boundary=1, unknown=1, name="adequacy")
    if subject in value(d.prop, env):
        return Verdict("pass", name="adequacy")
    return Verdict("fail", ((subject, d.prop),), name="adequacy")


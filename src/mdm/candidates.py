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
each stage-0 set it computes, and each closure table built over it: a
closure asked again over the same universe, target, depth, k_max and
n_max is the table built the first time (a pass of the benchmark's
closure-lemmas workload asks for 17 closures and builds 11 tables).

The candidate algebra runs on bit sets.  A Universe indexes, once and on
first use, what these operations read of it, over the bits of its members
(a member's bit is its position in the universe's order): each member's
reducts in the universe and count of escaping ones, the members whose SN
verdict diverges or is unknown, each member's applications that are
members (the arrow's evidence; every size is read from its node, `size`),
and the expansion rows, each compiled to the bits of its instances before
the first one outside the universe.  None of it is built with the
universe, only when a check first asks for it.  A candidate built over a
universe carries its bits (`FiniteCandidate`), so that inclusion, meet,
the arrow, the CR checks and the expansion steps are int operations, and
a term is hashed only into a candidate's member set; any other set, such
as a closure table, is converted once per check.  An expansion row's
instances are built from the marked occurrences directly: the term with
each marked subterm replaced at its path by one of its reducts, with no
hole term in between.

Bounds are first-class: a Universe fixes the term pool and size cap,
derivation search depth under-approximates the stage-0 sets, and any
quantified instance that escapes the universe is excluded from a check
and tallied.  Every check (the CR properties, the closure lemmas
`verify_*` and `adequacy_check`) returns a `Verdict`, whose
"pass" is always a pass-within-bounds, with the boundary, unknown and
skipped tallies reported alongside.

`adequacy_check` reads its model the way `semantics.check_model` does: as
a function `value(prop, env)`, here into sets of proof-terms (closure
tables or candidates), so one memoized closure model can serve both the
completeness and the soundness check.
"""
from __future__ import annotations

import gc
import hashlib
import itertools
import random
import re
import sys
from collections import defaultdict, namedtuple
from functools import cached_property

from .reduction import (
    SN, SN_BUDGET, Diverges, _positions, beta_reducts, replace_at, sn_cached,
)
from .rewriting import Theory, Yes, congruent
from .syntax import (
    CHURCH, CURRY, Atom, Forall, Imp, PApp, PLam, PVar, Proposition,
    ProofTerm, Record, TApp, TLam, Term, Var, apply_proof_subst, apply_prop_subst,
    bound_proof_vars, canon, free_proof_vars, free_term_vars, fresh_name,
    is_neutral, is_normal, keep_canon, open_forall, print_proof, print_prop,
    proof_height, size, subst_proof, subst_term_in_prop, subterms,
)
from .typecheck import Context
from .verdict import Verdict


# ---------------------------------------------------------------------------
# Universes

class Universe(Record):
    """All pure lambda proof-terms of size <= max_size (modulo alpha) whose
    free variables come from the pool.  A one-step reduct of a member may
    leave the size bound; the universe does not record such terms, and each
    check tallies the escapes it meets as its own boundary.

    `order` lists the members once each, in `build_universe`'s generation
    order (in `canon` order when not given), so that a scan of the universe
    does the same work whatever the hash seed.  The members of a built
    universe carry their `canon` from the build, so hashing them into
    `members` walks no tree.

    A universe indexes its members for the checks that scan it: `redexes`,
    and the bit index that the candidate algebra runs on.  A member's bit
    is 1 << its position in `order` (`positions`), and a set of members is
    the int of their bits, its mask (`mask`, `members_of`).  The bit index
    holds each member's reducts in the universe and count of escaping ones
    (`reducts`), the masks of the SN verdict classes (`sn_classes`), each
    member's application pairs (`applications`) and the expansion rows
    compiled to masks (`rows`, `reduct_rows`).  Each index is built on its
    first use, never with the universe, and kept for the life of the
    universe: a pass of the benchmark's candidate-algebra workload builds
    all but CR3's `reduct_rows`, and a pass of closure-lemmas only
    `positions`, `rows` and, for the arrow lemma, `applications`.  Neither
    `order` nor the indexes are fields: they take no part in == or hash."""

    _fields = ("max_size", "pool", "members")

    def __init__(self, max_size: int, pool: tuple, members: frozenset,
                 order: tuple | None = None):
        object.__setattr__(self, "max_size", max_size)
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "members", members)
        if order is None:
            order = tuple(sorted(members, key=canon))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_rows", {})

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
    def positions(self) -> dict:
        """member -> its position in `order`, the index of its bit."""
        return {p: i for i, p in enumerate(self.order)}

    def mask(self, terms) -> tuple:
        """(mask, outside): the bits of the terms that are members, and the
        terms that are not, in the order given."""
        positions = self.positions
        mask = 0
        outside = []
        for p in terms:
            i = positions.get(p)
            if i is None:
                outside.append(p)
            else:
                mask |= 1 << i
        return mask, tuple(outside)

    def members_of(self, mask: int) -> list:
        """The members whose bits the mask sets, in `order`."""
        return list(_select(self.order, mask))

    @cached_property
    def reducts(self) -> tuple:
        """(bit, member, the bits of its one-step reducts in the universe,
        the number of its reducts outside it) for each member of
        `redexes`: no other member has a reduct."""
        positions = self.positions
        out = []
        for p in self.redexes:
            mask, outside = self.mask(beta_reducts(p))
            out.append((1 << positions[p], p, mask, len(outside)))
        return tuple(out)

    @cached_property
    def sn_classes(self) -> tuple:
        """(sn, diverging, unknown): the masks of the members whose verdict
        at `SN_BUDGET` is SN, Diverges, and neither.  A normal member is SN
        without being asked."""
        diverging = unknown = 0
        positions = self.positions
        for p in self.redexes:
            v = sn_cached(p, SN_BUDGET)
            if isinstance(v, Diverges):
                diverging |= 1 << positions[p]
            elif not isinstance(v, SN):
                unknown |= 1 << positions[p]
        full = (1 << len(self.order)) - 1
        return full & ~(diverging | unknown), diverging, unknown

    @cached_property
    def applications(self) -> tuple:
        """The arrow's evidence: (bit, member p, pairs) for each member p, in
        `order`, that has pairs (bit of m, bit of PApp(p, m)), one for each
        member m whose application to p fits the size cap and is a member,
        smaller m first.  In a built universe every application that fits
        is a member; most members have none."""
        by_size = defaultdict(list)
        for i, m in enumerate(self.order):
            by_size[size(m)].append((1 << i, m))
        positions = self.positions
        out = []
        for i, p in enumerate(self.order):
            room = self.max_size - 1 - size(p)
            pairs = ((bit, positions.get(PApp(p, m))) for n in range(1, room + 1)
                     for bit, m in by_size[n])
            pairs = tuple((bit, 1 << j) for bit, j in pairs if j is not None)
            if pairs:
                out.append((1 << i, p, pairs))
        return tuple(out)

    def rows(self, n_max: int, captured_ok: bool) -> tuple:
        """The simultaneous-expansion rows (`expansion_rows`) compiled for
        `_forced`: (bit, member, rows) for each member of `redexes` that has
        a row, and each row compiled to (pairs, *`_compiled(instances)`).
        Only the compiled rows are kept."""
        key = (n_max, captured_ok)
        rows = self._rows.get(key)
        if rows is None:
            positions = self.positions
            rows = []
            for p in self.redexes:
                compiled = tuple((pairs, *self._compiled(instances))
                                 for pairs, instances in expansion_rows(p, n_max, captured_ok))
                if compiled:
                    rows.append((1 << positions[p], p, compiled))
            rows = self._rows[key] = tuple(rows)
        return rows

    @cached_property
    def reduct_rows(self) -> tuple:
        """CR3's rows, in the form of `rows`: each neutral member of
        `redexes` has one, whose instances are its one-step reducts in
        `canon` order."""
        positions = self.positions
        return tuple((1 << positions[p], p,
                      (((), *self._compiled(tuple(sorted(beta_reducts(p), key=canon)))),))
                     for p in self.redexes if is_neutral(p))

    def _compiled(self, instances: tuple) -> tuple:
        """(the bits of the instances before the first one outside the
        universe, the instances from that one on)."""
        positions = self.positions
        pre = 0
        for k, inst in enumerate(instances):
            i = positions.get(inst)
            if i is None:
                return pre, instances[k:]
            pre |= 1 << i
        return pre, ()


# the binary digits of a mask as the bytes 0 and 1
_DIGITS = str.maketrans("01", "\x00\x01")


def _select(items, mask: int):
    """The items whose positions' bits the mask sets, lowest first: the
    mask's digits, lowest first, are the selectors of `compress`."""
    return itertools.compress(items, bin(mask)[:1:-1].translate(_DIGITS).encode())


def build_universe(max_size: int, pool) -> Universe:
    """Every term up to max_size over the pool.  Binders are named v1, v2,
    ... by depth, so a pool name of that form would be captured by them
    and is refused.

    The terms are built layer by layer: `layer[n, d]` holds the terms of
    size n under d binders, whose free variables are the pool's and v1 ..
    vd, each paired with its alpha-canonical tuple at de Bruijn levels,
    built from its children's.  A member has no binder above it, so its
    tuple is its `canon`, and the member keeps it from the build: hashing
    the members walks no tree.

    The build makes no reference cycles, so the cyclic garbage collector,
    which would otherwise scan the growing layers again and again (a third
    of a size-10 build), is paused while they are filled, if it was
    running."""
    pool = tuple(pool)
    clashes = [v for v in pool if re.fullmatch(r"v\d+", v)]
    if clashes:
        raise ValueError(f"pool names {clashes} have the form v<digits> of the universe's binders")
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        layer = {}
        for n in range(1, max_size + 1):
            for d in range(max_size - n, -1, -1):
                if n == 1:
                    # a binder at depth i - 1 is v<i>, bound at level i - 1
                    items = [(PVar(v), ("pv", v)) for v in pool]
                    items += [(PVar(f"v{i}"), ("pb", i - 1)) for i in range(1, d + 1)]
                else:
                    var = f"v{d + 1}"
                    items = [(PLam(var, b), ("pl", c)) for b, c in layer[n - 1, d + 1]]
                    for i in range(1, n - 1):
                        args = layer[n - 1 - i, d]
                        for f, cf in layer[i, d]:
                            items += [(PApp(f, a), ("pa", cf, ca)) for a, ca in args]
                layer[n, d] = items
        members = []
        for n in range(1, max_size + 1):
            for p, c in layer[n, 0]:
                keep_canon(p, c)
                members.append(p)
    finally:
        if paused:
            gc.enable()
            # one collection of the young generations moves the build's
            # objects to the old one, as the running collector would have;
            # left young, they would be scanned twice by later collections
            gc.collect(1)
    return Universe(max_size, pool, frozenset(members), tuple(members))


class FiniteCandidate(Record):
    """A set of universe members standing in for a reducibility candidate.

    A candidate that `random_candidates`, `sn_slice`, `forall_candidate`
    or `imp_candidate_ex` builds over a universe also carries its mask
    there, as (universe, mask) in the slot `_bits`, which is not a field:
    `members`, == and hash are those of the member set alone.  The checks
    over that universe read the mask; any other set is converted to one
    once per check (`_bits_over`)."""

    __slots__ = ("members", "_bits")
    _fields = ("members",)

    def __contains__(self, p):
        return p in self.members

    def __len__(self):
        return len(self.members)


def _candidate(u: Universe, mask: int, members: frozenset | None = None) -> FiniteCandidate:
    """The candidate of the mask's members (given, or read off the mask),
    carrying the mask."""
    c = FiniteCandidate(frozenset(u.members_of(mask)) if members is None else members)
    object.__setattr__(c, "_bits", (u, mask))
    return c


def _bits_over(s, u: Universe) -> tuple:
    """(mask, outside) of the set s (a candidate or closure table) over u:
    the mask it carries there, or else `u.mask` of its members."""
    bits = getattr(s, "_bits", None)
    if bits is not None and bits[0] is u:
        return bits[1], ()
    return u.mask(s.members)


# ---------------------------------------------------------------------------
# CR properties, bounded.  Failures are listed in the universe's order, and
# the members of a set outside it after them.

def cr1(s: FiniteCandidate) -> Verdict:
    """Every member strongly normalizing (within the node budget).  A
    candidate carrying a mask reads the universe's SN classes; any other
    set asks each member, and lists its failures in `canon` order."""
    bits = getattr(s, "_bits", None)
    if bits is not None:
        u, mask = bits
        _, diverging, unknown = u.sn_classes
        failures = u.members_of(mask & diverging)
        unknown = (mask & unknown).bit_count()
    else:
        failures = []
        unknown = 0
        for p in s.members:
            v = sn_cached(p, SN_BUDGET)
            if isinstance(v, Diverges):
                failures.append(p)
            elif not isinstance(v, SN):
                unknown += 1
        failures.sort(key=canon)
    if failures:
        return Verdict("fail", tuple(failures), unknown=unknown, name="cr1")
    return Verdict("unknown" if unknown else "pass", unknown=unknown, name="cr1")


def cr2(s: FiniteCandidate, u: Universe) -> Verdict:
    """Closed under one-step reduction; reducts escaping the universe are
    tallied, not failed."""
    mask, outside = _bits_over(s, u)
    failures = []
    boundary = 0
    for bit, p, inside, escaped in u.reducts:
        if mask & bit:
            boundary += escaped
            if missing := inside & ~mask:
                failures += [(p, r) for r in u.members_of(missing)]
    for p in sorted(outside, key=canon):
        inside, escaped = u.mask(beta_reducts(p))
        boundary += len(escaped)
        failures += [(p, r) for r in u.members_of(inside & ~mask)]
    return Verdict.of(failures, boundary=boundary, name="cr2")


def cr3(s: FiniteCandidate, u: Universe) -> Verdict:
    """Every neutral universe member whose reducts all belong to s belongs
    to s.  Neutral terms with a reduct outside the universe impose nothing
    (see `_forced` for the boundary tally).  This is cr3aux plus the
    normal neutral members, which have no reducts and so must all belong
    to s."""
    mask, outside = _bits_over(s, u)
    forced, _, boundary = _forced(mask, outside, u, u.reduct_rows)
    normal = sum(1 << i for i, p in enumerate(u.order) if is_neutral(p) and is_normal(p))
    return Verdict.of(u.members_of(forced | normal & ~mask), boundary=boundary, name="cr3")


def cr3aux(s: FiniteCandidate, u: Universe) -> Verdict:
    """cr3 restricted to non-normal terms: normal neutral terms (such as a
    variable applied to a variable) impose nothing.  Each neutral
    non-normal member has one expansion row, its one-step reducts."""
    mask, outside = _bits_over(s, u)
    _, forced, boundary = _forced(mask, outside, u, u.reduct_rows)
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


def _markings(p: ProofTerm, n_max: int, captured_ok: bool):
    """Yield each choice of 1 to n_max pairwise-disjoint occurrences of
    `_occurrences`, fewer first, in `itertools.combinations` order, as a
    tuple of (path, hole name, subterm).  The i-th chosen occurrence gets
    the hole name `hole<i>`, made fresh for the names of p."""
    occs = _occurrences(p, captured_ok)
    if not occs:
        return
    taken = free_proof_vars(p) | bound_proof_vars(p)
    # interned, so that the rows of every member share each hole name
    holes = [fresh_name(sys.intern(f"hole{i}"), taken)
             for i in range(1, min(n_max, len(occs)) + 1)]
    for n in range(1, len(holes) + 1):
        for chosen in itertools.combinations(occs, n):
            if _disjoint([path for path, _ in chosen]):
                yield tuple((path, hole, sub) for hole, (path, sub) in zip(holes, chosen))


def decompositions(p: ProofTerm, n_max: int, captured_ok: bool = True):
    """Yield (nu, pairs) where pairs is a tuple of (hole-name, subterm) and
    grafting the pairs into nu (in order) rebuilds p."""
    for marks in _markings(p, n_max, captured_ok):
        nu = p
        for path, hole, _ in marks:
            nu = replace_at(nu, path, PVar(hole))
        yield nu, tuple((hole, sub) for _, hole, sub in marks)


def expansion_rows(p: ProofTerm, n_max: int, captured_ok: bool):
    """Yield p's simultaneous-expansion rows (pairs, instances), one per
    marking of `_markings`, the order `decompositions` yields them in.  The
    instances are the simultaneous-reduct instances of the decomposition:
    p with each marked subterm replaced at its path by one of its one-step
    reducts, taken in `canon` order, the first marked subterm's reduct
    varying slowest.  They are the very nodes that grafting the reducts
    into the hole term nu gives, without building nu."""
    for marks in _markings(p, n_max, captured_ok):
        instances = [p]
        for path, _, sub in marks:
            instances = [replace_at(q, path, r) for q in instances
                         for r in sorted(beta_reducts(sub), key=canon)]
        yield tuple((hole, sub) for _, hole, sub in marks), tuple(instances)


# ---------------------------------------------------------------------------
# The expansion rule shared by CR3, CR3', Cl^k and candidate_close

def _forced(s: int, outside: tuple, u: Universe, rows, usable=None):
    """(forced bits, {p: pairs of p's first forcing row}, boundary rows)
    over the members p of `rows` (see `Universe.rows`) outside the set
    whose mask over u is s and whose terms outside u are `outside`.  A row
    forces p when usable(pairs) holds (if given) and every instance lies in
    the set.  A row whose first instance outside the set is outside u is
    tallied as boundary: an escaped instance neither forces p nor makes it
    a failure.  A row's instances from the first escaped one on are walked
    only when the set has terms outside u; else that one is not in it."""
    absent = ~s
    bits = 0
    forced = {}
    boundary = 0
    for bit, p, prow in rows:
        if s & bit:
            continue
        for pairs, pre, rest in prow:
            if usable is not None and not usable(pairs):
                continue
            if pre & absent:
                continue
            if rest:
                first = _first_absent(rest, s, outside, u.positions) if outside else rest[0]
                if first is not None:
                    boundary += first not in u.positions
                    continue
            bits |= bit
            forced[p] = pairs
            break
    return bits, forced, boundary


def _first_absent(instances, s: int, outside: tuple, positions: dict):
    """The first instance outside the set (mask s over the universe of
    `positions`, and the terms outside it), or None."""
    for inst in instances:
        i = positions.get(inst)
        if not (s >> i & 1 if i is not None else inst in outside):
            return inst
    return None


# The number of holes in the simultaneous expansion property, and in the
# candidates generated to satisfy it.
_CR3PRIME_HOLES = 2


def cr3prime(s: FiniteCandidate, u: Universe) -> Verdict:
    """Simultaneous expansion property: whenever every simultaneous-reduct
    instance of a marked term lies in s, the marked term itself must.

    Marked subterms are the neutral non-normal subterms that capture no
    enclosing binder; each is itself a universe member, being no larger
    than the term and free only in the pool.  A row with an instance
    outside the universe constrains nothing and may be tallied as boundary
    (see `_forced`).  Failures are the forced non-members with the pairs
    of their first forcing row.
    """
    mask, outside = _bits_over(s, u)
    _, forced, boundary = _forced(mask, outside, u, u.rows(_CR3PRIME_HOLES, captured_ok=False))
    return Verdict.of(tuple(forced.items()), boundary=boundary, name="cr3prime")


# ---------------------------------------------------------------------------
# The candidate algebra operations

class ArrowResult(Record):
    """`members` is the arrow's FiniteCandidate.  `boundary` counts the
    applications that left the universe;
    `untested` holds the members none of whose applications fit the
    universe, and `partially_tested` those with some escaped applications."""

    __slots__ = _fields = ("members", "boundary", "untested", "partially_tested")


def imp_candidate_ex(a: FiniteCandidate, b: FiniteCandidate, u: Universe) -> ArrowResult:
    """Arrow operation: members sending every member of a into b.

    The members of a must be members of u.  Applications that leave the
    universe do not constrain membership; they are tallied, and members
    whose evidence is partial or empty are reported so callers can treat
    them as boundary cases.
    """
    sources, outside = _bits_over(a, u)
    if outside:
        raise ValueError("the arrow's source has members outside the universe")
    targets, _ = _bits_over(b, u)
    n_sources = sources.bit_count()
    members = (1 << len(u.order)) - 1
    boundary = 0
    rejected = []
    tested_some = []
    partial = []
    # Each member's applications in the universe are read from it and kept
    # when their argument is in a; the other members of a escape.  Most
    # members have none, and all of a escapes them.
    for bit, p, apps in u.applications:
        ok = True
        tested = 0
        for arg, app in apps:
            if sources & arg:
                tested += 1
                if not targets & app:
                    ok = False
                    break
        if not ok:
            members ^= bit
            rejected.append(p)
            continue
        escaped = n_sources - tested
        boundary += escaped
        if tested:
            tested_some.append(p)
            if escaped:
                partial.append(p)
    boundary += n_sources * (len(u.order) - len(u.applications))
    # the member sets are read off sets already built, hashing only the few
    # members that have applications
    arrow = _candidate(u, members, u.members.difference(rejected))
    untested = arrow.members.difference(tested_some) if n_sources else frozenset()
    return ArrowResult(arrow, boundary, untested, frozenset(partial))


def imp_candidate(a: FiniteCandidate, b: FiniteCandidate, u: Universe) -> FiniteCandidate:
    return imp_candidate_ex(a, b, u).members


def forall_candidate(family) -> FiniteCandidate:
    """Greatest lower bound for inclusion: plain intersection.  When every
    candidate of the family carries a mask over one universe, the meet
    carries the & of their masks."""
    family = list(family)
    if not family:
        raise ValueError("quantifier candidate needs a non-empty family")
    out = family[0].members
    u, mask = getattr(family[0], "_bits", (None, 0))
    for c in family[1:]:
        out &= c.members
        cu, c_mask = getattr(c, "_bits", (None, 0))
        u = u if cu is u else None
        mask &= c_mask
    return FiniteCandidate(out) if u is None else _candidate(u, mask, out)


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

    `stage0` keeps each stage-0 set it computes, keyed by the universe's
    members, the target and the depth, and `closures` keeps each
    `ClosureTable` that `closure` builds over the search, keyed by the
    same three plus `k_max` and `n_max`.  So a closure asked again over the
    same universe, target and bounds is the table built the first time.
    The keys hold the member set and not the universe, whose indexes the
    search need not keep alive.

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
        """Drop every shared search, with its memo, stage-0 sets and
        closure tables."""
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
        self._depths = {}  # each pair of depths of the memo -> itself
        self._rules = {}  # goal -> _GoalRules
        self._stage0 = {}  # (universe members, target, depth) -> stage-0 set
        # (universe members, target, depth, k_max, n_max) -> ClosureTable
        self.closures = {}

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
        depths = (min(proved, depth), refuted) if out else (proved, max(refuted, depth))
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


def cl_step(prev: frozenset, u: Universe, n_max: int):
    """One expansion stage: add the universe members admitting a marked
    decomposition into Omega subterms all of whose simultaneous-reduct
    instances already belong to the previous stage.  Marked subterms are
    neutral and not normal by construction, so Omega membership is their
    strong normalization, asked at the node budget `SN_BUDGET`.

    Returns (members, boundary_escapes, unknown_mu); members is prev
    itself when nothing joins."""
    unknown_mu = 0

    def all_sn(pairs):
        nonlocal unknown_mu
        ok = True
        for _, m in pairs:
            v = sn_cached(m, SN_BUDGET)
            if not isinstance(v, SN):
                ok = False
                unknown_mu += not isinstance(v, Diverges)
        return ok

    mask, outside = u.mask(prev)
    _, forced, boundary = _forced(mask, outside, u, u.rows(n_max, captured_ok=True), all_sn)
    return prev.union(forced) if forced else prev, boundary, unknown_mu


def closure(theory: Theory, delta: Context, prop: Proposition, env: dict,
            k_max: int, bounds: SearchBounds) -> ClosureTable:
    """Stage 0 by derivation search, then k_max expansion steps (stopping
    at a fixpoint), recording each member's first stage.

    The table is built once per shared search (`DerivationSearch.closures`),
    universe members, environment-instantiated proposition, depth, k_max
    and n_max: a closure asked again returns the same table, which its
    callers only read."""
    target = apply_prop_subst(prop, env)
    search = DerivationSearch.shared(theory, delta, target, bounds)
    u = bounds.universe
    key = (u.members, target, bounds.depth, k_max, bounds.n_max)
    table = search.closures.get(key)
    if table is not None:
        return table
    stages = [cl0(theory, delta, prop, env, bounds)]
    first = dict.fromkeys(stages[0], 0)
    boundary = unknown = 0
    fix = None
    for k in range(1, k_max + 1):
        nxt, b, um = cl_step(stages[-1], u, bounds.n_max)
        boundary += b
        unknown += um
        first.update(dict.fromkeys(nxt - stages[-1], k))
        stages.append(nxt)
        if nxt is stages[-2]:
            fix = k - 1
            break
    table = search.closures[key] = ClosureTable(tuple(stages), first, boundary, unknown, fix)
    return table


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
    hyp_bounds = bounds.replace(depth=max(1, bounds.depth - 1))
    table_b = closure(theory, delta, b_prop, env, k_max, hyp_bounds)
    table_ab = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, bounds)
    phi_a = apply_prop_subst(a_prop, env)
    hyps_at_a = [PVar(n) for n, p in delta if p == phi_a]
    violations = []
    checked = skipped = boundary = 0
    binders = sorted(set(u.pool) | {"vfresh"})
    for p in u.members:
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
    # As in imp_candidate_ex: the applications in the universe are read
    # from it, and closure members are universe members.
    (sources, _), (targets, _) = u.mask(t_a.members), u.mask(t_b_deep.members)
    ab = u.mask(t_ab.members)[0]
    tested = 0
    for bit, p, apps in u.applications:
        if ab & bit:
            for arg, app in apps:
                if sources & arg:
                    tested += 1
                    if not targets & app:
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
    rhs = forall_candidate(family)
    rhs_deep = forall_candidate(family_deep)
    forward = tuple(p for p in lhs.members if p not in rhs_deep.members)
    backward = tuple(p for p in rhs.members if p not in lhs_deep.members)
    violations = tuple(("not in intersection", p) for p in forward) \
        + tuple(("not in quantified closure", p) for p in backward)
    checked = len(lhs.members) + len(rhs.members)
    return Verdict.of(violations, checked=checked, name="clfamorph")


# ---------------------------------------------------------------------------
# Adequacy: a checked derivation, instantiated by a substitution adequate
# for its context, lands in the closure of its proposition.

def adequacy_check(d, value, sigma: dict, env: dict, bounds: SearchBounds) -> Verdict:
    """`value(prop, env)` is an interpretation into sets of proof-terms,
    such as `ClosureTable`s or `FiniteCandidate`s.

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


# ---------------------------------------------------------------------------
# Random closed candidates (for the algebra-law battery)

def sn_slice(u: Universe) -> FiniteCandidate:
    return _candidate(u, u.sn_classes[0])


def candidate_close(seed_members, u: Universe) -> frozenset:
    """The least superset of the seed closed under in-universe one-step
    reducts and under the expansion rule of cr3prime: a member joins when
    some marked decomposition has all its simultaneous-reduct instances in
    the set, and a decomposition with an instance outside the universe
    forces nothing.  The result passes cr3prime by construction."""
    mask, outside = u.mask(seed_members)
    return frozenset(u.members_of(_close(mask, outside, u))).union(outside)


def _close(mask: int, outside: tuple, u: Universe) -> int:
    """The mask over u of `candidate_close` of the set whose mask is mask
    and whose terms outside u are `outside`."""
    reducts = u.reducts
    rows = u.rows(_CR3PRIME_HOLES, captured_ok=False)
    fresh = mask | u.mask(r for p in outside for r in beta_reducts(p))[0]
    mask |= fresh
    while True:
        while fresh:
            reached = 0
            for bit, _, inside, _ in reducts:
                if fresh & bit:
                    reached |= inside
            fresh = reached & ~mask
            mask |= fresh
        fresh, _, _ = _forced(mask, outside, u, rows)
        if not fresh:
            return mask
        mask |= fresh


def random_candidates(u: Universe, count: int, seed: int):
    """Deterministically sample non-empty subsets of the strongly
    normalizing slice and close them with `candidate_close`; only closures
    passing CR1 are returned (at most 20 tries per candidate).  CR2 and
    CR3' hold by construction of the closure.  Each carries its mask."""
    rng = random.Random(seed)
    base = sorted(_select(itertools.count(), u.sn_classes[0]), key=lambda i: canon(u.order[i]))
    if not base:
        return []
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 20:
        attempts += 1
        k = rng.randint(1, max(1, len(base) // 3))
        mask = _close(sum(1 << i for i in rng.sample(base, min(k, len(base)))), (), u)
        if not mask:
            continue
        cand = _candidate(u, mask)
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

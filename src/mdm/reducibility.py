"""Reducibility candidates over finite proof-term universes: the
candidate algebra.

A `Universe` fixes a term pool and a size cap, and a candidate is a set of
its members (`FiniteCandidate`).  This module holds the CR closure
properties, the candidate algebra operations (arrow and intersection), the
marked decompositions and their expansion rows, and the random candidates
of the algebra-law battery.  Stage 0 of the closure, the derivation
search, is `mdm.search`; the closure Cl^k and its lemma checks are
`mdm.closure`.

Every set that a check over a universe reads lies in that universe: the
check refuses, with a `ValueError`, a set holding a term outside it
(`_bits_over`).  Membership beyond the universe is a question for a
membership oracle, not for a set.

One expansion rule (`_forced`) carries CR3, CR3', the closure step Cl^k
and the candidate generator: a member outside a set is forced into it by
an expansion row whose marked subterms pass the caller's test and whose
instances (the term's reducts, or the simultaneous-reduct instances of a
marked decomposition) all lie in the set.  An instance outside the
universe is no evidence either way: its row forces nothing and is tallied
as boundary.  A scan may be semi-naive: given the members that joined
the set since the last one, it examines only the members whose rows wait
on one of them (the Cl^k steps and `candidate_close` scan so).

The candidate algebra runs on bit sets.  A Universe indexes, once and on
first use, what these operations read of it, over the bits of its members
(a member's bit is its position in the universe's order): each member's
reducts in the universe and count of escaping ones, the members whose SN
verdict diverges or is unknown, each member's applications that are
members (the arrow's evidence; every size is read from its node, `size`),
and the expansion rows, each compiled to the bits of its instances before
the first one outside the universe and whether there is such a one.
None of it is built with the universe, only when a check first asks for
it.  A candidate built over a universe carries its bits
(`FiniteCandidate`), so that inclusion, meet, the arrow, the CR checks
and the expansion steps are int operations, and a term is hashed only
into a candidate's member set; any other set, such as a closure table,
is converted once per check.  An expansion row's instances are built
from the marked occurrences directly: the term with each marked subterm
replaced at its path by one of its reducts, with no hole term in between.

Bounds are first-class: every reduct, instance or application that
escapes the universe is excluded from a check and tallied.  Every CR
check returns a `Verdict`, whose "pass" is always a pass-within-bounds,
with the boundary and unknown tallies reported alongside.
"""
from __future__ import annotations

import gc
import itertools
import random
import re
import sys
from collections import defaultdict
from functools import cached_property

from .reduction import (
    SN, SN_BUDGET, Diverges, _positions, beta_reducts, replace_at, sn_cached,
)
from .syntax import (
    PApp, PLam, PVar, ProofTerm, Record, bound_proof_vars, canon, free_proof_vars,
    fresh_name, is_neutral, is_normal, keep_canon, size,
)
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
    `positions`, `rows` and, for the arrow lemma, `applications`.

    `binders`, when given, holds every name a member's binders use (a
    built universe's are v1 .. v<max_size>), so that the expansion rows
    pick their hole names without walking the members (`_markings`).
    Neither `order`, `binders` nor the indexes are fields: they take no
    part in == or hash."""

    _fields = ("max_size", "pool", "members")

    def __init__(self, max_size: int, pool: tuple, members: frozenset,
                 order: tuple | None = None, binders: frozenset | None = None):
        object.__setattr__(self, "max_size", max_size)
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "members", members)
        if order is None:
            order = tuple(sorted(members, key=canon))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "binders", binders)
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

    def mask(self, terms) -> int:
        """The bits of the terms that are members; the others have none."""
        positions = self.positions
        mask = 0
        for p in terms:
            i = positions.get(p)
            if i is not None:
                mask |= 1 << i
        return mask

    def members_of(self, mask: int) -> list:
        """The members whose bits the mask sets, in `order`."""
        return list(_select(self.order, mask))

    @cached_property
    def reducts(self) -> tuple:
        """(bit, member, the bits of its one-step reducts in the universe,
        the number of its reducts outside it) for each member of
        `redexes`: no other member has a reduct.  The reducts are
        alpha-distinct, and each member has one bit."""
        positions = self.positions
        out = []
        for p in self.redexes:
            reducts = beta_reducts(p)
            mask = self.mask(reducts)
            out.append((1 << positions[p], p, mask, len(reducts) - mask.bit_count()))
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
        `_forced`: an entry (bit, member, rows, wait, 0) for each member of
        `redexes` that has a row, each row compiled to (pairs, pre,
        escapes, 0) with (pre, escapes) `_compiled(instances)`, and wait
        the | of the rows' `pre` bits.  The zeros are unknown tallies,
        which only a caller that drops the rows failing a test of their
        marked subterms counts (see `_forced`).  Only the compiled rows
        are kept: a row with an instance outside the universe keeps no
        term, only the flag."""
        key = (n_max, captured_ok)
        rows = self._rows.get(key)
        if rows is None:
            entries = (self._entry(p, tuple((pairs, *self._compiled(instances), 0)
                                            for pairs, instances in expansion_rows(
                                                p, n_max, captured_ok, self.binders)))
                       for p in self.redexes)
            rows = self._rows[key] = tuple(entry for entry in entries if entry[2])
        return rows

    @cached_property
    def reduct_rows(self) -> tuple:
        """CR3's rows, in the form of `rows`: each neutral member of
        `redexes` has one, whose instances are its one-step reducts in
        `canon` order."""
        return tuple(self._entry(p, (((), *self._compiled(
                         tuple(sorted(beta_reducts(p), key=canon))), 0),))
                     for p in self.redexes if is_neutral(p))

    def _entry(self, p: ProofTerm, compiled: tuple) -> tuple:
        """The entry of `rows` for p and its compiled rows."""
        return 1 << self.positions[p], p, compiled, _wait(compiled), 0

    def _compiled(self, instances: tuple) -> tuple:
        """(pre, escapes): the bits of the instances before the first one
        outside the universe, and whether there is such a one."""
        positions = self.positions
        pre = 0
        for inst in instances:
            i = positions.get(inst)
            if i is None:
                return pre, True
            pre |= 1 << i
        return pre, False


def _wait(compiled: tuple) -> int:
    """The wait mask of compiled rows: the | of their `pre` bits."""
    wait = 0
    for _, pre, _, _ in compiled:
        wait |= pre
    return wait


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
    binders = frozenset(f"v{i}" for i in range(1, max_size + 1))
    return Universe(max_size, pool, frozenset(members), tuple(members), binders)


class FiniteCandidate(Record):
    """A set of universe members standing in for a reducibility candidate.
    A check over a universe refuses a candidate with a member outside it.

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


def _bits_over(s, u: Universe) -> int:
    """The mask over u of the set s (a candidate or closure table): the
    mask it carries there, or else `u.mask` of its members.  Every check
    over u reads its sets so, and a set with a member outside u is refused
    here, with a `ValueError`."""
    bits = getattr(s, "_bits", None)
    if bits is not None and bits[0] is u:
        return bits[1]
    mask = u.mask(s.members)
    if mask.bit_count() != len(s.members):
        raise ValueError("the set has members outside the universe")
    return mask


# ---------------------------------------------------------------------------
# CR properties, bounded.  Failures are listed in the universe's order.

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
    """Closed under one-step reduction, over the members of s (all in
    u); reducts escaping the universe are tallied, not failed."""
    mask = _bits_over(s, u)
    failures = []
    boundary = 0
    for bit, p, inside, escaped in u.reducts:
        if mask & bit:
            boundary += escaped
            if missing := inside & ~mask:
                failures += [(p, r) for r in u.members_of(missing)]
    return Verdict.of(failures, boundary=boundary, name="cr2")


def cr3(s: FiniteCandidate, u: Universe) -> Verdict:
    """Every neutral universe member whose reducts all belong to s belongs
    to s.  Neutral terms with a reduct outside the universe impose nothing
    (see `_forced` for the boundary tally).  This is cr3aux plus the
    normal neutral members, which have no reducts and so must all belong
    to s."""
    mask = _bits_over(s, u)
    forced, _, boundary, _ = _forced(mask, u.reduct_rows)
    normal = sum(1 << i for i, p in enumerate(u.order) if is_neutral(p) and is_normal(p))
    return Verdict.of(u.members_of(forced | normal & ~mask), boundary=boundary, name="cr3")


def cr3aux(s: FiniteCandidate, u: Universe) -> Verdict:
    """cr3 restricted to non-normal terms: normal neutral terms (such as a
    variable applied to a variable) impose nothing.  Each neutral
    non-normal member has one expansion row, its one-step reducts."""
    _, forced, boundary, _ = _forced(_bits_over(s, u), u.reduct_rows)
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


def _markings(p: ProofTerm, n_max: int, captured_ok: bool, binders: frozenset | None = None):
    """Yield each choice of 1 to n_max pairwise-disjoint occurrences of
    `_occurrences`, fewer first, in `itertools.combinations` order, as a
    tuple of (path, hole name, subterm).  The i-th chosen occurrence gets
    the hole name `hole<i>`, made fresh for the names of p: its free names
    and its binders' names, read from `binders` when given (a superset
    such as a universe's binders gives the same names, as long as it holds
    no `hole<i>` name that p does not use), else found by walking p."""
    occs = _occurrences(p, captured_ok)
    if not occs:
        return
    taken = free_proof_vars(p) | (bound_proof_vars(p) if binders is None else binders)
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


def expansion_rows(p: ProofTerm, n_max: int, captured_ok: bool,
                   binders: frozenset | None = None):
    """Yield p's simultaneous-expansion rows (pairs, instances), one per
    marking of `_markings` (given `binders`), the order `decompositions`
    yields them in.  The instances are the simultaneous-reduct instances
    of the decomposition: p with each marked subterm replaced at its path
    by one of its one-step reducts, taken in `canon` order, the first
    marked subterm's reduct varying slowest.  They are the very nodes that
    grafting the reducts into the hole term nu gives, without building
    nu."""
    for marks in _markings(p, n_max, captured_ok, binders):
        instances = [p]
        for path, _, sub in marks:
            instances = [replace_at(q, path, r) for q in instances
                         for r in sorted(beta_reducts(sub), key=canon)]
        yield tuple((hole, sub) for _, hole, sub in marks), tuple(instances)


# ---------------------------------------------------------------------------
# The expansion rule shared by CR3, CR3', Cl^k and candidate_close

def _forced(s: int, rows, changed=None, last=None):
    """(forced bits, {p: pairs of p's first forcing row}, boundary rows,
    unknown tally) over the entries (bit, p, rows, wait, unknown) of `rows`
    (see `Universe.rows`) whose p lies outside the set of universe members
    whose mask is s.

    A row (pairs, pre, escapes, unknown) forces p when every instance lies
    in the set: its `pre` bits do, and it has no instance outside the
    universe.  A row whose `pre` bits lie in the set and that escapes is
    tallied as boundary: its first instance outside the set is outside the
    universe, and neither forces p nor makes it a failure.  A member
    tallies the unknown count of its forcing row, or of its entry when no
    row forces it: the Cl^k steps drop the rows whose marked subterms are
    not all SN, and count their unknown verdicts there.

    `changed` makes the scan semi-naive: it holds the bits that joined the
    set since the last scan, and only the members whose wait mask meets
    it are examined.  A row reads only its `pre` bits, so every other
    member forces nothing now, as it did not then, and tallies what it
    did then: the (boundary, unknown) that `last` holds for it, if given.
    `last` records the tallies of every member examined."""
    absent = ~s
    bits = 0
    forced = {}
    boundary = unknown = 0
    for bit, p, prow, wait, n in rows:
        if s & bit:
            continue
        if changed is not None and not wait & changed:
            if last:
                b, n = last.get(bit, _NO_TALLY)
                boundary += b
                unknown += n
            continue
        b = 0
        for pairs, pre, escapes, before in prow:
            if pre & absent:
                continue
            if escapes:
                b += 1
                continue
            bits |= bit
            forced[p] = pairs
            n = before
            break
        boundary += b
        unknown += n
        if last is not None:
            last[bit] = (b, n)
    return bits, forced, boundary, unknown


_NO_TALLY = (0, 0)


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
    rows = u.rows(_CR3PRIME_HOLES, captured_ok=False)
    _, forced, boundary, _ = _forced(_bits_over(s, u), rows)
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

    The members of a and b must be members of u.  Applications that leave
    the universe do not constrain membership; they are tallied, and members
    whose evidence is partial or empty are reported so callers can treat
    them as boundary cases.
    """
    sources = _bits_over(a, u)
    targets = _bits_over(b, u)
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
# Random closed candidates (for the algebra-law battery)

def sn_slice(u: Universe) -> FiniteCandidate:
    return _candidate(u, u.sn_classes[0])


def candidate_close(seed_members, u: Universe) -> frozenset:
    """The least superset of the seed, all of whose members lie in u,
    closed under in-universe one-step reducts and under the expansion rule
    of cr3prime: a member joins when some marked decomposition has all its
    simultaneous-reduct instances in the set, and a decomposition with an
    instance outside the universe forces nothing.  The result passes
    cr3prime by construction."""
    mask = _bits_over(FiniteCandidate(frozenset(seed_members)), u)
    return frozenset(u.members_of(_close(mask, u)))


def _close(mask: int, u: Universe) -> int:
    """The mask over u of `candidate_close` of the members that mask
    sets.  Each expansion scan examines only the members waiting on a
    member that joined since the last one (the whole set, the first
    time)."""
    reducts = u.reducts
    rows = u.rows(_CR3PRIME_HOLES, captured_ok=False)
    fresh = mask
    while True:
        joined = fresh
        while fresh:
            reached = 0
            for bit, _, inside, _ in reducts:
                if fresh & bit:
                    reached |= inside
            fresh = reached & ~mask
            mask |= fresh
            joined |= fresh
        fresh = _forced(mask, rows, changed=joined)[0]
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
        mask = _close(sum(1 << i for i in rng.sample(base, min(k, len(base)))), u)
        if not mask:
            continue
        cand = _candidate(u, mask)
        if cr1(cand).ok:
            out.append(cand)
    return out

"""Hand-built derivations and reference implementations shared across test
modules."""
import itertools

from mdm import closure as closure_module
from mdm.closure import (
    ClosureTable, cl0, closure, verify_clfamorph, verify_clsubst, verify_lambdacl, verify_mink,
)
from mdm.demos import builtin_theory, delta_delta_derivation
from mdm.reducibility import (
    FiniteCandidate, Universe, build_universe, decompositions, forall_candidate, imp_candidate,
    imp_candidate_ex, random_candidates, sn_slice,
)
from mdm.reduction import (
    SN, SN_BUDGET, Diverges, beta_reducts, contract, is_redex, replace_at, sn_cached, subterm_at,
)
from mdm.rewriting import Yes, congruent
from mdm.search import SearchBounds, proposition_catalog
from mdm.syntax import (
    CURRY, Atom, Forall, Fun, Imp, PApp, PLam, PVar, Record, TApp, TLam, Var, canon, fresh_name,
    free_proof_vars, free_term_vars, graft, is_neutral, is_normal, open_forall, parse_proof,
    size, subst_term_in_prop,
)
from mdm.typecheck import Context, forall_elim, forall_intro
from mdm.verdict import Verdict

__all__ = ["delta_delta_derivation", "failure_sets", "forall_chain", "lemma_violations",
           "reference_candidate_close", "reference_children", "reference_clfamorph",
           "reference_clramorph", "reference_closure", "reference_cr1",
           "reference_cr2", "reference_cr3", "reference_cr3aux", "reference_cr3prime",
           "reference_expansions", "reference_forall_candidate", "reference_forced",
           "reference_free_proof_vars", "reference_free_term_vars", "reference_height",
           "reference_occurrences", "reference_positions", "reference_redex_paths",
           "reference_reducts", "reference_repr", "reference_search", "reference_size",
           "reference_stage0", "reference_step", "reference_subterms", "reference_universe"]


def forall_chain(leaf, n):
    """n nested nodes over leaf: forall-intro and forall-elim in turn."""
    d = leaf
    for i in range(n):
        d = forall_intro(d, "x") if i % 2 == 0 else forall_elim(d, "x", d.prop.body, Var("x"))
    return d


def reference_children(x) -> tuple:
    """The child nodes of a term, proposition or proof-term, the term
    argument of a TApp included."""
    if isinstance(x, (Fun, Atom)):
        return x.args
    if isinstance(x, Imp):
        return (x.left, x.right)
    if isinstance(x, (Forall, PLam, TLam)):
        return (x.body,)
    if isinstance(x, (PApp, TApp)):
        return (x.fn, x.arg)
    return ()


def reference_subterms(x) -> list:
    """x and every node below it in pre-order, children left to right, by
    recursion."""
    return [x, *(y for c in reference_children(x) for y in reference_subterms(c))]


def reference_repr(x) -> str:
    """The printed form of a record, by recursion: `Name(field=value, ...)`,
    with the records and tuples inside it written out the same way."""
    if type(x) is tuple:
        parts = [reference_repr(v) for v in x]
        return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"
    if isinstance(x, Record):
        fields = ", ".join(f"{f}={reference_repr(getattr(x, f))}" for f in x._fields)
        return f"{type(x).__qualname__}({fields})"
    return repr(x)


def reference_size(x) -> int:
    """The number of nodes of x, counted by recursion."""
    return 1 + sum(map(reference_size, reference_children(x)))


def reference_height(p) -> int:
    """The proof-term nodes on the longest path from p to a leaf, by
    recursion; a TApp's term argument adds no level."""
    if isinstance(p, PVar):
        return 1
    if isinstance(p, PApp):
        return 1 + max(reference_height(p.fn), reference_height(p.arg))
    return 1 + reference_height(p.body if isinstance(p, (PLam, TLam)) else p.fn)


def reference_free_term_vars(x) -> set:
    """The free term-variables of x, collected by recursion."""
    if isinstance(x, Var):
        return {x.name}
    free = set().union(*map(reference_free_term_vars, reference_children(x)))
    if isinstance(x, (Forall, TLam)):
        free.discard(x.var)
    return free


def reference_free_proof_vars(x) -> set:
    """The free proof-variables of x, collected by recursion; a term and a
    proposition have none."""
    if isinstance(x, PVar):
        return {x.name}
    free = set().union(*map(reference_free_proof_vars, reference_children(x)))
    if isinstance(x, PLam):
        free.discard(x.var)
    return free


def reference_positions(p, path=(), bound=()) -> list:
    """(path, subterm, names bound above it by PLam binders, outermost
    first) for every subterm of p, normal ones included, in pre-order with
    the function side first; the term argument of a TApp is not a
    subterm."""
    out = [(path, p, bound)]
    if isinstance(p, PLam):
        out += reference_positions(p.body, path + (0,), bound + (p.var,))
    elif isinstance(p, TLam):
        out += reference_positions(p.body, path + (0,), bound)
    elif isinstance(p, (PApp, TApp)):
        out += reference_positions(p.fn, path + (0,), bound)
        if isinstance(p, PApp):
            out += reference_positions(p.arg, path + (1,), bound)
    return out


def reference_redex_paths(p) -> list:
    """The paths of `reference_positions` at which a redex sits."""
    return [path for path, q, _ in reference_positions(p) if is_redex(q)]


def reference_reducts(p) -> list:
    """The one-step reducts of p built position by position: for each path
    of `reference_redex_paths`, the subterm there is contracted and
    `replace_at` rebuilds p around it."""
    return [replace_at(p, path, contract(subterm_at(p, path))) for path in reference_redex_paths(p)]


def reference_universe(max_size, pool) -> list:
    """The terms of `build_universe(max_size, pool)` in its order, by the
    recursive enumerator: `gen(n, depth)` lists the terms of size n under
    depth binders, named v1, v2, ... by depth, and keeps each list."""
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

    return [p for n in range(1, max_size + 1) for p in gen(n, 0)]


def reference_occurrences(p, captured_ok) -> list:
    """The (path, subterm) pairs of `reducibility._occurrences`: the neutral
    subterms that hold a redex, by `reference_redex_paths`, skipping those
    with a variable bound above them unless captured_ok."""
    return [(path, q) for path, q, bound in reference_positions(p)
            if is_neutral(q) and reference_redex_paths(q)
            and (captured_ok or not free_proof_vars(q) & set(bound))]


def reference_stage0(theory, delta, target, bounds, depth, style=CURRY) -> frozenset:
    """The universe members that the plain recursive derivation search
    proves to have type `target` within `depth` rule applications."""
    provable = reference_search(theory, delta, target, bounds, style)
    return frozenset(p for p in bounds.universe.members if provable(p, target, (), depth))


def reference_search(theory, delta, target, bounds, style=CURRY):
    """`provable(subject, goal, ext, depth)` of the plain recursive
    derivation search: every rule tried in turn at every node, with no
    memo, no tables and no height bound.  It searches the catalog and
    instantiation terms that `cl0` does for `target`."""
    catalog = proposition_catalog(theory, delta, target)
    foralls = [p for p in catalog if isinstance(p, Forall)]
    gen = Var(fresh_name("w", set().union(*(free_term_vars(p) for p in catalog))))
    inst_terms = list(bounds.inst_terms) + [gen] * (gen not in bounds.inst_terms)

    def cong(a, b):
        return isinstance(congruent(theory, a, b, bounds.fuel), Yes)

    def lookup(name, ext):
        for n, p in reversed(ext):
            if n == name:
                return p
        return delta.lookup(name)

    def provable(subject, goal, ext, depth):
        if depth <= 0:
            return False
        if isinstance(subject, PVar):
            declared = lookup(subject.name, ext)
            if declared is not None and cong(declared, goal):
                return True
        if isinstance(subject, PApp):
            for a in catalog:
                if provable(subject.fn, Imp(a, goal), ext, depth - 1) \
                        and provable(subject.arg, a, ext, depth - 1):
                    return True
        if isinstance(subject, PLam):
            for a in catalog:
                for b in catalog:
                    if cong(goal, Imp(a, b)) \
                            and provable(subject.body, b, ext + ((subject.var, a),), depth - 1):
                        return True
        ctx_fv = delta.free_term_vars().union(*(free_term_vars(p) for _, p in ext))
        if style == CURRY:
            for f in foralls:
                if cong(goal, f) and provable(subject, open_forall(f, ctx_fv)[1], ext, depth - 1):
                    return True
            for f in foralls:
                for t in inst_terms:
                    if cong(subst_term_in_prop(f.body, f.var, t), goal) \
                            and provable(subject, f, ext, depth - 1):
                        return True
        else:
            if isinstance(subject, TLam) and subject.var not in ctx_fv:
                x = subject.var
                for f in foralls:
                    if cong(goal, f) and not (x != f.var and x in free_term_vars(f.body)) \
                            and provable(subject.body, subst_term_in_prop(f.body, f.var, Var(x)),
                                         ext, depth - 1):
                        return True
            if isinstance(subject, TApp):
                for f in foralls:
                    if cong(subst_term_in_prop(f.body, f.var, subject.arg), goal) \
                            and provable(subject.fn, f, ext, depth - 1):
                        return True
        return False

    return provable


def reference_expansions(u, n_max, captured_ok) -> dict:
    """The expansion rows of every member of u that holds a redex, built
    through the hole term: for each decomposition (nu, pairs) of
    `decompositions`, one reduct per marked subterm, in `canon` order, is
    grafted into nu, with capture, for every choice of reducts."""
    table = {}
    for p in u.redexes:
        rows = []
        for nu, pairs in decompositions(p, n_max, captured_ok):
            reduct_sets = [sorted(beta_reducts(m), key=canon) for _, m in pairs]
            instances = []
            for combo in itertools.product(*reduct_sets):
                inst = nu
                for (hole, _), r in zip(pairs, combo):
                    inst = graft(inst, hole, r)
                instances.append(inst)
            rows.append((pairs, tuple(instances)))
        table[p] = tuple(rows)
    return table


def reference_step(prev, u, table):
    """(members, boundary, unknown) of one expansion step that examines
    every member of u outside prev, over the rows of table: the first row
    whose marked subterms are all SN and whose instances all lie in prev
    forces its member; a row whose first instance outside prev is outside
    u counts one boundary row, and each marked subterm of unknown SN
    verdict in a row examined counts one unknown."""
    forced = set()
    boundary = unknown = 0
    for p in u.order:
        if p in prev:
            continue
        for pairs, instances in table.get(p, ()):
            verdicts = [sn_cached(m, SN_BUDGET) for _, m in pairs]
            unknown += sum(not isinstance(v, (SN, Diverges)) for v in verdicts)
            if not all(isinstance(v, SN) for v in verdicts):
                continue
            missing = [inst for inst in instances if inst not in prev]
            if not missing:
                forced.add(p)
                break
            boundary += missing[0] not in u.members
    return prev | forced, boundary, unknown


def reference_closure(theory, delta, prop, env, k_max, bounds, table=None) -> ClosureTable:
    """The closure table by the plain loop: `cl0`, then up to k_max full
    steps of `reference_step`, stopping at a fixpoint, over the expansion
    rows of `reference_expansions` (or the table given, built by it).
    Nothing is kept between calls but what `cl0` keeps."""
    u = bounds.universe
    if table is None:
        table = reference_expansions(u, bounds.n_max, True)
    stages = [cl0(theory, delta, prop, env, bounds)]
    first = dict.fromkeys(stages[0], 0)
    boundary = unknown = 0
    fix = None
    for k in range(1, k_max + 1):
        nxt, b, um = reference_step(stages[-1], u, table)
        boundary += b
        unknown += um
        first.update(dict.fromkeys(nxt - stages[-1], k))
        stages.append(nxt)
        if nxt == stages[-2]:
            fix = k - 1
            break
    return ClosureTable(tuple(stages), first, boundary, unknown, fix)


# The candidate algebra over frozensets of terms, as it ran before the
# universe's bit index: every membership test hashes a term.  The rows of
# cr3prime and candidate_close are those of `reference_expansions(u, 2,
# False)`, passed in as `table` so that one table serves many sets.

def reference_forced(s, u, table):
    """({p: pairs of p's first forcing row}, boundary rows) over the members
    p of `u.redexes` outside s: a row of table[p] forces p when every
    instance lies in s, and a row whose first instance outside s is
    outside u is tallied as boundary."""
    forced = {}
    boundary = 0
    for p in u.redexes:
        if p in s:
            continue
        for pairs, instances in table.get(p, ()):
            for inst in instances:
                if inst not in s:
                    boundary += inst not in u.members
                    break
            else:
                forced[p] = pairs
                break
    return forced, boundary


def reference_cr1(s):
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


def reference_cr2(s, u):
    failures = []
    boundary = 0
    for p in s.members:
        for r in beta_reducts(p):
            if r not in u.members:
                boundary += 1
            elif r not in s.members:
                failures.append((p, r))
    return Verdict.of(failures, boundary=boundary, name="cr2")


def reference_cr3(s, u):
    aux = reference_cr3aux(s, u)
    failures = aux.failures + tuple(
        p for p in u.members if is_neutral(p) and is_normal(p) and p not in s.members)
    return Verdict.of(failures, boundary=aux.boundary, name="cr3")


def reference_cr3aux(s, u):
    table = {p: (((), tuple(sorted(beta_reducts(p), key=canon))),) if is_neutral(p) else ()
             for p in u.redexes if p not in s.members}
    forced, boundary = reference_forced(s.members, u, table)
    return Verdict.of(tuple(forced), boundary=boundary, name="cr3aux")


def reference_cr3prime(s, u, table):
    forced, boundary = reference_forced(s.members, u, table)
    return Verdict.of(tuple(forced.items()), boundary=boundary, name="cr3prime")


def reference_candidate_close(seed_members, u, table) -> frozenset:
    s = set(seed_members)
    todo = list(s)
    while True:
        while todo:
            for r in beta_reducts(todo.pop()):
                if r in u.members and r not in s:
                    s.add(r)
                    todo.append(r)
        forced, _ = reference_forced(s, u, table)
        if not forced:
            return frozenset(s)
        s.update(forced)
        todo = list(forced)


def reference_forall_candidate(family) -> FiniteCandidate:
    out = family[0].members
    for c in family[1:]:
        out &= c.members
    return FiniteCandidate(out)


# The lemma checks that compare with closures one derivation level deeper,
# as they ran before `closure_oracle`: every deeper closure is a whole table.

def reference_clramorph(theory, delta, a_prop, b_prop, env, k_max, bounds) -> Verdict:
    u = bounds.universe
    deeper = bounds.replace(depth=bounds.depth + 1)
    t_a = closure(theory, delta, a_prop, env, k_max, bounds)
    t_b = closure(theory, delta, b_prop, env, k_max, bounds)
    t_ab = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, bounds)
    t_b_deep = closure(theory, delta, b_prop, env, k_max, deeper)
    t_ab_deep = closure(theory, delta, Imp(a_prop, b_prop), env, k_max, deeper)
    violations = []
    sources, targets = u.mask(t_a.members), u.mask(t_b_deep.members)
    ab = u.mask(t_ab.members)
    tested = 0
    for bit, p, apps in u.applications:
        if ab & bit:
            for arg, app in apps:
                if sources & arg:
                    tested += 1
                    if not targets & app:
                        violations.append(("not in arrow", p, u.order[arg.bit_length() - 1]))
    boundary = sources.bit_count() * ab.bit_count() - tested
    res = imp_candidate_ex(t_a, t_b, u)
    backward_pool = res.members.members - t_ab_deep.members
    skipped = len(backward_pool & res.untested)
    for p in sorted(backward_pool - res.untested, key=canon):
        violations.append(("not in closure", p))
    return Verdict.of(violations, checked=tested + len(res.members.members) - skipped,
                      boundary=boundary + res.boundary, skipped=skipped, name="clramorph")


def reference_clfamorph(theory, delta, x, body, env, k_max, bounds, term_universe) -> Verdict:
    deeper = bounds.replace(depth=bounds.depth + 1)
    lhs = closure(theory, delta, Forall(x, body), env, k_max, bounds)
    lhs_deep = closure(theory, delta, Forall(x, body), env, k_max, deeper)
    family = [closure(theory, delta, body, {**env, x: t}, k_max, bounds) for t in term_universe]
    family_deep = [closure(theory, delta, body, {**env, x: t}, k_max, deeper)
                   for t in term_universe]
    rhs = forall_candidate(family)
    rhs_deep = forall_candidate(family_deep)
    u = bounds.universe
    forward = u.members_of(u.mask(p for p in lhs.members if p not in rhs_deep.members))
    backward = u.members_of(u.mask(p for p in rhs.members if p not in lhs_deep.members))
    violations = tuple(("not in intersection", p) for p in forward) \
        + tuple(("not in quantified closure", p) for p in backward)
    return Verdict.of(violations, checked=len(lhs.members) + len(rhs.members), name="clfamorph")


def failure_sets() -> list:
    """(universe, set) pairs on which cr1, cr2, cr3 and cr3prime each fail
    somewhere, with more than one failure: sets over the size-5 universe of
    g and h, and over that universe with four diverging terms added; some
    carry their masks (arrows, the SN slice) and some are converted."""
    u5 = build_universe(5, ("g", "h"))
    g, dd = PVar("g"), parse_proof(r"(\a. a a) (\a. a a)")
    du = Universe(11, ("g", "h"), u5.members | {dd, PApp(g, dd), PApp(dd, g), PLam("v1", dd)})
    nothing = FiniteCandidate(frozenset())
    cands = random_candidates(u5, 3, seed=3)
    sets = [(u5, FiniteCandidate(frozenset(u5.redexes))), (u5, nothing),
            (u5, FiniteCandidate(frozenset({g}))), (u5, sn_slice(u5)),
            (du, imp_candidate(nothing, nothing, du)), (du, FiniteCandidate(du.members))]
    return sets + [(u5, imp_candidate(a, b, u5)) for a in cands for b in cands]


def lemma_violations() -> tuple:
    """(universe, {check: failures}) for verify_mink, verify_lambdacl,
    verify_clsubst and verify_clfamorph, each with many violations, over
    the size-5 universe of g and h.  verify_mink reads a closure table
    that `closure` built, with every first stage moved past the member's
    longest reduction; the other three read tables built here from
    frozensets, which stand in for `closure` while they run: the arrow's
    closure holds only the members of size 2 or less, and the closures of
    the quantified and of the substituted proposition disagree with those
    of the instances.  The same tables stand in for the membership oracles
    (`closure_oracle`) that verify_clfamorph asks."""
    u = build_universe(5, ("g", "h"))
    p, q, r = Atom("P"), Atom("Q"), Atom("R", (Var("x"),))
    theory = builtin_theory("empty")
    delta = Context((("g", p), ("h", Imp(p, p))))
    bounds = SearchBounds(u, depth=3, fuel=60, n_max=2)
    built = closure_module.closure(theory, delta, p, {}, 3, bounds)
    shifted = built.replace(first_stage={m: k + 9 for m, k in built.first_stage.items()})

    def table(keep):
        return ClosureTable((frozenset(m for i, m in enumerate(u.order) if keep(i, m)),), {})

    small = table(lambda i, m: size(m) <= 2)
    every = table(lambda i, m: True)
    evens = table(lambda i, m: i % 2 == 0)
    thirds = table(lambda i, m: i % 3 == 0)

    def hand_built(theory, delta, prop, env, k_max, bounds):
        if isinstance(prop, Imp):
            return small
        if prop == q:
            return every
        # Forall(x, R(x)), and R(c); the instances R(x) under {x: t}
        return thirds if env else evens

    real = closure_module.closure, closure_module.closure_oracle
    closure_module.closure = closure_module.closure_oracle = hand_built
    try:
        out = {
            "lambdacl": verify_lambdacl(theory, delta, p, q, {}, 3, bounds).failures,
            "clsubst": verify_clsubst(theory, delta, r, "x", Fun("c"), {}, 3, bounds).failures,
            "clfamorph": verify_clfamorph(theory, delta, "x", r, {}, 3, bounds,
                                          (Fun("c"), Fun("d"))).failures,
        }
    finally:
        closure_module.closure, closure_module.closure_oracle = real
    out["mink"] = verify_mink(shifted).failures
    return u, out

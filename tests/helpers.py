"""Hand-built derivations and reference implementations shared across test
modules."""
from mdm.candidates import proposition_catalog
from mdm.demos import delta_delta_derivation, delta_derivation
from mdm.reduction import contract, is_redex, replace_at, subterm_at
from mdm.rewriting import Yes, congruent
from mdm.syntax import (
    CURRY, Atom, Forall, Fun, Imp, PApp, PLam, PVar, TApp, TLam, Var, fresh_name,
    free_proof_vars, free_term_vars, is_neutral, open_forall, subst_term_in_prop,
)
from mdm.typecheck import forall_elim, forall_intro

__all__ = ["delta_delta_derivation", "delta_derivation", "forall_chain", "reference_free_proof_vars",
           "reference_free_term_vars", "reference_height", "reference_occurrences",
           "reference_positions", "reference_redex_paths", "reference_reducts", "reference_search",
           "reference_size", "reference_stage0"]


def forall_chain(leaf, n):
    """n nested nodes over leaf: forall-intro and forall-elim in turn."""
    d = leaf
    for i in range(n):
        d = forall_intro(d, "x") if i % 2 == 0 else forall_elim(d, "x", d.prop.body, Var("x"))
    return d


def _children(x) -> tuple:
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


def reference_size(x) -> int:
    """The number of nodes of x, counted by recursion."""
    return 1 + sum(map(reference_size, _children(x)))


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
    free = set().union(*map(reference_free_term_vars, _children(x)))
    if isinstance(x, (Forall, TLam)):
        free.discard(x.var)
    return free


def reference_free_proof_vars(x) -> set:
    """The free proof-variables of x, collected by recursion; a term and a
    proposition have none."""
    if isinstance(x, PVar):
        return {x.name}
    free = set().union(*map(reference_free_proof_vars, _children(x)))
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


def reference_occurrences(p, captured_ok) -> list:
    """The (path, subterm) pairs of `candidates._occurrences`: the neutral
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

"""Beta-reduction, bounded strong-normalization verdicts, and the
constructive subject-reduction transform on derivations.

Strong normalization is only semi-decidable, so verdicts are three-valued:
SN carries exact statistics when the whole reduction behaviour fits in the
node budget, Diverges carries a verified reduction cycle, and Unknown
reports the budget spent.  Cycle detection works modulo alpha, which
upgrades many would-be Unknowns (such as the self-application loop) to
definite divergence; it is sufficient for divergence, never necessary.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from .rewriting import Theory
from .syntax import (
    CHURCH, PApp, PLam, PVar, ProofTerm, TApp, TLam, print_proof,
    subst_proof, subst_term_in_proof,
)
from .typecheck import (
    FORALL_ELIM, FORALL_INTRO, IMP_ELIM, IMP_INTRO, Derivation, TransformError,
    abstracted, is_silent, retype, subst_derivation_proof, subst_derivation_term,
)


def is_redex(p: ProofTerm) -> bool:
    if isinstance(p, PApp) and isinstance(p.fn, PLam):
        return True
    return isinstance(p, TApp) and isinstance(p.fn, TLam)


def contract(p: ProofTerm) -> ProofTerm:
    """Reduce the redex at the root."""
    if isinstance(p, PApp) and isinstance(p.fn, PLam):
        return subst_proof(p.fn.body, p.fn.var, p.arg)
    if isinstance(p, TApp) and isinstance(p.fn, TLam):
        return subst_term_in_proof(p.fn.body, p.fn.var, p.arg)
    raise ValueError(f"not a redex: {print_proof(p)}")


def _child_paths(p: ProofTerm):
    if isinstance(p, (PLam, TLam)):
        yield 0, p.body
    elif isinstance(p, PApp):
        yield 0, p.fn
        yield 1, p.arg
    elif isinstance(p, TApp):
        yield 0, p.fn  # the term argument holds no redexes


def redex_paths(p: ProofTerm) -> list:
    """Paths of all redex positions, outermost first, function side first."""
    out = []

    def walk(q, path):
        if is_redex(q):
            out.append(path)
        for i, child in _child_paths(q):
            walk(child, path + (i,))

    walk(p, ())
    return out


def subterm_at(p: ProofTerm, path) -> ProofTerm:
    for i in path:
        children = dict(_child_paths(p))
        if i not in children:
            raise ValueError(f"path {path} does not exist in {print_proof(p)}")
        p = children[i]
    return p


def replace_at(p: ProofTerm, path, new) -> ProofTerm:
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(p, PLam) and i == 0:
        return PLam(p.var, replace_at(p.body, rest, new))
    if isinstance(p, TLam) and i == 0:
        return TLam(p.var, replace_at(p.body, rest, new))
    if isinstance(p, PApp) and i == 0:
        return PApp(replace_at(p.fn, rest, new), p.arg)
    if isinstance(p, PApp) and i == 1:
        return PApp(p.fn, replace_at(p.arg, rest, new))
    if isinstance(p, TApp) and i == 0:
        return TApp(replace_at(p.fn, rest, new), p.arg)
    raise ValueError(f"path component {i} invalid at {print_proof(p)}")


def one_step_reducts(p: ProofTerm) -> list:
    """One reduct per redex position, in `redex_paths` order, each built as
    `replace_at(p, path, contract(subterm_at(p, path)))` builds it but in
    one walk: the reducts of a child are rebuilt under their parent.  Most
    subterms have none, so an empty child list is passed on unrebuilt."""
    cls = type(p)
    if cls is PVar:
        return []
    if cls is PLam or cls is TLam:
        inner = one_step_reducts(p.body)
        return [cls(p.var, r) for r in inner] if inner else inner
    out = [contract(p)] if is_redex(p) else []
    inner = one_step_reducts(p.fn)
    if inner:
        out += [cls(r, p.arg) for r in inner]
    if cls is PApp:
        inner = one_step_reducts(p.arg)
        if inner:
            out += [PApp(p.fn, r) for r in inner]
    return out


def beta_steps(p: ProofTerm) -> list:
    """One entry per redex position: (path, reduct)."""
    return list(zip(redex_paths(p), one_step_reducts(p)))


@cache
def beta_reducts(p: ProofTerm) -> frozenset:
    """All one-step reducts, deduplicated modulo alpha.

    Distinct redex positions occasionally contract to alpha-equal terms, so
    this set can be smaller than the number of redex positions; beta_steps
    keeps the per-position view.  Of alpha-equal reducts the set keeps the
    one of the first redex position.
    """
    return frozenset(one_step_reducts(p))


def is_normal(p: ProofTerm) -> bool:
    """No redex anywhere in p; the walk stops at the first one."""
    todo = [p]
    while todo:
        q = todo.pop()
        if is_redex(q):
            return False
        if isinstance(q, (PLam, TLam)):
            todo.append(q.body)
        elif isinstance(q, PApp):
            todo += (q.fn, q.arg)
        elif isinstance(q, TApp):
            todo.append(q.fn)
    return True


# ---------------------------------------------------------------------------
# Strong-normalization verdicts

# The node budget of the SN questions asked by the CR checks, the closure
# lemmas and the acceptance battery.
SN_BUDGET = 10_000


@dataclass(frozen=True)
class SN:
    max_length: int
    tree_size: int


@dataclass(frozen=True)
class Diverges:
    cycle: tuple  # terms t0 -> t1 -> ... -> t(k-1) -> t0

    @property
    def cycle_length(self):
        return len(self.cycle)


@dataclass(frozen=True)
class SNUnknown:
    """No verdict: the node budget ran out, or the term is nested deeper
    than the interpreter's recursion limit allows to walk."""
    fuel_spent: int
    reason: str = "node budget"


SNVerdict = SN | Diverges | SNUnknown


class _Budget(Exception):
    pass


class _Cycle(Exception):
    def __init__(self, cycle):
        self.cycle = cycle


def sn_verdict(p: ProofTerm, node_budget: int = SN_BUDGET) -> SNVerdict:
    """Explore the reduction behaviour of p within a budget of distinct
    alpha-classes.  SN results are exact: max_length is the longest
    reduction sequence and tree_size the full sequence-tree node count."""
    if node_budget < 1:
        raise ValueError("node budget must be at least 1")
    memo = {}
    on_path = {}
    order = []
    spent = 0

    def dfs(t):
        nonlocal spent
        if t in memo:
            return memo[t]
        if t in on_path:
            i = on_path[t]
            raise _Cycle(tuple(order[i:]))
        if spent >= node_budget:
            raise _Budget()
        spent += 1
        on_path[t] = len(order)
        order.append(t)
        try:
            best_len, total = 0, 1
            for r in beta_reducts(t):
                m, s = dfs(r)
                best_len = max(best_len, m + 1)
                total += s
        finally:
            order.pop()
            del on_path[t]
        memo[t] = (best_len, total)
        return memo[t]

    try:
        m, s = dfs(p)
    except _Cycle as c:
        return Diverges(c.cycle)
    except _Budget:
        return SNUnknown(spent)
    except RecursionError:
        return SNUnknown(spent, "depth limit")
    return SN(m, s)


@cache
def sn_cached(p: ProofTerm, node_budget: int) -> SNVerdict:
    return sn_verdict(p, node_budget)


# ---------------------------------------------------------------------------
# Subject reduction as a derivation transform.
#
# Given a derivation of G |- p : A and a redex position in p, a derivation
# of the one-step reduct at the same context and proposition is assembled
# from the substitutivity transforms.  Quantifier rules in Curry style do
# not change the subject, so the walk passes through them without
# consuming path components, and a beta-redex's introduction node is found
# by unwrapping any such silent nodes above it.  On every other node the
# subject's child i is the subject of premise i (see `subject_of`), so path
# component i descends into premise i.

def reduce_derivation(theory: Theory, d: Derivation, redex_path) -> Derivation:
    return _reduce_at(d, tuple(redex_path))


def _reduce_at(d: Derivation, path) -> Derivation:
    if is_silent(d.rule, d.style):
        return replace(d, premises=(_reduce_at(d.premises[0], path),))
    if not path:
        return _contract_node(d)
    i, rest = path[0], path[1:]
    if i not in range(len(d.premises)):
        raise TransformError(f"path does not address a redex (stuck at {d.rule} with {path})")
    premises = list(d.premises)
    premises[i] = _reduce_at(premises[i], rest)
    return replace(d, premises=tuple(premises))


def _unwrap_silent(node: Derivation) -> Derivation:
    while is_silent(node.rule, node.style):
        node = node.premises[0]
    return node


def _contract_node(d: Derivation) -> Derivation:
    if not is_redex(d.subject):
        raise TransformError(f"subject at path is not a redex: {print_proof(d.subject)}")

    if d.rule == IMP_ELIM:
        left, right = d.premises
        intro = _unwrap_silent(left)
        if intro.rule != IMP_INTRO:
            raise TransformError("redex function part is not backed by an introduction node")
        (body,) = intro.premises
        a_name, a_prop = abstracted(body)
        arg = retype(right, a_prop)
        out = subst_derivation_proof(body, a_name, arg)
        return retype(out, d.prop)

    # Church term-level redex: (^x. p) [t]
    if d.rule == FORALL_ELIM and d.style == CHURCH:
        (prem,) = d.premises
        if prem.rule != FORALL_INTRO:
            raise TransformError("redex function part is not backed by an introduction node")
        (body,) = prem.premises
        x = prem.witness.var
        # x is not free in the context (intro side condition), so the
        # substituted context stays alpha-equal to d's.
        out = subst_derivation_term(body, x, d.witness[1])
        return retype(out, d.prop)

    raise TransformError(f"rule {d.rule} cannot carry the root redex")

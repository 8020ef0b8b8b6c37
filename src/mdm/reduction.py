"""Beta-reduction, bounded strong-normalization verdicts, and the
constructive subject-reduction transform on derivations.

Strong normalization is only semi-decidable, so verdicts are three-valued:
SN carries exact statistics when the whole reduction behaviour fits in the
node budget, Diverges carries a verified reduction cycle, and Unknown
reports the budget spent.  Cycle detection works modulo alpha, which
upgrades many would-be Unknowns (such as the self-application loop) to
definite divergence; it is sufficient for divergence, never necessary.

One walk finds the redex positions of a proof-term: `_positions`.  The
paths of `redex_paths`, the reducts of `beta_steps` and
`one_step_reducts`, and the marked occurrences of
`reducibility._occurrences` all read it, so no two walks have to agree on
an order.  It keeps its own stack and does not enter a subterm whose node
says it is normal, and `subterm_at` and `replace_at` follow a path in
loops, so these answer on a term of any depth as long as, in each
contracted redex, the substituted variable occurs only at shallow
positions (`contract` substitutes by recursion, and only into the
subterms whose node says the variable is free there).
`beta_reducts` and `sn_verdict` hash the terms they meet, and hashing
walks by recursion: past the interpreter's recursion limit the first
raises `RecursionError` and the second answers SNUnknown "depth limit",
except that a normal term gets SN(0, 1) from its node.
`reduce_derivation` walks a derivation of any depth in loops.
"""
from __future__ import annotations

from functools import cache

from .rewriting import Theory
from .syntax import (
    CHURCH, PApp, PLam, ProofTerm, Record, TApp, TLam, is_normal, print_proof,
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


def _positions(p: ProofTerm):
    """(path, subterm, names bound above it by PLam binders, outermost
    first) for every subterm of p that holds a redex, in pre-order with the
    function side first.  A subterm whose node says it is normal is not
    entered."""
    todo = [] if is_normal(p) else [((), p, ())]
    while todo:
        entry = path, q, bound = todo.pop()
        yield entry
        cls = type(q)
        if cls is PLam or cls is TLam:
            if not is_normal(q.body):
                todo.append((path + (0,), q.body, bound + (q.var,) if cls is PLam else bound))
            continue
        # PApp or TApp (a variable is normal); a TApp's term argument holds
        # no redex.  The argument is pushed first, so the function side
        # comes out first.
        if cls is PApp and not is_normal(q.arg):
            todo.append((path + (1,), q.arg, bound))
        if not is_normal(q.fn):
            todo.append((path + (0,), q.fn, bound))


def redex_paths(p: ProofTerm) -> list:
    """Paths of all redex positions, outermost first, function side first."""
    return [path for path, q, _ in _positions(p) if is_redex(q)]


def _child(p: ProofTerm, i):
    """The child of p that path component i names, or None.  A TApp's
    term argument is not a proof-term, so its only proof child is fn."""
    kids = p.children[:1] if type(p) is TApp else p.children
    return kids[i] if i in range(len(kids)) else None


def subterm_at(p: ProofTerm, path) -> ProofTerm:
    for i in path:
        child = _child(p, i)
        if child is None:
            raise ValueError(f"path {path} does not exist in {print_proof(p)}")
        p = child
    return p


def replace_at(p: ProofTerm, path, new) -> ProofTerm:
    above = []
    for i in path:
        child = _child(p, i)
        if child is None:
            raise ValueError(f"path component {i} invalid at {print_proof(p)}")
        above.append((p, i))
        p = child
    for q, i in reversed(above):
        kids = q.children
        new = q.with_children(kids[:i] + (new,) + kids[i + 1:])
    return new


def beta_steps(p: ProofTerm) -> list:
    """One entry per redex position, in `redex_paths` order: (path, the
    reduct that contracting the redex there gives)."""
    return [(path, replace_at(p, path, contract(q)))
            for path, q, _ in _positions(p) if is_redex(q)]


def one_step_reducts(p: ProofTerm) -> list:
    """One reduct per redex position, in `redex_paths` order."""
    return [r for _, r in beta_steps(p)]


@cache
def beta_reducts(p: ProofTerm) -> frozenset:
    """All one-step reducts, deduplicated modulo alpha.

    Distinct redex positions occasionally contract to alpha-equal terms, so
    this set can be smaller than the number of redex positions; beta_steps
    keeps the per-position view.  Of alpha-equal reducts the set keeps the
    one of the first redex position.
    """
    return frozenset(one_step_reducts(p))


# ---------------------------------------------------------------------------
# Strong-normalization verdicts

# The node budget of every SN question the package asks: the CR checks,
# the closure step, the closure lemmas and the acceptance battery.
# `tests/test_hygiene.py` fails on a call that asks at another budget.
SN_BUDGET = 10_000


class SN(Record):
    __slots__ = _fields = ("max_length", "tree_size")


class Diverges(Record):
    """`cycle` holds the terms t0 -> t1 -> ... -> t(k-1) -> t0."""

    __slots__ = _fields = ("cycle",)

    @property
    def cycle_length(self):
        return len(self.cycle)


class SNUnknown(Record):
    """No verdict: the node budget ran out, or the term is nested deeper
    than the interpreter's recursion limit allows to walk."""

    __slots__ = _fields = ("fuel_spent", "reason")
    _defaults = {"reason": "node budget"}


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
    if is_normal(p):
        return SN(0, 1)
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
# component i descends into premise i.  The descent is a loop and the
# rebuild above the contracted node another, so a derivation of any depth
# is reduced without the interpreter's stack.

def reduce_derivation(theory: Theory, d: Derivation, redex_path) -> Derivation:
    path = tuple(redex_path)
    above = []  # (node, index of the premise the descent took)
    while True:
        if is_silent(d.rule, d.style):
            i = 0
        elif not path:
            break
        else:
            i = path[0]
            if i not in range(len(d.premises)):
                raise TransformError(
                    f"path does not address a redex (stuck at {d.rule} with {path})")
            path = path[1:]
        above.append((d, i))
        d = d.premises[i]
    out = _contract_node(d)
    for node, i in reversed(above):
        premises = list(node.premises)
        premises[i] = out
        out = node.replace(premises=tuple(premises))
    return out


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

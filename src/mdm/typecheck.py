"""Typing contexts, derivation trees, the checker, and derivation transforms.

The kernel checks explicit derivations: every node carries the rule it
claims to apply, its full conclusion (context, subject, proposition) and
the witnesses the rule's side conditions need.  Congruence side conditions
are re-established by bounded search at check time, so an Unknown search
outcome fails the check rather than being trusted.

Five rules, each in a Curry and a Church variant (the variants differ only
on the quantifier rules, which are silent on Curry subjects):

    axiom         G, a:A |- a : B            A == B
    imp-intro     G, a:A |- p : B  =>  G |- \\a. p : C        C == A => B
    imp-elim      G |- p : C,  G |- q : A  =>  G |- p q : B   C == A => B
    forall-intro  G |- p : A  =>  G |- [^x.] p : B    B == !x. A, x not in FV(G)
    forall-elim   G |- p : B  =>  G |- p [t] : C      B == !x. A, C == (t/x)A

Both premises of imp-elim are required in the conclusion's context;
`weaken` reconciles derivations built in smaller contexts.

`subject_of` is the single statement of the subject rule: the builders, the
checker, the transforms here and subject reduction all take a node's
subject from it, and `rebuilt` re-derives a node over new premises.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .rewriting import Theory, Unknown, Yes, congruent_ex
from .syntax import (
    CURRY, Forall, Imp, PApp, PLam, PVar, Proposition, ProofTerm, TApp, TLam,
    Term, Var, _Parser, free_proof_vars, free_term_vars, fresh_name,
    parse_proof, parse_prop, parse_term, print_proof, print_prop, print_term,
    subst_term_in_prop, subst_term_in_term,
)


class DerivationError(ValueError):
    pass


class TransformError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Contexts

@dataclass(frozen=True)
class Context:
    entries: tuple = ()  # of (proof-variable-name, Proposition)

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if len(names) != len(set(names)):
            raise DerivationError(f"duplicate hypothesis names in context: {names}")

    def names(self):
        return tuple(n for n, _ in self.entries)

    def lookup(self, name):
        for n, p in self.entries:
            if n == name:
                return p
        return None

    def extend(self, name, prop) -> "Context":
        return Context(self.entries + ((name, prop),))

    def drop(self, name) -> "Context":
        return Context(tuple(e for e in self.entries if e[0] != name))

    def free_term_vars(self):
        out = frozenset()
        for _, p in self.entries:
            out |= free_term_vars(p)
        return out

    def subset_of(self, other) -> bool:
        return all(other.lookup(n) == p for n, p in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return ", ".join(f"{n}:{print_prop(p)}" for n, p in self.entries)


# ---------------------------------------------------------------------------
# Derivations

AXIOM = "axiom"
IMP_INTRO = "imp-intro"
IMP_ELIM = "imp-elim"
FORALL_INTRO = "forall-intro"
FORALL_ELIM = "forall-elim"

_PREMISES = {AXIOM: 0, IMP_INTRO: 1, IMP_ELIM: 2, FORALL_INTRO: 1, FORALL_ELIM: 1}


@dataclass(frozen=True)
class AxiomWit:
    hyp: str


@dataclass(frozen=True)
class ImpWit:
    a: Proposition
    b: Proposition


@dataclass(frozen=True)
class ForallIntroWit:
    var: str
    body: Proposition


@dataclass(frozen=True)
class ForallElimWit:
    var: str
    body: Proposition
    inst: Term


@dataclass(frozen=True)
class Derivation:
    rule: str
    style: str
    ctx: Context
    subject: ProofTerm
    prop: Proposition
    witness: object
    premises: tuple = ()

    def __post_init__(self):
        if self.rule not in _PREMISES:
            raise DerivationError(f"unknown rule {self.rule!r}")
        if len(self.premises) != _PREMISES[self.rule]:
            raise DerivationError(
                f"{self.rule} takes {_PREMISES[self.rule]} premise(s), got {len(self.premises)}")

    def __str__(self):
        return f"{self.ctx} |- {print_proof(self.subject)} : {print_prop(self.prop)}"


def retype(d: Derivation, new_prop: Proposition) -> Derivation:
    """Same node with the conclusion proposition replaced.

    The witnesses are kept as they are.  Most rules constrain the conclusion
    only up to congruence, but imp-elim compares it syntactically with its
    witness consequent `ImpWit.b`, so a retyped imp-elim node fails to check
    unless new_prop equals that consequent.
    """
    return replace(d, prop=new_prop)


def is_silent(rule: str, style: str) -> bool:
    """Curry quantifier rules are silent: they keep the premise's subject."""
    return style == CURRY and rule in (FORALL_INTRO, FORALL_ELIM)


def subject_of(rule: str, style: str, witness, premises) -> ProofTerm:
    """The subject a node of this rule, style and witness concludes from its
    premises."""
    if rule == AXIOM:
        return PVar(witness.hyp)
    if rule == IMP_INTRO:
        (prem,) = premises
        return PLam(abstracted(prem)[0], prem.subject)
    if rule == IMP_ELIM:
        left, right = premises
        return PApp(left.subject, right.subject)
    (prem,) = premises
    if is_silent(rule, style):
        return prem.subject
    if rule == FORALL_INTRO:
        return TLam(witness.var, prem.subject)
    return TApp(prem.subject, witness.inst)


def abstracted(prem: Derivation):
    """The (name, proposition) an imp-intro node abstracts: the last entry
    of its premise's context."""
    if not prem.ctx.entries:
        raise DerivationError("imp-intro premise has an empty context: no hypothesis to abstract")
    return prem.ctx.entries[-1]


def rebuilt(d: Derivation, premises, **changes) -> Derivation:
    """d over new premises, with the given fields changed and the subject
    recomputed by `subject_of`."""
    premises = tuple(premises)
    subject = subject_of(d.rule, changes.get("style", d.style),
                         changes.get("witness", d.witness), premises)
    return replace(d, premises=premises, subject=subject, **changes)


def _node(rule, style, ctx, prop, witness, premises=()) -> Derivation:
    return Derivation(rule, style, ctx, subject_of(rule, style, witness, premises),
                      prop, witness, premises)


# Builders: construct nodes with the canonical conclusion so tests and
# generators do not repeat themselves.

def axiom(ctx: Context, hyp: str, prop: Proposition | None = None, style: str = CURRY) -> Derivation:
    declared = ctx.lookup(hyp)
    if declared is None:
        raise DerivationError(f"hypothesis {hyp!r} not in context")
    return _node(AXIOM, style, ctx, declared if prop is None else prop, AxiomWit(hyp))


def imp_intro(premise: Derivation, prop: Proposition | None = None) -> Derivation:
    a_prop = abstracted(premise)[1]
    return _node(IMP_INTRO, premise.style, Context(premise.ctx.entries[:-1]),
                 Imp(a_prop, premise.prop) if prop is None else prop,
                 ImpWit(a_prop, premise.prop), (premise,))


def imp_elim(left: Derivation, right: Derivation, b: Proposition,
             prop: Proposition | None = None) -> Derivation:
    return _node(IMP_ELIM, left.style, left.ctx, b if prop is None else prop,
                 ImpWit(right.prop, b), (left, right))


def forall_intro(premise: Derivation, var: str, prop: Proposition | None = None) -> Derivation:
    return _node(FORALL_INTRO, premise.style, premise.ctx,
                 Forall(var, premise.prop) if prop is None else prop,
                 ForallIntroWit(var, premise.prop), (premise,))


def forall_elim(premise: Derivation, var: str, body: Proposition, inst: Term,
                prop: Proposition | None = None) -> Derivation:
    return _node(FORALL_ELIM, premise.style, premise.ctx,
                 subst_term_in_prop(body, var, inst) if prop is None else prop,
                 ForallElimWit(var, body, inst), (premise,))


# ---------------------------------------------------------------------------
# Checking

@dataclass(frozen=True)
class CheckReport:
    ok: bool
    path: tuple | None = None
    reason: str | None = None
    fuel_spent: int = 0
    congruence_checks: int = 0

    def __str__(self):
        if self.ok:
            return f"Ok ({self.congruence_checks} congruence check(s), fuel spent {self.fuel_spent})"
        return f"Fail at node {list(self.path)}: {self.reason}"


class _Checker:
    def __init__(self, theory, fuel):
        self.theory = theory
        self.fuel = fuel
        self.spent = 0
        self.checks = 0

    def cong(self, a, b):
        self.checks += 1
        v, used = congruent_ex(self.theory, a, b, self.fuel)
        self.spent += used
        if isinstance(v, Yes):
            return None
        if isinstance(v, Unknown):
            if v.reason == "fuel":
                return "congruence not established"
            return f"congruence not established ({v.reason})"
        return f"propositions not congruent: {print_prop(a)} vs {print_prop(b)}"


def check_derivation(theory: Theory, d: Derivation, fuel: int = 10_000) -> CheckReport:
    """Verify every node of d against its rule; premises are checked first
    (left to right), so the reported failure is the leftmost-innermost one."""
    chk = _Checker(theory, fuel)
    fail = _check(chk, d, (), d.style)
    if fail is None:
        return CheckReport(True, fuel_spent=chk.spent, congruence_checks=chk.checks)
    path, reason = fail
    return CheckReport(False, path, reason, chk.spent, chk.checks)


def _check(chk, d, path, style):
    if d.style != style:
        return path, f"style mismatch: tree is {style}, node is {d.style}"
    for i, prem in enumerate(d.premises):
        fail = _check(chk, prem, path + (i,), style)
        if fail is not None:
            return fail
    err = _check_node(chk, d)
    if err is not None:
        return path, err
    return None


def _check_node(chk, d):
    w = d.witness
    if d.rule == AXIOM:
        if not isinstance(w, AxiomWit):
            return "axiom expects a hypothesis-name witness"
        declared = d.ctx.lookup(w.hyp)
        if declared is None:
            return f"hypothesis {w.hyp!r} not in context"
        return _subject_error(d) or chk.cong(declared, d.prop)

    if d.rule == IMP_INTRO:
        if not isinstance(w, ImpWit):
            return "imp-intro expects an implication decomposition witness"
        (prem,) = d.premises
        if len(prem.ctx) == 0:
            return "imp-intro premise must extend the context"
        a_prop = prem.ctx.entries[-1][1]
        if Context(prem.ctx.entries[:-1]) != d.ctx:
            return "imp-intro premise context must be the conclusion context plus one hypothesis"
        if a_prop != w.a:
            return "abstracted hypothesis does not match the witness antecedent"
        if prem.prop != w.b:
            return "premise proposition does not match the witness consequent"
        return _subject_error(d) or chk.cong(d.prop, Imp(w.a, w.b))

    if d.rule == IMP_ELIM:
        if not isinstance(w, ImpWit):
            return "imp-elim expects an implication decomposition witness"
        left, right = d.premises
        if left.ctx != d.ctx or right.ctx != d.ctx:
            return "imp-elim premises must share the conclusion context"
        if right.prop != w.a:
            return "argument premise proposition does not match the witness antecedent"
        if d.prop != w.b:
            return "conclusion proposition does not match the witness consequent"
        return _subject_error(d) or chk.cong(left.prop, Imp(w.a, w.b))

    if d.rule == FORALL_INTRO:
        if not isinstance(w, ForallIntroWit):
            return "forall-intro expects a (variable, body) witness"
        (prem,) = d.premises
        if prem.ctx != d.ctx:
            return "forall-intro premise must share the conclusion context"
        if prem.prop != w.body:
            return "premise proposition does not match the witness body"
        if w.var in d.ctx.free_term_vars():
            return f"side condition violated: {w.var!r} occurs free in the context"
        return _subject_error(d) or chk.cong(d.prop, Forall(w.var, w.body))

    # forall-elim
    if not isinstance(w, ForallElimWit):
        return "forall-elim expects a (variable, body, term) witness"
    (prem,) = d.premises
    if prem.ctx != d.ctx:
        return "forall-elim premise must share the conclusion context"
    return (_subject_error(d)
            or chk.cong(prem.prop, Forall(w.var, w.body))
            or chk.cong(d.prop, subst_term_in_prop(w.body, w.var, w.inst)))


def _subject_error(d):
    expected = subject_of(d.rule, d.style, d.witness, d.premises)
    if d.subject != expected:
        return f"{d.rule} subject must be {print_proof(expected)}, not {print_proof(d.subject)}"
    return None


# ---------------------------------------------------------------------------
# Renaming a hypothesis throughout a subtree (contexts, witnesses, subjects)

def _rename_hyp(d: Derivation, old: str, new: str) -> Derivation:
    ctx = Context(tuple((new if n == old else n, p) for n, p in d.ctx.entries))
    wit = d.witness
    if isinstance(wit, AxiomWit) and wit.hyp == old:
        wit = AxiomWit(new)
    premises = tuple(
        prem if old not in prem.ctx.names() and old not in free_proof_vars(prem.subject)
        else _rename_hyp(prem, old, new)
        for prem in d.premises)
    return rebuilt(d, premises, ctx=ctx, witness=wit)


def _all_names(d: Derivation) -> set:
    out = set(d.ctx.names()) | free_proof_vars(d.subject)
    if isinstance(d.subject, PLam):
        out.add(d.subject.var)
    for p in d.premises:
        out |= _all_names(p)
    return out


# ---------------------------------------------------------------------------
# Weakening (context extension)

def weaken(d: Derivation, g2: Context) -> Derivation:
    """Re-derive d in the larger context g2.

    Hypotheses abstracted inside d that collide with names of g2 are
    renamed to fresh ones first.
    """
    if not d.ctx.subset_of(g2):
        raise TransformError("weakening target does not extend the derivation's context")
    return _reweaken(d, g2)


def _reweaken(d: Derivation, ctx: Context) -> Derivation:
    if d.rule == IMP_INTRO:
        (prem,) = d.premises
        a_name, a_prop = abstracted(prem)
        if a_name in ctx.names():
            fresh = fresh_name(a_name, set(ctx.names()) | _all_names(d))
            prem = _rename_hyp(prem, a_name, fresh)
            a_name = fresh
        return rebuilt(d, (_reweaken(prem, ctx.extend(a_name, a_prop)),), ctx=ctx)
    return rebuilt(d, (_reweaken(p, ctx) for p in d.premises), ctx=ctx)


# ---------------------------------------------------------------------------
# Substitutivity transforms

def subst_derivation_proof(d: Derivation, a: str, darg: Derivation) -> Derivation:
    """Replace uses of hypothesis a in d by the derivation darg.

    d must conclude in a context G1, a:A, G2 and darg in G1 (with a
    proposition congruent to A).  The result concludes
    G1, G2 |- (subject of darg / a)(subject of d) : prop of d.
    """
    names = d.ctx.names()
    if a not in names:
        raise TransformError(f"hypothesis {a!r} not in the derivation's context")
    i = names.index(a)
    g1 = Context(d.ctx.entries[:i])
    if darg.ctx != g1:
        raise TransformError("argument derivation must live in the context prefix before the hypothesis")
    return _subst_proof_rec(d, a, darg)


def _subst_proof_rec(d: Derivation, a: str, darg: Derivation) -> Derivation:
    ctx = d.ctx.drop(a)
    if d.rule == AXIOM and d.witness.hyp == a:
        return retype(weaken(darg, ctx), d.prop)
    premises = d.premises
    if d.rule == IMP_INTRO:
        b_name = abstracted(premises[0])[0]
        if b_name in free_proof_vars(darg.subject):
            fresh = fresh_name(b_name, free_proof_vars(darg.subject) | _all_names(d))
            premises = (_rename_hyp(premises[0], b_name, fresh),)
    return rebuilt(d, (_subst_proof_rec(p, a, darg) for p in premises), ctx=ctx)


def subst_derivation_term(d: Derivation, x: str, t: Term) -> Derivation:
    """Substitute the term t for the term-variable x throughout a derivation.

    Contexts, propositions and witnesses are substituted; the subject is
    substituted only in Church style (Curry subjects carry no terms).
    """
    ctx = Context(tuple((n, subst_term_in_prop(p, x, t)) for n, p in d.ctx.entries))
    prop = subst_term_in_prop(d.prop, x, t)
    w = d.witness

    if d.rule == FORALL_INTRO:
        if x == w.var:
            # The substituted variable is the bound one: nothing below the
            # quantifier changes (it is not free in the context either).
            return rebuilt(d, d.premises, ctx=ctx, prop=prop)
        (prem,) = d.premises
        v2 = w.var
        if w.var in free_term_vars(t):
            # Renaming keeps both the proposition capture-free and the
            # x-not-free-in-context side condition intact; the premise
            # is renamed by a recursive substitution pass so subject,
            # witness and premise stay aligned.
            avoid = (free_term_vars(w.body) | free_term_vars(t) | {x}
                     | ctx.free_term_vars() | free_term_vars(prop))
            v2 = fresh_name(w.var, avoid)
            prem = subst_derivation_term(prem, w.var, Var(v2))
        new_prem = subst_derivation_term(prem, x, t)
        return rebuilt(d, (new_prem,), ctx=ctx, prop=prop,
                       witness=ForallIntroWit(v2, new_prem.prop))

    if d.rule in (IMP_INTRO, IMP_ELIM):
        w = ImpWit(subst_term_in_prop(w.a, x, t), subst_term_in_prop(w.b, x, t))
    elif d.rule == FORALL_ELIM:
        # The quantifier binder lives only inside the witness, so renaming
        # (if any) is a pure proposition-level matter.
        quantified = subst_term_in_prop(Forall(w.var, w.body), x, t)
        w = ForallElimWit(quantified.var, quantified.body, subst_term_in_term(w.inst, x, t))
    premises = (subst_derivation_term(p, x, t) for p in d.premises)
    return rebuilt(d, premises, ctx=ctx, prop=prop, witness=w)


# ---------------------------------------------------------------------------
# Erasure: Church to Curry

def erase(p: ProofTerm) -> ProofTerm:
    """Drop quantifier abstractions and term applications."""
    if isinstance(p, PVar):
        return p
    if isinstance(p, PLam):
        return PLam(p.var, erase(p.body))
    if isinstance(p, PApp):
        return PApp(erase(p.fn), erase(p.arg))
    if isinstance(p, TLam):
        return erase(p.body)
    return erase(p.fn)


def erase_derivation(d: Derivation) -> Derivation:
    """Map a Church derivation to the Curry derivation with erased subjects
    (the Curry subject rule drops exactly what `erase` drops)."""
    return rebuilt(d, (erase_derivation(p) for p in d.premises), style=CURRY)


# ---------------------------------------------------------------------------
# Quantifier transport across a confusing congruence (Curry only).
# From G |- p : A => !x. B one reaches G |- p : !x. (A => B) with one
# silent elimination (instantiating at the variable itself) and one
# silent introduction.

def imp_forall_transport(d: Derivation, x: str, a: Proposition, b: Proposition) -> Derivation:
    if d.style != CURRY:
        raise TransformError("quantifier transport only exists in Curry style")
    step1 = forall_elim(d, x, Imp(a, b), Var(x), prop=Imp(a, b))
    return forall_intro(step1, x, prop=Forall(x, Imp(a, b)))


# ---------------------------------------------------------------------------
# Derivation files (.drv): one parenthesized node per rule application.
#
#   (axiom ctx:"a:A" subj:"a" prop:"A" wit:"a")
#   (imp-intro ctx:"" subj:"\a. a" prop:"A => A" wit:"A => A" <premise>)
#   (imp-elim ctx:"a:A" subj:"(\a. a a) (\a. a a)" prop:"B" wit:"A => B" <l> <r>)
#   (forall-intro ... wit:"!x. A" <premise>)
#   (forall-elim ... wit:"!x. A" inst:"t" <premise>)

def print_derivation(d: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    fields = [
        d.rule,
        f'ctx:"{d.ctx}"',
        f'subj:"{print_proof(d.subject)}"',
        f'prop:"{print_prop(d.prop)}"',
    ]
    w = d.witness
    if isinstance(w, AxiomWit):
        fields.append(f'wit:"{w.hyp}"')
    elif isinstance(w, ImpWit):
        fields.append(f'wit:"{print_prop(Imp(w.a, w.b))}"')
    elif isinstance(w, ForallIntroWit):
        fields.append(f'wit:"{print_prop(Forall(w.var, w.body))}"')
    else:
        fields.append(f'wit:"{print_prop(Forall(w.var, w.body))}"')
        fields.append(f'inst:"{print_term(w.inst)}"')
    if not d.premises:
        return f"{pad}({' '.join(fields)})"
    inner = "\n".join(print_derivation(p, indent + 1) for p in d.premises)
    return f"{pad}({' '.join(fields)}\n{inner})"


_FIELD_NAMES = ("ctx", "subj", "prop", "wit", "inst")


def parse_derivation(text: str, style: str, sig) -> Derivation:
    toks = _drv_tokenize(text)
    d, rest = _parse_drv_node(toks, style, sig)
    if rest:
        raise DerivationError("trailing input after derivation")
    return d


def _drv_tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            out.append((c, c))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                if text[j] == '"':
                    j += 1
                    while j < len(text) and text[j] != '"':
                        j += 1
                j += 1
            out.append(("word", text[i:j]))
            i = j
    return out


def _parse_drv_node(toks, style, sig):
    if not toks or toks[0][0] != "(":
        raise DerivationError("expected '(' to open a derivation node")
    toks = toks[1:]
    if not toks or toks[0][0] != "word":
        raise DerivationError("expected a rule name")
    rule = toks[0][1]
    if rule not in _PREMISES:
        raise DerivationError(f"unknown rule {rule!r}")
    toks = toks[1:]
    fields = {}
    while toks and toks[0][0] == "word":
        word = toks[0][1]
        name, _, rest = word.partition(":")
        if name not in _FIELD_NAMES or not rest.startswith('"') or not rest.endswith('"'):
            raise DerivationError(f"malformed field {word!r}")
        fields[name] = rest[1:-1]
        toks = toks[1:]
    premises = []
    while toks and toks[0][0] == "(":
        prem, toks = _parse_drv_node(toks, style, sig)
        premises.append(prem)
    if not toks or toks[0][0] != ")":
        raise DerivationError("expected ')' to close a derivation node")
    toks = toks[1:]
    for required in ("ctx", "subj", "prop", "wit"):
        if required not in fields:
            raise DerivationError(f"node {rule} is missing the {required!r} field")
    ctx = parse_context(fields["ctx"], sig)
    subject = parse_proof(fields["subj"], style, sig)
    prop = parse_prop(fields["prop"], sig)
    wit = _parse_witness(rule, fields, sig)
    return Derivation(rule, style, ctx, subject, prop, wit, tuple(premises)), toks


def _parse_witness(rule, fields, sig):
    if rule == AXIOM:
        return AxiomWit(fields["wit"].strip())
    w = parse_prop(fields["wit"], sig)
    if rule in (IMP_INTRO, IMP_ELIM):
        if not isinstance(w, Imp):
            raise DerivationError(f"{rule} witness must be an implication")
        return ImpWit(w.left, w.right)
    if not isinstance(w, Forall):
        raise DerivationError(f"{rule} witness must be a quantified proposition")
    if rule == FORALL_INTRO:
        return ForallIntroWit(w.var, w.body)
    if "inst" not in fields:
        raise DerivationError("forall-elim needs an inst:\"t\" field")
    return ForallElimWit(w.var, w.body, parse_term(fields["inst"], sig))


def parse_context(text: str, sig) -> Context:
    text = text.strip()
    if not text:
        return Context()
    p = _Parser(text, sig)
    entries = []
    while True:
        name, _ = p.expect("ident")
        p.expect(":")
        entries.append((name, p.prop()))
        if p.peek()[0] == ",":
            p.next()
            continue
        p.done()
        break
    return Context(tuple(entries))


def load_derivation(path, style: str, sig) -> Derivation:
    with open(path, encoding="utf-8") as fh:
        return parse_derivation(fh.read(), style, sig)

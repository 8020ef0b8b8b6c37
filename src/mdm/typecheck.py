"""Typing contexts, derivation trees, the checker, and derivation transforms.

The kernel checks explicit derivations: every node carries the rule it
claims to apply, its context and proposition, and the witness the rule's
side conditions need.  Congruence side conditions are re-established by
bounded search at check time, so an Unknown search outcome fails the check
rather than being trusted.

Five rules, each in a Curry and a Church variant (the variants differ only
on the quantifier rules, which are silent on Curry subjects):

    axiom         G, a:A |- a : B            A == B
    imp-intro     G, a:A |- p : B  =>  G |- \\a. p : C        C == A => B
    imp-elim      G |- p : C,  G |- q : A  =>  G |- p q : B   C == A => B
    forall-intro  G |- p : A  =>  G |- [^x.] p : B    B == !x. A, x not in FV(G)
    forall-elim   G |- p : B  =>  G |- p [t] : C      B == !x. A, C == (t/x)A

Both premises of imp-elim are required in the conclusion's context;
`weaken` reconciles derivations built in smaller contexts.

A node's witness is what its rule decomposes: the hypothesis name for
axiom, the implication `A => B` (an `Imp`) for imp-intro and imp-elim, the
quantified proposition `!x. A` (a `Forall`) for forall-intro, and the pair
(`Forall`, instance term) for forall-elim.  The quantifier rules need it
because a Curry subject does not record them.

A node's subject is not stored but computed from its rule, style, witness
and premises by `subject_of`, the single statement of the subject rule, so
a derivation cannot conclude a subject its rules do not build.  Building a
node also checks its shape: its rule, its premise count, its witness's
shape and its premises' style.  The checker is left with the logic:
contexts, propositions and congruences.  `dataclasses.replace` recomputes
the subject, so the transforms rebuild nodes with it.

The weakening and substitution lemmas are one walker, `_subst_drv`, which
re-derives a derivation in a new context while substituting terms for
term-variables and derivations for hypotheses.  It has one renaming rule
per derivation binder: imp-intro's abstracted hypothesis is renamed when
the new context names it or a substituted subject has it free, and
forall-intro's eigenvariable when a substituted term or the new context
has it free.  `weaken`, `subst_derivation_proof` and
`subst_derivation_term` each check their arguments and call it once.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .rewriting import Theory, Unknown, Yes, congruent_ex
from .syntax import (
    CHURCH, CURRY, Forall, Imp, ParseError, PApp, PLam, PVar, Proposition,
    ProofTerm, TApp, TLam, Term, Var, _Parser, apply_term_subst,
    free_proof_vars, free_term_vars, fresh_name, print_proof, print_prop,
    print_term, subst_term_in_prop,
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

_WITNESS = {AXIOM: "a hypothesis name", IMP_INTRO: "an implication",
            IMP_ELIM: "an implication", FORALL_INTRO: "a quantified proposition",
            FORALL_ELIM: "a (quantified proposition, term) pair"}


def _witness_fits(rule: str, w) -> bool:
    if rule == AXIOM:
        return isinstance(w, str)
    if rule == FORALL_INTRO:
        return isinstance(w, Forall)
    if rule == FORALL_ELIM:
        return (isinstance(w, tuple) and len(w) == 2
                and isinstance(w[0], Forall) and isinstance(w[1], Term))
    return isinstance(w, Imp)


@dataclass(frozen=True)
class Derivation:
    """One rule application over its premises.  The subject is computed by
    `subject_of`; a node whose rule, premise count, witness shape or
    premise style is wrong cannot be built."""

    rule: str
    style: str
    ctx: Context
    prop: Proposition
    witness: object
    premises: tuple = ()
    subject: ProofTerm = field(init=False)

    def __post_init__(self):
        if self.rule not in _PREMISES:
            raise DerivationError(f"unknown rule {self.rule!r}")
        if len(self.premises) != _PREMISES[self.rule]:
            raise DerivationError(
                f"{self.rule} takes {_PREMISES[self.rule]} premise(s), got {len(self.premises)}")
        if not _witness_fits(self.rule, self.witness):
            raise DerivationError(f"{self.rule} witness must be {_WITNESS[self.rule]}")
        for prem in self.premises:
            if prem.style != self.style:
                raise DerivationError(f"style mismatch: {self.rule} node is {self.style}, "
                                      f"its premise is {prem.style}")
        object.__setattr__(self, "subject",
                           subject_of(self.rule, self.style, self.witness, self.premises))

    def __str__(self):
        return f"{self.ctx} |- {print_proof(self.subject)} : {print_prop(self.prop)}"

    def _own(self) -> tuple:
        # the subject is left out: it is a function of the subtree
        return self.rule, self.style, self.ctx, self.prop, self.witness

    def __eq__(self, other):
        """Equal fields at every node, compared with an explicit stack, so
        derivations nested as deeply as the reader accepts compare too."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            if x._own() != y._own():
                return False
            todo.extend(zip(x.premises, y.premises))
        return True

    def __hash__(self):
        # the root's own fields: equal derivations have equal roots
        return hash(self._own())


def retype(d: Derivation, new_prop: Proposition) -> Derivation:
    """Same node with the conclusion proposition replaced.

    The witnesses are kept as they are.  Most rules constrain the conclusion
    only up to congruence, but imp-elim compares it syntactically with its
    witness's consequent `witness.right`, so a retyped imp-elim node fails
    to check unless new_prop equals that consequent.
    """
    return replace(d, prop=new_prop)


def is_silent(rule: str, style: str) -> bool:
    """Curry quantifier rules are silent: they keep the premise's subject."""
    return style == CURRY and rule in (FORALL_INTRO, FORALL_ELIM)


def subject_of(rule: str, style: str, witness, premises) -> ProofTerm:
    """The subject a node of this rule, style and witness concludes from its
    premises."""
    if rule == AXIOM:
        return PVar(witness)
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
    return TApp(prem.subject, witness[1])


def abstracted(prem: Derivation):
    """The (name, proposition) an imp-intro node abstracts: the last entry
    of its premise's context."""
    if not prem.ctx.entries:
        raise DerivationError("imp-intro premise has an empty context: no hypothesis to abstract")
    return prem.ctx.entries[-1]


# Builders: construct nodes with the canonical conclusion so tests and
# generators do not repeat themselves.

def axiom(ctx: Context, hyp: str, prop: Proposition | None = None, style: str = CURRY) -> Derivation:
    declared = ctx.lookup(hyp)
    if declared is None:
        raise DerivationError(f"hypothesis {hyp!r} not in context")
    return Derivation(AXIOM, style, ctx, declared if prop is None else prop, hyp)


def imp_intro(premise: Derivation, prop: Proposition | None = None) -> Derivation:
    w = Imp(abstracted(premise)[1], premise.prop)
    return Derivation(IMP_INTRO, premise.style, Context(premise.ctx.entries[:-1]),
                      w if prop is None else prop, w, (premise,))


def imp_elim(left: Derivation, right: Derivation, b: Proposition,
             prop: Proposition | None = None) -> Derivation:
    return Derivation(IMP_ELIM, left.style, left.ctx, b if prop is None else prop,
                      Imp(right.prop, b), (left, right))


def forall_intro(premise: Derivation, var: str, prop: Proposition | None = None) -> Derivation:
    w = Forall(var, premise.prop)
    return Derivation(FORALL_INTRO, premise.style, premise.ctx,
                      w if prop is None else prop, w, (premise,))


def forall_elim(premise: Derivation, var: str, body: Proposition, inst: Term,
                prop: Proposition | None = None) -> Derivation:
    return Derivation(FORALL_ELIM, premise.style, premise.ctx,
                      subst_term_in_prop(body, var, inst) if prop is None else prop,
                      (Forall(var, body), inst), (premise,))


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
    for node, path in _postorder(d):
        reason = _check_node(chk, node)
        if reason is not None:
            return CheckReport(False, path, reason, chk.spent, chk.checks)
    return CheckReport(True, fuel_spent=chk.spent, congruence_checks=chk.checks)


def _postorder(d: Derivation):
    """(node, path) for every node of d, each node after its premises and
    the premises left to right.  An explicit stack, so a derivation of any
    depth is walked."""
    todo = [(d, (), False)]
    while todo:
        node, path, ready = todo.pop()
        if ready:
            yield node, path
            continue
        todo.append((node, path, True))
        todo.extend((p, path + (i,), False) for i, p in reversed(tuple(enumerate(node.premises))))


def _check_node(chk, d):
    w = d.witness
    if d.rule == AXIOM:
        declared = d.ctx.lookup(w)
        if declared is None:
            return f"hypothesis {w!r} not in context"
        return chk.cong(declared, d.prop)

    if d.rule == IMP_INTRO:
        (prem,) = d.premises
        a_prop = prem.ctx.entries[-1][1]
        if Context(prem.ctx.entries[:-1]) != d.ctx:
            return "imp-intro premise context must be the conclusion context plus one hypothesis"
        if a_prop != w.left:
            return "abstracted hypothesis does not match the witness antecedent"
        if prem.prop != w.right:
            return "premise proposition does not match the witness consequent"
        return chk.cong(d.prop, w)

    if d.rule == IMP_ELIM:
        left, right = d.premises
        if left.ctx != d.ctx or right.ctx != d.ctx:
            return "imp-elim premises must share the conclusion context"
        if right.prop != w.left:
            return "argument premise proposition does not match the witness antecedent"
        if d.prop != w.right:
            return "conclusion proposition does not match the witness consequent"
        return chk.cong(left.prop, w)

    if d.rule == FORALL_INTRO:
        (prem,) = d.premises
        if prem.ctx != d.ctx:
            return "forall-intro premise must share the conclusion context"
        if prem.prop != w.body:
            return "premise proposition does not match the witness body"
        if w.var in d.ctx.free_term_vars():
            return f"side condition violated: {w.var!r} occurs free in the context"
        return chk.cong(d.prop, w)

    # forall-elim
    (prem,) = d.premises
    if prem.ctx != d.ctx:
        return "forall-elim premise must share the conclusion context"
    quantified, inst = w
    return (chk.cong(prem.prop, quantified)
            or chk.cong(d.prop, subst_term_in_prop(quantified.body, quantified.var, inst)))


# ---------------------------------------------------------------------------
# Substitution in derivations: the walker `_subst_drv` and the three
# transforms that call it.  Its renaming rules, one per derivation binder:
#   * imp-intro's abstracted hypothesis, when the new context names it or a
#     substituted subject has it free, becomes fresh_name(name, every name
#     in the node and those names);
#   * forall-intro's eigenvariable, when a substituted term or the new
#     context has it free, becomes a name free in neither, nor in the
#     quantified body or the conclusion.
# A renaming is carried into the premise as one more substitution entry:
# the eigenvariable by a variable, the hypothesis by an axiom node.

def _subst_drv(d: Derivation, ctx: Context, terms: dict, hyps: dict) -> Derivation:
    """d re-derived in the conclusion context ctx, with its free
    term-variables replaced by `terms` and its uses of the hypotheses in
    `hyps` by those derivations, each weakened into the context of its use
    and retyped to the use's proposition."""
    prop = _apply(d.prop, terms)
    w = d.witness
    if d.rule == AXIOM and w in hyps:
        return retype(weaken(hyps[w], ctx), prop)
    if d.rule in (IMP_INTRO, IMP_ELIM, FORALL_ELIM):
        w = _apply(w, terms)

    if d.rule == IMP_INTRO:
        (prem,) = d.premises
        name, a = abstracted(prem)
        taken = set(ctx.names()).union(*(free_proof_vars(v.subject) for v in hyps.values()))
        a = _apply(a, terms)
        if name in taken:
            new = fresh_name(name, _all_names(d) | taken)
            hyps = {**hyps, name: axiom(ctx.extend(new, a), new, style=d.style)}
            name = new
        prem = _subst_drv(prem, ctx.extend(name, a), terms, hyps)
        return replace(d, premises=(prem,), ctx=ctx, prop=prop, witness=w)

    if d.rule == FORALL_INTRO:
        (prem,) = d.premises
        var = w.var
        terms = {x: t for x, t in terms.items() if x != var}
        taken = frozenset().union(*map(free_term_vars, terms.values())) | ctx.free_term_vars()
        if var in taken:
            avoid = taken | free_term_vars(w.body) | free_term_vars(prop)
            var = fresh_name(var, avoid.union(terms))
            terms[w.var] = Var(var)
        prem = _subst_drv(prem, ctx, terms, hyps)
        return replace(d, premises=(prem,), ctx=ctx, prop=prop, witness=Forall(var, prem.prop))

    premises = tuple(_subst_drv(p, ctx, terms, hyps) for p in d.premises)
    return replace(d, premises=premises, ctx=ctx, prop=prop, witness=w)


def _apply(x, terms: dict):
    """x under the term substitution; a forall-elim witness pair is
    substituted in both parts."""
    if not terms:
        return x
    if isinstance(x, tuple):
        return tuple(apply_term_subst(y, terms) for y in x)
    return apply_term_subst(x, terms)


def _all_names(d: Derivation) -> set:
    out = set(d.ctx.names()) | free_proof_vars(d.subject)
    if isinstance(d.subject, PLam):
        out.add(d.subject.var)
    for p in d.premises:
        out |= _all_names(p)
    return out


def weaken(d: Derivation, g2: Context) -> Derivation:
    """Re-derive d in the larger context g2.

    Hypotheses abstracted inside d that g2 names are renamed to fresh
    ones, and so are eigenvariables of forall-introductions inside d that
    occur free in g2.
    """
    if not d.ctx.subset_of(g2):
        raise TransformError("weakening target does not extend the derivation's context")
    return _subst_drv(d, g2, {}, {})


def subst_derivation_proof(d: Derivation, a: str, darg: Derivation) -> Derivation:
    """Replace uses of hypothesis a in d by the derivation darg.

    d must conclude in a context G1, a:A, G2 and darg in G1 (with a
    proposition congruent to A).  The result concludes
    G1, G2 |- (subject of darg / a)(subject of d) : prop of d.
    """
    names = d.ctx.names()
    if a not in names:
        raise TransformError(f"hypothesis {a!r} not in the derivation's context")
    if darg.ctx != Context(d.ctx.entries[:names.index(a)]):
        raise TransformError("argument derivation must live in the context prefix before the hypothesis")
    return _subst_drv(d, d.ctx.drop(a), {}, {a: darg})


def subst_derivation_term(d: Derivation, x: str, t: Term) -> Derivation:
    """Substitute the term t for the term-variable x throughout a derivation.

    Contexts, propositions and witnesses are substituted; the subject is
    substituted only in Church style (Curry subjects carry no terms).
    """
    terms = {x: t}
    ctx = Context(tuple((n, _apply(p, terms)) for n, p in d.ctx.entries))
    return _subst_drv(d, ctx, terms, {})


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
    (the Curry subject rule drops exactly what `erase` drops).  Built
    bottom-up over `_postorder`, so a derivation of any depth is erased."""
    erased = {}
    for node, _ in _postorder(d):
        premises = tuple(erased[id(p)] for p in node.premises)
        erased[id(node)] = replace(node, style=CURRY, premises=premises)
    return erased[id(d)]


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
# Derivation files (.drv): one parenthesized node per rule application,
# its premises after its fields.  Each field is a double-quoted string read
# by the syntax grammar of what it holds: ctx a context `a:A, b:B` (possibly
# empty), subj a proof-term, prop a proposition, wit the witness (a name
# for axiom, else a proposition) and, on forall-elim only, inst a term.
# The node's subject is computed from its rule, witness and premises; the
# reader checks that subj names it, up to the names of bound variables,
# and raises a ParseError at the subj field when it does not.
#
#   (axiom ctx:"a:A" subj:"a" prop:"A" wit:"a")
#   (imp-intro ctx:"" subj:"\a. a" prop:"A => A" wit:"A => A" <premise>)
#   (imp-elim ctx:"a:A" subj:"(\a. a a) (\a. a a)" prop:"B" wit:"A => B" <l> <r>)
#   (forall-intro ... wit:"!x. A" <premise>)
#   (forall-elim ... wit:"!x. A" inst:"t" <premise>)

def print_derivation(d: Derivation) -> str:
    """The .drv text of d, one node per line, each premise indented one
    step under its conclusion.  Built with an explicit stack, so a
    derivation nested as deeply as the reader accepts also prints."""
    out = []
    todo = [(d, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, indent = item
        w, *inst = node.witness if node.rule == FORALL_ELIM else (node.witness,)
        fields = [
            node.rule,
            f'ctx:"{node.ctx}"',
            f'subj:"{print_proof(node.subject)}"',
            f'prop:"{print_prop(node.prop)}"',
            f'wit:"{w if node.rule == AXIOM else print_prop(w)}"',
        ] + [f'inst:"{print_term(t)}"' for t in inst]
        if out:
            out.append("\n")
        out.append(f"{'  ' * indent}({' '.join(fields)}")
        todo.append(")")
        todo.extend((p, indent + 1) for p in reversed(node.premises))
    return "".join(out)


def parse_derivation(text: str, style: str, sig) -> Derivation:
    if style not in (CURRY, CHURCH):
        raise ValueError(f"unknown style {style!r}")
    p = _DrvParser(text, sig)
    return p.whole(p.node, style)


def parse_context(text: str, sig) -> Context:
    p = _DrvParser(text, sig)
    return p.whole(p.context)


class _DrvParser(_Parser):
    """The .drv grammar over the syntax tokens: the text of each field is
    read in place by the grammar rule of that field, so an error in it
    reports its position in the whole text."""

    def node(self, style) -> Derivation:
        """One node and its premises.  A node whose fields or premises do not
        make a well-formed derivation is a parse error at its rule name."""
        self.expect("(")
        rule, at = self.expect("ident")
        while self.peek()[0] == "-":
            self.next()
            rule += "-" + self.expect("ident")[0]
        if rule not in _PREMISES:
            raise ParseError(f"unknown rule {rule!r}", at)
        readers = {"ctx": (_DrvParser.context,), "subj": (_Parser.proof, style),
                   "prop": (_Parser.prop,),
                   "wit": (_DrvParser.name,) if rule == AXIOM else (_Parser.prop,)}
        if rule == FORALL_ELIM:
            readers["inst"] = (_Parser.term,)
        fields, where = {}, {}
        while self.peek()[0] == "ident":
            key, pos = self.next()[1:]
            if key in fields:
                raise ParseError(f"repeated field {key!r}", pos)
            if key not in readers:
                raise ParseError(f"{rule} has no field {key!r}", pos)
            self.expect(":")
            fields[key] = self.quoted(*readers[key])
            where[key] = pos
        premises = []
        while self.peek()[0] == "(":
            premises.append(self.node(style))
        self.expect(")")
        for required in readers:
            if required not in fields:
                raise ParseError(f"{rule} is missing the {required!r} field", at)
        w = fields["wit"]
        if rule == FORALL_ELIM:
            w = (w, fields["inst"])
        try:
            d = Derivation(rule, style, fields["ctx"], fields["prop"], w, tuple(premises))
        except DerivationError as e:
            raise ParseError(str(e), at) from None
        if d.subject != fields["subj"]:
            raise ParseError(f"{rule} subject must be {print_proof(d.subject)}, "
                             f"not {print_proof(fields['subj'])}", where["subj"])
        return d

    def quoted(self, rule, *args):
        """Run a grammar rule over the contents of the next token, a
        double-quoted string, in place."""
        v, pos = self.expect("string")
        inner = _DrvParser(self.text, self.sig, (pos + 1, pos + len(v) - 1))
        return inner.whole(rule, inner, *args)

    def context(self) -> Context:
        entries = []
        while self.peek()[0] != "eof":
            if entries:
                self.expect(",")
            name = self.name()
            self.expect(":")
            entries.append((name, self.prop()))
        return Context(tuple(entries))

    def name(self) -> str:
        return self.expect("ident")[0]


def load_derivation(path, style: str, sig) -> Derivation:
    with open(path, encoding="utf-8") as fh:
        return parse_derivation(fh.read(), style, sig)

"""Abstract syntax: first-order terms, minimal propositions, lambda proof-terms.

All trees are immutable and hash-consed by structure: building a node from
the same class, the same names and the same child objects as a live node
returns that node, so structurally equal trees are one object.  Equality
and hashing are alpha-equivalence throughout: two trees compare equal
exactly when they differ only in the names of bound variables (term binders
and proof binders alike).  This makes sets and dict keys "modulo alpha" for
free, which every other module relies on.  Interning does not go further
than structure, because binder names are kept for printing: `\\a. a` and
`\\b. b` are two objects that compare equal and hash alike.  Each node keeps
its alpha-canonical tuple and its hash once they are computed.  The intern
table (`_TABLE`) is a plain dict from a node's structure key to an entry: a
weak reference to the node that carries its key, so that the entry can
take itself out of the table when the node dies.

Every node also keeps facts that `_intern` sets from its children's when it
builds the node, in constant time and with no walk: its size (`size`), its
free term-variables (`free_term_vars`) and its free proof-variables
(`free_proof_vars`; empty for terms and propositions).  A proof-term node
keeps its height (`proof_height`) and whether it contains a redex
(`is_normal`) as well.  So asking any of these of a tree of any depth reads
one node.  Equal free-variable sets are one shared frozenset, so a node
costs a slot for each set, not a set of its own.

Each node class states its shape once, in two members: `children`, the
tuple of its immediate subtrees (`args` for `Fun` and `Atom`; `(left,
right)`, `(body,)` or `(fn, arg)` for the others, a `TApp`'s term argument
included; `()` for `Var` and `PVar`), and `with_children(kids)`, the same
node over the sequence kids of new children, built by the interning
constructor.  `subterms` walks a tree in pre-order with its own stack.  A
walker that only visits or rebuilds children uses these and spells out no
class: `subterms`, `check_wf`, `bound_proof_vars`, `graft`, `_subst` below
a non-binder, and the rewriting, erasure and path walkers of the other
modules.  Some code keeps its class cases on purpose: the code that cares about binders
(`_subst`'s binder case, `open_forall`, `rewriting._match`'s `Forall`
case, `reduction._positions`); `_canon`, whose per-class tuples are the
order of `sorted(key=canon)`, which the recorded digests depend on; the
printers, which place parentheses per class; `semantics._connective`,
which gives each connective its meaning; and `_measure` and `__new__`,
which run on every construction.

Nodes and the records of the other modules (verdicts, contexts,
derivations, bounds) are built on one base class, `Record`: immutable
fields named by `_fields`, printed as `Name(field=value, ...)` at any
depth, and copied with changes by `replace`.  A record compares and hashes
by class and field values; a node by alpha-equivalence.  A record class
states its fields once: `Record` compiles its `__init__` from `_fields`,
the defaults in `_defaults` and the class's `_check` hook, which refuses
ill-formed values.  Compiled code costs no more per record built than a
hand-written constructor; a generic loop over the fields would cost two to
three times as much, and `dataclasses` costs its import.

Concrete grammar (ASCII):

    term         x | f(t1,...,tn)          (nullary f prints bare)
    proposition  P | P(t,...) | A => B | !x. A      (=> right-assoc)
    proof        a | \\a. p | p q | ^x. p | p [t]    (app left-assoc)
"""
from __future__ import annotations

import re
import weakref
from operator import attrgetter

# The intern table maps (class, name fields..., id(child)...) to an entry:
# a weak reference to the node with that structure, which carries its own
# key.  Children are keyed by identity, never by equality, since equality
# would merge trees that differ in binder names.  When a node dies its
# entry's callback, `_drop`, removes the entry, unless a newer entry has
# taken its key; `_intern` treats a dead entry still in the table as absent.
# A node holds its children, so the id of a child is not reused while an
# entry keyed on it is live.
_TABLE = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _drop(entry):
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


def _absent():
    """What `_intern` calls in place of an entry when the table has none:
    like a dead entry, it gives no node."""
    return None

# One frozenset object for each free-variable set that some node has kept.
# Sets of names are few, so the table is never pruned.
_SETS = {}
_NO_VARS = _SETS.setdefault(frozenset(), frozenset())


def _shared(names) -> frozenset:
    return _SETS.setdefault(names, names)


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a if b <= a else b if a <= b else _shared(a | b)


def _without(names: frozenset, name: str) -> frozenset:
    return _shared(names - {name}) if name in names else names


def _constructor(cls):
    """The `__init__` of a record class: one parameter per field, in
    `_fields` order, the last ones defaulting to `_defaults`.  It sets each
    field, then calls `self._check()` if the class has one.  The code is
    compiled, not a loop over `_fields`, because a loop costs two to three
    times as much per record built."""
    fields, defaults = cls._fields, cls._defaults
    if set(defaults) != set(fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: the fields with defaults must come last")
    body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
    if hasattr(cls, "_check"):
        body += "    self._check()\n"
    namespace = {"_set": object.__setattr__}
    source = f"def __init__(self, {', '.join(fields)}):\n{body}"
    exec(compile(source, f"<{cls.__name__} constructor>", "exec"), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults[f] for f in fields if f in defaults) or None
    return init


class Record:
    """An immutable record whose fields, in order, are `_fields`.

    Two records are equal when they are of one class and their field
    values are equal, and a record hashes as its field values.  Once
    built, a record refuses assignment.

    A record class states its fields once.  From `_fields` and `_defaults`
    (field name -> default value, for the last fields) `Record` writes the
    class's `__init__`, as `dataclasses` would, without importing it: one
    parameter per field, each set in turn, then `self._check()` if the class
    defines one.  `_check` refuses ill-formed field values, and may set
    what the fields determine.  A class that writes its own `__init__` or
    `__new__` gets none (`Universe`, and the syntax nodes, which are
    interned by `__new__`)."""

    __slots__ = ()
    _fields = ()
    _defaults = {}
    # the field values of a record, as one value that == and hash() read;
    # a record without fields is known by its class
    _values = attrgetter("__class__")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("_fields"):
            cls._values = attrgetter(*cls._fields)
            if "__init__" not in cls.__dict__ and "__new__" not in cls.__dict__:
                cls.__init__ = _constructor(cls)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        """`Name(field=value, ...)`, written with an explicit stack, so a
        record nested to any depth prints.  The tuples inside it, and the
        records that print by this method, are written out on the stack;
        any other value by its own `repr`."""
        out, todo = [], [self]
        while todo:
            item = todo.pop()
            if item.__class__ is str:  # text to write out as it is
                out.append(item)
                continue
            if item.__class__ is tuple:
                out.append("(")
                todo.append(",)" if len(item) == 1 else ")")
                parts = [("", value) for value in item]
            else:
                out.append(f"{type(item).__qualname__}(")
                todo.append(")")
                parts = [(f"{f}=", getattr(item, f)) for f in item._fields]
            # last part first, so that the first is on top
            for i in reversed(range(len(parts))):
                label, value = parts[i]
                nested = value.__class__ is tuple or type(value).__repr__ is Record.__repr__
                todo += value if nested else repr(value), (", " if i else "") + label
        return "".join(out)

    def replace(self, **changes):
        """A record of the same class with the named fields changed, built
        by the constructor, so whatever it computes is computed again."""
        for f in self._fields:
            if f not in changes:
                changes[f] = getattr(self, f)
        return self.__class__(**changes)


class _Node(Record):
    """Hash-consed syntax node; == and hash() are alpha-equivalence."""

    __slots__ = ("_canon", "_hash", "_size", "_tfree", "_pfree", "__weakref__")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        return (self._canon or canon(self)) == (other._canon or canon(other))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._canon or canon(self))
            _set_hash(self, h)
        return h

    def __str__(self):
        if isinstance(self, _Proof):
            return print_proof(self)
        return print_term(self) if isinstance(self, (Var, Fun)) else print_prop(self)


_set_canon = _Node._canon.__set__
_set_hash = _Node._hash.__set__
_set_size = _Node._size.__set__
_set_tfree = _Node._tfree.__set__
_set_pfree = _Node._pfree.__set__


def _intern(cls, key, *values):
    """The live node of class cls under key, built from values if the
    table has no entry under key or only a dead one.  A new node gets the
    facts that `cls._measure` computes from its field values: size, free
    term-variables and free proof-variables, and for a proof-term its
    height and redex flag too."""
    node = _TABLE.get(key, _absent)()
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(node, name, value)
        _set_canon(node, None)
        _set_hash(node, None)
        facts = cls._measure(*values)
        _set_size(node, facts[0])
        _set_tfree(node, facts[1])
        _set_pfree(node, facts[2])
        if len(facts) > 3:
            _set_height(node, facts[3])
            _set_redex(node, facts[4])
        entry = _TABLE[key] = _Entry(node, _drop)
        entry.key = key
    return node


# ---------------------------------------------------------------------------
# Terms.  Each class's `_measure` gives (size, free term-variables, free
# proof-variables) of a new node; `children` and `with_children` give and
# replace its immediate subtrees.

class Var(_Node):
    __slots__ = _fields = ("name",)

    children = ()

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), name)

    def with_children(self, kids):
        return self

    @staticmethod
    def _measure(name):
        return 1, _shared(frozenset((name,))), _NO_VARS


class Fun(_Node):
    __slots__ = _fields = ("name", "args")

    children = property(attrgetter("args"))

    def __new__(cls, name: str, args: tuple = ()):
        args = tuple(args)
        return _intern(cls, (cls, name, *map(id, args)), name, args)

    def with_children(self, kids):
        return Fun(self.name, kids)

    @staticmethod
    def _measure(name, args):
        size, free = 1, _NO_VARS
        for a in args:
            size += a._size
            free = _union(free, a._tfree)
        return size, free, _NO_VARS


Term = Var | Fun


# ---------------------------------------------------------------------------
# Propositions

class Atom(_Node):
    __slots__ = _fields = ("pred", "args")

    children = Fun.children

    def __new__(cls, pred: str, args: tuple = ()):
        args = tuple(args)
        return _intern(cls, (cls, pred, *map(id, args)), pred, args)

    def with_children(self, kids):
        return Atom(self.pred, kids)

    _measure = staticmethod(Fun._measure)


class Imp(_Node):
    __slots__ = _fields = ("left", "right")

    children = property(attrgetter("left", "right"))

    def __new__(cls, left: Proposition, right: Proposition):
        return _intern(cls, (cls, id(left), id(right)), left, right)

    def with_children(self, kids):
        return Imp(*kids)

    @staticmethod
    def _measure(left, right):
        return 1 + left._size + right._size, _union(left._tfree, right._tfree), _NO_VARS


class Forall(_Node):
    __slots__ = _fields = ("var", "body")

    children = property(lambda self: (self.body,))

    def __new__(cls, var: str, body: Proposition):
        return _intern(cls, (cls, var, id(body)), var, body)

    def with_children(self, kids):
        return type(self)(self.var, *kids)

    @staticmethod
    def _measure(var, body):
        return 1 + body._size, _without(body._tfree, var), _NO_VARS


Proposition = Atom | Imp | Forall


# ---------------------------------------------------------------------------
# Proof-terms.  PVar/PLam/PApp form the pure (Curry) fragment; TLam/TApp
# record quantifier introductions and eliminations (Church).  Each class's
# `_measure` gives a new node's size, free term-variables, free
# proof-variables, height and redex flag.

class _Proof(_Node):
    __slots__ = ("_height", "_redex")


_set_height = _Proof._height.__set__
_set_redex = _Proof._redex.__set__


class PVar(_Proof):
    __slots__ = _fields = ("name",)

    children = ()
    with_children = Var.with_children

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), name)

    @staticmethod
    def _measure(name):
        return 1, _NO_VARS, _shared(frozenset((name,))), 1, False


class PLam(_Proof):
    __slots__ = _fields = ("var", "body")

    children = Forall.children
    with_children = Forall.with_children

    def __new__(cls, var: str, body: ProofTerm):
        return _intern(cls, (cls, var, id(body)), var, body)

    @staticmethod
    def _measure(var, body):
        return (1 + body._size, body._tfree, _without(body._pfree, var),
                1 + body._height, body._redex)


class PApp(_Proof):
    __slots__ = _fields = ("fn", "arg")

    children = property(attrgetter("fn", "arg"))

    def __new__(cls, fn: ProofTerm, arg: ProofTerm):
        return _intern(cls, (cls, id(fn), id(arg)), fn, arg)

    def with_children(self, kids):
        return type(self)(*kids)

    @staticmethod
    def _measure(fn, arg):
        f, a = fn._height, arg._height
        return (1 + fn._size + arg._size, _union(fn._tfree, arg._tfree),
                _union(fn._pfree, arg._pfree), 1 + (f if f > a else a),
                fn._redex or arg._redex or type(fn) is PLam)


class TLam(_Proof):
    __slots__ = _fields = ("var", "body")

    children = Forall.children
    with_children = Forall.with_children

    def __new__(cls, var: str, body: ProofTerm):
        return _intern(cls, (cls, var, id(body)), var, body)

    @staticmethod
    def _measure(var, body):
        return (1 + body._size, _without(body._tfree, var), body._pfree,
                1 + body._height, body._redex)


class TApp(_Proof):
    __slots__ = _fields = ("fn", "arg")

    children = PApp.children
    with_children = PApp.with_children

    def __new__(cls, fn: ProofTerm, arg: Term):
        return _intern(cls, (cls, id(fn), id(arg)), fn, arg)

    @staticmethod
    def _measure(fn, arg):
        # the term argument adds to the size and the free term-variables,
        # and holds no proof-term node, and so no level and no redex
        return (1 + fn._size + arg._size, _union(fn._tfree, arg._tfree), fn._pfree,
                1 + fn._height, fn._redex or type(fn) is TLam)


ProofTerm = PVar | PLam | PApp | TLam | TApp

CURRY = "curry"
CHURCH = "church"


# ---------------------------------------------------------------------------
# Signature

class SignatureError(ValueError):
    pass


class Signature(Record):
    """Mono-sorted first-order signature: function and predicate symbols
    with arities, each a tuple of (name, arity) pairs.  The predicate list must be non-empty (otherwise the
    proposition language is empty)."""

    __slots__ = _fields = ("functions", "predicates")
    _defaults = {"functions": (), "predicates": ()}

    def _check(self):
        if not self.predicates:
            raise SignatureError("signature needs at least one predicate symbol")
        for kind, pairs in (("function", self.functions), ("predicate", self.predicates)):
            names = [n for n, _ in pairs]
            if len(names) != len(set(names)):
                raise SignatureError(f"duplicate {kind} names in signature")

    def function_arity(self, name):
        for n, k in self.functions:
            if n == name:
                return k
        return None

    def predicate_arity(self, name):
        for n, k in self.predicates:
            if n == name:
                return k
        return None


def check_wf(x: Term | Proposition, sig: Signature) -> None:
    """Raise SignatureError on the first unknown symbol or arity violation
    in x, in pre-order."""
    for y in subterms(x):
        cls = type(y)
        if cls is Fun:
            kind, name, k = "function", y.name, sig.function_arity(y.name)
        elif cls is Atom:
            kind, name, k = "predicate", y.pred, sig.predicate_arity(y.pred)
        else:
            continue
        if k is None:
            raise SignatureError(f"unknown {kind} symbol {name!r}")
        if k != len(y.args):
            raise SignatureError(f"{kind} {name!r} expects {k} argument(s), got {len(y.args)}")


# ---------------------------------------------------------------------------
# Walking a tree

def subterms(x):
    """x and every node below it, in pre-order: the root first, then the
    subtree of each child, left to right.  An explicit stack, so a tree of
    any depth is walked."""
    todo = [x]
    while todo:
        y = todo.pop()
        yield y
        todo += reversed(y.children)


# ---------------------------------------------------------------------------
# Alpha-canonical forms.  Bound variables are numbered by binding depth
# (de Bruijn levels); proof-variable and term-variable namespaces are kept
# separate.  A node's own tuple is computed with empty binder environments
# and kept on the node; a child reached with empty environments contributes
# its kept tuple, so only the part of a tree under a binder is walked again.

def canon(x) -> tuple:
    return _canon(x, {}, {}, 0, 0)


def _canon(x, tenv, penv, td, pd):
    top = not (tenv or penv)
    if top:
        c = getattr(x, "_canon", None)
        if c is not None:
            return c
    if isinstance(x, Var):
        i = tenv.get(x.name)
        c = ("tv", x.name) if i is None else ("tb", i)
    elif isinstance(x, Fun):
        c = ("fn", x.name, tuple(_canon(a, tenv, penv, td, pd) for a in x.args))
    elif isinstance(x, Atom):
        c = ("at", x.pred, tuple(_canon(a, tenv, penv, td, pd) for a in x.args))
    elif isinstance(x, Imp):
        c = ("im", _canon(x.left, tenv, penv, td, pd), _canon(x.right, tenv, penv, td, pd))
    elif isinstance(x, Forall):
        c = ("fa", _canon(x.body, {**tenv, x.var: td}, penv, td + 1, pd))
    elif isinstance(x, PVar):
        i = penv.get(x.name)
        c = ("pv", x.name) if i is None else ("pb", i)
    elif isinstance(x, PLam):
        c = ("pl", _canon(x.body, tenv, {**penv, x.var: pd}, td, pd + 1))
    elif isinstance(x, PApp):
        c = ("pa", _canon(x.fn, tenv, penv, td, pd), _canon(x.arg, tenv, penv, td, pd))
    elif isinstance(x, TLam):
        c = ("tl", _canon(x.body, {**tenv, x.var: td}, penv, td + 1, pd))
    elif isinstance(x, TApp):
        c = ("ta", _canon(x.fn, tenv, penv, td, pd), _canon(x.arg, tenv, penv, td, pd))
    else:
        raise TypeError(f"not a syntax node: {x!r}")
    if top:
        _set_canon(x, c)
    return c


def keep_canon(x, c) -> None:
    """Keep c as the alpha-canonical tuple of x, unless x has one already.
    c must be `canon(x)`, built in `_canon`'s shapes by a caller that knows
    the binders of x (`reducibility.build_universe` builds them bottom-up);
    a test holds the two together."""
    if x._canon is None:
        _set_canon(x, c)


# ---------------------------------------------------------------------------
# Facts.  Each one but `bound_proof_vars` is kept on the node and read there.

def free_term_vars(x) -> frozenset:
    """Free term-variables of a term, proposition, or proof-term."""
    return x._tfree


def free_proof_vars(x) -> frozenset:
    """Free proof-variables of a proof-term; empty for a term or a
    proposition."""
    return x._pfree


def size(x) -> int:
    """The number of nodes of a term, proposition or proof-term, those of
    a TApp's term argument included."""
    return x._size


def proof_height(p: ProofTerm) -> int:
    """The number of proof-term nodes on the longest path from p to a leaf;
    the term argument of a TApp is not counted."""
    return p._height


def is_normal(p: ProofTerm) -> bool:
    """No redex anywhere in p."""
    return not p._redex


def bound_proof_vars(p: ProofTerm) -> frozenset:
    """Names used by PLam binders anywhere in p, found over `subterms`, so
    a term of any depth gets its set."""
    return frozenset(q.var for q in subterms(p) if type(q) is PLam)


def fresh_name(base: str, avoid) -> str:
    """Deterministic fresh name: `base` if unused, else base_1, base_2, ..."""
    if base not in avoid:
        return base
    stem = re.sub(r"_\d+$", "", base)
    k = 1
    while f"{stem}_{k}" in avoid:
        k += 1
    return f"{stem}_{k}"


# ---------------------------------------------------------------------------
# Substitution.  One walker, `_subst`, replaces free term-variables and free
# proof-variables simultaneously, in a term, a proposition or a proof-term.
# `!x` and `^x` bind term-variables and `\a` binds proof-variables.  At
# every node the substitution keeps only the entries whose variable is free
# there, by the node's kept sets, so a subtree that none of them touches
# comes back as it is, and at a binder none of them is the bound variable.
# When the binder's variable is free, in its own namespace, in one of their
# values, the binder is first renamed to fresh_name(var, avoid), where avoid
# holds the free names, in that namespace, of the body and of those values.
# Below any other node it rebuilds the children.  The public operations
# below are one call to it.  `graft` is the other substitution: it captures
# on purpose, so it renames nothing, and it rebuilds children at every node.

def _subst(x, terms: dict, proofs: dict):
    """x with its free term-variables replaced by `terms` and its free
    proof-variables by `proofs`, at the same time and without capture."""
    terms = _live(terms, x._tfree)
    proofs = _live(proofs, x._pfree)
    if not (terms or proofs):
        return x
    cls = type(x)
    if cls is Var:
        return terms[x.name]
    if cls is PVar:
        return proofs[x.name]
    if cls is not Forall and cls is not PLam and cls is not TLam:
        return x.with_children([_subst(c, terms, proofs) for c in x.children])
    var, body = x.var, x.body
    if cls is PLam:
        values, free = proofs.values(), free_proof_vars
    else:
        values, free = [*terms.values(), *proofs.values()], free_term_vars
    if any(var in free(v) for v in values):
        new = fresh_name(var, free(body).union(*map(free, values)))
        if cls is PLam:
            body = _subst(body, {}, {var: PVar(new)})
        else:
            body = _subst(body, {var: Var(new)}, {})
        var = new
    return cls(var, _subst(body, terms, proofs))


def _live(sub: dict, free: frozenset) -> dict:
    """The entries of sub whose variable is in free."""
    if not sub or sub.keys() <= free:
        return sub
    return {k: v for k, v in sub.items() if k in free}


def subst_term_in_term(t: Term, x: str, u: Term) -> Term:
    return _subst(t, {x: u}, {})


def apply_term_subst(x: Term | Proposition, sub: dict) -> Term | Proposition:
    return _subst(x, sub, {})


def subst_term_in_prop(p: Proposition, x: str, t: Term) -> Proposition:
    """Replace free occurrences of x by t, renaming bound variables as needed."""
    return _subst(p, {x: t}, {})


def apply_prop_subst(p: Proposition, sub: dict) -> Proposition:
    return _subst(p, sub, {})


def subst_proof(body: ProofTerm, a: str, arg: ProofTerm) -> ProofTerm:
    """Capture-avoiding replacement of the free proof-variable a by arg."""
    return _subst(body, {}, {a: arg})


def apply_proof_subst(p: ProofTerm, sub: dict) -> ProofTerm:
    return _subst(p, {}, sub)


def subst_term_in_proof(p: ProofTerm, x: str, t: Term) -> ProofTerm:
    """Replace the free term-variable x by t inside a proof-term, renaming
    quantifier abstractions as needed."""
    return _subst(p, {x: t}, {})


def open_forall(f: Forall, avoid) -> tuple:
    """The bound variable and body of f.  A variable in avoid is renamed to
    a name outside avoid and outside the free variables of the body."""
    if f.var not in avoid:
        return f.var, f.body
    v = fresh_name(f.var, avoid | free_term_vars(f.body))
    return v, subst_term_in_prop(f.body, f.var, Var(v))


def graft(p: ProofTerm, a: str, arg: ProofTerm) -> ProofTerm:
    """One capturing substitution step: replace free occurrences of a by arg
    without renaming any binder of p (free variables of arg may be captured)."""
    if a not in p._pfree:
        return p
    if type(p) is PVar:
        return arg
    # a TApp's term argument has no free proof-variable: it comes back as is
    return p.with_children([graft(c, a, arg) for c in p.children])


def apply_capture_subst(pairs, nu: ProofTerm) -> ProofTerm:
    """The ordered capturing substitution [m_n/a_n]...[m_1/a_1] applied to
    nu, given as its (proof-variable-name, ProofTerm) pairs.

    pairs[0] is applied first.  Order matters and the pairs are never
    normalized: composing single graftings is not commutative.
    """
    for a, m in pairs:
        nu = graft(nu, a, m)
    return nu


# ---------------------------------------------------------------------------
# Shape predicates

def is_neutral(p: ProofTerm) -> bool:
    """A proof-term is neutral when it is not an abstraction of either kind."""
    return not isinstance(p, (PLam, TLam))


# ---------------------------------------------------------------------------
# Printing

def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.name
    return f"{t.name}({', '.join(print_term(a) for a in t.args)})"


def print_prop(p: Proposition) -> str:
    if isinstance(p, Atom):
        if not p.args:
            return p.pred
        return f"{p.pred}({', '.join(print_term(a) for a in p.args)})"
    if isinstance(p, Imp):
        left = print_prop(p.left)
        if isinstance(p.left, (Imp, Forall)):
            left = f"({left})"
        return f"{left} => {print_prop(p.right)}"
    return f"!{p.var}. {print_prop(p.body)}"


def print_proof(p: ProofTerm) -> str:
    if isinstance(p, PVar):
        return p.name
    if isinstance(p, PLam):
        return f"\\{p.var}. {print_proof(p.body)}"
    if isinstance(p, TLam):
        return f"^{p.var}. {print_proof(p.body)}"
    if isinstance(p, TApp):
        fn = print_proof(p.fn)
        if isinstance(p.fn, (PLam, TLam)):
            fn = f"({fn})"
        return f"{fn} [{print_term(p.arg)}]"
    fn = print_proof(p.fn)
    if isinstance(p.fn, (PLam, TLam)):
        fn = f"({fn})"
    arg = print_proof(p.arg)
    if not isinstance(p.arg, PVar):
        arg = f"({arg})"
    return f"{fn} {arg}"


# ---------------------------------------------------------------------------
# Parsing

class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_TOKEN_RE = re.compile(rf"""
      (?P<ws>\s+)
    | (?P<arrow>=>)
    | (?P<ident>{_IDENT})
    | (?P<string>"[^"]*")
    | (?P<punct>[().,!\\^\[\]:-])
""", re.VERBOSE)


def is_identifier(text: str) -> bool:
    """Whether the tokenizer reads text as one identifier."""
    return re.fullmatch(_IDENT, text) is not None


def tokenize(text: str, span=None):
    """The tokens of text, or of its slice span = (start, end), each with
    its position in the whole of text; the last token is "eof"."""
    i, end = span or (0, len(text))
    out = []
    while i < end:
        m = _TOKEN_RE.match(text, i, end)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup == "ws":
            i = m.end()
            continue
        kind = m.lastgroup if m.lastgroup != "punct" else m.group()
        out.append((kind, m.group(), i))
        i = m.end()
    out.append(("eof", "", end))
    return out


class _Parser:
    """Recursive descent over the tokens of text, or of its slice span =
    (start, end): text embedded in a larger text is parsed in place, so
    error positions count from the start of the whole text."""

    def __init__(self, text, sig=None, span=None):
        self.text = text
        self.toks = tokenize(text, span)
        self.i = 0
        self.sig = sig

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        k, v, pos = self.next()
        if k != kind:
            raise ParseError(f"expected {kind!r}, found {v or 'end of input'!r}", pos)
        return v, pos

    def done(self):
        k, v, pos = self.peek()
        if k != "eof":
            raise ParseError(f"trailing input {v!r}", pos)

    def nested(self, rule, *args):
        """Run one grammar rule; input nested deeper than the interpreter's
        stack is a parse error at the token the parser had reached."""
        try:
            return rule(*args)
        except RecursionError:
            raise ParseError("input nested too deeply", self.peek()[2]) from None

    def whole(self, rule, *args):
        """Run one grammar rule over the whole input."""
        r = self.nested(rule, *args)
        self.done()
        return r

    # terms ---------------------------------------------------------------
    def term(self) -> Term:
        name, pos = self.expect("ident")
        args = ()
        if self.peek()[0] == "(":
            self.next()
            args = self.term_list()
            self.expect(")")
        if self.sig is not None:
            k = self.sig.function_arity(name)
            if k is not None:
                if k != len(args):
                    raise ParseError(f"function {name!r} expects {k} argument(s), got {len(args)}", pos)
                return Fun(name, args)
            if self.sig.predicate_arity(name) is not None:
                raise ParseError(f"predicate {name!r} used in term position", pos)
            if args:
                raise ParseError(f"unknown function symbol {name!r}", pos)
            return Var(name)
        return Fun(name, args) if args else Var(name)

    def term_list(self):
        out = [self.term()]
        while self.peek()[0] == ",":
            self.next()
            out.append(self.term())
        return tuple(out)

    # propositions ---------------------------------------------------------
    def prop(self) -> Proposition:
        left = self.prop_unit()
        if self.peek()[0] == "arrow":
            self.next()
            return Imp(left, self.prop())
        return left

    def prop_unit(self) -> Proposition:
        k, v, pos = self.peek()
        if k == "!":
            self.next()
            x, _ = self.expect("ident")
            self.expect(".")
            return Forall(x, self.prop())
        if k == "(":
            self.next()
            p = self.prop()
            self.expect(")")
            return p
        name, pos = self.expect("ident")
        args = ()
        if self.peek()[0] == "(":
            self.next()
            args = self.term_list()
            self.expect(")")
        if self.sig is not None:
            k = self.sig.predicate_arity(name)
            if k is None:
                raise ParseError(f"unknown predicate symbol {name!r}", pos)
            if k != len(args):
                raise ParseError(f"predicate {name!r} expects {k} argument(s), got {len(args)}", pos)
        return Atom(name, args)

    # proof-terms ----------------------------------------------------------
    def proof(self, style) -> ProofTerm:
        k, v, pos = self.peek()
        if k == "\\":
            self.next()
            a, _ = self.expect("ident")
            self.expect(".")
            return PLam(a, self.proof(style))
        if k == "^":
            if style != CHURCH:
                raise ParseError("term abstraction '^' is Church-style only", pos)
            self.next()
            x, _ = self.expect("ident")
            self.expect(".")
            return TLam(x, self.proof(style))
        acc = self.proof_atom(style)
        while True:
            k, v, pos = self.peek()
            if k == "[":
                if style != CHURCH:
                    raise ParseError("term application '[t]' is Church-style only", pos)
                self.next()
                t = self.term()
                self.expect("]")
                acc = TApp(acc, t)
            elif k in ("ident", "("):
                acc = PApp(acc, self.proof_atom(style))
            else:
                return acc

    def proof_atom(self, style) -> ProofTerm:
        k, v, pos = self.peek()
        if k == "(":
            self.next()
            p = self.proof(style)
            self.expect(")")
            return p
        name, _ = self.expect("ident")
        return PVar(name)


def parse_term(text: str, sig: Signature | None = None) -> Term:
    p = _Parser(text, sig)
    return p.whole(p.term)


def parse_prop(text: str, sig: Signature | None = None) -> Proposition:
    p = _Parser(text, sig)
    return p.whole(p.prop)


def parse_proof(text: str, style: str = CURRY, sig: Signature | None = None) -> ProofTerm:
    if style not in (CURRY, CHURCH):
        raise ValueError(f"unknown style {style!r}")
    p = _Parser(text, sig)
    return p.whole(p.proof, style)

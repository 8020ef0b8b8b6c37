"""Bundled example theories and derivations.

The theories are the .mdm files of the package's theories/ directory.
"""
from pathlib import Path

from .rewriting import Theory, load_theory
from .syntax import Atom, Imp
from .typecheck import Context, Derivation, axiom, imp_elim, imp_intro

THEORY_DIR = Path(__file__).resolve().parent / "theories"


def builtin_theory(name: str) -> Theory:
    return load_theory(THEORY_DIR / f"{name}.mdm")


def delta_derivation(prop) -> Derivation:
    """[a:A] |- \\b. b b : prop, valid when A is congruent to A => A."""
    a = Atom("A")
    ctx = Context((("a", a),))
    inner = ctx.extend("b", a)
    left = axiom(inner, "b", prop=Imp(a, a))
    right = axiom(inner, "b")
    return imp_intro(imp_elim(left, right, b=a), prop=prop)


def delta_delta_derivation() -> Derivation:
    """[a:A] |- (\\b. b b) (\\b. b b) : A, the looping self-application."""
    a = Atom("A")
    return imp_elim(delta_derivation(Imp(a, a)), delta_derivation(a), b=a)

"""Bundled example theories and derivations.

The theories are the .mdm files of the package's theories/ directory, and
the derivations its .drv files.
"""
from pathlib import Path

from .rewriting import Theory, load_theory
from .syntax import CURRY
from .typecheck import Derivation, load_derivation

THEORY_DIR = Path(__file__).resolve().parent / "theories"


def builtin_theory(name: str) -> Theory:
    return load_theory(THEORY_DIR / f"{name}.mdm")


def delta_delta_derivation() -> Derivation:
    """[a:A] |- (\\b. b b) (\\b. b b) : A, the looping self-application,
    valid when A is congruent to A => A (the theory `selfapp`).  Its two
    premises are [a:A] |- \\b. b b at A => A and at A."""
    return load_derivation(THEORY_DIR / "deltadelta.drv", CURRY,
                           builtin_theory("selfapp").signature)

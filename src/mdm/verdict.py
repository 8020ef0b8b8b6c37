"""One result type for every bounded check.

A CR property, a closure lemma, an adequacy instance, a model condition
and a criterion of the acceptance battery (`mdm.suite`) all say the same
kind of thing: pass, fail or unknown within the stated bounds, with
tallies of what was compared, what the bounds cut off and what stayed
undecided.  Each producer states its own rule for `status`; the tallies it
does not keep stay 0.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    status: str  # "pass" | "fail" | "unknown"
    failures: tuple = ()
    boundary: int = 0  # instances that left the universe
    unknown: int = 0  # instances the bounded search could not decide
    checked: int = 0  # comparisons actually made
    skipped: int = 0  # instances with no evidence inside the bounds
    name: str = ""

    @classmethod
    def of(cls, failures, **tallies) -> "Verdict":
        """Pass exactly when there is no failure."""
        return cls("fail" if failures else "pass", tuple(failures), **tallies)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    passed = ok  # read by the benchmark; to go with its next change

    def summary(self) -> str:
        state = "FAIL" if self.status == "fail" else self.status
        return (f"{self.name}: {state} ({self.checked} checked, "
                f"{len(self.failures)} violation(s), boundary {self.boundary}, "
                f"skipped {self.skipped}, unknown {self.unknown})")

"""One result type for every bounded check.

A CR property, a closure lemma, an adequacy instance, a model condition
and a criterion of the acceptance battery (`mdm.suite`) all say the same
kind of thing: pass, fail or unknown within the stated bounds, with
tallies of what was compared, what the bounds cut off and what stayed
undecided.  Each producer states its own rule for `status`; the tallies it
does not keep stay 0.
"""
from __future__ import annotations

from .syntax import Record


class Verdict(Record):
    """`status` is "pass", "fail" or "unknown".  `boundary` counts the
    instances that left the universe, `unknown` those the bounded search
    could not decide, `checked` the comparisons actually made and
    `skipped` the instances with no evidence inside the bounds."""

    __slots__ = _fields = ("status", "failures", "boundary", "unknown", "checked",
                           "skipped", "name")
    _defaults = {"failures": (), "boundary": 0, "unknown": 0, "checked": 0, "skipped": 0,
                 "name": ""}

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

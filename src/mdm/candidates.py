"""The names that the benchmark's workloads and tracer import from
`mdm.candidates`, re-exported from the modules that define them.

The candidate algebra (`mdm.reducibility`), the stage-0 derivation search
(`mdm.search`) and the closure Cl^k with its lemma checks (`mdm.closure`)
were one module, `candidates`, until they were split along the paper's
parts.  The benchmark's files still import from here, and its tracer
looks the traced functions up here and patches every module that binds
them.  Nothing else imports this module; it goes with the next change to
the benchmark, which imports from the defining modules.
"""
from .closure import (
    cl0, cl_step, closure, verify_clfamorph, verify_clramorph, verify_clsubst,
    verify_lambdacl, verify_mink, verify_monotone,
)
from .reducibility import (
    build_universe, cr1, cr2, cr3, cr3aux, cr3prime, decompositions, forall_candidate,
    imp_candidate, imp_candidate_ex, random_candidates,
)
from .search import DerivationSearch, SearchBounds

__all__ = [
    "DerivationSearch", "SearchBounds", "build_universe", "cl0", "cl_step", "closure",
    "cr1", "cr2", "cr3", "cr3aux", "cr3prime", "decompositions", "forall_candidate",
    "imp_candidate", "imp_candidate_ex", "random_candidates", "verify_clfamorph",
    "verify_clramorph", "verify_clsubst", "verify_lambdacl", "verify_mink",
    "verify_monotone",
]

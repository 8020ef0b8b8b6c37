"""Layer tracing for the benchmark's traced runs.

`Tracer.install` replaces public functions of the `mdm` modules with
wrappers that count calls, time them and record spans.  `from .x import f`
copies the binding, so a name is patched in every module that bound it
(and in the benchmark's own modules), not only where it is defined.

Each wrapped name belongs to a family (the unit a metric is reported for)
and to a layer (its `mdm` module).  Rules:

* every call is counted under its own qualified name;
* only the outermost call of a family is timed and opens a span, so a
  recursive `DerivationSearch.provable` or a substitution that calls
  another substitution is not counted twice;
* generator functions are counted but never timed, because the wrapper
  returns before the caller consumes the work;
* "hot" families (millions of calls) are timed and charged to their
  parent's child time but store no span of their own, so that the span
  list stays small enough to keep in memory.

Self time is a span's duration minus the time of the wrapped calls inside
it; summed per layer it says which module the pass spent its time in.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

SPAN, HOT, GEN = "span", "hot", "gen"
LAYERS = ("syntax", "rewriting", "reduction", "typecheck", "corpus", "candidates")

_SUBST = ("subst_term_in_term", "apply_term_subst", "subst_term_in_prop",
          "apply_prop_subst", "subst_proof", "apply_proof_subst",
          "subst_term_in_proof", "graft", "apply_capture_subst")
_TRANSFORMS = ("weaken", "subst_derivation_proof", "subst_derivation_term",
               "erase_derivation", "imp_forall_transport")
_CR = ("cr1", "cr2", "cr3", "cr3aux", "cr3prime")
VERIFY = ("verify_monotone", "verify_mink", "verify_lambdacl",
          "verify_clramorph", "verify_clsubst", "verify_clfamorph")


def _observe_congruent_ex(sums, out):
    verdict, spent = out
    sums["rewriting.expansions"] += spent
    sums["rewriting.unknown"] += type(verdict).__name__ == "Unknown"


def _observe_sn(sums, out):
    sums["reduction.sn_unknown"] += type(out).__name__ == "SNUnknown"


def _observe_check(sums, out):
    sums["typecheck.fuel_spent"] += out.fuel_spent
    sums["typecheck.congruence_checks"] += out.congruence_checks
    sums["typecheck.check_failed"] += not out.ok


def _observe_generate_corpus(sums, out):
    sums["corpus.derivations"] += len(out)


def _observe_generate(sums, out):
    sums["corpus.derivations"] += out is not None


def _observe_closure(sums, out):
    sums["candidates.boundary_escapes"] += out.boundary_escapes
    sums["candidates.stage_members"] += sum(len(s) for s in out.stages)


def _observe_arrow(sums, out):
    sums["candidates.arrow_untested"] += len(out.untested)


# Observers see the results of outermost calls only, except these, whose
# nested calls are real questions too (sn_cached -> sn_verdict,
# imp_candidate -> imp_candidate_ex).
_SEE_NESTED = (_observe_sn, _observe_arrow)

# (module, name, family, mode, observer)
TARGETS = (
    [("syntax", "canon", "canon", HOT, None)]
    + [("syntax", name, "subst", HOT, None) for name in _SUBST]
    + [
        ("rewriting", "congruent", "congruent", HOT, None),
        ("rewriting", "congruent_ex", "congruent_ex", SPAN, _observe_congruent_ex),
        ("rewriting", "rewrite_neighbors", "rewrite_neighbors", HOT, None),
        ("rewriting", "enumerate_props", "enumerate_props", GEN, None),
        ("reduction", "beta_reducts", "beta_reducts", HOT, None),
        ("reduction", "sn_cached", "sn", HOT, None),
        ("reduction", "sn_verdict", "sn", HOT, _observe_sn),
        ("reduction", "redex_paths", "redex_paths", HOT, None),
        ("reduction", "reduce_derivation", "reduce_derivation", SPAN, None),
        ("typecheck", "check_derivation", "check", SPAN, _observe_check),
    ]
    + [("typecheck", name, "transform", SPAN, None) for name in _TRANSFORMS]
    + [
        ("corpus", "generate_corpus", "generate", SPAN, _observe_generate_corpus),
        ("corpus", "DerivationGenerator.generate", "generate", SPAN, _observe_generate),
        ("candidates", "build_universe", "build_universe", SPAN, None),
        ("candidates", "cl0", "cl0", SPAN, None),
        ("candidates", "DerivationSearch.provable", "provable", HOT, None),
        ("candidates", "cl_step", "cl_step", SPAN, None),
        ("candidates", "decompositions", "decompositions", GEN, None),
        ("candidates", "closure", "closure", SPAN, _observe_closure),
        ("candidates", "imp_candidate", "imp_candidate", SPAN, None),
        ("candidates", "imp_candidate_ex", "imp_candidate", SPAN, _observe_arrow),
        ("candidates", "random_candidates", "random_candidates", SPAN, None),
    ]
    + [("candidates", name, "cr", SPAN, None) for name in _CR]
    + [("candidates", name, name, SPAN, None) for name in VERIFY]
)


class Tracer:
    def __init__(self):
        self.calls = Counter()          # qualified name -> every call
        self.entries = Counter()        # family -> outermost calls
        self.total = defaultdict(float)  # family -> time of outermost calls
        self.self_time = defaultdict(float)  # layer -> self time
        self.sums = Counter()           # quantities summed from results
        self.spans = []                 # (id, parent id, name, start, end, self time)
        self.pass_start = 0             # index of the first span of the pass
        self._active = Counter()
        self._frames = []               # [start, child time] of open calls
        self._open = []                 # ids of open stored spans
        self._next_id = 0

    def install(self, extra_modules=()):
        """Patch every target in every `mdm` module and in extra_modules."""
        modules = [m for key, m in sys.modules.items() if key == "mdm" or key.startswith("mdm.")]
        modules += list(extra_modules)
        for modname, name, family, mode, observe in TARGETS:
            home = importlib.import_module("mdm." + modname)
            qualname = f"{modname}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], qualname, family,
                                              modname, mode, observe))
                continue
            orig = getattr(home, name)
            wrapper = self._wrap(orig, qualname, family, modname, mode, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

    def _wrap(self, fn, qualname, family, layer, mode, observe):
        calls, sums = self.calls, self.sums
        if mode == GEN:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[qualname] += 1
                return fn(*args, **kwargs)
            return counted

        store = mode == SPAN
        active, frames, opened, clock = self._active, self._frames, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qualname] += 1
            if active[family]:
                out = fn(*args, **kwargs)
                if observe in _SEE_NESTED:
                    observe(sums, out)
                return out
            self.entries[family] += 1
            active[family] = 1
            if store:
                span_id = self._next_id
                self._next_id += 1
                parent = opened[-1] if opened else -1
                opened.append(span_id)
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                active[family] = 0
                duration = end - frame[0]
                own = duration - frame[1]
                self.total[family] += duration
                self.self_time[layer] += own
                if frames:
                    frames[-1][1] += duration
                if store:
                    opened.pop()
                    self.spans.append((span_id, parent, qualname, frame[0], end, own))
            if observe is not None:
                observe(sums, out)
            return out
        return traced

    def start_pass(self):
        """Forget the set-up phase, except the time spent building universes."""
        build = self.total["build_universe"]
        self.calls.clear()
        self.entries.clear()
        self.total.clear()
        self.self_time.clear()
        self.sums.clear()
        self.total["setup.build_universe"] = build
        self.pass_start = len(self.spans)

    def write_spans(self, path):
        """Write the spans of the pass as JSON lines."""
        with open(path, "w") as out:
            for span_id, parent, name, start, end, own in self.spans[self.pass_start:]:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start": start, "end": end, "self": own}) + "\n")

    def metrics(self, cache_info):
        """The per-layer metrics of the pass.  cache_info maps "congruent",
        "beta_reducts" and "sn_cached" to their `cache_info()`."""
        c, e, t, s = self.calls, self.entries, self.total, self.sums

        def ratio(info):
            asked = info.hits + info.misses
            return info.hits / asked if asked else 0.0

        out = {
            "syntax.canon_calls": (c["syntax.canon"], "count"),
            "syntax.canon_s": (t["canon"], "s"),
            "syntax.subst_calls": (sum(c[f"syntax.{n}"] for n in _SUBST), "count"),
            "syntax.subst_s": (t["subst"], "s"),
            "rewriting.congruent_calls": (c["rewriting.congruent"], "count"),
            "rewriting.congruent_hit_ratio": (ratio(cache_info["congruent"]), "ratio"),
            "rewriting.congruent_ex_calls": (c["rewriting.congruent_ex"], "count"),
            "rewriting.congruent_ex_s": (t["congruent_ex"], "s"),
            "rewriting.expansions": (s["rewriting.expansions"], "count"),
            "rewriting.unknown": (s["rewriting.unknown"], "count"),
            "rewriting.rewrite_neighbors_calls": (c["rewriting.rewrite_neighbors"], "count"),
            "reduction.beta_reducts_calls": (c["reduction.beta_reducts"], "count"),
            "reduction.beta_reducts_hit_ratio": (ratio(cache_info["beta_reducts"]), "ratio"),
            "reduction.sn_calls": (c["reduction.sn_verdict"], "count"),
            "reduction.sn_hit_ratio": (ratio(cache_info["sn_cached"]), "ratio"),
            "reduction.sn_s": (t["sn"], "s"),
            "reduction.sn_unknown": (s["reduction.sn_unknown"], "count"),
            "reduction.redex_paths_calls": (c["reduction.redex_paths"], "count"),
            "reduction.reduce_derivation_s": (t["reduce_derivation"], "s"),
            "typecheck.check_calls": (c["typecheck.check_derivation"], "count"),
            "typecheck.check_s": (t["check"], "s"),
            "typecheck.fuel_spent": (s["typecheck.fuel_spent"], "count"),
            "typecheck.congruence_checks": (s["typecheck.congruence_checks"], "count"),
            "typecheck.check_failed": (s["typecheck.check_failed"], "count"),
            "typecheck.transform_s": (t["transform"], "s"),
            "corpus.generate_calls": (e["generate"], "count"),
            "corpus.generate_s": (t["generate"], "s"),
            "corpus.derivations": (s["corpus.derivations"], "count"),
            "candidates.build_universe_s": (t["setup.build_universe"] + t["build_universe"], "s"),
            "candidates.cl0_calls": (c["candidates.cl0"], "count"),
            "candidates.cl0_s": (t["cl0"], "s"),
            "candidates.provable_calls": (c["candidates.DerivationSearch.provable"], "count"),
            "candidates.cl_step_calls": (c["candidates.cl_step"], "count"),
            "candidates.cl_step_s": (t["cl_step"], "s"),
            "candidates.decompositions_calls": (c["candidates.decompositions"], "count"),
            "candidates.closure_s": (t["closure"], "s"),
            "candidates.boundary_escapes": (s["candidates.boundary_escapes"], "count"),
            "candidates.stage_members": (s["candidates.stage_members"], "count"),
        }
        for name in VERIFY:
            out[f"candidates.{name}_s"] = (t[name], "s")
        out.update({
            "candidates.cr_calls": (sum(c[f"candidates.{n}"] for n in _CR), "count"),
            "candidates.cr_s": (t["cr"], "s"),
            "candidates.imp_candidate_s": (t["imp_candidate"], "s"),
            "candidates.arrow_untested": (s["candidates.arrow_untested"], "count"),
            "candidates.random_candidates_s": (t["random_candidates"], "s"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        return out

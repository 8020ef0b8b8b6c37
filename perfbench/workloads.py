"""The benchmark's three workloads, each a `setup(seed)` that builds the
fixed inputs and a `run(inputs, book)` that asks every top-level verdict
once and records it in a `Verdicts` book.

The inputs follow the acceptance battery in `mdm.suite` (criteria 3, 4, 7,
8 and 9) at the stated bounds, but the benchmark calls the public functions
itself so that it can time and check each verdict.  Two deliberate
departures keep a pass's cost independent of `--seed`, so that the spread
of `pass_s` across seeds is the machine's and not the inputs':

* `kernel-corpus` pins the arith-toy corpus at the battery's seed 0.
  Generating it is ~90% of the pass, and its cost is the number of
  congruence queries that end `Unknown`, which varied 104..386 across
  seeds 0..9 (0.6..5.0 s for the whole corpus).
* `candidate-algebra` runs criterion 9 for four consecutive sub-seeds
  (4·seed .. 4·seed+3), so that the cost of the random candidates and
  arrows is averaged over 400 candidates instead of 100.

Every pass must start cold; `run` never reuses anything from `setup` that
the program caches (see `cold_caches`).
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import time

from mdm.candidates import (
    SearchBounds, build_universe, closure, cr1, cr2, cr3prime,
    forall_candidate, imp_candidate, random_candidates, verify_clfamorph,
    verify_clramorph, verify_clsubst, verify_lambdacl, verify_mink,
    verify_monotone,
)
from mdm.corpus import DerivationGenerator, base_context, generate_corpus
from mdm.demos import builtin_theory
from mdm.reduction import (
    SN, Diverges, SNUnknown, beta_reducts, beta_steps, redex_paths,
    reduce_derivation, sn_cached, sn_verdict, subterm_at,
)
from mdm.rewriting import congruent
from mdm.syntax import (
    CHURCH, CURRY, Atom, Fun, Imp, PApp, PLam, PVar, TApp, Var,
    free_term_vars, fresh_name, parse_prop, print_proof, print_prop,
)
from mdm.typecheck import (
    Context, check_derivation, erase, erase_derivation, subst_derivation_proof,
    subst_derivation_term, weaken,
)

# Contradictions of a known answer that trace back to a defect listed in
# ROADMAP.md.  Any other contradiction makes the run incorrect.
RETYPE_DEFECT = "retype-imp-elim"   # retype() leaves ImpWit.b stale
ARROW_DEFECT = "arrow-cr2"          # bounded arrow admits untested members
_RETYPE_REASON = "conclusion proposition does not match the witness consequent"

CACHES = (congruent, beta_reducts, sn_cached)


def cold_caches():
    """Empty the module-level caches of `mdm`; raise if one stays warm."""
    for cache in CACHES:
        cache.cache_clear()
        if cache.cache_info().currsize != 0:
            raise RuntimeError(f"{cache.__name__} is not empty before the pass")


class Verdicts:
    """The verdicts of one pass, in the order they were asked.

    Each row is (kind, key, answer, decided, defect): `answer` is the
    verdict with its counts and boundary tallies as text, `decided` is
    False for Unknown-type answers, and `defect` is None when the answer
    agrees with the known one (or there is none), else the name of the
    defect that explains the contradiction.
    """

    def __init__(self):
        self.rows = []
        self.latencies = []
        self.inputs = []

    def ask(self, kind, key, question):
        """Time `question()`, which returns (answer, decided, defect)."""
        t0 = time.perf_counter()
        answer, decided, defect = question()
        self.latencies.append(time.perf_counter() - t0)
        self.rows.append((kind, key, answer, decided, defect))

    def note_input(self, text):
        """Record a generated input so that the digest covers it."""
        self.inputs.append(text)

    def digest(self):
        blob = json.dumps([self.inputs, self.rows], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def decided(self):
        return sum(1 for row in self.rows if row[3])

    def defects(self):
        return [row[4] for row in self.rows if row[4] is not None]


def _check_answer(report, extra_ok=True, transformed=True):
    """(answer, decided, defect) for a re-check whose known answer is ok.

    Only a derivation built by a transform (reduce, weaken, substitute,
    erase) goes through `retype`, so only there does the retype defect
    explain a failure; on a freshly generated one it is unexpected."""
    decided = report.ok or report.reason != "congruence not established"
    if (report.ok and extra_ok) or not decided:
        defect = None
    elif transformed and report.reason == _RETYPE_REASON:
        defect = RETYPE_DEFECT
    else:
        defect = "unexpected: " + str(report)
    return str(report) + ("" if extra_ok else " (context or proposition changed)"), decided, defect


def _drv_key(name, style, i, d):
    return f"{name}/{style}/{i}: {d.ctx} |- {print_proof(d.subject)} : {print_prop(d.prop)}"


# ---------------------------------------------------------------------------
# kernel-corpus: criteria 3, 4 and 7 over the full-size corpus

THEORY_NAMES = ("empty", "selfapp", "confusion", "arith-toy")
CORPUS_PER_STYLE = 50
PINNED_CORPUS_SEED = {"arith-toy": 0}
CHECK_FUEL = 400


def setup_kernel_corpus(seed):
    return {"seed": seed,
            "theories": {name: builtin_theory(name) for name in THEORY_NAMES}}


def _corpus(theories, style, seed):
    n = CORPUS_PER_STYLE
    share = [n // 4 + (1 if i < n % 4 else 0) for i in range(4)]
    out = []
    for name, count in zip(THEORY_NAMES, share):
        s = PINNED_CORPUS_SEED.get(name, seed)
        theory = theories[name]
        with_redex = count // 2
        out.extend((name, d) for d in generate_corpus(
            theory, style, with_redex, seed=s + 11, require_redex=True, fuel=40))
        out.extend((name, d) for d in generate_corpus(
            theory, style, count - with_redex, seed=s + 23, fuel=40))
    return out


def run_kernel_corpus(inputs, book):
    seed, theories = inputs["seed"], inputs["theories"]
    corpus = {style: _corpus(theories, style, seed) for style in (CURRY, CHURCH)}
    for style, items in corpus.items():
        for i, (name, d) in enumerate(items):
            book.note_input(_drv_key(name, style, i, d))

    # a generated derivation checks
    for style, items in corpus.items():
        for i, (name, d) in enumerate(items):
            book.ask("check", _drv_key(name, style, i, d), lambda: _check_answer(
                check_derivation(theories[name], d, CHECK_FUEL), transformed=False))

    # criterion 3: every redex reduction re-checks at the same context and proposition
    for style, items in corpus.items():
        for i, (name, d) in enumerate(items):
            for path in redex_paths(d.subject):
                def reduce_and_check():
                    out = reduce_derivation(theories[name], d, path)
                    rep = check_derivation(theories[name], out, CHECK_FUEL)
                    return _check_answer(rep, extra_ok=out.ctx == d.ctx and out.prop == d.prop)
                book.ask("reduce", f"{name}/{style}/{i} @ {list(path)}", reduce_and_check)

    # criterion 4: weakening and term substitution re-check
    for style, items in corpus.items():
        for i, (name, d) in enumerate(items):
            theory = theories[name]
            fresh_prop = base_context(theory).entries[0][1]
            w = fresh_name("w0", set(d.ctx.names()))
            wider = Context(d.ctx.entries + ((w, fresh_prop),))
            book.ask("weaken", f"{name}/{style}/{i}", lambda: _check_answer(
                check_derivation(theory, weaken(d, wider), CHECK_FUEL)))
            fv = sorted(d.ctx.free_term_vars() | free_term_vars(d.prop))
            x = fv[0] if fv else "x"
            funs = theory.signature.functions
            t = Fun(funs[0][0]) if funs and funs[0][1] == 0 else Var("y")
            book.ask("subst-term", f"{name}/{style}/{i} [{t}/{x}]", lambda: _check_answer(
                check_derivation(theory, subst_derivation_term(d, x, t), CHECK_FUEL)))

    # criterion 4: proof substitution on jointly generated pairs
    rng = random.Random(seed + 31)
    for name in ("empty", "selfapp", "confusion"):
        theory = theories[name]
        gen = DerivationGenerator(theory, CURRY, seed=seed + 41, fuel=40, max_depth=3)
        ctx = base_context(theory)
        made = attempts = 0
        while made < CORPUS_PER_STYLE // 3 and attempts < 200:
            attempts += 1
            darg = gen.generate(ctx, rng.choice([p for _, p in ctx]))
            if darg is None:
                continue
            d2 = gen.generate(ctx.extend("s0", darg.prop),
                              rng.choice([p for _, p in ctx] + [darg.prop]))
            if d2 is None:
                continue
            made += 1
            key = f"{name}/{made}: {print_proof(darg.subject)} for s0 in {print_proof(d2.subject)}"
            book.note_input(key)
            book.ask("subst-proof", key, lambda: _check_answer(
                check_derivation(theory, subst_derivation_proof(d2, "s0", darg), CHECK_FUEL)))

    # criterion 7: a Church step erases to a Curry step or to an equal term,
    # and an erased derivation re-checks
    for i, (name, d) in enumerate(corpus[CHURCH]):
        pi = d.subject
        for path, reduct in beta_steps(pi):
            def simulate():
                if isinstance(subterm_at(pi, path), TApp):
                    ok = erase(pi) == erase(reduct)
                else:
                    ok = erase(reduct) in beta_reducts(erase(pi))
                return str(ok), True, None if ok else "unexpected: erasure does not simulate"
            book.ask("erase-step", f"{name}/{i} @ {list(path)}", simulate)
        book.ask("erase-check", f"{name}/{i}", lambda: _check_answer(
            check_derivation(theories[name], erase_derivation(d), CHECK_FUEL)))


# ---------------------------------------------------------------------------
# closure-lemmas: criterion 8 at quick bounds (it has no random input, so
# the seed does not change it)

CLOSURE_UNIVERSE = 6


def setup_closure_lemmas(seed):
    empty = builtin_theory("empty")
    sig = empty.signature
    P = Atom("P")
    u = build_universe(CLOSURE_UNIVERSE, ("h1", "h2", "h3"))
    u2 = build_universe(CLOSURE_UNIVERSE, ("g1", "g2", "g3"))
    terms = (Fun("c"), Fun("d"))
    return {
        "theory": empty, "P": P,
        "delta": Context((("h1", P), ("h2", P), ("h3", Imp(P, P)))),
        "bounds": SearchBounds(u, depth=3, fuel=60, k_max=3, n_max=2),
        "body": parse_prop("R(x)", sig),
        "delta2": Context((("g1", parse_prop("!x. R(x)", sig)),
                           ("g2", parse_prop("R(c)", sig)),
                           ("g3", parse_prop("R(d)", sig)))),
        "bounds2": SearchBounds(u2, depth=3, fuel=60, k_max=3, n_max=2, inst_terms=terms),
        "terms": terms,
    }


def _table_answer(t):
    sizes = [len(s) for s in t.stages]
    answer = (f"stages {sizes}, boundary {t.boundary_escapes}, "
              f"unknown {t.unknown_mu}, fixpoint {t.fixpoint_at}")
    return answer, t.unknown_mu == 0, None


def _lemma_answer(report):
    defect = None if report.passed else "unexpected: " + report.summary()
    return report.summary(), report.unknown == 0, defect


def run_closure_lemmas(inputs, book):
    theory, P, delta, bounds = (inputs[k] for k in ("theory", "P", "delta", "bounds"))
    tables = {}
    for prop in (P, Imp(P, P)):
        def table():
            tables[prop] = closure(theory, delta, prop, {}, 3, bounds)
            return _table_answer(tables[prop])
        book.ask("closure", print_prop(prop), table)
    for prop in (P, Imp(P, P)):
        book.ask("monotone", print_prop(prop), lambda: _lemma_answer(verify_monotone(tables[prop])))
        book.ask("mink", print_prop(prop), lambda: _lemma_answer(verify_mink(tables[prop])))

    def stage0():
        ok = all(k == 0 for t in tables.values() for p, k in t.first_stage.items()
                 if not redex_paths(p))
        return str(ok), True, None if ok else "unexpected: normal member outside stage 0"
    book.ask("stage0", "P, P => P", stage0)

    book.ask("clramorph", "P, P", lambda: _lemma_answer(
        verify_clramorph(theory, delta, P, P, {}, 3, bounds)))
    book.ask("lambdacl", "P, P", lambda: _lemma_answer(
        verify_lambdacl(theory, delta, P, P, {}, 3, bounds)))
    body, delta2, bounds2, terms = (inputs[k] for k in ("body", "delta2", "bounds2", "terms"))
    book.ask("clsubst", "R(x) [c/x]", lambda: _lemma_answer(
        verify_clsubst(theory, delta2, body, "x", Fun("c"), {}, 3, bounds2)))
    book.ask("clfamorph", "!x. R(x)", lambda: _lemma_answer(
        verify_clfamorph(theory, delta2, "x", body, {}, 3, bounds2, terms)))


# ---------------------------------------------------------------------------
# candidate-algebra: SN verdicts over a size-7 universe, then criterion 9

SN_UNIVERSE = 7
ALGEBRA_UNIVERSE = 5
CANDIDATES = 100
ARROWS = 24
SUB_SEEDS = 4
SN_BUDGET = 10_000
DD = PApp(PLam("a", PApp(PVar("a"), PVar("a"))), PLam("a", PApp(PVar("a"), PVar("a"))))


def setup_candidate_algebra(seed):
    u7 = build_universe(SN_UNIVERSE, ("h1", "h2", "h3"))
    return {
        "seed": seed,
        "sn_terms": sorted(u7.members, key=print_proof),
        "u": build_universe(ALGEBRA_UNIVERSE, ("g", "h")),
    }


def _sn_answer(v):
    if isinstance(v, SN):
        return f"SN(max_length={v.max_length}, tree_size={v.tree_size})"
    if isinstance(v, Diverges):
        return f"Diverges(cycle_length={v.cycle_length})"
    return f"SNUnknown(fuel_spent={v.fuel_spent})"


def _cr_answer(cand, u, arrow):
    """Mirror the battery: an arrow must be non-empty, then CR1, CR2 and
    CR3' are asked in turn, stopping at the first that fails.  A CR2
    failure of an arrow is the known arrow defect."""
    if arrow and not cand.members:
        return "empty", True, "unexpected: empty arrow"
    for name, verdict in (("cr1", lambda: cr1(cand)), ("cr2", lambda: cr2(cand, u)),
                          ("cr3'", lambda: cr3prime(cand, u))):
        v = verdict()
        if v.ok:
            continue
        answer = (f"{len(cand)} members, {name} {v.status} "
                  f"({len(v.failures)} failure(s), boundary {v.boundary}, unknown {v.unknown})")
        if v.status == "unknown":
            return answer, False, None
        return answer, True, ARROW_DEFECT if arrow and name == "cr2" else f"unexpected: {name}"
    return f"{len(cand)} members, cr1/cr2/cr3' pass", True, None


def run_candidate_algebra(inputs, book):
    for p in inputs["sn_terms"]:
        def sn():
            v = sn_verdict(p, SN_BUDGET)
            return _sn_answer(v), not isinstance(v, SNUnknown), None
        book.ask("sn", print_proof(p), sn)

    def sn_dd():
        v = sn_verdict(DD, SN_BUDGET)
        ok = isinstance(v, Diverges) and v.cycle_length == 1
        return _sn_answer(v), not isinstance(v, SNUnknown), None if ok else "unexpected"
    book.ask("sn", print_proof(DD), sn_dd)

    u = inputs["u"]
    for sub in range(SUB_SEEDS * inputs["seed"], SUB_SEEDS * (inputs["seed"] + 1)):
        _criterion_9(u, sub, book)


def _criterion_9(u, seed, book):
    cands = []

    def generate():
        cands.extend(random_candidates(u, CANDIDATES, seed=seed + 71))
        ok = len(cands) == CANDIDATES
        return (f"{len(cands)} candidates, sizes {[len(c) for c in cands]}", True,
                None if ok else "unexpected: too few candidates")
    book.ask("random-candidates", f"seed {seed}", generate)

    rng = random.Random(seed + 73)
    for i in range(ARROWS):
        a, b = rng.choice(cands), rng.choice(cands)
        book.ask("arrow", f"seed {seed} #{i}", lambda: _cr_answer(imp_candidate(a, b, u), u, arrow=True))

    pool = cands[:8]
    for r in range(1, 5):
        for picked in itertools.combinations(range(len(pool)), r):
            fam = [pool[i] for i in picked]
            key = f"seed {seed} {list(picked)}"
            made = {}

            def meet():
                made["meet"] = forall_candidate(fam)
                return _cr_answer(made["meet"], u, arrow=False)
            book.ask("meet", key, meet)

            def glb():
                meet = made["meet"]
                lower_bound = all(meet.members <= c.members for c in fam)
                greatest = all(lower.members <= meet.members for lower in cands
                               if all(lower.members <= c.members for c in fam))
                ok = lower_bound and greatest
                return "exact" if ok else "violated", True, None if ok else "unexpected: glb"
            book.ask("glb", key, glb)


WORKLOADS = {
    "kernel-corpus": (setup_kernel_corpus, run_kernel_corpus),
    "closure-lemmas": (setup_closure_lemmas, run_closure_lemmas),
    "candidate-algebra": (setup_candidate_algebra, run_candidate_algebra),
}

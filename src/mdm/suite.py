"""The acceptance battery: one function per criterion, run by `run_suite`
and by the test suite.

Each criterion runs at pinned desk-scale bounds and reports a pass/fail
line with its salient counts.  Quick mode shrinks corpus sizes and
universes for a fast smoke signal; the stated bounds are the full ones.
"""
from __future__ import annotations

import itertools
import random
import sys
import time
from dataclasses import dataclass

from .candidates import (
    SearchBounds, adequacy_check, build_universe, closure, cr1, cr2,
    cr3prime, forall_candidate, imp_candidate, random_candidates,
    verify_clfamorph, verify_clramorph, verify_clsubst, verify_lambdacl,
    verify_mink, verify_monotone,
)
from .corpus import (
    DerivationGenerator, base_context, enumerate_derivations, generate_corpus,
)
from .demos import builtin_theory, delta_delta_derivation
from .reduction import (
    Diverges, beta_reducts, beta_steps, redex_paths, reduce_derivation,
    sn_verdict, subterm_at,
)
from .semantics import (
    ValuedStructure, check_algebra_laws, check_lsub, env_key, powerset_algebra,
)
from .syntax import (
    CHURCH, CURRY, Atom, Forall, Fun, Imp, PApp, PLam, PVar, TApp, Var,
    free_term_vars, fresh_name, parse_proof, parse_prop,
)
from .typecheck import (
    Context, axiom, check_derivation, erase, erase_derivation,
    imp_forall_transport, subst_derivation_proof, subst_derivation_term, weaken,
)

DD = PApp(PLam("a", PApp(PVar("a"), PVar("a"))),
          PLam("a", PApp(PVar("a"), PVar("a"))))


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d} {self.name}: {self.detail} ({self.seconds:.1f}s)"


@dataclass
class SuiteConfig:
    quick: bool = False
    seed: int = 0

    @property
    def corpus_per_style(self):
        return 16 if self.quick else 50

    @property
    def lsub_samples(self):
        return 150 if self.quick else 500

    @property
    def candidate_count(self):
        return 30 if self.quick else 100

    @property
    def universe_size(self):
        return 6 if self.quick else 7


def _timed(fn):
    t0 = time.time()
    out = fn()
    return out, time.time() - t0


class Suite:
    def __init__(self, config: SuiteConfig | None = None):
        self.config = config or SuiteConfig()
        self.theories = {name: builtin_theory(name)
                         for name in ("empty", "selfapp", "confusion", "arith-toy")}
        self._corpus = {}

    # corpus shared by criteria 3, 4 and 7
    def corpus(self, style):
        if style not in self._corpus:
            per_style = self.config.corpus_per_style
            names = ["empty", "selfapp", "confusion", "arith-toy"]
            share = [per_style // 4 + (1 if i < per_style % 4 else 0) for i in range(4)]
            out = []
            for name, n in zip(names, share):
                theory = self.theories[name]
                with_redex = n // 2
                out.extend((name, d) for d in generate_corpus(
                    theory, style, with_redex, seed=self.config.seed + 11,
                    require_redex=True, fuel=40))
                out.extend((name, d) for d in generate_corpus(
                    theory, style, n - with_redex, seed=self.config.seed + 23, fuel=40))
            self._corpus[style] = out
        return self._corpus[style]

    # ------------------------------------------------------------------
    def criterion_1(self) -> CriterionResult:
        def run():
            v = sn_verdict(DD, 10_000)
            ok = isinstance(v, Diverges) and v.cycle_length == 1
            return ok, f"verdict {type(v).__name__}, cycle length {getattr(v, 'cycle_length', '-')}"
        (ok, detail), secs = _timed(run)
        ok = ok and secs < 1.0
        return CriterionResult(1, "self-application diverges", ok, detail, secs)

    def criterion_2(self) -> CriterionResult:
        def run():
            d = delta_delta_derivation()
            rep = check_derivation(self.theories["selfapp"], d, fuel=50)
            return rep.ok, f"check {rep}"
        (ok, detail), secs = _timed(run)
        return CriterionResult(2, "looping derivation reproduces", ok, detail, secs)

    def criterion_3(self) -> CriterionResult:
        def run():
            pairs = ok_pairs = 0
            for style in (CURRY, CHURCH):
                for name, d in self.corpus(style):
                    theory = self.theories[name]
                    for path in redex_paths(d.subject):
                        pairs += 1
                        out = reduce_derivation(theory, d, path)
                        rep = check_derivation(theory, out, 400)
                        if rep.ok and out.ctx == d.ctx and out.prop == d.prop:
                            ok_pairs += 1
            return ok_pairs == pairs and pairs > 0, f"{ok_pairs}/{pairs} redex reductions re-check"
        (ok, detail), secs = _timed(run)
        ok = ok and secs < 60.0
        return CriterionResult(3, "subject reduction executes", ok, detail, secs)

    def criterion_4(self) -> CriterionResult:
        def run():
            total = good = 0
            for style in (CURRY, CHURCH):
                for name, d in self.corpus(style):
                    theory = self.theories[name]
                    # weakening by a fresh hypothesis over a theory proposition
                    fresh_prop = base_context(theory).entries[0][1]
                    w = fresh_name("w0", set(d.ctx.names()))
                    total += 1
                    if check_derivation(theory, weaken(d, Context(d.ctx.entries + ((w, fresh_prop),))), 400).ok:
                        good += 1
                    # term substitutivity
                    fv = sorted(d.ctx.free_term_vars() | free_term_vars(d.prop))
                    x = fv[0] if fv else "x"
                    t = Fun(theory.signature.functions[0][0]) \
                        if theory.signature.functions and theory.signature.functions[0][1] == 0 \
                        else Var("y")
                    total += 1
                    if check_derivation(theory, subst_derivation_term(d, x, t), 400).ok:
                        good += 1
            # proof substitutivity on jointly generated pairs
            rng = random.Random(self.config.seed + 31)
            for name in ("empty", "selfapp", "confusion"):
                theory = self.theories[name]
                gen = DerivationGenerator(theory, CURRY, seed=self.config.seed + 41,
                                          fuel=40, max_depth=3)
                ctx = base_context(theory)
                made = 0
                attempts = 0
                while made < self.config.corpus_per_style // 3 and attempts < 200:
                    attempts += 1
                    target = rng.choice([p for _, p in ctx])
                    darg = gen.generate(ctx, target)
                    if darg is None:
                        continue
                    d2 = gen.generate(ctx.extend("s0", darg.prop),
                                      rng.choice([p for _, p in ctx] + [darg.prop]))
                    if d2 is None:
                        continue
                    made += 1
                    total += 1
                    out = subst_derivation_proof(d2, "s0", darg)
                    if check_derivation(theory, out, 400).ok:
                        good += 1
            return good == total and total > 0, f"{good}/{total} transforms re-check"
        (ok, detail), secs = _timed(run)
        return CriterionResult(4, "weakening and substitutivity", ok, detail, secs)

    def criterion_5(self) -> CriterionResult:
        def run():
            alg = powerset_algebra(2)
            elems = sorted(alg.elements, key=sorted)
            universe = (Fun("c"), Fun("d"))
            rng = random.Random(self.config.seed + 57)
            variables = ("x", "y")

            def random_prop(depth):
                kind = rng.random()
                if depth == 0 or kind < 0.4:
                    choice = rng.random()
                    if choice < 0.4:
                        return Atom("P") if rng.random() < 0.5 else Atom("Q")
                    arg = rng.choice([Var(v) for v in variables] + [Fun("c"), Fun("d")])
                    return Atom("R", (arg,))
                if kind < 0.75:
                    return Imp(random_prop(depth - 1), random_prop(depth - 1))
                return Forall(rng.choice(variables), random_prop(depth - 1))

            violations = 0
            n = self.config.lsub_samples
            for _ in range(n):
                cache = {}

                def pred(name, args):
                    return cache.setdefault((name, args), rng.choice(elems))

                vs = ValuedStructure(alg, pred)
                p = random_prop(rng.randint(1, 4))
                x = rng.choice(variables)
                t = rng.choice([Fun("c"), Fun("d"), Var("x"), Var("y")])
                env = {} if rng.random() < 0.5 else {"y": Fun("d")}
                if not check_lsub(vs, p, x, t, env, universe):
                    violations += 1
            return violations == 0, f"{n} samples, {violations} violation(s)"
        (ok, detail), secs = _timed(run)
        return CriterionResult(5, "interpretation substitution property", ok, detail, secs)

    def criterion_6(self) -> CriterionResult:
        def run():
            confusion = self.theories["confusion"]
            sig = confusion.signature
            a, b = parse_prop("A", sig), parse_prop("B", sig)
            g = Context((("h", parse_prop("A => !x. B", sig)),))
            transported = imp_forall_transport(axiom(g, "h"), "x", a, b)
            rep = check_derivation(confusion, transported, 100)
            curry_ok = rep.ok and transported.prop == parse_prop("!x. (A => B)", sig)

            empty = self.theories["empty"]
            ctx = Context((("a", parse_prop("P", empty.signature)),
                           ("b", parse_prop("!x. R(x)", empty.signature))))
            props = [parse_prop(s, empty.signature) for s in ("P", "Q", "R(c)", "!x. R(x)")]
            derivs = enumerate_derivations(empty, ctx, props, (Fun("c"), Fun("d")),
                                           CHURCH, 4)
            offenders = [d for d in derivs
                         if isinstance(d.subject, PLam) and isinstance(d.prop, Forall)]
            return curry_ok and not offenders, \
                f"transport {'Ok' if curry_ok else 'FAILED'}; " \
                f"{len(derivs)} Church derivations enumerated, {len(offenders)} offender(s)"
        (ok, detail), secs = _timed(run)
        return CriterionResult(6, "confusion admissibility asymmetry", ok, detail, secs)

    def criterion_7(self) -> CriterionResult:
        def run():
            steps = good = 0
            trees = trees_ok = 0
            for name, d in self.corpus(CHURCH):
                theory = self.theories[name]
                pi = d.subject
                for path, reduct in beta_steps(pi):
                    steps += 1
                    at = subterm_at(pi, path)
                    if isinstance(at, TApp):
                        if erase(pi) == erase(reduct):
                            good += 1
                    elif erase(reduct) in beta_reducts(erase(pi)):
                        good += 1
                trees += 1
                if check_derivation(theory, erase_derivation(d), 400).ok:
                    trees_ok += 1
            return good == steps and trees_ok == trees, \
                f"{good}/{steps} steps simulate, {trees_ok}/{trees} erased derivations re-check"
        (ok, detail), secs = _timed(run)
        return CriterionResult(7, "erasure simulation", ok, detail, secs)

    def criterion_8(self) -> CriterionResult:
        def run():
            empty = self.theories["empty"]
            size = self.config.universe_size
            P = Atom("P")
            u = build_universe(size, ("h1", "h2", "h3"))
            delta = Context((("h1", P), ("h2", P), ("h3", Imp(P, P))))
            bounds = SearchBounds(u, depth=3, fuel=60, k_max=3, n_max=2)
            parts = []
            ok = True

            t0 = time.time()
            table = closure(empty, delta, P, {}, 3, bounds)
            table2 = closure(empty, delta, Imp(P, P), {}, 3, bounds)
            mono = all(verify_monotone(t).ok for t in (table, table2))
            mink = all(verify_mink(t).ok for t in (table, table2))
            stage0 = all(k == 0 for t in (table, table2)
                         for p, k in t.first_stage.items()
                         if not redex_paths(p))
            parts.append(f"monotone/mink/stage0 {mono}/{mink}/{stage0} ({time.time()-t0:.0f}s)")
            ok &= mono and mink and stage0

            t0 = time.time()
            ram = verify_clramorph(empty, delta, P, P, {}, 3, bounds)
            parts.append(f"clramorph {ram.ok} boundary={ram.boundary} ({time.time()-t0:.0f}s)")
            ok &= ram.ok and (time.time() - t0) < 120

            lam = verify_lambdacl(empty, delta, P, P, {}, 3, bounds)
            parts.append(f"lambdacl {lam.ok}")
            ok &= lam.ok

            sig = empty.signature
            body = parse_prop("R(x)", sig)
            u2 = build_universe(size, ("g1", "g2", "g3"))
            delta2 = Context((("g1", parse_prop("!x. R(x)", sig)),
                              ("g2", parse_prop("R(c)", sig)),
                              ("g3", parse_prop("R(d)", sig))))
            terms = (Fun("c"), Fun("d"))
            bounds2 = SearchBounds(u2, depth=3, fuel=60, k_max=3, n_max=2, inst_terms=terms)
            t0 = time.time()
            sub = verify_clsubst(empty, delta2, body, "x", Fun("c"), {}, 3, bounds2)
            parts.append(f"clsubst {sub.ok} ({time.time()-t0:.0f}s)")
            ok &= sub.ok and (time.time() - t0) < 120
            t0 = time.time()
            fam = verify_clfamorph(empty, delta2, "x", body, {}, 3, bounds2, terms)
            parts.append(f"clfamorph {fam.ok} ({time.time()-t0:.0f}s)")
            ok &= fam.ok and (time.time() - t0) < 120
            return ok, "; ".join(parts)
        (ok, detail), secs = _timed(run)
        return CriterionResult(8, "closure lemmas at desk scale", ok, detail, secs)

    def criterion_9(self) -> CriterionResult:
        def run():
            u = build_universe(5, ("g", "h"))
            cands = random_candidates(u, self.config.candidate_count,
                                      seed=self.config.seed + 71)
            if len(cands) < self.config.candidate_count:
                return False, f"only {len(cands)} candidates generated"
            rng = random.Random(self.config.seed + 73)
            arrow_ok = 0
            arrow_n = 24 if not self.config.quick else 10
            for _ in range(arrow_n):
                a, b = rng.choice(cands), rng.choice(cands)
                out = imp_candidate(a, b, u)
                if out.members and cr1(out).ok and cr2(out, u).ok and cr3prime(out, u).ok:
                    arrow_ok += 1
            pool = cands[:8]
            meets_ok = 0
            fam_n = 0
            glb_ok = True
            for r in range(1, 5):
                for fam in itertools.combinations(pool, r):
                    fam_n += 1
                    meet = forall_candidate(list(fam))
                    if cr1(meet).ok and cr2(meet, u).ok and cr3prime(meet, u).ok:
                        meets_ok += 1
                    if not all(meet.members <= c.members for c in fam):
                        glb_ok = False
                    for lower in cands:
                        if all(lower.members <= c.members for c in fam) \
                                and not (lower.members <= meet.members):
                            glb_ok = False
            ok = arrow_ok == arrow_n and meets_ok == fam_n and glb_ok
            return ok, (f"{len(cands)} candidates; arrow {arrow_ok}/{arrow_n}; "
                        f"meet {meets_ok}/{fam_n}; glb {'exact' if glb_ok else 'violated'}")
        (ok, detail), secs = _timed(run)
        return CriterionResult(9, "candidate algebra laws", ok, detail, secs)

    def criterion_10(self) -> CriterionResult:
        def run():
            empty = self.theories["empty"]
            P = Atom("P")
            PP = Imp(P, P)
            u = build_universe(self.config.universe_size, ("h1", "h2", "h3"))
            delta = Context((("h1", P), ("h2", P), ("h3", PP)))
            bounds = SearchBounds(u, depth=4, fuel=60, k_max=3, n_max=2)
            tables = {
                (P, env_key({})): closure(empty, delta, P, {}, 3, bounds),
                (PP, env_key({})): closure(empty, delta, PP, {}, 3, bounds),
            }
            sigma_pool = {P: [PVar("h1"), PVar("h2")],
                          PP: [PVar("h3"), parse_proof(r"\a. a")]}
            gen = DerivationGenerator(empty, CURRY, seed=self.config.seed + 83,
                                      fuel=40, max_depth=3)
            contexts = [Context(()), Context((("a", P),)),
                        Context((("a", P), ("b", PP)))]
            total = passed = boundary = 0
            failures = 0
            n_target = 30 if not self.config.quick else 12
            made = 0
            attempts = 0
            rng = random.Random(self.config.seed + 97)
            while made < n_target and attempts < 400:
                attempts += 1
                ctx = rng.choice(contexts)
                target = rng.choice([P, PP])
                d = gen.generate(ctx, target, depth=2)
                if d is None or d.prop not in (P, PP):
                    continue
                made += 1
                choices = [sigma_pool[prop] for _, prop in ctx]
                for combo in itertools.product(*choices) if choices else [()]:
                    sigma = {name: val for (name, _), val in zip(ctx.entries, combo)}
                    v = adequacy_check(empty, d, tables, sigma, {}, bounds)
                    total += 1
                    if v.status == "pass":
                        passed += 1
                    elif v.status == "unknown":
                        boundary += 1
                    else:
                        failures += 1
            frac = boundary / total if total else 1.0
            ok = failures == 0 and total > 0 and frac < 0.2
            return ok, (f"{passed}/{total} in-universe instances pass, "
                        f"{boundary} boundary escape(s) ({frac:.0%})")
        (ok, detail), secs = _timed(run)
        return CriterionResult(10, "adequacy at desk scale", ok, detail, secs)

    def criterion_11(self) -> CriterionResult:
        def run():
            bad = []
            for n in (1, 2, 3):
                bad.extend(check_algebra_laws(powerset_algebra(n)))
            return not bad, f"bases 1..3 exhaustive, {len(bad)} violation(s)"
        (ok, detail), secs = _timed(run)
        return CriterionResult(11, "pre-Heyting laws", ok, detail, secs)

    def run_all(self):
        return [getattr(self, f"criterion_{i}")() for i in range(1, 12)]


def run_suite(quick: bool = False, seed: int = 0, stream=None):
    stream = stream or sys.stdout
    suite = Suite(SuiteConfig(quick=quick, seed=seed))
    results = suite.run_all()
    for r in results:
        print(r.line(), file=stream)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria pass", file=stream)
    return results

"""The acceptance battery: one method per criterion, run by `run_suite`
and by the test suite.

Each criterion runs at pinned desk-scale bounds and returns a `Verdict`
named after it.  `checked` counts the questions it asked and `failures`
lists the ones that failed; `boundary`, `skipped` and `unknown` tally, where
the criterion has them, what the bounds cut off or left undecided.  A
criterion passes when nothing failed, and a criterion that asked nothing
fails.  A time limit that is exceeded is a failure too.  Quick mode shrinks
corpus sizes and universes for a fast smoke signal; the stated bounds are
the full ones.
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
    SN_BUDGET, Diverges, beta_reducts, beta_steps, redex_paths,
    reduce_derivation, sn_verdict, subterm_at,
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
from .verdict import Verdict

DD = PApp(PLam("a", PApp(PVar("a"), PVar("a"))),
          PLam("a", PApp(PVar("a"), PVar("a"))))


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


def _closure_inputs(size, depth):
    """The closure inputs of criteria 8 and 10 on `empty`: P, the context
    h1:P, h2:P, h3:P=>P, and search bounds over the universe of proof-terms
    up to size built from h1, h2, h3."""
    P = Atom("P")
    delta = Context((("h1", P), ("h2", P), ("h3", Imp(P, P))))
    u = build_universe(size, delta.names())
    return P, delta, SearchBounds(u, depth=depth, fuel=60, k_max=3, n_max=2)


def _verdict(name, failures, checked, **tallies):
    """The Verdict of criterion `name`, which asked `checked` questions.
    A criterion that asked none fails."""
    if not checked:
        failures = [*failures, "nothing checked"]
    return Verdict.of(failures, checked=checked, name=name, **tallies)


def _over_time(what, t0, limit):
    """A one-item failure list when `what`, started at perf_counter() t0,
    has run for `limit` seconds or more; else an empty one."""
    secs = time.perf_counter() - t0
    return [f"{what} took {secs:.0f}s, limit {limit}s"] if secs >= limit else []


def _failed_cr(c, u):
    """The name of the first of CR1, CR2 and CR3' that c fails, or None."""
    for check in (lambda: cr1(c), lambda: cr2(c, u), lambda: cr3prime(c, u)):
        v = check()
        if not v.ok:
            return v.name
    return None


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
    def criterion_1(self) -> Verdict:
        t0 = time.perf_counter()
        v = sn_verdict(DD, SN_BUDGET)
        failures = _over_time("sn_verdict", t0, 1)
        if not (isinstance(v, Diverges) and v.cycle_length == 1):
            failures.append(f"verdict {v}")
        return _verdict("self-application diverges", failures, checked=1)

    def criterion_2(self) -> Verdict:
        rep = check_derivation(self.theories["selfapp"], delta_delta_derivation(), fuel=50)
        return _verdict("looping derivation reproduces", [] if rep.ok else [str(rep)],
                        checked=1)

    def criterion_3(self) -> Verdict:
        t0 = time.perf_counter()
        failures = []
        checked = 0
        for style in (CURRY, CHURCH):
            for name, d in self.corpus(style):
                theory = self.theories[name]
                for path in redex_paths(d.subject):
                    checked += 1
                    out = reduce_derivation(theory, d, path)
                    rep = check_derivation(theory, out, 400)
                    if not (rep.ok and out.ctx == d.ctx and out.prop == d.prop):
                        failures.append(f"{name} {d.subject} @ {list(path)}: {rep}")
        failures += _over_time("the corpus", t0, 60)
        return _verdict("subject reduction executes", failures, checked)

    def criterion_4(self) -> Verdict:
        failures = []
        checked = 0

        def recheck(what, theory, d):
            nonlocal checked
            checked += 1
            rep = check_derivation(theory, d, 400)
            if not rep.ok:
                failures.append(f"{what}: {rep}")

        for style in (CURRY, CHURCH):
            for name, d in self.corpus(style):
                theory = self.theories[name]
                # weakening by a fresh hypothesis over a theory proposition
                fresh_prop = base_context(theory).entries[0][1]
                w = fresh_name("w0", set(d.ctx.names()))
                recheck(f"weaken {name} {d.subject}", theory,
                        weaken(d, Context(d.ctx.entries + ((w, fresh_prop),))))
                # term substitutivity
                fv = sorted(d.ctx.free_term_vars() | free_term_vars(d.prop))
                x = fv[0] if fv else "x"
                t = Fun(theory.signature.functions[0][0]) \
                    if theory.signature.functions and theory.signature.functions[0][1] == 0 \
                    else Var("y")
                recheck(f"[{t}/{x}] {name} {d.subject}", theory, subst_derivation_term(d, x, t))
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
                recheck(f"[{darg.subject}/s0] {name} {d2.subject}", theory,
                        subst_derivation_proof(d2, "s0", darg))
        return _verdict("weakening and substitutivity", failures, checked)

    def criterion_5(self) -> Verdict:
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

        failures = []
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
                failures.append(f"{p} [{t}/{x}] under {env}")
        return _verdict("interpretation substitution property", failures, n)

    def criterion_6(self) -> Verdict:
        confusion = self.theories["confusion"]
        sig = confusion.signature
        a, b = parse_prop("A", sig), parse_prop("B", sig)
        g = Context((("h", parse_prop("A => !x. B", sig)),))
        transported = imp_forall_transport(axiom(g, "h"), "x", a, b)
        rep = check_derivation(confusion, transported, 100)
        failures = []
        if not (rep.ok and transported.prop == parse_prop("!x. (A => B)", sig)):
            failures.append(f"transport to {transported.prop}: {rep}")

        empty = self.theories["empty"]
        ctx = Context((("a", parse_prop("P", empty.signature)),
                       ("b", parse_prop("!x. R(x)", empty.signature))))
        props = [parse_prop(s, empty.signature) for s in ("P", "Q", "R(c)", "!x. R(x)")]
        derivs = enumerate_derivations(empty, ctx, props, (Fun("c"), Fun("d")), CHURCH, 4)
        failures += [f"Church {d.subject} : {d.prop}" for d in derivs
                     if isinstance(d.subject, PLam) and isinstance(d.prop, Forall)]
        return _verdict("confusion admissibility asymmetry", failures, 1 + len(derivs))

    def criterion_7(self) -> Verdict:
        failures = []
        checked = 0
        for name, d in self.corpus(CHURCH):
            theory = self.theories[name]
            pi = d.subject
            for path, reduct in beta_steps(pi):
                checked += 1
                if isinstance(subterm_at(pi, path), TApp):
                    ok = erase(pi) == erase(reduct)
                else:
                    ok = erase(reduct) in beta_reducts(erase(pi))
                if not ok:
                    failures.append(f"step {pi} @ {list(path)} does not simulate")
            checked += 1
            rep = check_derivation(theory, erase_derivation(d), 400)
            if not rep.ok:
                failures.append(f"erased {name} {pi}: {rep}")
        return _verdict("erasure simulation", failures, checked)

    def criterion_8(self) -> Verdict:
        empty = self.theories["empty"]
        size = self.config.universe_size
        P, delta, bounds = _closure_inputs(size, depth=3)
        lemmas = []
        slow = []

        def timed(lemma, *args):
            t0 = time.perf_counter()
            lemmas.append(lemma(*args))
            slow.extend(_over_time(lemma.__name__, t0, 120))

        tables = [closure(empty, delta, prop, {}, 3, bounds) for prop in (P, Imp(P, P))]
        lemmas += [verify_monotone(t) for t in tables] + [verify_mink(t) for t in tables]

        timed(verify_clramorph, empty, delta, P, P, {}, 3, bounds)
        lemmas.append(verify_lambdacl(empty, delta, P, P, {}, 3, bounds))

        sig = empty.signature
        body = parse_prop("R(x)", sig)
        u2 = build_universe(size, ("g1", "g2", "g3"))
        delta2 = Context((("g1", parse_prop("!x. R(x)", sig)),
                          ("g2", parse_prop("R(c)", sig)),
                          ("g3", parse_prop("R(d)", sig))))
        terms = (Fun("c"), Fun("d"))
        bounds2 = SearchBounds(u2, depth=3, fuel=60, k_max=3, n_max=2, inst_terms=terms)
        timed(verify_clsubst, empty, delta2, body, "x", Fun("c"), {}, 3, bounds2)
        timed(verify_clfamorph, empty, delta2, "x", body, {}, 3, bounds2, terms)
        failures = [v.summary() for v in lemmas if not v.ok] + slow
        return _verdict("closure lemmas at desk scale", failures, **{
            tally: sum(getattr(v, tally) for v in lemmas)
            for tally in ("checked", "boundary", "skipped", "unknown")})

    def criterion_9(self) -> Verdict:
        name = "candidate algebra laws"
        u = build_universe(5, ("g", "h"))
        cands = random_candidates(u, self.config.candidate_count,
                                  seed=self.config.seed + 71)
        if len(cands) < self.config.candidate_count:
            return _verdict(name, [f"only {len(cands)} candidates generated"], 0)
        failures = []
        checked = 0
        rng = random.Random(self.config.seed + 73)
        for i in range(24 if not self.config.quick else 10):
            a, b = rng.choice(cands), rng.choice(cands)
            out = imp_candidate(a, b, u)
            checked += 1
            if not out.members:
                failures.append(f"arrow {i} is empty")
            elif bad := _failed_cr(out, u):
                failures.append(f"arrow {i} ({len(out)} members) fails {bad}")
        pool = cands[:8]
        for r in range(1, 5):
            for which in itertools.combinations(range(len(pool)), r):
                checked += 1
                fam = [pool[i] for i in which]
                meet = forall_candidate(fam)
                if bad := _failed_cr(meet, u):
                    failures.append(f"meet of {list(which)} fails {bad}")
                if not all(meet.members <= c.members for c in fam):
                    failures.append(f"meet of {list(which)} is not a lower bound")
                if any(all(lower.members <= c.members for c in fam)
                       and not (lower.members <= meet.members) for lower in cands):
                    failures.append(f"meet of {list(which)} is not the greatest lower bound")
        return _verdict(name, failures, checked)

    def criterion_10(self) -> Verdict:
        empty = self.theories["empty"]
        P, delta, bounds = _closure_inputs(self.config.universe_size, depth=4)
        PP = Imp(P, P)
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
        failures = []
        checked = boundary = 0
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
                v = adequacy_check(d, tables, sigma, {}, bounds)
                checked += 1
                boundary += v.boundary
                failures.extend(v.failures)
        if checked and boundary / checked >= 0.2:
            failures.append(f"{boundary} of {checked} instances left the universe, limit 20%")
        return _verdict("adequacy at desk scale", failures, checked, boundary=boundary)

    def criterion_11(self) -> Verdict:
        bases = (1, 2, 3)
        failures = [bad for n in bases for bad in check_algebra_laws(powerset_algebra(n))]
        return _verdict("pre-Heyting laws", failures, len(bases))


def run_suite(quick: bool = False, seed: int = 0, stream=None):
    """Run the eleven criteria, print one line per Verdict and a count of
    those that pass, and return the Verdicts."""
    stream = stream or sys.stdout
    suite = Suite(SuiteConfig(quick=quick, seed=seed))
    verdicts = []
    for number in range(1, 12):
        t0 = time.perf_counter()
        v = getattr(suite, f"criterion_{number}")()
        secs = time.perf_counter() - t0
        mark = "PASS" if v.ok else "FAIL"
        print(f"[{mark}] criterion {number:2d} {v.summary()} ({secs:.1f}s)", file=stream)
        verdicts.append(v)
    print(f"{sum(v.ok for v in verdicts)}/{len(verdicts)} criteria pass", file=stream)
    return verdicts

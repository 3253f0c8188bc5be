"""Executable counterparts of the normalization lemmas, plus the suite
runners that sweep them over enumerated and randomly generated terms.

Suites (the CLI names them l3, l4, l5, l7, sr, thm8):

    thm8  every well-typed term within bounds is strongly normalizing
    sr    reduction preserves the derived type along every edge
    l4    SN(M) iff all argument parts and the head reduct are SN
    l3    arg(M[x:=N]) is contained in arg(N) + {N} + arg(M)[x:=N]
    l5    M strongly normalizing implies (M y) strongly normalizing
    l7    same-type substitutions of SN images preserve SN

thm8, sr and l4 sweep the full corpus through the annotation-erased
shape quotient of the corpus module; l3, l5 and l7 run on seeded random
instances.  Reports are deterministic functions of (config, seed, fuel);
wall-clock milliseconds are the one volatile stat.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

from . import corpus
from .analysis import (
    NotSN,
    StronglyNormalizing,
    Unknown,
    _search_sn,
    explore_sn,
)
from .corpus import (
    enumerate_types,
    shape_scan,
)
from .reduction import arg_terms, head_reduce
from .syntax import parse_term, print_context, print_term
from .terms import (
    APP,
    ARROW,
    BOT,
    LAM,
    MU,
    VAR,
    Term,
    TypeExpr,
    canonical,
    free_occurrences,
    free_vars,
    fresh_name,
    number_binders,
    strip_annotations,
    substitute,
    substitute_parallel,
    term_size,
)
from .typecheck import connective_count

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"


class MixedTypesError(ValueError):
    """The substitution's domain variables do not share one type."""


@dataclass
class TypedInstance:
    context: dict[str, TypeExpr]
    term: Term
    type: TypeExpr


@dataclass(frozen=True, order=True)
class MeasureQuadruple:
    """The induction measure: connectives of the substitution's common
    type, longest reduction of the term, term size, and the occurrence-
    weighted longest reductions of the images.  Ordered lexicographically.
    """

    lgt_sigma: int
    eta_m: int
    cxty_m: int
    eta_sigma: int


@dataclass
class CheckResult:
    status: str  # holds | fails | undecided
    detail: str = ""
    measure: Optional[MeasureQuadruple] = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


# ---------------------------------------------------------------------------
# enumeration and random generation


def enumerate_typed_terms(
    ctx: Mapping[str, TypeExpr], goal: TypeExpr, max_cxty: int, lgt_bound: int = 2
) -> Iterator[TypedInstance]:
    """Every term of the given type within the bounds, once per alpha
    class, in deterministic order."""
    base = dict(ctx)
    for term in corpus.enumerate_typed_of_type(ctx, goal, max_cxty, lgt_bound):
        yield TypedInstance(base, term, goal)


def random_typed_term(
    ctx: Mapping[str, TypeExpr],
    goal: TypeExpr,
    size_budget: int,
    seed: int,
    lgt_bound: int = 2,
    mu_root: bool = False,
) -> Optional[TypedInstance]:
    """Goal-directed random sampling of a well-typed term of cxty <=
    size_budget; deterministic per seed; None when the budget cannot be
    met.  With mu_root the term is forced to be a mu abstraction."""
    rng = random.Random(seed)
    universe = enumerate_types(lgt_bound)
    names = corpus._binder_names(set(ctx), size_budget + 1, "x")

    def sample(env: dict, want: TypeExpr, budget: int, depth: int, force_mu: bool) -> Optional[Term]:
        if budget < 1:
            return None
        options = []
        if not force_mu:
            if any(ty == want for ty in env.values()):
                options.append("var")
            if (
                budget >= 2
                and isinstance(want, tuple)
                and connective_count(want[1]) <= lgt_bound
            ):
                options.append("lam")
            if budget >= 3:
                options.append("app")
        if budget >= 2 and connective_count(want) <= lgt_bound:
            options.append("mu")
        while options:
            op = options.pop(rng.randrange(len(options)))
            b = names[depth]
            if op == "var":
                hits = sorted(n for n, ty in env.items() if ty == want)
                return (VAR, hits[rng.randrange(len(hits))])
            if op == "lam":
                body = sample({**env, b: want[1]}, want[2], budget - 1, depth + 1, False)
                if body is not None:
                    return (LAM, b, want[1], body)
            elif op == "mu":
                body = sample(
                    {**env, b: (ARROW, want, BOT)}, BOT, budget - 1, depth + 1, False
                )
                if body is not None:
                    return (MU, b, want, body)
            elif op == "app":
                for _ in range(4):
                    arg_ty = universe[rng.randrange(len(universe))]
                    nf = rng.randint(1, budget - 2)
                    fun = sample(env, (ARROW, arg_ty, want), nf, depth, False)
                    if fun is None:
                        continue
                    arg = sample(env, arg_ty, budget - 1 - nf, depth, False)
                    if arg is not None:
                        return (APP, fun, arg)
        return None

    t = sample(dict(ctx), goal, size_budget, 0, mu_root)
    if t is None:
        return None
    return TypedInstance(dict(ctx), t, goal)


def build_mu_substitution(xs: list[str], y: str) -> dict[str, Term]:
    """For each x, the image \\u. x (u y) with a shared fresh u."""
    if len(set(xs)) != len(xs):
        raise ValueError("domain variables must be pairwise distinct")
    if y in xs:
        raise ValueError("y must not be one of the domain variables")
    u = fresh_name("u", set(xs) | {y})
    return {
        x: (LAM, u, None, (APP, (VAR, x), (APP, (VAR, u), (VAR, y)))) for x in xs
    }


# ---------------------------------------------------------------------------
# measures


def measure_quadruple(
    ctx: Mapping[str, TypeExpr],
    subs: Mapping[str, Term],
    term: Term,
    fuel: int,
) -> Union[MeasureQuadruple, Unknown]:
    """(lgt, eta of the term, cxty of the term, occurrence-weighted eta of
    the images); Unknown if any eta is fuel-limited."""
    if subs:
        types = []
        for x in subs:
            ty = ctx.get(x)
            if ty is None:
                raise MixedTypesError(f"domain variable {x!r} is not in the context")
            types.append(ty)
        if any(t != types[0] for t in types):
            raise MixedTypesError("domain variables have different types")
        lgt_sigma = connective_count(types[0])
    else:
        lgt_sigma = 0
    st = explore_sn(term, fuel)
    if isinstance(st, Unknown):
        return st
    if isinstance(st, NotSN):
        raise ValueError("the term is not strongly normalizing")
    eta_sigma = 0
    for x, image in sorted(subs.items()):
        occurrences = free_occurrences(term, x)
        si = explore_sn(image, fuel)
        if isinstance(si, Unknown):
            return si
        if isinstance(si, NotSN):
            raise ValueError(f"image of {x!r} is not strongly normalizing")
        eta_sigma += occurrences * si.eta
    return MeasureQuadruple(lgt_sigma, st.eta, term_size(term), eta_sigma)


# ---------------------------------------------------------------------------
# the lemma checks


def check_arg_substitution_inclusion(term: Term, x: str, n: Term) -> CheckResult:
    """arg(M[x:=N]) must sit inside arg(N), {N} and the substituted
    arg(M), up to alpha, with M's binders first renamed apart from x and
    from the free variables of N (the variable convention), so that no
    part is substituted under a binder of M or captured by one."""
    term = number_binders(term, 0, {x} | free_vars(n) | free_vars(term))[0]
    lhs = arg_terms(substitute(term, x, n))
    rhs = set(arg_terms(n))
    rhs.add(canonical(n))
    for q in arg_terms(term):
        rhs.add(canonical(substitute(q, x, n)))
    stray = sorted((print_term(t) for t in lhs - rhs))
    if stray:
        return CheckResult(FAILS, f"not covered: {stray[0]}")
    return CheckResult(HOLDS)


def check_sn_decomposition(term: Term, fuel: int) -> CheckResult:
    """SN(M) must agree with: all argument parts SN and the head reduct
    SN (a missing head reduct counts as SN).  An Unknown verdict anywhere
    makes the whole instance undecided.  SN(M) comes from a search of
    M's whole graph, never from `explore_sn`'s composition of its
    arguments' verdicts, which would make the check compare the
    composition with itself."""
    st = _search_sn(term, fuel)
    if isinstance(st, Unknown):
        return CheckResult(UNDECIDED, "term verdict unknown")
    rhs = True
    for p in sorted(arg_terms(term), key=print_term):
        sp = explore_sn(p, fuel)
        if isinstance(sp, Unknown):
            return CheckResult(UNDECIDED, f"argument part unknown: {print_term(p)}")
        if isinstance(sp, NotSN):
            rhs = False
    h = head_reduce(term)
    if h is not None:
        sh = explore_sn(h, fuel)
        if isinstance(sh, Unknown):
            return CheckResult(UNDECIDED, "head reduct unknown")
        if isinstance(sh, NotSN):
            rhs = False
    lhs = isinstance(st, StronglyNormalizing)
    if lhs == rhs:
        return CheckResult(HOLDS)
    return CheckResult(
        FAILS, f"term {'SN' if lhs else 'not SN'} but parts/head say {rhs}"
    )


def check_application_to_variable(term: Term, y: str, fuel: int) -> CheckResult:
    """If M is SN then (M y) must be SN, with eta(M y) >= eta(M).  y
    must be fresh for M."""
    if y in free_vars(term):
        raise ValueError(f"{y!r} occurs free in the term")
    st = explore_sn(term, fuel)
    if isinstance(st, Unknown):
        return CheckResult(UNDECIDED, "term verdict unknown")
    if isinstance(st, NotSN):
        raise ValueError("precondition: the term must be strongly normalizing")
    sa = explore_sn((APP, term, (VAR, y)), fuel)
    if isinstance(sa, Unknown):
        return CheckResult(UNDECIDED, "application verdict unknown")
    if isinstance(sa, NotSN):
        return CheckResult(FAILS, "application is not strongly normalizing")
    detail = f"eta(M)={st.eta} eta(M y)={sa.eta}"
    if sa.eta < st.eta:
        return CheckResult(FAILS, f"eta dropped: {detail}")
    return CheckResult(HOLDS, detail)


def check_same_type_substitution(
    inst: TypedInstance, subs: Mapping[str, Term], fuel: int
) -> CheckResult:
    """With all domain variables of one type and all images SN, the
    substituted term must be SN.  Records the measure quadruple."""
    measure = measure_quadruple(inst.context, subs, inst.term, fuel)
    if isinstance(measure, Unknown):
        return CheckResult(UNDECIDED, "a component eta is fuel-limited")
    result = substitute_parallel(inst.term, subs)
    st = explore_sn(result, fuel)
    if isinstance(st, Unknown):
        return CheckResult(UNDECIDED, "substituted term verdict unknown", measure)
    if isinstance(st, NotSN):
        return CheckResult(
            FAILS, f"substituted term not SN: {print_term(result)}", measure
        )
    return CheckResult(HOLDS, "", measure)


# ---------------------------------------------------------------------------
# suite configuration and reports


@dataclass(frozen=True)
class SuiteConfig:
    context: tuple[tuple[str, TypeExpr], ...] = ()
    max_cxty: int = 11
    lgt_bound: int = 2
    fuel: int = 100000
    seed: int = 0

    @staticmethod
    def make(
        context: Optional[Mapping[str, TypeExpr]] = None,
        max_cxty: int = 11,
        lgt_bound: int = 2,
        fuel: int = 100000,
        seed: int = 0,
    ) -> "SuiteConfig":
        items = tuple(sorted((context or {}).items()))
        return SuiteConfig(items, max_cxty, lgt_bound, fuel, seed)

    @property
    def context_dict(self) -> dict[str, TypeExpr]:
        return dict(self.context)


@dataclass
class LemmaReport:
    """Outcome of one suite run.  Equality ignores wall_ms, the one
    field that is not a pure function of (config, seed, fuel)."""

    suite: str
    instances: int
    passes: int
    failures: tuple[tuple[str, str, str], ...]  # (term, context, reason)
    seed: int
    fuel: int
    max_eta: int = 0
    max_graph_nodes: int = 0
    wall_ms: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures and self.passes == self.instances


def report_to_dict(report: LemmaReport, config: SuiteConfig) -> dict:
    return {
        "suite": report.suite,
        "config": {
            "max_cxty": config.max_cxty,
            "lgt_bound": config.lgt_bound,
            "fuel": config.fuel,
            "seed": config.seed,
        },
        "instances": report.instances,
        "passes": report.passes,
        "failures": [
            {"term": t, "context": c, "reason": r} for t, c, r in report.failures
        ],
        "stats": {
            "max_eta": report.max_eta,
            "max_graph_nodes": report.max_graph_nodes,
            "wall_ms": report.wall_ms,
        },
    }


def report_to_json(report: LemmaReport, config: SuiteConfig) -> str:
    return json.dumps(report_to_dict(report, config), indent=2, sort_keys=False)


_FAILURE_CAP = 10000


class FailureFlood(RuntimeError):
    """More failure entries than the report cap; the run is degenerate."""


def _finish(
    suite: str,
    config: SuiteConfig,
    instances: int,
    failures: list[tuple[str, str, str]],
    max_eta: int,
    max_nodes: int,
    started: float,
) -> LemmaReport:
    failures.sort()
    return LemmaReport(
        suite=suite,
        instances=instances,
        passes=instances - len(failures),
        failures=tuple(failures),
        seed=config.seed,
        fuel=config.fuel,
        max_eta=max_eta,
        max_graph_nodes=max_nodes,
        wall_ms=int((time.perf_counter() - started) * 1000),
    )


def _sweep(suite: str, config: SuiteConfig, judge, catalog=()) -> LemmaReport:
    """The corpus loop of thm8, sr and l4.  Each redex-bearing shape is
    decoded from its scan entry and explored once (normal forms hold in
    every suite), then judged: `judge(term, binder_types, status, fail)`
    gets the entry's principal binder types and returns None when the
    term holds, UNDECIDED when its instances leave the count, or a
    reason that fails each of its concrete instances; `fail(term_text,
    reason)` records one concrete failure found by the judge itself.
    The `catalog` terms (name, term) are judged the same way, each one
    instance, with binder types None."""
    started = time.perf_counter()
    ctx = config.context_dict
    ctx_str = print_context(ctx)
    scan = shape_scan(ctx, config.max_cxty, config.lgt_bound)
    failures: list[tuple[str, str, str]] = []
    instances = scan.total_instances
    max_eta = 0
    max_nodes = 1 if scan.entries else 0

    def fail(term_text: str, reason: str, where: str = ctx_str) -> None:
        if len(failures) >= _FAILURE_CAP:
            raise FailureFlood(f"suite produced over {_FAILURE_CAP} failures")
        failures.append((term_text, where, reason))

    for entry in scan.entries:
        if entry.normal:
            continue
        shape = entry.shape
        st = explore_sn(shape, config.fuel)
        if isinstance(st, StronglyNormalizing):
            max_eta = max(max_eta, st.eta)
            max_nodes = max(max_nodes, st.graph_nodes)
        verdict = judge(shape, entry.binder_types, st, fail)
        if verdict == UNDECIDED:
            instances -= entry.instances
        elif verdict is not None:
            # expected never: one entry per concrete instance, capped
            universe = enumerate_types(config.lgt_bound)
            for inst in corpus.instances(shape, entry.binder_types, universe):
                fail(print_term(inst), verdict)
    for name, term in catalog:
        verdict = judge(term, None, explore_sn(term, config.fuel), fail)
        if verdict == UNDECIDED:
            continue
        instances += 1
        if verdict is not None:
            fail(print_term(term), verdict, f"catalog:{name}")
    return _finish(suite, config, instances, failures, max_eta, max_nodes, started)


# ---------------------------------------------------------------------------
# corpus-wide suites (annotation-erased quotient)


def run_sn_suite(config: SuiteConfig) -> LemmaReport:
    """Every well-typed term within bounds must be strongly normalizing:
    zero NotSN, zero Unknown.  Verdicts are decided once per erased
    shape (reduction never reads annotations); instance counts are
    exact."""

    def judge(shape: Term, binder_types, st, fail) -> Optional[str]:
        if isinstance(st, NotSN):
            return f"NotSN cycle_length={len(st.cycle)}"
        if isinstance(st, Unknown):
            return f"Unknown nodes_visited={st.nodes_visited}"
        return None

    return _sweep("thm8", config, judge)


def run_subject_reduction_suite(config: SuiteConfig) -> LemmaReport:
    """Along every edge of every reduction graph of every corpus
    instance, the inferred type must equal the root's type.  Checked
    symbolically per shape: one pass with metavariable annotations
    covers all annotation assignments."""
    ctx = config.context_dict

    def judge(shape: Term, binder_types, st, fail) -> Optional[str]:
        res = corpus.sr_shape_sweep(shape, binder_types, ctx, config.lgt_bound, config.fuel)
        for term_text, reason in res.violations:
            fail(term_text, reason)
        return None if res.complete else f"Unknown nodes_visited={res.nodes}"

    return _sweep("sr", config, judge)


def non_sn_catalog() -> list[tuple[str, Term]]:
    """The committed catalog of terms without a normal form (plus one
    grower that only diverges by growing, which stays undecided)."""
    from importlib import resources

    out = []
    for res in sorted(
        resources.files("lambdamu").joinpath("catalog").iterdir(),
        key=lambda r: r.name,
    ):
        if res.name.endswith(".lmu"):
            out.append((res.name[:-4], parse_term(res.read_text())))
    return out


def run_decomposition_suite(config: SuiteConfig) -> LemmaReport:
    """SN(M) iff arg(M) all SN and hred(M) SN, over the whole corpus
    (shape-quotiented; all components are erasure-invariant) plus the
    committed catalog.  Undecided instances are excluded from pass/fail.
    """

    def judge(term: Term, binder_types, st, fail) -> Optional[str]:
        res = check_sn_decomposition(term, config.fuel)
        if res.status == FAILS:
            return res.detail
        return UNDECIDED if res.status == UNDECIDED else None

    return _sweep("l4", config, judge, non_sn_catalog())


# ---------------------------------------------------------------------------
# seeded suites


def _derived_seed(seed: int, i: int) -> int:
    return seed * 1000003 + i


_SAMPLE_GOALS_BUDGET = 9
_SAMPLE_DRAWS = 1000


class SamplingFailed(ValueError):
    """No draw of the random sampler produced a term: the context and
    size bound admit few typed terms, or none."""


def _sample_term(
    ctx: dict, rng: random.Random, budget: int, lgt_bound: int
) -> TypedInstance:
    """A random corpus instance: goal drawn from the type universe,
    retrying derived seeds until the sampler succeeds, at most
    _SAMPLE_DRAWS times."""
    universe = enumerate_types(lgt_bound)
    for _ in range(_SAMPLE_DRAWS):
        goal = universe[rng.randrange(len(universe))]
        inst = random_typed_term(
            ctx, goal, budget, rng.randrange(1 << 30), lgt_bound
        )
        if inst is not None:
            return inst
    raise SamplingFailed(
        f"no typed term of size <= {budget} under {{{print_context(ctx)}}} "
        f"in {_SAMPLE_DRAWS} draws"
    )


def run_arg_inclusion_suite(config: SuiteConfig, samples: int = 1000) -> LemmaReport:
    """Seeded (M, x, N) triples from the corpus crossed with a
    substitution pool; the inclusion must hold on every one."""
    started = time.perf_counter()
    ctx = config.context_dict
    ctx_str = print_context(ctx)
    failures: list[tuple[str, str, str]] = []
    budget = min(config.max_cxty, _SAMPLE_GOALS_BUDGET)
    pool = [
        parse_term("\\a. a a"),
        parse_term("(\\a. a a) (\\a. a a)"),
        parse_term("mu a. a a"),
        parse_term("\\a. \\b. a (a b)"),
    ]
    for i in range(samples):
        rng = random.Random(_derived_seed(config.seed, i))
        inst = _sample_term(ctx, rng, budget, config.lgt_bound)
        term = inst.term if i % 2 == 0 else strip_annotations(inst.term)
        candidates = sorted(free_vars(term) | set(ctx) | {"subst_target"})
        x = candidates[rng.randrange(len(candidates))]
        kind = rng.randrange(3)
        if kind == 0:
            n = pool[rng.randrange(len(pool))]
        elif kind == 1:
            n = _sample_term(ctx, rng, budget, config.lgt_bound).term
        else:
            n = strip_annotations(_sample_term(ctx, rng, budget, config.lgt_bound).term)
        res = check_arg_substitution_inclusion(term, x, n)
        if not res.holds:
            failures.append(
                (
                    f"{print_term(term)} [{x}:={print_term(n)}]",
                    ctx_str,
                    res.detail or res.status,
                )
            )
    return _finish("l3", config, samples, failures, 0, 0, started)


def run_application_suite(config: SuiteConfig, samples: int = 1000) -> LemmaReport:
    """Seeded SN instances (mixed annotated and annotation-stripped):
    applying each to a variable must stay SN with eta not dropping.
    Undecided counts as failure here."""
    started = time.perf_counter()
    ctx = config.context_dict
    ctx_str = print_context(ctx)
    failures: list[tuple[str, str, str]] = []
    budget = min(config.max_cxty, _SAMPLE_GOALS_BUDGET)
    max_eta = 0
    for i in range(samples):
        rng = random.Random(_derived_seed(config.seed, i))
        inst = _sample_term(ctx, rng, budget, config.lgt_bound)
        term = inst.term if i % 2 == 0 else strip_annotations(inst.term)
        y = fresh_name("y", free_vars(term) | set(ctx))
        res = check_application_to_variable(term, y, config.fuel)
        st = explore_sn((APP, term, (VAR, y)), config.fuel)
        if isinstance(st, StronglyNormalizing):
            max_eta = max(max_eta, st.eta)
        if not res.holds:
            failures.append((print_term(term), ctx_str, res.detail or res.status))
    return _finish("l5", config, samples, failures, max_eta, 0, started)


_MU_IMAGE_EVERY = 5


def run_substitution_suite(config: SuiteConfig, samples: int = 500) -> LemmaReport:
    """Seeded same-type substitution instances; every _MU_IMAGE_EVERY-th
    instance forces all images to be mu abstractions.  M[sigma] must be
    SN on every decided instance; undecided counts as failure."""
    started = time.perf_counter()
    base_ctx = config.context_dict
    failures: list[tuple[str, str, str]] = []
    budget = min(config.max_cxty, _SAMPLE_GOALS_BUDGET)
    universe = enumerate_types(config.lgt_bound)
    arrow_types = [t for t in universe if isinstance(t, tuple)]
    max_eta = 0
    for i in range(samples):
        rng = random.Random(_derived_seed(config.seed, i))
        force_mu = i % _MU_IMAGE_EVERY == 0
        # mu-rooted images of type bot would need an inhabited bot, so
        # stick to arrow types when forcing; fall through the candidates
        # if a type has no image in this context
        pool = arrow_types if force_mu else universe
        start = rng.randrange(len(pool))
        k = rng.randint(1, 3)
        xs = [f"s{j}" for j in range(k)]
        inst = None
        subs: dict[str, Term] = {}
        ctx = dict(base_ctx)
        for shift in range(len(pool)):
            common = pool[(start + shift) % len(pool)]
            subs = {}
            for x in xs:
                image = None
                for _attempt in range(60):
                    image = random_typed_term(
                        base_ctx,
                        common,
                        budget,
                        rng.randrange(1 << 30),
                        config.lgt_bound,
                        mu_root=force_mu,
                    )
                    if image is not None:
                        break
                if image is None:
                    break
                subs[x] = image.term
            if len(subs) == len(xs):
                ctx = dict(base_ctx)
                ctx.update((x, common) for x in xs)
                inst = _sample_term(
                    ctx, random.Random(rng.randrange(1 << 30)), budget, config.lgt_bound
                )
                break
        if inst is None:
            failures.append(("-", print_context(base_ctx), "no image found"))
            continue
        res = check_same_type_substitution(inst, subs, config.fuel)
        if res.measure is not None:
            max_eta = max(max_eta, res.measure.eta_m)
        if not res.holds:
            sub_str = ", ".join(
                f"{x}:={print_term(t)}" for x, t in sorted(subs.items())
            )
            failures.append(
                (
                    f"{print_term(inst.term)} [{sub_str}]",
                    print_context(ctx),
                    res.detail or res.status,
                )
            )
    return _finish("l7", config, samples, failures, max_eta, 0, started)


SUITES = ("l3", "l4", "l5", "l7", "sr", "thm8")


def run_suite(name: str, config: SuiteConfig, samples: Optional[int] = None) -> LemmaReport:
    if name == "thm8":
        return run_sn_suite(config)
    if name == "sr":
        return run_subject_reduction_suite(config)
    if name == "l4":
        return run_decomposition_suite(config)
    sampled = {
        "l3": run_arg_inclusion_suite,
        "l5": run_application_suite,
        "l7": run_substitution_suite,
    }.get(name)
    if sampled is not None:
        # None keeps the suite's own default sample count
        if samples is None:
            return sampled(config)
        if samples < 0:
            raise ValueError(f"samples must be at least 0, got {samples}")
        return sampled(config, samples)
    raise ValueError(f"unknown suite {name!r} (expected one of {', '.join(SUITES)})")

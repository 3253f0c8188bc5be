"""Acceptance criteria, one test per criterion.

The corpus is every well-typed term with cxty <= 11 and binder
annotations of lgt <= 2, over the contexts {} and {v:bot}, at fuel
100000.  Each context is scanned on its own: the {}-corpus is the
v-free part of the {v:bot}-corpus, but no sweep reads one scan for
the other.

Corpus-wide criteria run on the annotation-erased shape quotient:
strong normalization, reduction length, graph shape and the
decomposition predicate never read annotations, and subject reduction
is swept symbolically so that one pass covers every annotation
assignment.  The quotient engines are cross-validated against honest
per-instance enumeration in test_corpus.py and test_lemmas.py; the
instance counts here are additionally cross-checked against an
independent goal-directed count, which shares no code with the scan.
"""

import random
import time

from lambdamu.analysis import (
    NotSN,
    StronglyNormalizing,
    explore_sn,
    longest_reduction,
)
from lambdamu.corpus import (
    count_typed_instances,
    enumerate_types,
    enumerate_well_typed,
    materialize_instance,
    shape_scan,
)
from lambdamu.lemmas import (
    SuiteConfig,
    check_same_type_substitution,
    non_sn_catalog,
    random_typed_term,
    run_suite,
)
from lambdamu.reduction import contract_redex, one_step_reducts
from lambdamu.syntax import format_type, parse_term, parse_type, print_term
from lambdamu.terms import (
    app,
    free_occurrences,
    free_vars,
    mu,
    substitute,
    term_size,
    var,
)
from lambdamu.typecheck import connective_count
from oracles import brute_eta

BOT = "bot"
V_CTX = {"v": BOT}
FUEL = 100000
MAX_CXTY = 11
LGT_BOUND = 2

CFG_V = SuiteConfig.make(V_CTX, MAX_CXTY, LGT_BOUND, FUEL, seed=0)
CFG_EMPTY = SuiteConfig.make({}, MAX_CXTY, LGT_BOUND, FUEL, seed=0)


def _pass(criterion: str, detail: str) -> None:
    print(f"criterion {criterion}: PASS  {detail}")


def test_criterion_01_every_typed_term_strongly_normalizes():
    """Zero NotSN and zero Unknown across both corpora; instance counts
    verified against the independent goal-directed count."""
    started = time.perf_counter()
    details = []
    for cfg in (CFG_V, CFG_EMPTY):
        report = run_suite("thm8", cfg)
        assert report.failures == (), report.failures[:5]
        assert report.passes == report.instances
        counted = count_typed_instances(cfg.context_dict, MAX_CXTY, LGT_BOUND)
        assert report.instances == counted, (report.instances, counted)
        assert report.max_eta >= 1
        details.append(f"{dict(cfg.context) or '{}'}: {report.instances} instances")
    _pass("1", f"{'; '.join(details)} in {time.perf_counter() - started:.0f}s")


def test_criterion_02_subject_reduction_across_all_graphs():
    """Every edge of every corpus reduction graph preserves the root's
    type (symbolic sweep; zero violations)."""
    for cfg in (CFG_V, CFG_EMPTY):
        report = run_suite("sr", cfg)
        assert report.failures == (), report.failures[:5]
        assert report.passes == report.instances
    _pass("2", "zero violations over both corpora")


def test_criterion_03_eta_matches_brute_force_up_to_size_7():
    """Memoized eta equals an explicit no-memo path search on every
    corpus term of cxty <= 7 (the {} corpus is the v-free part)."""
    checked = 0
    disagreements = []
    for term, _ in enumerate_well_typed(V_CTX, 7, LGT_BOUND):
        st = explore_sn(term, FUEL)
        assert isinstance(st, StronglyNormalizing), print_term(term)
        expected = brute_eta(term)
        if st.eta != expected:
            disagreements.append((print_term(term), st.eta, expected))
        checked += 1
    assert not disagreements, disagreements[:5]
    _pass("3", f"exact equality on {checked} terms")


def test_criterion_04_eta_drops_by_exactly_one_on_some_reduct():
    """For every SN corpus term M with a reduct: every reduct has
    eta <= eta(M) - 1 and the max is exactly eta(M) - 1.  Checked on the
    erased shape quotient (eta is annotation-blind); normal forms have
    no reducts and nothing to check."""
    scan = shape_scan(V_CTX, MAX_CXTY, LGT_BOUND)
    checked = 0
    for entry in scan.entries:
        if entry.normal:
            continue
        shape = entry.shape
        st = explore_sn(shape, FUEL)
        assert isinstance(st, StronglyNormalizing), entry.text
        etas = []
        for reduct in one_step_reducts(shape):
            sr = explore_sn(reduct, FUEL)
            assert isinstance(sr, StronglyNormalizing), entry.text
            etas.append(sr.eta)
        assert all(e <= st.eta - 1 for e in etas), entry.text
        assert max(etas) == st.eta - 1, entry.text
        checked += 1
    _pass("4", f"step property exact on {checked} redex-bearing shapes")


def test_criterion_05_decomposition_biconditional_holds_everywhere():
    """The SN decomposition biconditional on the full corpus plus the
    committed catalog; the loop itself must show a length-1 cycle within
    fuel 10."""
    omega = dict(non_sn_catalog())["omega"]
    st = explore_sn(omega, 10)
    assert isinstance(st, NotSN) and len(st.cycle) == 1
    for cfg in (CFG_V, CFG_EMPTY):
        report = run_suite("l4", cfg)
        assert report.failures == (), report.failures[:5]
        assert report.passes == report.instances
    _pass("5", "biconditional holds on all decided instances, both corpora")


def test_criterion_06_application_to_fresh_variable_preserves_sn():
    """1000 seeded SN instances (alternating annotated and stripped):
    (M y) stays SN and eta never drops; zero failures, zero undecided."""
    report = run_suite("l5", CFG_V, samples=1000)
    assert report.instances == 1000
    assert report.failures == (), report.failures[:5]
    _pass("6", "1000 instances, eta(M y) >= eta(M) throughout")


def test_criterion_07_arg_substitution_inclusion_on_seeded_triples():
    """1000 seeded (M, x, N) triples: the argument-set inclusion holds
    on every one."""
    report = run_suite("l3", CFG_V, samples=1000)
    assert report.instances == 1000
    assert report.failures == (), report.failures[:5]
    _pass("7", "inclusion holds on 1000 triples")


def test_criterion_08_same_type_substitution_preserves_sn():
    """500 seeded same-type instances (every 5th with mu-abstraction
    images, so at least 100 exercise the mu branch): zero failures; and
    50 dedicated mu-image instances with the measure quadruple
    reproducible from its defining operations."""
    report = run_suite("l7", CFG_V, samples=500)
    assert report.instances == 500
    assert report.failures == (), report.failures[:5]

    arrow_bb = parse_type("bot->bot")
    mu_checked = 0
    for i in range(50):
        inst = random_typed_term(
            {**V_CTX, "s0": arrow_bb}, BOT, 9, seed=7000 + i, lgt_bound=LGT_BOUND
        )
        image = random_typed_term(
            V_CTX, arrow_bb, 9, seed=8000 + i, lgt_bound=LGT_BOUND, mu_root=True
        )
        assert inst is not None and image is not None
        assert image.term[0] == "mu"
        subs = {"s0": image.term}
        res = check_same_type_substitution(inst, subs, FUEL)
        assert res.holds, (print_term(inst.term), print_term(image.term), res.detail)
        twice = check_same_type_substitution(inst, subs, FUEL)
        assert res.measure == twice.measure  # reproducible
        # each component recomputed from its defining operation
        m = res.measure
        assert m.lgt_sigma == connective_count(arrow_bb)
        assert m.cxty_m == term_size(inst.term)
        assert m.eta_m == longest_reduction(inst.term, FUEL)
        occurrences = free_occurrences(inst.term, "s0")
        assert m.eta_sigma == occurrences * longest_reduction(image.term, FUEL)
        mu_checked += 1
    assert mu_checked == 50
    _pass("8", "500 instances pass; 50 mu-image measures reproduced")


def _matches_mu_template(result, body, binder, argument) -> bool:
    """Structural match against: mu y. body[binder := \\z. y (z argument)]
    with y, z fresh, distinct, and outside both free-variable sets."""
    if result[0] != "mu":
        return False
    y, produced = result[1], result[3]
    taboo = free_vars(body) | free_vars(argument)
    if y in taboo:
        return False
    if free_occurrences(body, binder) == 0:
        return produced == body
    for sub in _all_subterms(produced):
        if (
            sub[0] == "lam"
            and sub[1] != y
            and sub[1] not in taboo
            and sub[3] == app(var(y), app(var(sub[1]), argument))
        ):
            return produced == substitute(body, binder, sub)
    return False


def _all_subterms(t):
    yield t
    if t[0] == "app":
        yield from _all_subterms(t[1])
        yield from _all_subterms(t[2])
    elif t[0] != "var":
        yield from _all_subterms(t[3])


def test_criterion_09_mu_contraction_matches_the_template():
    """100 seeded mu redexes contract to exactly the re-routing template
    with fresh, distinct binders.  Most bodies apply the contracted
    variable (some twice, some under binders); arguments often contain
    free y and z to force the fresh names through renaming."""
    from lambdamu.terms import lam

    universe = enumerate_types(LGT_BOUND)
    arg_ctx = {"y": BOT, "z": BOT, "v": BOT}
    matched = 0
    with_occurrence = 0
    for i in range(100):
        rng = random.Random(5000 + i)
        inner = random_typed_term(
            arg_ctx, universe[rng.randrange(len(universe))], 5,
            seed=rng.randrange(1 << 30),
        ).term
        if i % 5 != 4:
            body = app(var("x"), inner)
            if i % 3 == 0:
                body = lam("q", None, app(body, var("x")))  # two occurrences
            elif i % 3 == 1:
                body = mu("q", None, body)
        else:
            body = random_typed_term(
                {"x": universe[rng.randrange(len(universe))], **arg_ctx},
                BOT, 8, seed=rng.randrange(1 << 30),
            ).term
        annot = (
            None
            if i % 3 == 0
            else parse_type("bot->bot")
            if i % 3 == 1
            else parse_type("(bot->bot)->bot")
        )
        argument = random_typed_term(
            arg_ctx, universe[rng.randrange(len(universe))], 6,
            seed=rng.randrange(1 << 30),
        ).term
        redex = app(mu("x", annot, body), argument)
        got = contract_redex(redex)
        assert _matches_mu_template(got, body, "x", argument), print_term(redex)
        if free_occurrences(body, "x"):
            with_occurrence += 1
        matched += 1
    assert matched == 100
    assert with_occurrence >= 80  # the interesting branch dominates
    _pass("9", f"100 redexes match the template ({with_occurrence} with occurrences)")


def test_criterion_10_parse_print_round_trip_is_exact():
    """parse(print(.)) is the syntactic identity over the corpus: every
    realizable erased shape, one annotated instance per shape (annotation
    rendering is uniform per binder, and every universe type round-trips
    exactly), every instance of cxty <= 7, and the catalog."""
    for t in enumerate_types(LGT_BOUND + 1):
        assert parse_type(format_type(t)) == t
        assert parse_type(format_type(t, compact=True)) == t
    scan = shape_scan(V_CTX, MAX_CXTY, LGT_BOUND)
    shapes_checked = 0
    for entry in scan.entries:
        shape = parse_term(entry.text)
        assert shape == entry.shape
        assert parse_term(print_term(shape)) == shape
        annotated = materialize_instance(shape, V_CTX, LGT_BOUND)
        assert annotated is not None
        assert parse_term(print_term(annotated)) == annotated
        shapes_checked += 1
    small = 0
    for term, _ in enumerate_well_typed(V_CTX, 7, LGT_BOUND):
        assert parse_term(print_term(term)) == term
        small += 1
    for name, term in non_sn_catalog():
        assert parse_term(print_term(term)) == term
    _pass("10", f"{shapes_checked} shapes (plain and annotated), {small} small instances")

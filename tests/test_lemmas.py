import json

import pytest

from conftest import ARG_INCLUSION_REGRESSIONS
from lambdamu.analysis import NotSN, StronglyNormalizing, Unknown, explore_sn
from lambdamu.lemmas import (
    UNDECIDED,
    MeasureQuadruple,
    MixedTypesError,
    SuiteConfig,
    TypedInstance,
    build_mu_substitution,
    check_application_to_variable,
    check_arg_substitution_inclusion,
    check_same_type_substitution,
    check_sn_decomposition,
    enumerate_typed_terms,
    measure_quadruple,
    non_sn_catalog,
    random_typed_term,
    report_to_dict,
    report_to_json,
    run_suite,
)
from lambdamu.corpus import enumerate_well_typed
from lambdamu.syntax import parse_term, parse_type
from lambdamu.terms import var
from lambdamu.typecheck import infer

BOT = "bot"
V_CTX = {"v": BOT}


# ---- random generation ----------------------------------------------------


def test_random_typed_term_only_candidate():
    inst = random_typed_term({"x": BOT}, BOT, 1, seed=4)
    assert inst.term == var("x")


def test_random_typed_term_deterministic():
    a = random_typed_term(V_CTX, parse_type("bot->bot"), 9, seed=11)
    b = random_typed_term(V_CTX, parse_type("bot->bot"), 9, seed=11)
    assert a.term == b.term


def test_random_typed_term_always_well_typed():
    goals = [parse_type(s) for s in ("bot", "bot->bot", "(bot->bot)->bot")]
    produced = 0
    for seed in range(300):
        inst = random_typed_term(V_CTX, goals[seed % 3], 12, seed=seed)
        if inst is None:
            continue
        produced += 1
        assert infer(inst.context, inst.term) == inst.type
    assert produced > 250


def test_random_typed_term_mu_root():
    inst = random_typed_term({}, parse_type("bot->bot"), 9, seed=0, mu_root=True)
    assert inst is not None and inst.term[0] == "mu"
    assert infer({}, inst.term) == inst.type


def test_random_typed_term_impossible_budget():
    assert random_typed_term({}, BOT, 1, seed=0) is None


# ---- enumeration wrapper ---------------------------------------------------


def test_enumerate_typed_terms_instances_recheck():
    for inst in enumerate_typed_terms(V_CTX, parse_type("bot->bot"), 4):
        assert infer(inst.context, inst.term) == inst.type


# ---- build_mu_substitution --------------------------------------------------


def test_build_mu_substitution_shape():
    subs = build_mu_substitution(["x"], "y")
    assert subs == {"x": parse_term("\\u. x (u y)")}
    assert build_mu_substitution([], "y") == {}
    two = build_mu_substitution(["x1", "x2"], "y")
    assert set(two) == {"x1", "x2"}
    for x, image in two.items():
        assert image == parse_term(f"\\u. {x} (u y)")


def test_build_mu_substitution_fresh_u():
    subs = build_mu_substitution(["u"], "y")
    (image,) = subs.values()
    assert image[1] == "u'"


def test_build_mu_substitution_preconditions():
    with pytest.raises(ValueError):
        build_mu_substitution(["x", "x"], "y")
    with pytest.raises(ValueError):
        build_mu_substitution(["x"], "x")


# ---- measure quadruple ------------------------------------------------------


def test_measure_quadruple_worked_example():
    ctx = {"x": parse_type("bot->bot"), "y": BOT}
    subs = {"x": parse_term("\\u:bot. u")}
    term = parse_term("x y x")
    got = measure_quadruple(ctx, subs, term, 1000)
    assert got == MeasureQuadruple(1, 0, 5, 0)


def test_measure_quadruple_empty_substitution():
    term = parse_term("(\\x:bot. x) v")
    got = measure_quadruple(V_CTX, {}, term, 1000)
    assert got == MeasureQuadruple(0, 1, 4, 0)


def test_measure_quadruple_counts_occurrences():
    # image with eta 1, x occurring three times free
    ctx = {"x": BOT, "v": BOT}
    subs = {"x": parse_term("(\\u:bot. u) v")}
    term = parse_term("x (x x)")
    got = measure_quadruple(ctx, subs, term, 1000)
    assert got.eta_sigma == 3
    assert got.lgt_sigma == 0


def test_measure_quadruple_shadowed_occurrences_do_not_count():
    ctx = {"x": BOT}
    subs = {"x": parse_term("(\\u:bot. u) v")}
    term = parse_term("\\x. x")  # the occurrence is bound, not substituted
    got = measure_quadruple(ctx, subs, term, 1000)
    assert got.eta_sigma == 0


def test_measure_quadruple_mixed_types():
    ctx = {"x": BOT, "y": parse_type("bot->bot")}
    with pytest.raises(MixedTypesError):
        measure_quadruple(ctx, {"x": var("v"), "y": var("v")}, parse_term("x y"), 100)


def test_measure_quadruple_is_lexicographic():
    assert MeasureQuadruple(0, 5, 9, 9) < MeasureQuadruple(1, 0, 0, 0)
    assert MeasureQuadruple(1, 0, 5, 0) < MeasureQuadruple(1, 1, 0, 0)


# ---- lemma checks -----------------------------------------------------------


def test_arg_inclusion_worked_example():
    # M=(x y), N=(z w): lhs={w,y} inside {w} + {(z w)} + {y}
    res = check_arg_substitution_inclusion(
        parse_term("x y"), "x", parse_term("z w")
    )
    assert res.holds


def test_arg_inclusion_x_not_free():
    res = check_arg_substitution_inclusion(parse_term("a b"), "x", parse_term("z z"))
    assert res.holds


def test_arg_inclusion_under_binder():
    res = check_arg_substitution_inclusion(
        parse_term("\\a. (\\b. b) x"), "x", parse_term("z w")
    )
    assert res.holds


@pytest.mark.parametrize("m, x, n", ARG_INCLUSION_REGRESSIONS)
def test_arg_inclusion_regressions(m, x, n):
    res = check_arg_substitution_inclusion(parse_term(m), x, parse_term(n))
    assert res.holds, res.detail


def test_sn_decomposition_on_omega():
    omega = parse_term("(\\x. x x) (\\x. x x)")
    res = check_sn_decomposition(omega, 100)
    assert res.holds  # both sides false


def test_sn_decomposition_on_x_omega():
    res = check_sn_decomposition(parse_term("x ((\\a. a a) (\\a. a a))"), 100)
    assert res.holds


def test_sn_decomposition_searches_a_variable_headed_term(monkeypatch):
    # explore_sn composes x A B from its arguments; l4 must decide it by
    # searching its whole graph, or it compares the composition with itself
    from lambdamu import analysis
    from lambdamu.terms import canonical

    term = parse_term("x ((\\a. a) v) ((\\a. a) ((\\a. a) w))")
    searched = []
    explore = analysis._explore

    def spy(root, fuel):
        searched.append(root)
        return explore(root, fuel)

    monkeypatch.setattr(analysis, "_explore", spy)
    analysis.clear_sn_cache()
    assert explore_sn(term, 100) == StronglyNormalizing(3, 6)
    assert canonical(term) not in searched
    assert len(searched) == 2  # the two redex arguments
    assert check_sn_decomposition(term, 100).holds
    assert canonical(term) in searched


def test_sn_decomposition_undecided_on_grower():
    grower = parse_term("(\\a. a a z) (\\a. a a z)")
    res = check_sn_decomposition(grower, 1000)
    assert res.status == UNDECIDED


def test_application_to_variable_examples():
    res = check_application_to_variable(parse_term("\\x. x"), "y", 100)
    assert res.holds
    res = check_application_to_variable(parse_term("mu x. x z"), "y", 1000)
    assert res.holds
    res = check_application_to_variable(parse_term("\\x. x x"), "y", 1000)
    assert res.holds  # (\\x. x x) y -> y y, still SN


def test_application_to_variable_rejects_non_sn():
    omega = parse_term("(\\x. x x) (\\x. x x)")
    with pytest.raises(ValueError):
        check_application_to_variable(omega, "y", 100)


def test_application_to_variable_freshness_contract():
    with pytest.raises(ValueError):
        check_application_to_variable(parse_term("x y"), "y", 100)


def test_same_type_substitution_examples():
    # s empty
    inst = TypedInstance(dict(V_CTX), parse_term("v"), BOT)
    assert check_same_type_substitution(inst, {}, 100).holds
    # (x y) with x := identity
    ctx = {"x": parse_type("bot->bot"), "y": BOT}
    inst = TypedInstance(ctx, parse_term("x y"), BOT)
    res = check_same_type_substitution(inst, {"x": parse_term("\\u:bot. u")}, 1000)
    assert res.holds
    assert res.measure == MeasureQuadruple(1, 0, 3, 0)
    # mu-abstraction image
    ctx = {"x": parse_type("bot->bot"), "y": BOT, "v": BOT}
    inst = TypedInstance(ctx, parse_term("x y x"), BOT)
    image = parse_term("mu a:(bot->bot). a (\\w:bot. w)")
    res = check_same_type_substitution(inst, {"x": image}, 10000)
    assert res.holds
    assert res.measure is not None and res.measure.lgt_sigma == 1


# ---- catalog ----------------------------------------------------------------


def test_catalog_contents_and_verdicts():
    catalog = dict(non_sn_catalog())
    assert set(catalog) == {
        "omega",
        "app_var_omega",
        "mu_wrapped_omega",
        "mu_applied_omega",
        "grower",
    }
    st = explore_sn(catalog["omega"], 10)
    assert isinstance(st, NotSN) and len(st.cycle) == 1
    for name in ("app_var_omega", "mu_wrapped_omega", "mu_applied_omega"):
        assert isinstance(explore_sn(catalog[name], 100000), NotSN), name
    assert isinstance(explore_sn(catalog["grower"], 100000), Unknown)


# ---- suites -----------------------------------------------------------------

SMALL = SuiteConfig.make(V_CTX, max_cxty=5, lgt_bound=2, fuel=2000, seed=13)


def test_thm8_suite_small_matches_per_instance_sweep():
    report = run_suite("thm8", SMALL)
    insts = list(enumerate_well_typed(V_CTX, 5, 2))
    assert report.instances == len(insts)
    assert report.ok
    max_eta = 0
    max_nodes = 1
    for term, _ in insts:
        st = explore_sn(term, 2000)
        assert isinstance(st, StronglyNormalizing)
        max_eta = max(max_eta, st.eta)
        max_nodes = max(max_nodes, st.graph_nodes)
    assert report.max_eta == max_eta
    assert report.max_graph_nodes == max_nodes


def test_sr_suite_small():
    report = run_suite("sr", SMALL)
    assert report.ok
    assert report.instances == sum(1 for _ in enumerate_well_typed(V_CTX, 5, 2))


def test_corpus_sweeps_neither_parse_nor_retype_a_shape(monkeypatch):
    """thm8 and sr decode each scan entry, and the SR judge takes the
    binder types the scan unified."""
    from lambdamu import corpus, lemmas

    def refuse(*args):
        raise AssertionError("called from a corpus sweep")

    monkeypatch.setattr(lemmas, "parse_term", refuse)
    monkeypatch.setattr(corpus, "principal_typing", refuse)
    corpus.clear_scan_cache()
    for suite in ("thm8", "sr"):
        assert run_suite(suite, SMALL).ok


def test_sr_suite_reports_cut_graphs_per_concrete_instance():
    """At fuel 3 some graphs are cut: each such shape is reported once per
    concrete instance, as thm8 reports its Unknown verdicts."""
    cfg = SuiteConfig.make(V_CTX, max_cxty=7, lgt_bound=2, fuel=3)
    report = run_suite("sr", cfg)
    assert report.failures
    for term, ctx_str, reason in report.failures:
        assert ctx_str == "v:bot" and reason.startswith("Unknown nodes_visited=")
        infer(V_CTX, parse_term(term))  # must not raise
    thm8 = run_suite("thm8", cfg)
    assert [f[0] for f in report.failures] == [f[0] for f in thm8.failures]


def test_l4_suite_includes_catalog():
    report = run_suite("l4", SMALL)
    assert report.ok
    # corpus plus the four decided catalog terms (the grower is undecided
    # and excluded)
    assert report.instances == sum(1 for _ in enumerate_well_typed(V_CTX, 5, 2)) + 4


@pytest.mark.parametrize("fuel, decided", [(1, 11583), (2, 12763)])
def test_l4_leaves_undecided_instances_out_of_the_count(fuel, decided):
    # counted per instance, not per shape: the corpus instances and
    # catalog terms whose decomposition check is decided at this fuel
    terms = [t for t, _ in enumerate_well_typed(V_CTX, 6, 2)]
    terms += [t for _, t in non_sn_catalog()]
    statuses = [check_sn_decomposition(t, fuel).status for t in terms]
    assert sum(s != UNDECIDED for s in statuses) == decided < len(terms)
    report = run_suite("l4", SuiteConfig.make(V_CTX, max_cxty=6, fuel=fuel))
    assert report.instances == decided
    assert report.ok


def test_seeded_suites_hold():
    for suite, n, max_eta in (("l3", 120, 0), ("l5", 120, 3), ("l7", 40, 1)):
        report = run_suite(suite, SMALL, samples=n)
        assert report.instances == n
        assert report.ok, (suite, report.failures[:3])
        assert report.max_eta == max_eta, suite


def test_seeded_draws_are_pinned():
    # at fuel 2 many instances are undecided, and which ones depends on
    # every draw: a trial that consumes its random numbers in another
    # order draws other instances and passes another number of them
    low = SuiteConfig.make(V_CTX, max_cxty=5, lgt_bound=2, fuel=2, seed=13)
    assert run_suite("l5", low, samples=120).passes == 83
    assert run_suite("l7", low, samples=40).passes == 37


@pytest.mark.parametrize("suite", ["l3", "l5", "l7"])
def test_zero_samples_is_an_empty_report(suite):
    # only None selects a suite's default sample count
    report = run_suite(suite, SMALL, samples=0)
    assert (report.instances, report.passes, report.failures) == (0, 0, ())


@pytest.mark.parametrize("suite", ["l3", "l5", "l7"])
def test_negative_samples_are_refused(suite):
    with pytest.raises(ValueError, match="samples must be at least 0"):
        run_suite(suite, SMALL, samples=-3)


def test_suite_reports_are_deterministic():
    a = run_suite("l5", SMALL, samples=25)
    b = run_suite("l5", SMALL, samples=25)
    assert a == b  # wall_ms excluded from equality
    da, db = report_to_dict(a, SMALL), report_to_dict(b, SMALL)
    da["stats"].pop("wall_ms")
    db["stats"].pop("wall_ms")
    assert da == db


def test_report_json_schema():
    report = run_suite("l3", SMALL, samples=10)
    doc = json.loads(report_to_json(report, SMALL))
    assert list(doc) == ["suite", "config", "instances", "passes", "failures", "stats"]
    assert list(doc["config"]) == ["max_cxty", "lgt_bound", "fuel", "seed"]
    assert list(doc["stats"]) == ["max_eta", "max_graph_nodes", "wall_ms"]
    assert doc["suite"] == "l3"
    assert doc["config"] == {"max_cxty": 5, "lgt_bound": 2, "fuel": 2000, "seed": 13}
    assert doc["passes"] + len(doc["failures"]) == doc["instances"]
    for f in doc["failures"]:
        assert list(f) == ["term", "context", "reason"]


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        run_suite("l6", SMALL)

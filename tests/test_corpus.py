"""The three corpus views (per-instance enumeration, counting DP, shape
quotient) must agree exactly; the symbolic subject-reduction sweep must
agree with the per-instance checker."""

import pytest

from lambdamu.corpus import (
    apply_type_subst,
    assignment_count,
    assignments,
    annotate_shape,
    count_typed_instances,
    enumerate_types,
    enumerate_typed_of_type,
    enumerate_well_typed,
    iter_shapes,
    materialize_instance,
    principal_typing,
    shape_scan,
    sr_shape_sweep,
)
from lambdamu.syntax import format_type, parse_term, parse_type, print_term
from lambdamu.terms import canonical, strip_annotations, term_size
from lambdamu.typecheck import TypeCheckError, check_subject_reduction, infer
from oracles import generate_and_filter

BOT = "bot"


def test_enumerate_types_examples():
    as_text = lambda ts: [format_type(t, compact=True) for t in ts]
    assert as_text(enumerate_types(0)) == ["bot"]
    assert as_text(enumerate_types(1)) == ["bot", "bot->bot"]
    assert as_text(enumerate_types(2)) == [
        "bot",
        "bot->bot",
        "bot->bot->bot",
        "(bot->bot)->bot",
    ]


def test_enumeration_includes_known_inhabitants():
    got = list(enumerate_typed_of_type({}, parse_type("bot->bot"), 2, 1))
    assert parse_term("\\x0:bot. x0") in got
    assert list(enumerate_typed_of_type({"y": BOT}, BOT, 1, 1)) == [("var", "y")]


def test_enumeration_matches_generate_and_filter_oracle():
    for ctx, goal in (({}, BOT), ({}, parse_type("bot->bot")), ({"v": BOT}, BOT)):
        got = list(enumerate_typed_of_type(ctx, goal, 4, 1))
        expected = generate_and_filter(ctx, goal, 4, 1)
        assert sorted(map(print_term, got)) == sorted(map(print_term, expected))


def test_enumeration_soundness_and_uniqueness():
    seen = set()
    for term, ty in enumerate_well_typed({"v": BOT}, 5, 2):
        assert infer({"v": BOT}, term) == ty
        assert term_size(term) <= 5
        c = canonical(term)
        assert c not in seen
        seen.add(c)
    assert seen


def test_enumeration_is_deterministic():
    a = list(enumerate_well_typed({"v": BOT}, 5, 2))
    b = list(enumerate_well_typed({"v": BOT}, 5, 2))
    assert a == b


@pytest.mark.parametrize("ctx", [{}, {"v": BOT}])
@pytest.mark.parametrize("max_cxty", [2, 4, 6])
def test_count_dp_matches_enumeration(ctx, max_cxty):
    for lgt_bound in (1, 2):
        count = count_typed_instances(ctx, max_cxty, lgt_bound)
        assert count == sum(1 for _ in enumerate_well_typed(ctx, max_cxty, lgt_bound))


@pytest.mark.parametrize("ctx", [{}, {"v": BOT}])
@pytest.mark.parametrize("max_cxty", [3, 5, 6])
def test_shape_scan_matches_enumeration(ctx, max_cxty):
    scan = shape_scan(ctx, max_cxty, 2)
    insts = list(enumerate_well_typed(ctx, max_cxty, 2))
    assert scan.total_instances == len(insts)
    from_instances = {canonical(strip_annotations(t)) for t, _ in insts}
    from_scan = {canonical(parse_term(e.text)) for e in scan.entries}
    assert from_scan == from_instances


def test_subcontext_view_agrees_with_direct_scan():
    from lambdamu.corpus import clear_scan_cache

    clear_scan_cache()
    direct = shape_scan({}, 5, 2)
    clear_scan_cache()
    shape_scan({"v": BOT}, 5, 2)  # warm the wider scan
    derived = shape_scan({}, 5, 2)
    assert [e.text for e in direct.entries] == [e.text for e in derived.entries]
    assert direct.total_instances == derived.total_instances


def test_principal_typing_and_assignments():
    shape = parse_term("\\b0. b0")
    p = principal_typing(shape, {})
    assert p is not None
    # one binder, any universe annotation fits
    assert assignment_count(p.binder_types, enumerate_types(2)) == 4
    # self-application has no simple typing
    assert principal_typing(parse_term("\\b0. b0 b0"), {}) is None
    # applying b0 to v:bot forces b0 into an arrow with domain bot;
    # the universe has two of those
    p = principal_typing(parse_term("\\b0. b0 v"), {"v": BOT})
    assert assignment_count(p.binder_types, enumerate_types(2)) == 2


def test_assignments_are_consistent_and_exhaustive():
    shape = parse_term("\\b0. \\b1. b0 b1")
    p = principal_typing(shape, {})
    universe = enumerate_types(2)
    n = 0
    for binding in assignments(p.binder_types, universe):
        n += 1
        inst = annotate_shape(
            shape, [apply_type_subst(e, binding) for e in p.binder_types]
        )
        infer({}, inst)  # must not raise
    assert n == assignment_count(p.binder_types, universe)
    # b0 must be an arrow whose domain is b1's annotation: 3 arrows in the
    # universe, each fixing b1
    assert n == 3


def test_materialize_instance_typechecks():
    scan = shape_scan({"v": BOT}, 5, 2)
    for entry in scan.entries[:200]:
        inst = materialize_instance(parse_term(entry.text), {"v": BOT}, 2)
        assert inst is not None
        infer({"v": BOT}, inst)  # must not raise


def test_shape_count_matches_direct_shape_enumeration():
    n = sum(1 for _ in iter_shapes(("v",), 6))
    scan = shape_scan({"v": BOT}, 6, 2)
    assert scan.shapes_seen == n


def test_symbolic_sr_agrees_with_per_instance_checks():
    """Zero violations symbolically must mean zero violations on every
    concrete annotated instance (verified exhaustively at small size)."""
    ctx = {"v": BOT}
    scan = shape_scan(ctx, 6, 2)
    universe = enumerate_types(2)
    checked_edges = 0
    for entry in scan.entries:
        if entry.normal:
            continue
        shape = parse_term(entry.text)
        res = sr_shape_sweep(shape, ctx, 2)
        assert not res.violations, (entry.text, res.violations)
        p = principal_typing(shape, ctx)
        for binding in assignments(p.binder_types, universe):
            inst = annotate_shape(
                shape, [apply_type_subst(e, binding) for e in p.binder_types]
            )
            report = check_subject_reduction(ctx, inst, 1000)
            assert report.ok, (entry.text, print_term(inst))
            checked_edges += report.edges_checked
    assert checked_edges > 0


def test_infer_rejects_metavariable_types_with_a_type_error():
    """The sweep types metavariable-annotated terms with the kernel's
    infer; a metavariable where an arrow or bot is needed must raise
    TypeCheckError, which sends the branch to the concrete fallback."""
    meta = ("?", 1)
    with pytest.raises(TypeCheckError, match="not-an-arrow"):
        infer({"f": meta, "v": BOT}, ("app", ("var", "f"), ("var", "v")))
    with pytest.raises(TypeCheckError, match="mu-body-not-bot"):
        infer({"w": meta}, ("mu", "k", BOT, ("var", "w")))


def test_sr_sweep_falls_back_to_concrete_instances(monkeypatch):
    """A mistyped reduct sends the branch to the per-instance check,
    which reports the concrete instance and the offending edge."""
    from lambdamu import corpus, reduction

    real = reduction.one_step_reducts
    stray = parse_term("\\x0:bot. x0")

    def with_stray(t):
        out = real(t)
        return out | {stray} if out else out

    monkeypatch.setattr(corpus, "one_step_reducts", with_stray)
    monkeypatch.setattr(reduction, "one_step_reducts", with_stray)
    res = sr_shape_sweep(parse_term("(\\b0. b0) v"), {"v": BOT}, 2)
    assert res.fallbacks == 1
    assert res.violations == [
        ("(\\b0:bot. b0) v", "(\\x0:bot. x0) v -> \\x0:bot. x0 has type bot -> bot")
    ]

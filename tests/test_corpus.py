"""The three corpus views (per-instance enumeration, counting DP, shape
quotient) must agree exactly; the symbolic subject-reduction sweep must
agree with the per-instance checker."""

import pytest

from lambdamu.corpus import (
    apply_type_subst,
    assignment_count,
    assignments,
    annotate_shape,
    clear_scan_cache,
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
from lambdamu import corpus
from lambdamu.terms import ARROW, VAR, canonical, strip_annotations, term_size
from lambdamu.typecheck import TypeCheckError, check_subject_reduction, infer
from oracles import generate_and_filter, generate_and_filter_scan

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
    from_scan = {canonical(e.shape) for e in scan.entries}
    assert from_scan == from_instances


def test_subcontext_view_agrees_with_direct_scan():
    # a wider scan in the cache must not change a narrower one, counters
    # included: each configuration is scanned on its own
    clear_scan_cache()
    direct = shape_scan({}, 5, 2)
    clear_scan_cache()
    wider = shape_scan({"v": BOT}, 5, 2)  # warm the wider scan
    after = shape_scan({}, 5, 2)
    assert after.entries == direct.entries
    assert after.total_instances == direct.total_instances
    assert (after.shapes_seen, after.typeable) == (direct.shapes_seen, direct.typeable)
    assert after.shapes_seen < wider.shapes_seen
    assert not hasattr(after.entries[0], "__dict__")


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
        inst = materialize_instance(entry.shape, {"v": BOT}, 2)
        assert inst is not None
        infer({"v": BOT}, inst)  # must not raise


def test_shape_count_matches_direct_shape_enumeration():
    n = sum(1 for _ in iter_shapes(("v",), 6))
    scan = shape_scan({"v": BOT}, 6, 2)
    assert scan.shapes_seen == n


@pytest.mark.parametrize(
    "ctx", [{}, {"v": BOT}, {"f": (ARROW, BOT, BOT), "v": BOT}], ids=["empty", "v", "f_v"]
)
@pytest.mark.parametrize("lgt_bound", [0, 1, 2])
def test_shape_scan_equals_generate_and_filter(ctx, lgt_bound):
    """The type-directed scan keeps exactly the shapes, in the same
    order and with the same counts, as typing every untyped shape."""
    clear_scan_cache()
    for max_cxty in range(1, 9):
        assert shape_scan(ctx, max_cxty, lgt_bound) == generate_and_filter_scan(
            ctx, max_cxty, lgt_bound
        ), max_cxty


def test_shape_scan_equals_generate_and_filter_at_size_9():
    clear_scan_cache()
    assert shape_scan({"v": BOT}, 9, 2) == generate_and_filter_scan({"v": BOT}, 9, 2)


@pytest.mark.parametrize(
    "ctx, max_cxty",
    [({}, 8), ({"v": BOT}, 8), ({"f": (ARROW, BOT, BOT), "v": BOT}, 8), ({"v": BOT}, 9)],
    ids=["empty-8", "v-8", "f_v-8", "v-9"],
)
def test_every_entry_decodes_to_the_term_its_text_parses_to(ctx, max_cxty):
    for lgt_bound in (0, 1, 2) if max_cxty == 8 else (2,):
        for entry in shape_scan(ctx, max_cxty, lgt_bound).entries:
            assert parse_term(entry.text) == entry.shape, entry.code


def test_decoding_a_deep_code_does_not_recurse():
    depth = 5000
    binders = tuple(f"b{d}" for d in range(depth))
    t = corpus.decode_shape("\\" * depth + "a", corpus.ShapeNames(("v",) + binders, 1))
    for name in binders:
        assert t[:3] == ("lam", name, None)
        t = t[3]
    assert t == (VAR, "v")


def _renumber(t, f):
    if t[0] == "?":
        return ("?", f(t[1]))
    if t[0] == ARROW:
        return (ARROW, _renumber(t[1], f), _renumber(t[2], f))
    return t


def test_assignment_order_does_not_depend_on_metavariable_numbering():
    """Binder 3 joins the groups of binders 0 and 2 while binder 1 stands
    alone: the components, and so the order of the assignments, must
    not depend on which metavariable of binder 3 is looked at first."""
    exprs = (("?", 1), ("?", 3), ("?", 2), (ARROW, ("?", 1), ("?", 2)))
    universe = enumerate_types(2)

    def listed(exprs):
        return [
            tuple(apply_type_subst(e, b) for e in exprs)
            for b in assignments(exprs, universe)
        ]

    expected = listed(exprs)
    assert len(expected) == 4 * 3
    for f in (lambda k: 1000 - k, lambda k: k + 7, lambda k: 13 * k, lambda k: 5 - k):
        assert listed(tuple(_renumber(e, f) for e in exprs)) == expected


def test_instance_order_does_not_depend_on_metavariable_numbering():
    """The SR fallback lists a shape's instances from the scan's binder
    types; principal_typing numbers the same metavariables otherwise."""
    ctx = {"f": (ARROW, BOT, BOT), "v": BOT}
    universe = enumerate_types(2)
    for entry in shape_scan(ctx, 6, 2).entries:
        shape = entry.shape
        expected = list(corpus.instances(shape, entry.binder_types, universe))
        assert len(expected) == entry.instances
        p = principal_typing(shape, ctx)
        mirrored = tuple(_renumber(e, lambda k: 1000 - k) for e in p.binder_types)
        for exprs in (p.binder_types, mirrored):
            assert list(corpus.instances(shape, exprs, universe)) == expected, entry.text


@pytest.mark.parametrize("free", [(), ("v",), ("f", "v")])
def test_shape_total_counts_iter_shapes(free):
    by_size = [0] * 9
    for shape in iter_shapes(free, 8):
        by_size[term_size(shape)] += 1
    for max_size in range(1, 9):
        assert corpus._shape_total(len(free), max_size) == sum(by_size[: max_size + 1])


def test_typed_shapes_undo_every_binding():
    """Once the generator is exhausted the unifier's substitution, its
    trail and the binder list are empty again."""
    u = corpus._Unifier()
    binders: list = []
    ctx = {"f": (ARROW, BOT, BOT), "v": BOT}
    env = tuple((chr(corpus._LEAF_BASE + i), ctx[x]) for i, x in enumerate(sorted(ctx)))
    for n in range(1, 8):
        codes = list(corpus._typed_shapes(n, env, u, binders))
        assert codes and all(len(code) == n for code in codes)
        assert (u.sub, u.trail, binders) == ({}, [], [])


def test_unifier_undo_returns_to_the_mark():
    u = corpus._Unifier()
    a, b = u.fresh(), u.fresh()
    assert u.unify(a, (ARROW, b, BOT))
    m = u.mark()
    assert u.unify(b, (ARROW, BOT, BOT))
    assert not u.unify(a, (ARROW, BOT, BOT))  # binds nothing it keeps
    u.undo(m)
    assert u.resolve(a) == (ARROW, b, BOT)
    u.undo(0)
    assert (u.sub, u.trail) == ({}, [])


def test_count_frees_its_memo_on_return():
    """With the cyclic collector off, the DP's memo is gone once the
    count returns: a memo kept by a reference cycle would stay."""
    import gc
    import tracemalloc

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert count_typed_instances({"v": BOT}, 7, 2) == 65475
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    # freed tuples stay allocated in the interpreter's free lists
    assert held < peak / 4, (held, peak)


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
        shape = entry.shape
        res = sr_shape_sweep(shape, entry.binder_types, ctx, 2)
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
    TypeCheckError, which sends the shape to the concrete fallback.  So
    a mu redex whose annotation is a metavariable never passes, and the
    sweep needs no case split on it."""
    meta = ("?", 1)
    with pytest.raises(TypeCheckError, match="not-an-arrow"):
        infer({"f": meta, "v": BOT}, ("app", ("var", "f"), ("var", "v")))
    with pytest.raises(TypeCheckError, match="mu-body-not-bot"):
        infer({"w": meta}, ("mu", "k", BOT, ("var", "w")))
    with pytest.raises(TypeCheckError, match="not-an-arrow"):
        infer({"v": BOT}, ("app", ("mu", "k", meta, ("var", "v")), ("var", "v")))


def test_sr_sweep_falls_back_to_concrete_instances(monkeypatch):
    """A mistyped reduct sends the shape to the per-instance check,
    which reports the concrete instance and the offending edge."""
    from lambdamu import analysis, reduction

    real = reduction.one_step_reducts
    stray = parse_term("\\x0:bot. x0")

    def with_stray(t):
        out = real(t)
        return out | {stray} if out else out

    monkeypatch.setattr(analysis, "one_step_reducts", with_stray)
    monkeypatch.setattr(reduction, "one_step_reducts", with_stray)
    shape = parse_term("(\\b0. b0) v")
    res = sr_shape_sweep(shape, principal_typing(shape, {"v": BOT}).binder_types, {"v": BOT}, 2)
    assert res.fallbacks == 1
    assert res.violations == [
        ("(\\b0:bot. b0) v", "(\\x0:bot. x0) v -> \\x0:bot. x0 has type bot -> bot")
    ]


def test_sr_fallback_cap_names_a_concrete_instance(monkeypatch):
    from lambdamu import analysis, corpus

    real = analysis.one_step_reducts
    stray = parse_term("\\x0:bot. x0")
    monkeypatch.setattr(
        analysis, "one_step_reducts", lambda t: real(t) | {stray} if real(t) else set()
    )
    monkeypatch.setattr(corpus, "_FALLBACK_CAP", 0)
    shape = parse_term("(\\b0. b0) v")
    res = sr_shape_sweep(shape, principal_typing(shape, {"v": BOT}).binder_types, {"v": BOT}, 2)
    assert res.violations == [("(\\b0:bot. b0) v", "fallback instance cap exceeded")]
    infer({"v": BOT}, parse_term(res.violations[0][0]))  # must not raise

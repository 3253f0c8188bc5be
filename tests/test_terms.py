import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import annots, names, terms
from lambdamu.terms import (
    CanonicalTerm,
    alpha_eq,
    app,
    canonical,
    free_occurrences,
    free_vars,
    fresh_name,
    lam,
    mu,
    number_binders,
    strip_annotations,
    substitute,
    substitute_parallel,
    term_size,
    var,
)
from lambdamu.syntax import print_term
from oracles import two_pass_canonical


def test_free_vars_examples():
    assert free_vars(var("x")) == {"x"}
    assert free_vars(lam("x", None, var("x"))) == set()
    assert free_vars(mu("x", None, app(var("x"), var("y")))) == {"y"}


def test_term_size_examples():
    assert term_size(var("x")) == 1
    assert term_size(lam("x", None, var("x"))) == 2
    assert term_size(app(app(var("x"), var("y")), var("z"))) == 5


def test_substitute_examples():
    # direct replacement
    identity = lam("z", None, var("z"))
    assert substitute(app(var("x"), var("y")), "x", identity) == app(identity, var("y"))
    # x not free: untouched
    assert substitute(lam("x", None, var("x")), "x", var("y")) == lam("x", None, var("x"))
    # capture forces a rename with a primed name
    got = substitute(lam("y", None, app(var("x"), var("y"))), "x", var("y"))
    assert got == lam("y'", None, app(var("y"), var("y'")))


def test_parallel_is_simultaneous():
    got = substitute_parallel(var("x"), {"x": var("y"), "y": var("x")})
    assert got == var("y")
    got = substitute_parallel(app(var("x"), var("y")), {"x": var("a"), "y": var("b")})
    assert got == app(var("a"), var("b"))


def test_parallel_mu_substitution_shape():
    # [x1 := \u. x1 (u y)] applied to (x1 v)
    image = lam("u", None, app(var("x1"), app(var("u"), var("y"))))
    got = substitute_parallel(app(var("x1"), var("v")), {"x1": image})
    assert got == app(image, var("v"))


def test_fresh_name():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x'"
    assert fresh_name("x", {"x", "x'"}) == "x''"


def test_canonical_examples():
    assert canonical(lam("x", None, var("x"))) == canonical(lam("y", None, var("y")))
    a = lam("x", None, lam("y", None, app(var("x"), var("y"))))
    b = lam("y", None, lam("x", None, app(var("y"), var("x"))))
    assert canonical(a) == canonical(b)
    assert canonical(lam("x", None, var("x"))) != canonical(mu("x", None, var("x")))


def test_annotations_participate_in_alpha():
    assert not alpha_eq(lam("x", "bot", var("x")), lam("x", None, var("x")))
    assert alpha_eq(lam("x", "bot", var("x")), lam("y", "bot", var("y")))


def test_alpha_eq_examples():
    assert alpha_eq(lam("x", None, var("x")), lam("y", None, var("y")))
    assert not alpha_eq(var("x"), var("y"))
    z = var("z")
    assert alpha_eq(app(lam("x", None, var("x")), z), app(lam("y", None, var("y")), z))


@given(terms, names, terms)
def test_substitute_noop_when_not_free(m, x, n):
    if x not in free_vars(m):
        assert alpha_eq(substitute(m, x, n), m)


@given(terms, names, terms)
def test_substitute_free_vars_bound(m, x, n):
    got = free_vars(substitute(m, x, n))
    expected_upper = (free_vars(m) - {x}) | free_vars(n)
    assert got <= expected_upper
    if x in free_vars(m):
        assert got == expected_upper


@given(terms, names, terms)
def test_substitute_size_law(m, x, n):
    k = free_occurrences(m, x)
    assert term_size(substitute(m, x, n)) == term_size(m) + k * (term_size(n) - 1)


@given(terms, names, terms)
def test_parallel_singleton_matches_single(m, x, n):
    assert alpha_eq(substitute_parallel(m, {x: n}), substitute(m, x, n))


@given(terms)
def test_canonical_is_idempotent_and_alpha_invariant(m):
    c = canonical(m)
    assert canonical(c) == c
    assert alpha_eq(m, c)


# free names that canonical's own numbering hands out to binders
numbered_names = st.sampled_from(["x0", "x1", "x2", "x", "a", "b"])

numbered_terms = st.recursive(
    st.builds(var, numbered_names),
    lambda inner: st.one_of(
        st.builds(lam, numbered_names, annots, inner),
        st.builds(mu, numbered_names, annots, inner),
        st.builds(app, inner, inner),
    ),
    max_leaves=10,
)


def test_canonical_skips_free_numbered_names():
    assert canonical(lam("a", None, app(var("x0"), var("a")))) == lam(
        "x1", None, app(var("x0"), var("x1"))
    )
    got = canonical(lam("a", None, mu("b", None, app(var("x1"), var("b")))))
    assert got == lam("x0", None, mu("x2", None, app(var("x1"), var("x2"))))


def test_a_marked_canonical_form_behaves_as_its_tuple():
    t = app(lam("a", None, app(var("a"), var("v"))), lam("b", "bot", var("b")))
    marked = canonical(t)
    plain = lam("x0", None, app(var("x0"), var("v")))
    plain = app(plain, lam("x1", "bot", var("x1")))
    assert type(marked) is CanonicalTerm and type(plain) is tuple
    assert marked == plain and plain == marked and not marked != plain
    assert hash(marked) == hash(plain)
    assert repr(marked) == repr(plain) and str(marked) == str(plain)
    assert print_term(marked) == print_term(plain)
    # each finds the other in dicts and sets, whichever went in
    assert {plain: 1}[marked] == 1 and {marked: 1}[plain] == 1
    assert plain in {marked} and marked in {plain} and len({marked, plain}) == 1
    assert canonical(marked) is marked and canonical(plain) == marked
    assert not hasattr(marked, "__dict__")


@pytest.mark.parametrize("t, plain", [
    (lam("a", None, var("a")), True),
    (lam("a", None, var("v")), True),
    (lam("a", None, var("xs")), False),  # any free name starting with x
    (lam("a", None, var("x7")), False),
    (lam("a", None, var("x0")), False),  # renumbered around x0
])
def test_canonical_marks_exactly_the_plain_numberings(t, plain):
    assert (type(canonical(t)) is CanonicalTerm) == plain


@given(terms)
def test_canonical_marks_a_term_without_free_names_starting_with_x(m):
    plain = not any(name.startswith("x") for name in free_vars(m))
    assert (type(canonical(m)) is CanonicalTerm) == plain


@given(numbered_terms)
@settings(max_examples=500)
def test_canonical_matches_the_two_pass_renaming(m):
    assert canonical(m) == two_pass_canonical(m)


def _binder_names(t):
    """The binder names of t in pre-order."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if t[0] == "app":
            todo += [t[2], t[1]]
        elif t[0] != "var":
            out.append(t[1])
            todo.append(t[3])
    return out


def test_number_binders_skips_the_avoided_numbers():
    t = lam("a", None, mu("b", None, app(var("x1"), var("a"))))
    got, end, free = number_binders(t, 0, {"x0", "x1"})
    assert got == lam("x2", None, mu("x3", None, app(var("x1"), var("x2"))))
    assert (end, free) == (4, {"x1"})


@given(numbered_terms, st.frozensets(st.sampled_from(["x0", "x1", "x2", "x3", "x4", "y"])))
@settings(max_examples=500)
def test_number_binders_keeps_the_variable_convention(m, extra):
    # with every free name avoided, the numbering is alpha-equivalent to
    # m and its binders are pairwise distinct and outside the avoid set
    avoid = free_vars(m) | extra
    got = number_binders(m, 0, avoid)[0]
    assert alpha_eq(got, m)
    bound = _binder_names(got)
    assert len(set(bound)) == len(bound)
    assert avoid.isdisjoint(bound)


@given(terms, terms)
def test_alpha_eq_matches_canonical_equality(a, b):
    assert alpha_eq(a, b) == (canonical(a) == canonical(b))


@given(terms)
def test_strip_annotations_preserves_structure(m):
    s = strip_annotations(m)
    assert term_size(s) == term_size(m)
    assert free_vars(s) == free_vars(m)


def test_canonical_and_term_size_loop_down_spines():
    # 100,000 arguments, past any recursion limit the explorer sets (and
    # compared as text: tuple equality itself recurses); the second spine
    # names x0 free, so canonical takes its renaming pass
    for name, binder in (("v", "x0"), ("x0", "x1")):
        t = lam("a", None, var("a"))
        for _ in range(100_000):
            t = app(t, var(name))
        args = " ".join([name] * 100_000)
        assert print_term(canonical(t)) == f"(\\{binder}. {binder}) {args}"
        assert term_size(t) == 200_002

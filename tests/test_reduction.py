import pytest
from hypothesis import given, settings

from conftest import ARG_INCLUSION_REGRESSIONS, names, terms
from lambdamu.reduction import (
    HeadForm,
    InvalidPositionError,
    NotARedexError,
    Trace,
    arg_terms,
    contract_redex,
    format_trace,
    head_form,
    head_reduce,
    is_normal_form,
    one_step_reducts,
    redex_positions,
    reduce_at,
    reduce_with_strategy,
)
from lambdamu.syntax import parse_term
from lambdamu.terms import (
    alpha_eq,
    app,
    canonical,
    free_vars,
    lam,
    mu,
    rename_binders_apart,
    substitute,
    var,
)


def test_head_form_variable_head():
    hf = head_form(parse_term("\\x. y a b"))
    assert hf.prefix == (("lam", "x", None),)
    assert hf.head == var("y")
    assert hf.spine == (var("a"), var("b"))
    assert hf.head_is_variable


def test_head_form_head_redex_with_spine():
    hf = head_form(parse_term("(\\x. x) q o1"))
    assert hf.prefix == ()
    assert hf.head == parse_term("(\\x. x) q")
    assert hf.spine == (var("o1"),)
    assert not hf.head_is_variable


def test_head_form_mu_redex_under_prefix():
    hf = head_form(parse_term("mu a. (mu x. p) q"))
    assert hf.prefix == (("mu", "a", None),)
    assert hf.head == parse_term("(mu x. p) q")
    assert hf.spine == ()


@given(terms)
def test_head_form_reassembles_exactly(t):
    assert head_form(t).reassemble() == t


@given(terms)
def test_head_dichotomy(t):
    # exactly one of: variable head, or a head reduct exists
    hf = head_form(t)
    assert hf.head_is_variable == (head_reduce(t) is None)


def test_contract_beta():
    assert contract_redex(parse_term("(\\x:bot. x) v")) == var("v")
    assert contract_redex(parse_term("(\\x. y) v")) == var("y")


def test_contract_mu_worked_instance():
    got = contract_redex(parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v"))
    expected = parse_term("mu y:bot. ((\\z:(bot->bot). (y (z v))) (\\w:bot. w))")
    assert got == expected


def test_contract_mu_unannotated():
    got = contract_redex(parse_term("(mu x. x a) q"))
    assert got == parse_term("mu y. (\\z. y (z q)) a")


def test_contract_requires_redex():
    with pytest.raises(NotARedexError):
        contract_redex(parse_term("x y"))


def test_mu_contraction_freshness():
    # y and z free in the body and the argument force primed names
    got = contract_redex(parse_term("(mu x. x y z) (y z)"))
    assert got[0] == "mu"
    fresh_mu = got[1]
    assert fresh_mu not in {"y", "z"} and fresh_mu.startswith("y")


def test_redex_positions_document_order():
    assert redex_positions(parse_term("\\x. x")) == []
    two = parse_term("(\\x. x) ((\\y. y) z)")
    assert redex_positions(two) == [(), ("arg",)]
    t = parse_term("(mu x. (x ((\\y. y) z))) w")
    assert redex_positions(t) == [(), ("fun", "mu", "arg")]


def test_reduce_at():
    two = parse_term("(\\x. x) ((\\y. y) z)")
    assert reduce_at(two, ()) == parse_term("(\\y. y) z")
    assert reduce_at(two, ("arg",)) == parse_term("(\\x. x) z")
    under = parse_term("\\w. (\\x. x) a")
    assert reduce_at(under, ("lam",)) == parse_term("\\w. a")
    with pytest.raises(InvalidPositionError):
        reduce_at(two, ("fun",))


def test_one_step_reducts():
    assert one_step_reducts(var("y")) == set()
    assert one_step_reducts(parse_term("(\\x. x) y")) == {var("y")}
    omega = parse_term("(\\x. x x) (\\x. x x)")
    assert one_step_reducts(omega) == {canonical(omega)}


def test_head_reduce():
    assert head_reduce(parse_term("\\x. x a")) is None
    assert head_reduce(parse_term("(\\x. x) q o")) == parse_term("q o")
    got = head_reduce(parse_term("((mu x. x a) q) o"))
    assert alpha_eq(got, parse_term("(mu y. (\\z. y (z q)) a) o"))


def test_arg_terms_definition_cases():
    assert arg_terms(parse_term("x p q")) == {canonical(var("p")), canonical(var("q"))}
    # a redex head contributes its abstraction whole, not the open body
    t = parse_term("\\a. (\\x. p) q o1")
    rest = {canonical(var("q")), canonical(var("o1"))}
    assert arg_terms(t) == {canonical(parse_term("\\x. p"))} | rest
    m = parse_term("\\a. (mu x. p) q o1")
    assert arg_terms(m) == {canonical(parse_term("mu x. p"))} | rest
    assert arg_terms(parse_term("\\x. x")) == set()


@given(terms)
def test_one_step_reducts_alpha_stable(t):
    assert one_step_reducts(t) == one_step_reducts(canonical(t))


@given(terms)
def test_hred_is_a_one_step_reduct(t):
    h = head_reduce(t)
    if h is not None:
        assert canonical(h) in one_step_reducts(t)


def _arg_inclusion_holds(m, x, n):
    # arg(M[x:=N]) inside arg(N) + {N} + substituted arg(M), with M's
    # binders renamed apart from x and FV(N) (the variable convention)
    m = rename_binders_apart(m, {x} | free_vars(n))
    lhs = arg_terms(substitute(m, x, n))
    rhs = set(arg_terms(n)) | {canonical(n)}
    rhs |= {canonical(substitute(q, x, n)) for q in arg_terms(m)}
    return lhs <= rhs


@pytest.mark.parametrize("m, x, n", ARG_INCLUSION_REGRESSIONS)
def test_arg_substitution_inclusion_regressions(m, x, n):
    assert _arg_inclusion_holds(parse_term(m), x, parse_term(n))


@given(terms, names, terms)
@settings(max_examples=60)
def test_arg_substitution_inclusion(m, x, n):
    assert _arg_inclusion_holds(m, x, n)


def test_mu_contraction_matches_template():
    redex = parse_term("(mu x. x (x a)) q")
    got = contract_redex(redex)
    body, q = parse_term("x (x a)"), var("q")
    y, z = got[1], None
    assert y not in free_vars(body) | free_vars(q)
    wrapper = None
    for sub in _subterms(got[3]):
        if sub[0] == "lam" and sub[3] == app(var(y), app(var(sub[1]), q)):
            wrapper = sub
            z = sub[1]
            break
    assert wrapper is not None and z != y
    assert z not in free_vars(body) | free_vars(q)
    assert got[3] == substitute(body, "x", wrapper)


def _subterms(t):
    yield t
    if t[0] == "app":
        yield from _subterms(t[1])
        yield from _subterms(t[2])
    elif t[0] != "var":
        yield from _subterms(t[3])


def test_strategy_lo_single_step():
    tr = reduce_with_strategy(parse_term("(\\x. x) y"), "leftmost-outermost", 10)
    assert [s.term for s in tr.steps] == [var("y")]
    assert tr.finished


def test_strategy_truncates_on_omega():
    omega = parse_term("(\\x. x x) (\\x. x x)")
    tr = reduce_with_strategy(omega, "leftmost-outermost", 5)
    assert len(tr.steps) == 5 and not tr.finished
    assert all(alpha_eq(s.term, omega) for s in tr.steps)


def test_strategy_mu_three_steps():
    t = parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v")
    tr = reduce_with_strategy(t, "leftmost-outermost", 10)
    assert len(tr.steps) == 3
    assert alpha_eq(tr.final, parse_term("mu y:bot. y v"))
    assert tr.finished


def test_strategy_head_stops_at_head_normal_form():
    t = parse_term("\\a. (\\x. x) ((\\y. y) b)")
    tr = reduce_with_strategy(t, "head", 10)
    # the head strategy contracts the head redex only; the inner argument
    # redex survives in head normal form
    assert tr.finished
    assert head_form(tr.final).head_is_variable


def test_strategy_random_is_deterministic_per_seed():
    t = parse_term("(\\x. x x) ((\\y. y) ((\\z. z) w))")
    a = reduce_with_strategy(t, "random", 20, seed=5)
    b = reduce_with_strategy(t, "random", 20, seed=5)
    assert a == b


def test_trace_format():
    t = parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v")
    tr = reduce_with_strategy(t, "lo", 10)
    lines = format_trace(tr).splitlines()
    assert lines[0].startswith("0\t-\t")
    assert lines[1].split("\t")[1] == "mu"
    assert lines[2].split("\t")[:2] == ["2", "mu.arg"]


@given(terms)
@settings(max_examples=60)
def test_normal_form_iff_no_positions(t):
    assert is_normal_form(t) == (not redex_positions(t))

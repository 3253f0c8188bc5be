import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import ARG_INCLUSION_REGRESSIONS, names, terms
from lambdamu.reduction import (
    InvalidPositionError,
    NotARedexError,
    Trace,
    arg_terms,
    contract_redex,
    format_trace,
    head_reduce,
    is_normal_form,
    one_step_reducts,
    redex_positions,
    reduce_at,
    reduce_with_strategy,
    _contract_in,
    _redexes,
)
from lambdamu.analysis import reduction_graph
from lambdamu.corpus import annotate_shape, shape_scan
from lambdamu.lemmas import non_sn_catalog, random_typed_term
from lambdamu.syntax import parse_term, print_term
from lambdamu.terms import (
    CanonicalTerm,
    alpha_eq,
    app,
    canonical,
    free_vars,
    lam,
    mu,
    number_binders,
    substitute,
    var,
)


def _head_is_variable(t):
    while t[0] in ("lam", "mu"):
        t = t[3]
    while t[0] == "app":
        t = t[1]
    return t[0] == "var"


@given(terms)
def test_head_dichotomy(t):
    # exactly one of: variable head, or a head reduct exists
    assert _head_is_variable(t) == (head_reduce(t) is None)


@given(terms)
def test_head_reduce_is_the_first_redex_outside_every_argument(t):
    positions = redex_positions(t)
    if positions and "arg" not in positions[0]:
        assert head_reduce(t) == reduce_at(t, positions[0])
    else:
        assert head_reduce(t) is None


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
    m = number_binders(m, 0, {x} | free_vars(n) | free_vars(m))[0]
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
    assert tr.finished
    assert _head_is_variable(tr.final)
    # the head strategy contracts the head redex only; the inner argument
    # redex survives in head normal form
    t = parse_term("\\a. (\\x. x) a ((\\y. y) b)")
    tr = reduce_with_strategy(t, "head", 10)
    assert tr.finished and tr.final == parse_term("\\a. a ((\\y. y) b)")


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


def test_a_shared_subterm_is_reduced_by_position():
    # substitution puts one object on both sides of an application
    t = reduce_at(parse_term("(\\x. x x) ((\\y. y) z)"), ())
    assert t[1] is t[2]
    assert redex_positions(t) == [("fun",), ("arg",)]
    assert reduce_at(t, ("arg",)) == app(t[1], var("z"))
    assert one_step_reducts(t) == {
        canonical(app(var("z"), t[2])),
        canonical(app(t[1], var("z"))),
    }


def _oracle_graph_roots(gen):
    """(root, fuel): the redex-bearing shapes of size <= 7 at {v:bot}
    and {}, the first 60 terms of the benchmark's `terms` round, the
    catalog's loops, and the catalog's grower cut at 300 nodes."""
    for ctx in ({"v": "bot"}, {}):
        for entry in shape_scan(ctx, 7, 2).entries:
            if not entry.normal:
                yield entry.shape, 1000
    for item in gen.typed_terms(1)[:60]:
        yield parse_term(item.text), 1000
    for name, term in non_sn_catalog():
        yield term, 300 if name == "grower" else 1000


def test_one_step_reducts_agree_with_the_benchmark_reducer():
    # bench/reducer.py is written apart from the program, on de Bruijn
    # terms; it reads the program's printed terms
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import gen
        import reducer
    finally:
        sys.path.pop(0)
    nodes = set()
    for root, fuel in _oracle_graph_roots(gen):
        nodes |= reduction_graph(root, fuel).nodes
    assert len(nodes) > 2000
    for node in nodes:
        ours = {reducer.parse(print_term(r)) for r in one_step_reducts(node)}
        assert ours == reducer.reducts(reducer.parse(print_term(node))), print_term(node)


# ---- reducts of a canonical node are built canonical ----------------------


def _slow_reducts(t):
    """The reducts as any term gets them: each one put through canonical."""
    return {canonical(_contract_in(frames, redex)) for frames, redex in _redexes(t)}


def _assert_built_canonical(node):
    root = canonical(node)
    reducts = one_step_reducts(root)
    assert reducts == _slow_reducts(node), print_term(node)
    for r in reducts:
        # marked exactly when the numbering is plain
        assert type(r) is type(canonical(tuple(r))), print_term(r)


def test_reducts_of_a_canonical_node_equal_the_canonical_forms_of_reducts():
    roots = []
    for entry in shape_scan({"v": "bot"}, 7, 2).entries:
        if not entry.normal:
            roots.append(entry.shape)
            roots.append(annotate_shape(entry.shape, entry.binder_types))
    roots.extend(term for _, term in non_sn_catalog())
    ctx = {"v": "bot", "f": ("->", "bot", "bot")}
    for seed in range(300):
        inst = random_typed_term(ctx, "bot", 30, seed)
        if inst is not None:
            roots.append(inst.term)
    nodes = set()
    for root in roots:
        nodes |= reduction_graph(root, 300).nodes
    assert sum(type(n) is CanonicalTerm for n in nodes) > 2000
    for node in nodes:
        _assert_built_canonical(node)


@given(terms)
@settings(max_examples=200)
def test_reducts_of_any_term_equal_the_canonical_forms_of_reducts(t):
    _assert_built_canonical(t)


@pytest.mark.parametrize("text, reduct", [
    # the contractum binds one name fewer than the redex did
    ("(\\a. a) v (\\q. q)", "v (\\x0. x0)"),
    ("(\\a. \\b. a) v (\\q. q) (\\r. r)", "(\\x0. v) (\\x1. x1) (\\x2. x2)"),
    # one more: the mu rule's two fresh binders replace the redex's one
    ("(mu a. a (\\b. b)) (\\c. c) (\\d. d)",
     "(mu x0. (\\x1. x0 (x1 (\\x2. x2))) (\\x3. x3)) (\\x4. x4)"),
    # two copies of the argument's binder
    ("f ((\\a. a a) (\\b. b)) (\\c. c)", "f ((\\x0. x0) (\\x1. x1)) (\\x2. x2)"),
])
def test_arguments_right_of_the_redex_are_renumbered(text, reduct):
    root = canonical(parse_term(text))
    assert type(root) is CanonicalTerm
    (got,) = one_step_reducts(root)
    assert type(got) is CanonicalTerm
    assert print_term(got) == reduct
    assert got == canonical(parse_term(reduct))


@pytest.mark.parametrize("text, reducts", [
    ("(\\a. \\b. a) (\\c. x1)", ["\\x0. \\x2. x1"]),
    ("(\\x. x) x0", ["x0"]),
    ("(\\a. \\b. \\c. a) x2 x5", ["(\\x0. \\x1. x2) x5"]),
    ("(mu a. a x1) (\\b. b)", ["mu x0. (\\x2. x0 (x2 (\\x3. x3))) x1"]),
    # no free name collides with a binder's number, yet it starts with x
    ("\\a. x7", []),
])
def test_a_free_numbered_name_keeps_a_term_off_the_built_path(text, reducts):
    root = canonical(parse_term(text))
    assert type(root) is tuple
    got = one_step_reducts(root)
    assert sorted(print_term(r) for r in got) == reducts
    assert got == _slow_reducts(root)


def test_reducts_of_deep_spines_at_the_default_recursion_limit():
    # one fresh process at the default limit: (\a. a) v w ... w, and the
    # same spine with \q. q arguments, whose reduct renumbers every one
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    code = (
        "from lambdamu.reduction import one_step_reducts\n"
        "from lambdamu.terms import canonical\n"
        "n = 10000\n"
        "for arg in (('var', 'w'), ('lam', 'q', None, ('var', 'q'))):\n"
        "    s = ('app', ('lam', 'a', None, ('var', 'a')), ('var', 'v'))\n"
        "    for _ in range(n):\n"
        "        s = ('app', s, arg)\n"
        "    (r,) = one_step_reducts(canonical(s))\n"
        "    args = []\n"
        "    while r[0] == 'app':\n"
        "        args.append(r[2])\n"
        "        r = r[1]\n"
        "    args.reverse()\n"
        "    if arg[0] == 'var':\n"
        "        want = [arg] * n\n"
        "    else:\n"
        "        want = [('lam', 'x%d' % i, None, ('var', 'x%d' % i)) for i in range(n)]\n"
        "    print(r == ('var', 'v'), args == want)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "True True\nTrue True\n"

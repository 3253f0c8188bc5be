"""The benchmark's reducer against results worked by hand.

    python3 -m pytest bench
"""

from reducer import explore, parse, reachable, reducts

OMEGA = "(\\x. x x) (\\x. x x)"


def test_alpha_equivalent_terms_are_equal():
    assert parse("\\x. \\y. x y") == parse("\\a. \\b. a b")
    assert parse("\\x:bot. x") != parse("\\x:bot->bot. x")
    assert parse("\\x. z") != parse("\\x. x")


def test_nested_identity_has_eta_two():
    # (\x.x) ((\x.x) y) -> (\x.x) y by either redex, then -> y
    result = explore(parse("(\\x:bot.x) ((\\x:bot.x) y)"))
    assert (result.nodes, result.eta, result.cycle) == (3, 2, False)


def test_omega_has_a_one_step_cycle():
    omega = parse(OMEGA)
    assert reducts(omega) == {omega}
    assert explore(omega).cycle
    assert reachable(omega, 10) == 1


def test_beta_renames_to_avoid_capture():
    # (\x. \y. x) y -> \y'. y, not \y. y
    assert reducts(parse("(\\x. \\y. x) y")) == {parse("\\w. y")}


def test_beta_under_a_binder_keeps_outer_variables():
    assert reducts(parse("\\u. (\\x. \\w. x u) u")) == {parse("\\u. \\w. u u")}


def test_mu_rule_with_an_arrow_annotation():
    # (mu x:A->B. M) N -> mu y:B. M[x := \z:A->B. y (z N)]
    t = parse("(mu x:(bot->bot). x (\\w:bot. w)) v")
    step = parse("mu y:bot. (\\z:bot->bot. y (z v)) (\\w:bot. w)")
    assert reducts(t) == {step}
    # then -> mu y. y ((\w. w) v) -> mu y. y v
    result = explore(t)
    assert (result.nodes, result.eta) == (4, 3)


def test_mu_rule_without_annotation_copies_the_argument():
    t = parse("(mu a. a a) (\\b. b b)")
    wrapper = "(\\z. y (z (\\b. b b)))"
    assert parse(f"mu y. {wrapper} {wrapper}") in reducts(t)


def test_mu_rule_replaces_bound_occurrences_under_binders():
    t = parse("(mu a. \\c. a c) n")
    assert reducts(t) == {parse("mu y. \\c. (\\z. y (z n)) c")}


def test_a_normal_form_has_no_reducts():
    result = explore(parse("\\x. f (x v)"))
    assert (result.nodes, result.eta) == (1, 0)

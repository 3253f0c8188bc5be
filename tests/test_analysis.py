import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import terms
from lambdamu import analysis
from lambdamu.analysis import (
    NotSN,
    StronglyNormalizing,
    Unknown,
    explore_sn,
    graph_to_dot,
    longest_reduction,
    reduction_graph,
)
from lambdamu.lemmas import non_sn_catalog
from lambdamu.reduction import is_normal_form, one_step_reducts
from lambdamu.syntax import parse_term, print_term
from lambdamu.terms import canonical, term_size, var
from oracles import brute_eta, brute_longest_path

OMEGA = parse_term("(\\x. x x) (\\x. x x)")


def test_graph_single_node():
    g = reduction_graph(var("y"), 10)
    assert len(g.nodes) == 1 and not g.edges and g.complete


def test_graph_three_nodes():
    g = reduction_graph(parse_term("(\\x. x) ((\\x. x) y)"), 100)
    assert len(g.nodes) == 3 and g.complete
    assert len(g.edges) == 2


def test_graph_omega_self_loop():
    g = reduction_graph(OMEGA, 10)
    assert len(g.nodes) == 1 and g.complete
    (edge,) = g.edges
    assert edge[0] == edge[1]


def test_explore_normal_form():
    assert explore_sn(parse_term("\\x. x"), 10) == StronglyNormalizing(0, 1)


def test_explore_omega_cycle_within_fuel_10():
    st = explore_sn(OMEGA, 10)
    assert isinstance(st, NotSN) and len(st.cycle) == 1


def test_explore_two_step():
    st = explore_sn(parse_term("(\\x:bot. x) ((\\x:bot. x) y)"), 100)
    assert st == StronglyNormalizing(2, 3)


def test_eta_examples():
    assert longest_reduction(var("y"), 10) == 0
    assert longest_reduction(parse_term("(\\x. x) y"), 10) == 1
    t = parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v")
    assert longest_reduction(t, 1000) == 3


def test_eta_forwards_not_sn():
    assert isinstance(longest_reduction(OMEGA, 10), NotSN)


def test_unknown_on_grower():
    # the work allowance runs out first at every fuel; the counts follow
    # from the sizes of the nodes the search visits
    grower = parse_term("(\\a. a a z) (\\a. a a z)")
    for fuel, visited in ((300, 103), (2000, 276), (10_000, 626), (100_000, 1994)):
        assert explore_sn(grower, fuel) == Unknown(visited)
    for fuel, nodes in ((300, 103), (2000, 276)):
        g = reduction_graph(grower, fuel)
        assert not g.complete and len(g.nodes) == nodes


def test_fuel_exhaustion_is_unknown():
    # a term with a large graph and tiny fuel
    t = parse_term("(\\x:bot. x) ((\\x:bot. x) ((\\x:bot. x) y))")
    st = explore_sn(t, 2)
    assert isinstance(st, Unknown)


def test_root_larger_than_the_fuel_allowance_is_decided():
    # the root alone has 2,802 nodes, more than 40 x max(fuel, 64): the
    # work allowance grows with the root, so its one reduct still fits
    t = parse_term("(\\x. x) (" + " ".join(["v"] * 1400) + ")")
    for fuel in (10, 100):
        assert explore_sn(t, fuel) == StronglyNormalizing(1, 2)
        g = reduction_graph(t, fuel)
        assert g.complete and len(g.nodes) == 2 and len(g.edges) == 1


def test_explore_alpha_stable():
    a = parse_term("(\\x. x x) (\\y. y y)")
    b = parse_term("(\\u. u u) (\\v. v v)")
    assert explore_sn(a, 50) == explore_sn(b, 50)


def test_verdicts_pure_in_term_and_fuel():
    t = parse_term("(\\x:bot. x) ((\\x:bot. x) ((\\x:bot. x) y))")
    assert explore_sn(t, 100) == explore_sn(t, 100)
    # a small fuel still reports Unknown even after a decided big-fuel run
    assert isinstance(explore_sn(t, 2), Unknown)


def test_cycle_witness_is_a_reduction_cycle():
    t = parse_term("x ((\\a. a a) (\\a. a a))")
    st = explore_sn(t, 100)
    assert isinstance(st, NotSN)
    cycle = st.cycle
    for cur, nxt in zip(cycle, cycle[1:] + cycle[:1]):
        assert canonical(nxt) in one_step_reducts(cur)


@given(terms)
@settings(max_examples=40, deadline=None)
def test_eta_matches_brute_force_on_small_terms(t):
    if term_size(t) > 7:
        return
    st = explore_sn(t, 10000)
    if isinstance(st, StronglyNormalizing):
        assert st.eta == brute_eta(t)


@given(terms)
@settings(max_examples=40, deadline=None)
def test_eta_step_property(t):
    st = explore_sn(t, 10000)
    if not isinstance(st, StronglyNormalizing):
        return
    reducts = one_step_reducts(t)
    if not reducts:
        assert st.eta == 0
        return
    etas = []
    for r in reducts:
        sr = explore_sn(r, 10000)
        assert isinstance(sr, StronglyNormalizing)
        etas.append(sr.eta)
    assert all(e <= st.eta - 1 for e in etas)
    assert max(etas) == st.eta - 1


def test_longest_path_matches_graph_oracle():
    t = parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v")
    g = reduction_graph(t, 1000)
    assert g.complete
    assert brute_longest_path(g) == longest_reduction(t, 1000)


def test_dot_output():
    g = reduction_graph(parse_term("(\\x:bot. x) y"), 10)
    dot = graph_to_dot(g)
    assert dot.splitlines()[0] == "digraph reduction {"
    assert '"(\\\\x0:bot. x0) y" [root=true];' in dot
    assert '"(\\\\x0:bot. x0) y" -> "y";' in dot
    assert dot.rstrip().endswith("}")
    # deterministic: node lines sorted lexicographically
    assert dot == graph_to_dot(reduction_graph(parse_term("(\\x:bot. x) y"), 10))


def test_fuel_must_be_positive():
    with pytest.raises(ValueError):
        explore_sn(var("x"), 0)
    with pytest.raises(ValueError):
        reduction_graph(var("x"), 0)


def test_deep_binder_chain_in_a_fresh_process():
    # built from tuples, so the parser's own depth plays no part; the
    # fresh process starts at the interpreter's default recursion limit
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    code = (
        "from lambdamu.analysis import explore_sn\n"
        "t = ('app', ('lam', 'y', None, ('var', 'y')), ('var', 'x'))\n"
        "for _ in range(2000):\n"
        "    t = ('lam', 'x', None, t)\n"
        "print(explore_sn(t, 1000))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "StronglyNormalizing(eta=1, graph_nodes=2)\n"


def test_what_parses_does_not_depend_on_an_earlier_exploration():
    # one fresh process: the explorers raise the recursion limit only
    # while they run, so a nest too deep to parse before exploring stays
    # too deep after it
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from lambdamu import analysis\n"
        "from lambdamu.syntax import ParseError, parse_term\n"
        "text = '(' * 2000 + 'v' + ')' * 2000\n"
        "def outcome():\n"
        "    try:\n"
        "        parse_term(text)\n"
        "    except ParseError:\n"
        "        return 'ParseError'\n"
        "    return 'parsed'\n"
        "limit = sys.getrecursionlimit()\n"
        "print(outcome())\n"
        "t = parse_term('(\\\\x. x) ((\\\\y. y) v)')\n"
        "analysis.explore_sn(t, 10)\n"
        "analysis._search_sn(t, 10)\n"
        "analysis.reduction_graph(t, 10)\n"
        "print(outcome(), sys.getrecursionlimit() == limit)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "ParseError\nParseError True\n"


# ---- composition of variable-headed terms ---------------------------------

FUEL = 100_000


def _bench_gen():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    return gen


def _assert_same_as_search(t, fuel):
    """explore_sn(t, fuel), checked against the plain explorer run with
    no cache and no composition."""
    got = explore_sn(t, fuel)
    root = canonical(t)
    want = StronglyNormalizing(0, 1) if is_normal_form(root) else analysis._explore(root, fuel)[0]
    assert repr(got) == repr(want), print_term(t)
    return got


@pytest.mark.parametrize("seed", [1, 2])
def test_composition_matches_search_on_a_terms_round(seed):
    # as the benchmark runs it: one cache for the whole round
    analysis.clear_sn_cache()
    for item in _bench_gen().typed_terms(seed):
        t = parse_term(item.text)
        assert analysis._compose(canonical(t), FUEL) is not None, print_term(t)
        assert isinstance(_assert_same_as_search(t, FUEL), StronglyNormalizing)


def test_composed_work_is_the_total_size_of_the_graph():
    analysis.clear_sn_cache()
    for item in _bench_gen().typed_terms(1):
        t = parse_term(item.text)
        status, work = analysis._compose(canonical(t), FUEL)
        g = reduction_graph(t, FUEL)
        assert status.graph_nodes == len(g.nodes)
        assert work == sum(term_size(n) for n in g.nodes), item.text


def test_composition_falls_back_on_the_catalog_and_loop_variants():
    # the grower at fuel 2,000, where its search costs well under a second
    analysis.clear_sn_cache()
    for _, term in non_sn_catalog():
        assert not isinstance(_assert_same_as_search(term, 2000), StronglyNormalizing)
    gen = _bench_gen()
    catalog = [(p.stem, p.read_text(encoding="utf-8")) for p in _catalog_files()]
    loops = [d for d in gen.divergent_terms(1, catalog) if d.loops]
    assert len(loops) > 10
    for d in loops:
        assert isinstance(_assert_same_as_search(parse_term(d.text), d.fuel), NotSN)


def _catalog_files():
    import lambdamu

    return sorted((Path(lambdamu.__file__).parent / "catalog").glob("*.lmu"))


def test_a_product_over_the_fuel_is_the_explorers_unknown():
    # two components of 3 nodes each: 9 > fuel >= 3
    t = parse_term("f ((\\x. x) ((\\x. x) v)) ((\\x. x) ((\\x. x) w))")
    for fuel in (3, 8):
        assert analysis._compose(canonical(t), fuel) is None
        assert _assert_same_as_search(t, fuel) == Unknown(fuel)
    assert analysis._compose(canonical(t), 9) == (StronglyNormalizing(4, 9), 99)
    assert _assert_same_as_search(t, 9) == StronglyNormalizing(4, 9)


def test_a_product_past_the_work_allowance_is_the_explorers_unknown():
    # 100 nodes of over 80 AST nodes each: within fuel 200, but past its
    # work allowance of 8,000
    gen = _bench_gen()
    pad = "g (" * 30 + "v" + ")" * 30
    t = parse_term(f"f ({pad}) ({gen.chain_text('M2', 'v')}) ({gen.chain_text('M2', 'w')})")
    assert analysis._compose(canonical(t), 200) is None
    assert _assert_same_as_search(t, 200) == Unknown(90)
    assert analysis._compose(canonical(t), 300) == (StronglyNormalizing(10, 100), 8860)
    assert _assert_same_as_search(t, 300) == StronglyNormalizing(10, 100)


@pytest.mark.parametrize(
    "text",
    [
        # nested variable heads under lambda and mu binders
        "\\a. mu b. f (g (\\c. h ((\\x. x) c) ((\\x. x) ((\\y. y) a)))) ((\\y. b y) b)",
        "mu q. q (\\u. f (u ((\\x. x) v)) (\\w. g ((mu k. k w) v)))",
        # annotated binders, a mu redex among the leaves
        "\\a:bot. f ((\\x:bot. x) a) ((mu k:(bot->bot). k (\\y:bot. y)) a)",
        # a leaf with the free name x0 once the root is canonical: its
        # own canonical form takes the renaming that avoids x0
        "\\a. f ((\\x. x) a) ((\\x. x a) a)",
    ],
)
def test_composition_matches_search_on_nested_heads(text):
    t = parse_term(text)
    analysis.clear_sn_cache()
    assert analysis._compose(canonical(t), FUEL) is not None
    assert isinstance(_assert_same_as_search(t, FUEL), StronglyNormalizing)


def test_a_leaf_with_a_free_x0_is_renamed_around_it():
    root = canonical(parse_term("\\a. f ((\\x. x) a) ((\\x. x a) a)"))
    leaf = root[3][1][2]
    assert print_term(leaf) == "(\\x1. x1) x0"
    assert print_term(canonical(leaf)) == "(\\x1. x1) x0"


def test_a_not_sn_leaf_next_to_an_sn_leaf():
    t = parse_term("f ((\\x. x) v) ((\\x. x x) (\\x. x x))")
    analysis.clear_sn_cache()
    assert analysis._compose(canonical(t), FUEL) is None
    st = _assert_same_as_search(t, FUEL)
    assert isinstance(st, NotSN)

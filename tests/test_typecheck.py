import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from conftest import terms
from lambdamu.syntax import parse_term, parse_type
from lambdamu.terms import arrow, free_vars
from lambdamu.typecheck import (
    TypeCheckError,
    check_subject_reduction,
    connective_count,
    derivation_lines,
    infer,
)


def test_connective_count():
    assert connective_count(parse_type("bot")) == 0
    assert connective_count(parse_type("bot->bot")) == 1
    assert connective_count(parse_type("(bot->bot)->bot")) == 2
    # the negation encoding costs exactly one connective
    for t in ("bot", "bot->bot", "(bot->bot)->bot"):
        a = parse_type(t)
        assert connective_count(arrow(a, "bot")) == 1 + connective_count(a)


def test_infer_identity():
    assert infer({}, parse_term("\\x:bot. x")) == parse_type("bot->bot")


def test_infer_double_negation_elimination():
    # hand derivation: x applied to y under x:(bot->bot)->bot, y:bot->bot
    t = parse_term("\\x:((bot->bot)->bot). mu y:bot. (x y)")
    assert infer({}, t) == parse_type("((bot->bot)->bot)->bot")


def test_infer_mu_application():
    t = parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v")
    assert infer({"v": "bot"}, t) == "bot"


def test_error_kinds():
    f = {"f": parse_type("bot->bot->bot"), "v": parse_type("bot")}
    cases = [
        ("\\x. x", {}, "unannotated-binder", ()),
        ("x", {}, "unbound-variable", ()),
        ("x y", {"x": parse_type("bot"), "y": parse_type("bot")}, "not-an-arrow", ()),
        ("x y", {"x": parse_type("(bot->bot)->bot"), "y": parse_type("bot")}, "argument-mismatch", ()),
        ("mu x:bot. x", {}, "mu-body-not-bot", ()),
        # the path to a failure on an application spine
        ("v v v", f, "not-an-arrow", ("fun",)),
        ("f v (\\x. x) v", f, "unannotated-binder", ("fun", "arg")),
        ("f (f v v) u v", f, "unbound-variable", ("fun", "arg")),
        ("f v (f v) v", f, "argument-mismatch", ("fun",)),
        ("\\y:bot. mu k:bot. k (f y y y)", f, "not-an-arrow", ("lam", "mu", "arg")),
        ("(\\y:bot. y) v v", f, "not-an-arrow", ()),
        ("(\\y. y) v v", f, "unannotated-binder", ("fun", "fun")),
    ]
    for text, ctx, kind, path in cases:
        with pytest.raises(TypeCheckError) as err:
            infer(ctx, parse_term(text))
        assert (err.value.kind, err.value.path) == (kind, path), text


def test_shadowing():
    t = parse_term("\\x:bot. \\x:(bot->bot). x")
    assert infer({}, t) == parse_type("bot->(bot->bot)->bot->bot")


@given(terms)
def test_weakening(t):
    try:
        ty = infer({"v": "bot"}, t)
    except TypeCheckError:
        return
    if "fresh_w" in free_vars(t):
        return
    wider = {"v": "bot", "fresh_w": parse_type("bot->bot")}
    assert infer(wider, t) == ty


def test_derivation_rule_names():
    lines = derivation_lines({"v": "bot"}, parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v"))
    rules = [line.strip().split()[0] for line in lines]
    assert rules == ["->e", "bot_c", "->e", "ax", "->i", "ax", "ax"]
    assert lines[0].startswith("->e  v:bot |- ")


def test_subject_reduction_normal_form():
    report = check_subject_reduction({}, parse_term("\\x:bot. x"), 10)
    assert report.edges_checked == 0 and report.ok and report.complete


def test_subject_reduction_beta():
    report = check_subject_reduction({"y": "bot"}, parse_term("(\\x:bot. x) y"), 10)
    assert report.edges_checked == 1 and report.ok
    assert report.root_type == "bot"


def test_subject_reduction_mu_graph():
    t = parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v")
    report = check_subject_reduction({"v": "bot"}, t, 100)
    assert report.ok and report.complete
    assert report.root_type == "bot"
    assert report.edges_checked >= 3


def test_subject_reduction_requires_typed_root():
    with pytest.raises(TypeCheckError):
        check_subject_reduction({}, parse_term("\\x. x"), 5)


def test_subject_reduction_on_a_cut_graph_is_incomplete():
    t = parse_term("(\\x:bot. x) ((\\x:bot. x) y)")
    report = check_subject_reduction({"y": "bot"}, t, 1)
    assert not report.complete and report.ok
    assert (report.nodes_checked, report.edges_checked) == (1, 0)
    assert check_subject_reduction({"y": "bot"}, t, 3).complete


def test_subject_reduction_of_a_deep_reduct_in_a_fresh_process():
    # a fresh process at the default recursion limit: the explorer
    # decides the term, and typing its 1,200-deep reduct walks the
    # binder chain
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    code = (
        "from lambdamu.analysis import explore_sn\n"
        "from lambdamu.syntax import parse_term\n"
        "from lambdamu.typecheck import check_subject_reduction\n"
        "c = ' -> '.join(['bot'] * 601)\n"
        "t = parse_term(f'(\\\\h:{c}. ' + ''.join(f'\\\\a{i}:bot. ' for i in range(600))\n"
        "               + 'h) (' + ''.join(f'\\\\b{i}:bot. ' for i in range(600)) + 'v)')\n"
        "print(explore_sn(t, 1000))\n"
        "r = check_subject_reduction({'v': 'bot'}, t, 1000)\n"
        "print(r.ok, r.nodes_checked, r.edges_checked, r.complete)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "StronglyNormalizing(eta=1, graph_nodes=2)\nTrue 2 1 True\n"


def test_subject_reduction_lists_each_edge_into_a_mistyped_node(monkeypatch):
    from lambdamu import analysis

    real = analysis.one_step_reducts
    strays = {parse_term("\\x0:bot. x0"), parse_term("y y")}

    def with_strays(t):
        out = real(t)
        return out | strays if out else out

    monkeypatch.setattr(analysis, "one_step_reducts", with_strays)
    t = parse_term("(\\x:bot. x) ((\\x:bot. x) y)")
    report = check_subject_reduction({"y": "bot"}, t, 10)
    assert report.complete and (report.nodes_checked, report.edges_checked) == (5, 6)
    root, middle = "(\\x0:bot. x0) ((\\x1:bot. x1) y)", "(\\x0:bot. x0) y"
    assert report.violations == [
        (root, "\\x0:bot. x0", "bot -> bot"),
        (root, "y y", "not-an-arrow"),
        (middle, "\\x0:bot. x0", "bot -> bot"),
        (middle, "y y", "not-an-arrow"),
    ]

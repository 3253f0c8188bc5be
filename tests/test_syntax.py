import sys

import pytest
from hypothesis import given

from conftest import terms, type_exprs
from lambdamu.syntax import (
    ParseError,
    format_type,
    parse_context,
    parse_term,
    parse_type,
    print_context,
    print_term,
)
from lambdamu.terms import app, arrow, lam, mu, var


def test_parse_lambda():
    assert parse_term("\\x:bot. x") == lam("x", "bot", var("x"))


def test_parse_mu_redex():
    got = parse_term("(mu x:(bot->bot). (x (\\w:bot. w))) v")
    expected = app(
        mu("x", arrow("bot", "bot"), app(var("x"), lam("w", "bot", var("w")))),
        var("v"),
    )
    assert got == expected


def test_application_is_left_associative():
    assert parse_term("x y z") == app(app(var("x"), var("y")), var("z"))


def test_binder_body_extends_right():
    assert parse_term("\\x. x y") == lam("x", None, app(var("x"), var("y")))
    assert parse_term("mu x. x y") == mu("x", None, app(var("x"), var("y")))


def test_print_examples():
    assert print_term(lam("x", "bot", var("x"))) == "\\x:bot. x"
    assert print_term(app(app(var("x"), var("y")), var("z"))) == "x y z"
    assert print_term(mu("y", "bot", app(var("y"), var("v")))) == "mu y:bot. y v"


def test_unicode_aliases():
    assert parse_term("λx. x") == lam("x", None, var("x"))
    assert parse_term("μx. x") == mu("x", None, var("x"))


def test_comments_and_whitespace():
    text = "-- a comment\n  (\\x. -- binder\n x) -- done\n"
    assert parse_term(text) == lam("x", None, var("x"))


def test_primed_identifiers():
    assert parse_term("x' y''") == app(var("x'"), var("y''"))


def test_type_parsing_right_associative():
    assert parse_type("bot->bot->bot") == arrow("bot", arrow("bot", "bot"))
    assert parse_type("(bot->bot)->bot") == arrow(arrow("bot", "bot"), "bot")


def test_format_type():
    assert format_type(arrow("bot", "bot")) == "bot -> bot"
    assert format_type(arrow(arrow("bot", "bot"), "bot")) == "(bot -> bot) -> bot"
    assert format_type(arrow("bot", arrow("bot", "bot")), compact=True) == "bot->bot->bot"


@pytest.mark.parametrize(
    "bad",
    [
        "(x y",          # unbalanced parenthesis
        "x ?",           # unknown token
        "\\x",           # dangling binder
        "\\x.",          # dangling binder: missing body
        "mu. x",         # keyword where a binder name is expected
        "\\bot. x",      # keyword used as a binder
        "x bot",         # keyword used as identifier
        "",              # no term at all
        "x y)",          # trailing input
    ],
)
def test_parse_errors_carry_spans(bad):
    with pytest.raises(ParseError) as err:
        parse_term(bad)
    span = err.value.span
    assert 0 <= span.start <= span.end <= len(bad.encode("utf-8")) + 1


def test_span_is_byte_based():
    # the lambda sign is two bytes in utf-8; the error follows it
    with pytest.raises(ParseError) as err:
        parse_term("λx")
    assert err.value.span.start >= 2


@pytest.mark.parametrize(
    "parse, make",
    [
        (parse_term, lambda n: "(" * n + "x" + ")" * n),
        (parse_type, lambda n: "(" * n + "bot" + ")" * n),
    ],
    ids=["term", "type"],
)
def test_nesting_past_the_recursion_limit_is_a_parse_error(parse, make):
    text = make(sys.getrecursionlimit())
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse(text)
    span = err.value.span
    # the token the parser had reached when it ran out of stack
    assert 0 < span.start < span.end <= len(text)
    assert text[span.start] == "("


def test_context_round_trip():
    ctx = parse_context("v:bot, f:bot->bot")
    assert ctx == {"v": "bot", "f": arrow("bot", "bot")}
    assert print_context(ctx) == "f:bot->bot, v:bot"
    assert parse_context("") == {}


def test_context_rejects_a_repeated_name():
    with pytest.raises(ParseError, match="duplicate name 'x'"):
        parse_context("x:bot, x:bot->bot")


@pytest.mark.parametrize("text, word", [
    ("  v:bot,  x:bot, x:bot", "x"),  # the repeated name
    ("v:bot, mu:bot", "mu"),
    ("v:bot, λ:bot", "λ"),  # a span of two bytes
    ("v:bot, f:(bot", "("),  # the unbalanced parenthesis
])
def test_context_error_spans_are_byte_offsets_into_the_text(text, word):
    with pytest.raises(ParseError) as err:
        parse_context(text)
    span = err.value.span
    assert text.encode("utf-8")[span.start : span.end] == word.encode("utf-8")


def test_annotation_with_arrow_round_trips():
    t = lam("z", arrow("bot", "bot"), var("z"))
    assert print_term(t) == "\\z:bot->bot. z"
    assert parse_term(print_term(t)) == t


def test_lambda_argument_needs_parens():
    t = app(var("f"), lam("x", None, var("x")))
    assert print_term(t) == "f (\\x. x)"
    assert parse_term(print_term(t)) == t
    with pytest.raises(ParseError):
        parse_term("f \\x. x")


@given(terms)
def test_round_trip_is_syntactic_identity(t):
    assert parse_term(print_term(t)) == t


@given(type_exprs)
def test_type_round_trip(t):
    assert parse_type(format_type(t)) == t
    assert parse_type(format_type(t, compact=True)) == t

"""Concrete syntax for terms and types.

Grammar (UTF-8 text, `--` starts a line comment):

    term   ::= '\\' ident (':' type)? '.' term      lambda abstraction
             | 'mu' ident (':' type)? '.' term      mu abstraction
             | atom+                                application, left-assoc
    atom   ::= ident | '(' term ')'
    type   ::= tatom ('->' type)?                   right-associative
    tatom  ::= 'bot' | '(' type ')'

Binder bodies extend maximally to the right.  `mu` and `bot` are
reserved words.  Unicode λ and μ are accepted as input aliases for
'\\' and 'mu'; output is ASCII.  print_term round-trips exactly:
parse_term(print_term(t)) == t.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .terms import APP, ARROW, BOT, LAM, MU, VAR, Term, TypeExpr

RESERVED = ("mu", "bot")

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>--[^\n]*)
    | (?P<arrow>->)
    | (?P<lam>[\\λ])
    | (?P<muuni>μ)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<colon>:)
    | (?P<dot>\.)
    """,
    re.VERBOSE,
)


class SourceSpan(NamedTuple):
    """Byte offsets into the input text."""

    start: int
    end: int


class ParseError(Exception):
    def __init__(self, message: str, text: str, start: int, end: int):
        self.message = message
        self.span = SourceSpan(
            len(text[:start].encode("utf-8")), len(text[:end].encode("utf-8"))
        )
        super().__init__(f"{message} (at bytes {self.span.start}..{self.span.end})")


class _Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


def _tokenize(text: str, pos: int, n: int) -> list[_Token]:
    """The tokens of text[pos:n], with offsets into the whole text."""
    tokens = []
    while pos < n:
        m = _TOKEN_RE.match(text, pos, n)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", text, pos, pos + 1)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            word = m.group()
            if kind == "ident" and word == "mu":
                kind = "mu"
            elif kind == "ident" and word == "bot":
                kind = "bot"
            elif kind == "muuni":
                kind = "mu"
            tokens.append(_Token(kind, word, m.start(), m.end()))
        pos = m.end()
    tokens.append(_Token("eof", "", n, n))
    return tokens


class _Parser:
    def __init__(self, text: str, start: int, end: int):
        self.text = text
        self.tokens = _tokenize(text, start, end)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, self.text, tok.start, max(tok.end, tok.start + 1))

    def ident(self, role: str) -> str:
        tok = self.peek()
        if tok.kind in ("mu", "bot"):
            self.fail(f"keyword {tok.text!r} used as {role}", tok)
        if tok.kind != "ident":
            self.fail(f"expected {role}", tok)
        return self.next().text

    # ---- types ----

    def type_(self) -> TypeExpr:
        left = self.type_atom()
        if self.peek().kind == "arrow":
            self.next()
            return (ARROW, left, self.type_())
        return left

    def type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "bot":
            self.next()
            return BOT
        if tok.kind == "lparen":
            self.next()
            inner = self.type_()
            if self.peek().kind != "rparen":
                self.fail("unbalanced parenthesis in type", tok)
            self.next()
            return inner
        self.fail("expected a type", tok)

    # ---- terms ----

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind in ("lam", "mu"):
            tag = LAM if tok.kind == "lam" else MU
            self.next()
            name = self.ident("binder")
            annot = None
            if self.peek().kind == "colon":
                self.next()
                annot = self.type_()
            if self.peek().kind != "dot":
                self.fail("dangling binder: expected '.'")
            self.next()
            if self.peek().kind in ("eof", "rparen"):
                self.fail("dangling binder: missing body")
            return (tag, name, annot, self.term())
        return self.application()

    def application(self) -> Term:
        t = self.atom()
        while self.peek().kind in ("ident", "lparen"):
            t = (APP, t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return (VAR, tok.text)
        if tok.kind == "lparen":
            self.next()
            inner = self.term()
            if self.peek().kind != "rparen":
                self.fail("unbalanced parenthesis", tok)
            self.next()
            return inner
        if tok.kind in ("mu", "bot"):
            self.fail(f"keyword {tok.text!r} used as identifier", tok)
        if tok.kind in ("lam",):
            self.fail("abstraction must be parenthesized here", tok)
        self.fail("expected a term", tok)


def parse_term(text: str) -> Term:
    """Parse a term; raises ParseError with a byte span on failure,
    also when the nesting is deeper than the recursion limit allows."""
    return _parse(text, _Parser.term, "term")


def parse_type(text: str) -> TypeExpr:
    return _parse(text, _Parser.type_, "type")


def _parse(text: str, rule, what: str, start: int = 0, end: Optional[int] = None):
    """Parse text[start:end] by `rule`; error spans point into the whole
    text."""
    p = _Parser(text, start, len(text) if end is None else end)
    try:
        t = rule(p)
    except RecursionError:
        p.fail(f"{what} nested too deeply")
    if p.peek().kind != "eof":
        p.fail("unexpected trailing input")
    return t


def format_type(t: TypeExpr, compact: bool = False) -> str:
    """Render a type; arrows are right-associative, minimal parentheses."""
    sep = "->" if compact else " -> "

    def go(t: TypeExpr) -> str:
        if t == BOT:
            return "bot"
        try:
            dom, cod = t[1], t[2]
        except IndexError:
            # a metavariable ("?", k) of a principal typing
            return f"?{t[1]}"
        left = go(dom)
        if dom != BOT:
            left = f"({left})"
        return f"{left}{sep}{go(cod)}"

    return go(t)


def _annot(t: TypeExpr) -> str:
    return format_type(t, compact=True)


def print_term(t: Term) -> str:
    """Render a term with minimal parentheses; exact round trip."""
    return _print(t, 0)


def _print(t: Term, level: int) -> str:
    # level 0: top or binder body; 1: function position; 2: argument position
    tag = t[0]
    if tag == VAR:
        return t[1]
    if tag == APP:
        fun = t[1]
        if fun[0] == APP:
            # a longer spine, in a loop: a function part that is itself
            # an application never needs parentheses
            parts = [_print(t[2], 2)]
            while fun[0] == APP:
                parts.append(_print(fun[2], 2))
                fun = fun[1]
            parts.append(_print(fun, 1))
            parts.reverse()
            s = " ".join(parts)
        else:
            s = f"{_print(fun, 1)} {_print(t[2], 2)}"
        return f"({s})" if level > 1 else s
    head = "\\" if tag == LAM else "mu "
    if t[2] is None:
        s = f"{head}{t[1]}. {_print(t[3], 0)}"
    else:
        s = f"{head}{t[1]}:{_annot(t[2])}. {_print(t[3], 0)}"
    return f"({s})" if level > 0 else s


def print_context(ctx) -> str:
    """Render a typing context, sorted by name: ``x:bot, y:bot->bot``."""
    return ", ".join(f"{name}:{_annot(ty)}" for name, ty in sorted(ctx.items()))


def parse_context(text: str) -> dict[str, TypeExpr]:
    """Parse comma-separated ``name:type`` pairs (the --context format).
    Error spans point into `text`: at the whole pair when it has no
    colon, at the name when the name is wrong, else into the type."""
    ctx: dict[str, TypeExpr] = {}
    if not text.strip():
        return ctx
    start = 0
    for part in text.split(","):
        end = start + len(part)
        head, colon, _ = part.partition(":")
        name = head.strip()
        first = start + len(head) - len(head.lstrip())
        last = first + len(name)
        if not colon:
            raise ParseError("expected name:type", text, first, last)
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", name) or name in RESERVED:
            raise ParseError(f"bad variable name {name!r}", text, first, last)
        if name in ctx:
            raise ParseError(f"duplicate name {name!r}", text, first, last)
        ctx[name] = _parse(text, _Parser.type_, "type", start + len(head) + 1, end)
        start = end + 1
    return ctx

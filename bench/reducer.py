"""The benchmark's own lambda-mu reducer, written apart from the program.

It reads the program's concrete syntax with a parser of its own and
works on de Bruijn terms, where alpha-equivalent terms are equal
tuples, so the alpha-quotiented reduction graph is a plain set of
tuples.  The output checks of every workload compare the program's
verdicts against it.

Terms (annotations are kept: the quotient compares them too):

    ("b", i)              bound variable, de Bruijn index i
    ("f", name)           free variable
    ("L", annot, body)    lambda
    ("M", annot, body)    mu; annot is the result type
    ("A", fun, arg)       application

Types are "bot" or ("->", domain, codomain); annot may be None.

Rules, with y and z fresh:

    (\\x. M) N   ->  M[x := N]
    (mu x. M) N ->  mu y. M[x := \\z. y (z N)]

When the contracted mu binder is annotated A -> B the new mu binder
gets B and the new lambda gets A -> B; otherwise both stay unannotated.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

BOT = "bot"

_TOKEN = re.compile(
    r"\s+|--[^\n]*|(->)|([\\λ])|(μ)|([A-Za-z_][A-Za-z0-9_']*)|([().:])"
)


def _tokens(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character {text[pos]!r} at {pos}")
        pos = m.end()
        if m.group(1):
            out.append("->")
        elif m.group(2):
            out.append("\\")
        elif m.group(3):
            out.append("mu")
        elif m.group(4):
            out.append(m.group(4))
        elif m.group(5):
            out.append(m.group(5))
    return out


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want or 'a token'}, got {tok!r}")
        self.i += 1
        return tok

    def type_(self):
        if self.peek() == "(":
            self.take("(")
            left = self.type_()
            self.take(")")
        else:
            self.take("bot")
            left = BOT
        if self.peek() == "->":
            self.take("->")
            return ("->", left, self.type_())
        return left

    def term(self, env: tuple[str, ...]):
        tok = self.peek()
        if tok in ("\\", "mu"):
            self.take()
            name = self.take()
            annot = None
            if self.peek() == ":":
                self.take(":")
                annot = self.type_()
            self.take(".")
            return ("L" if tok == "\\" else "M", annot, self.term((name,) + env))
        t = self.atom(env)
        while self.peek() not in (None, ")"):
            t = ("A", t, self.atom(env))
        return t

    def atom(self, env: tuple[str, ...]):
        tok = self.take()
        if tok == "(":
            t = self.term(env)
            self.take(")")
            return t
        if tok in ("\\", "mu", ".", ":", ")", "->", "bot"):
            raise ValueError(f"unexpected {tok!r}")
        return ("b", env.index(tok)) if tok in env else ("f", tok)


def parse(text: str):
    """The de Bruijn term of a term written in the program's syntax."""
    r = _Reader(text)
    t = r.term(())
    if r.peek() is not None:
        raise ValueError(f"trailing input at {r.peek()!r}")
    return t


def _shift(t, d: int, cutoff: int):
    tag = t[0]
    if tag == "b":
        return ("b", t[1] + d) if t[1] >= cutoff else t
    if tag == "f":
        return t
    if tag == "A":
        return ("A", _shift(t[1], d, cutoff), _shift(t[2], d, cutoff))
    return (tag, t[1], _shift(t[2], d, cutoff + 1))


def _beta(t, arg, depth: int):
    """body[0 := arg], removing the binder; `depth` binders lie between
    the removed binder and t."""
    tag = t[0]
    if tag == "b":
        i = t[1]
        if i == depth:
            return _shift(arg, depth, 0)
        return ("b", i - 1) if i > depth else t
    if tag == "f":
        return t
    if tag == "A":
        return ("A", _beta(t[1], arg, depth), _beta(t[2], arg, depth))
    return (tag, t[1], _beta(t[2], arg, depth + 1))


def _mu(t, arg, depth: int, lam_annot):
    """Replace the mu-bound variable by \\z. y (z arg), where the new mu
    binder y takes the old binder's place (no index moves)."""
    tag = t[0]
    if tag == "b":
        if t[1] != depth:
            return t
        inner = ("A", ("b", 0), _shift(arg, depth + 2, 0))
        return ("L", lam_annot, ("A", ("b", depth + 1), inner))
    if tag == "f":
        return t
    if tag == "A":
        return ("A", _mu(t[1], arg, depth, lam_annot), _mu(t[2], arg, depth, lam_annot))
    return (tag, t[1], _mu(t[2], arg, depth + 1, lam_annot))


def contract(redex):
    """Contract a redex (an application whose function is a binder)."""
    fun, arg = redex[1], redex[2]
    annot, body = fun[1], fun[2]
    if fun[0] == "L":
        return _beta(body, arg, 0)
    if isinstance(annot, tuple):
        mu_annot, lam_annot = annot[2], annot
    else:
        mu_annot = lam_annot = None
    return ("M", mu_annot, _mu(body, arg, 0, lam_annot))


def reducts(t) -> set:
    """Every one-step reduct of t, at every position."""
    out = set()
    _reducts(t, out, lambda r: r)
    return out


def _reducts(t, out: set, wrap) -> None:
    tag = t[0]
    if tag == "A":
        fun, arg = t[1], t[2]
        if fun[0] in ("L", "M"):
            out.add(wrap(contract(t)))
        _reducts(fun, out, lambda r: wrap(("A", r, arg)))
        _reducts(arg, out, lambda r: wrap(("A", fun, r)))
    elif tag in ("L", "M"):
        _reducts(t[2], out, lambda r: wrap((tag, t[1], r)))


class Exploration(NamedTuple):
    """The whole alpha-quotiented graph from a root, or the first cycle.

    nodes: distinct terms reached; eta: the longest reduction (None when
    a cycle was met or the node limit stopped the search); cycle: True
    when some reduction path returns to a term on it."""

    nodes: int
    eta: Optional[int]
    cycle: bool
    complete: bool


def explore(root, limit: int = 200_000) -> Exploration:
    """Depth-first search with on-path cycle detection and the longest
    path computed on the way back."""
    grey, done = {root}, {}
    children = {root: list(reducts(root))}
    stack = [(root, 0)]
    while stack:
        node, i = stack[-1]
        kids = children[node]
        if i == len(kids):
            done[node] = 1 + max(done[k] for k in kids) if kids else 0
            grey.discard(node)
            stack.pop()
            continue
        stack[-1] = (node, i + 1)
        kid = kids[i]
        if kid in grey:
            return Exploration(len(children), None, True, False)
        if kid in children:
            continue
        if len(children) >= limit:
            return Exploration(len(children), None, False, False)
        grey.add(kid)
        children[kid] = list(reducts(kid))
        stack.append((kid, 0))
    return Exploration(len(children), done[root], False, True)


def reachable(root, limit: int) -> int:
    """How many distinct terms are reachable from root (cycles allowed);
    stops counting at limit + 1."""
    seen = {root}
    todo = [root]
    while todo and len(seen) <= limit:
        for kid in reducts(todo.pop()):
            if kid not in seen:
                seen.add(kid)
                todo.append(kid)
    return len(seen)

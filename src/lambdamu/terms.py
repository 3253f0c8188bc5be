"""Terms and types of the lambda-mu calculus.

Terms are immutable tagged tuples, so they hash, compare and share
structure for free:

    ("var", name)
    ("lam", name, annot, body)     annot: type or None
    ("mu",  name, annot, body)     annot records the result type
    ("app", fun, arg)

Types are "bot" or ("->", domain, codomain).  Negation is not a
constructor; not-A is represented as ("->", A, "bot").
"""

from __future__ import annotations

from typing import AbstractSet, Mapping, Optional, Union

VAR = "var"
LAM = "lam"
MU = "mu"
APP = "app"

BOT = "bot"
ARROW = "->"

TypeExpr = Union[str, tuple]
Term = tuple


def var(name: str) -> Term:
    return (VAR, name)


def lam(name: str, annot: Optional[TypeExpr], body: Term) -> Term:
    return (LAM, name, annot, body)


def mu(name: str, annot: Optional[TypeExpr], body: Term) -> Term:
    return (MU, name, annot, body)


def app(fun: Term, arg: Term) -> Term:
    return (APP, fun, arg)


def arrow(dom: TypeExpr, cod: TypeExpr) -> TypeExpr:
    return (ARROW, dom, cod)


def neg(t: TypeExpr) -> TypeExpr:
    """The encoding of negation: t -> bot."""
    return (ARROW, t, BOT)


def free_vars(t: Term) -> frozenset[str]:
    """The set of variables with a free occurrence in t."""
    tag = t[0]
    if tag == VAR:
        return frozenset((t[1],))
    if tag == APP:
        return free_vars(t[1]) | free_vars(t[2])
    # lam or mu
    return free_vars(t[3]) - {t[1]}


def term_size(t: Term) -> int:
    """Number of AST nodes (every var, lam, mu and app node counts 1)."""
    # a loop down spines and binder chains; only arguments that are not
    # variables recurse
    n = 1
    tag = t[0]
    while tag != VAR:
        if tag == APP:
            arg = t[2]
            n += 2 if arg[0] == VAR else 1 + term_size(arg)
            t = t[1]
        else:
            n += 1
            t = t[3]
        tag = t[0]
    return n


def free_occurrences(t: Term, name: str) -> int:
    """How many free occurrences of `name` appear in t."""
    tag = t[0]
    if tag == VAR:
        return 1 if t[1] == name else 0
    if tag == APP:
        return free_occurrences(t[1], name) + free_occurrences(t[2], name)
    if t[1] == name:
        return 0
    return free_occurrences(t[3], name)


def fresh_name(base: str, avoid) -> str:
    """The first of base, base', base'', ... not in `avoid`."""
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of `replacement` for free `name` in t.

    Binders are renamed (with fresh_name) only when they would actually
    capture a free variable of the replacement.
    """
    return substitute_parallel(t, {name: replacement})


def substitute_parallel(t: Term, subs: Mapping[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution.

    All bindings apply in parallel: x[x:=y, y:=x] is y, never x.
    Variables outside the domain are untouched.
    """
    if not subs:
        return t
    return _subst(t, dict(subs))


def _subst(t: Term, subs: dict[str, Term]) -> Term:
    tag = t[0]
    if tag == VAR:
        return subs.get(t[1], t)
    if tag == APP:
        fun = _subst(t[1], subs)
        arg = _subst(t[2], subs)
        if fun is t[1] and arg is t[2]:
            return t
        return (APP, fun, arg)
    # lam or mu
    binder, annot, body = t[1], t[2], t[3]
    body_free = free_vars(body)
    live = {x: n for x, n in subs.items() if x != binder and x in body_free}
    if not live:
        return t
    captured = any(binder in free_vars(n) for n in live.values())
    if captured:
        avoid = set(body_free) | set(live)
        for image in live.values():
            avoid |= free_vars(image)
        renamed = fresh_name(binder, avoid)
        live[binder] = (VAR, renamed)
        return (tag, renamed, annot, _subst(body, live))
    return (tag, binder, annot, _subst(body, live))


# The variables x0, x1, ... that canonical forms bind, made once and
# shared by every canonical form.
_NUMBERED: list[Term] = []


class CanonicalTerm(tuple):
    """A canonical form whose numbering is plain: its binders are x0,
    x1, ... in pre-order and none of its free names starts with x.  It
    is the same tuple, equal to it, hashed and printed like it; the type
    only records what `canonical` found, so that `canonical` can return
    it as it is and `reduction.one_step_reducts` can number its reducts
    without walking them whole."""

    __slots__ = ()


def canonical(t: Term) -> Term:
    """The canonical representative of t's alpha-equivalence class.

    Binders are renamed x0, x1, ... in pre-order, skipping names that
    occur free anywhere in t.  Two terms are alpha-equivalent exactly
    when their canonical forms are equal; annotations take part in the
    comparison.

    The numbering is `number_binders`'s, which avoids t's free names
    only when one of them collides with a number it handed out.  When
    no free name of t starts with x, nothing is skipped, and the result
    is a `CanonicalTerm`; otherwise it is a plain tuple.  A
    `CanonicalTerm` is returned as it is.
    """
    if type(t) is CanonicalTerm:
        return t
    # One pass numbers the binders and collects the free names; only
    # when a free name is one of the numbers handed out is the term
    # renamed again around its free names.
    out, count, free = number_binders(t, 0)
    if any(name.startswith("x") for name in free):
        if not free.isdisjoint("x%d" % i for i in range(count)):
            return number_binders(t, 0, free)[0]
        return out
    return CanonicalTerm(out)


def number_binders(
    t: Term, start: int, avoid: AbstractSet[str] = frozenset()
) -> tuple[Term, int, set[str]]:
    """t with its binders renamed x<start>, x<start+1>, ... in pre-order,
    skipping the names in `avoid`, the number after the last one handed
    out or skipped, and t's free names.

    Free names are kept as they are, so the result is alpha-equivalent
    to t when no free name is one of the numbers handed out.  With
    `avoid` holding t's free names it is canonical(t); with a wider
    `avoid` it is t under the variable convention: alpha-equivalent,
    every binder distinct and outside `avoid`."""
    free: set[str] = set()
    count = start

    def walk(t: Term, env: dict[str, Term]) -> Term:
        nonlocal count
        tag = t[0]
        if tag == VAR:
            leaf = env.get(t[1])
            if leaf is None:
                free.add(t[1])
                return t
            return leaf
        if tag == APP:
            fun = t[1]
            if fun[0] != APP:
                return (APP, walk(fun, env), walk(t[2], env))
            head = fun[1]
            if head[0] != APP:  # two arguments: the common spine
                return (APP, (APP, walk(head, env), walk(fun[2], env)), walk(t[2], env))
            # a longer spine: a loop, head first, so its length never recurses
            args = [t[2], fun[2]]
            while head[0] == APP:
                args.append(head[2])
                head = head[1]
            out = walk(head, env)
            for arg in reversed(args):
                out = (APP, out, walk(arg, env))
            return out
        binder = t[1]
        while True:
            while count >= len(_NUMBERED):
                _NUMBERED.append((VAR, "x%d" % len(_NUMBERED)))
            leaf = _NUMBERED[count]
            count += 1
            if leaf[1] not in avoid:
                break
        outer = env.get(binder)
        env[binder] = leaf
        body = walk(t[3], env)
        if outer is None:
            del env[binder]
        else:
            env[binder] = outer
        return (tag, leaf[1], t[2], body)

    out = walk(t, {})
    return out, count, free


def alpha_eq(a: Term, b: Term) -> bool:
    """True iff a and b differ only in bound names (annotations matter)."""
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, enva: dict[str, int], envb: dict[str, int], depth: int) -> bool:
    taga = a[0]
    if taga != b[0]:
        return False
    if taga == VAR:
        ra = enva.get(a[1])
        rb = envb.get(b[1])
        if ra is None and rb is None:
            return a[1] == b[1]
        return ra == rb
    if taga == APP:
        return _alpha(a[1], b[1], enva, envb, depth) and _alpha(a[2], b[2], enva, envb, depth)
    if a[2] != b[2]:
        return False
    return _alpha(a[3], b[3], {**enva, a[1]: depth}, {**envb, b[1]: depth}, depth + 1)


def strip_annotations(t: Term) -> Term:
    """t with every binder annotation removed."""
    tag = t[0]
    if tag == VAR:
        return t
    if tag == APP:
        return (APP, strip_annotations(t[1]), strip_annotations(t[2]))
    return (tag, t[1], None, strip_annotations(t[3]))

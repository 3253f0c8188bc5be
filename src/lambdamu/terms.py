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

from typing import Iterator, Mapping, Optional, Union

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


def is_arrow(t: TypeExpr) -> bool:
    return isinstance(t, tuple)


def is_binder(t: Term) -> bool:
    return t[0] == LAM or t[0] == MU


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
    tag = t[0]
    if tag == VAR:
        return 1
    if tag == APP:
        return 1 + term_size(t[1]) + term_size(t[2])
    return 1 + term_size(t[3])


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


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of t in pre-order, t itself included."""
    yield t
    tag = t[0]
    if tag == APP:
        yield from subterms(t[1])
        yield from subterms(t[2])
    elif tag != VAR:
        yield from subterms(t[3])


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


def canonical(t: Term) -> Term:
    """The canonical representative of t's alpha-equivalence class.

    Binders are renamed x0, x1, ... in pre-order, skipping names that
    occur free anywhere in t.  Two terms are alpha-equivalent exactly
    when their canonical forms are equal; annotations take part in the
    comparison.
    """
    avoid = free_vars(t)
    counter = [0]

    def next_name() -> str:
        while True:
            name = "x%d" % counter[0]
            counter[0] += 1
            if name not in avoid:
                return name

    def walk(t: Term, env: dict[str, str]) -> Term:
        tag = t[0]
        if tag == VAR:
            name = t[1]
            return (VAR, env.get(name, name))
        if tag == APP:
            return (APP, walk(t[1], env), walk(t[2], env))
        name = next_name()
        return (tag, name, t[2], walk(t[3], {**env, t[1]: name}))

    return walk(t, {})


def rename_binders_apart(t: Term, avoid) -> Term:
    """t, alpha-equivalent, with every binder renamed (by fresh_name) to
    a name outside `avoid`, outside the free variables of t, and unlike
    every other binder: the variable convention."""
    taken = set(avoid) | free_vars(t)

    def walk(t: Term, env: dict[str, str]) -> Term:
        tag = t[0]
        if tag == VAR:
            return (VAR, env.get(t[1], t[1]))
        if tag == APP:
            return (APP, walk(t[1], env), walk(t[2], env))
        name = fresh_name(t[1], taken)
        taken.add(name)
        return (tag, name, t[2], walk(t[3], {**env, t[1]: name}))

    return walk(t, {})


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

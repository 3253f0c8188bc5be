"""Church-style type checking.

The four rules, one per constructor, driven by binder annotations:

    ax      x gets its context type
    ->i     \\x:A. P : A -> B        when P : B under x:A
    ->e     M N : B                 when M : A -> B and N : A
    bot_c   mu x:A. P : A           when P : bot under x:A->bot

Contexts are plain dicts from names to types; extension shadows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .analysis import reduction_graph
from .syntax import format_type, print_context, print_term
from .terms import APP, ARROW, BOT, LAM, MU, VAR, Term, TypeExpr

Context = dict[str, TypeExpr]

UNANNOTATED_BINDER = "unannotated-binder"
UNBOUND_VARIABLE = "unbound-variable"
NOT_AN_ARROW = "not-an-arrow"
ARGUMENT_MISMATCH = "argument-mismatch"
MU_BODY_NOT_BOT = "mu-body-not-bot"


class TypeCheckError(Exception):
    """Raised when no typing rule applies; `kind` names the failing rule."""

    def __init__(self, kind: str, path: tuple[str, ...], detail: str):
        self.kind = kind
        self.path = path
        self.detail = detail
        at = ".".join(path) if path else "root"
        super().__init__(f"{kind} at {at}: {detail}")


def connective_count(t: TypeExpr) -> int:
    """Number of arrows in a type: 0 for bot, 1 + both sides for arrows."""
    if t == BOT:
        return 0
    return 1 + connective_count(t[1]) + connective_count(t[2])


def infer(ctx: Mapping[str, TypeExpr], t: Term) -> TypeExpr:
    """The unique type derivable for t under ctx; raises TypeCheckError."""
    try:
        return _infer(dict(ctx), t)
    except _Untypable as err:
        path = tuple(step for steps in reversed(err.steps) for step in steps)
        raise TypeCheckError(err.kind, path, err.detail) from None


class _Untypable(Exception):
    """A failing rule inside `_infer`.  `steps` collects the path to the
    failure on the way out, innermost part first, so that no path is
    built while typing succeeds."""

    def __init__(self, kind: str, detail: str, at: tuple[str, ...] = ()):
        self.kind = kind
        self.detail = detail
        self.steps = [at]


def _infer(ctx: Context, t: Term) -> TypeExpr:
    tag = t[0]
    if tag == VAR:
        ty = ctx.get(t[1])
        if ty is None:
            raise _Untypable(UNBOUND_VARIABLE, f"variable {t[1]!r} not in context")
        return ty
    if tag == APP:
        # the application spine in a loop, innermost argument last; an
        # argument still on the list after a pop sits at path fun^len(args)
        args = [t[2]]
        t = t[1]
        while t[0] == APP:
            args.append(t[2])
            t = t[1]
        try:
            ty = _infer(ctx, t)
        except _Untypable as err:
            err.steps.append(("fun",) * len(args))
            raise
        while args:
            arg = args.pop()
            # bot, or a metavariable when the annotations come from a principal typing
            if ty[0] != ARROW:
                raise _Untypable(
                    NOT_AN_ARROW, f"function part has type {format_type(ty)}", ("fun",) * len(args)
                )
            try:
                arg_ty = _infer(ctx, arg)
            except _Untypable as err:
                err.steps.append(("fun",) * len(args) + ("arg",))
                raise
            if arg_ty != ty[1]:
                raise _Untypable(
                    ARGUMENT_MISMATCH,
                    f"expected {format_type(ty[1])}, argument has {format_type(arg_ty)}",
                    ("fun",) * len(args),
                )
            ty = ty[2]
        return ty
    name, annot, body = t[1], t[2], t[3]
    if annot is None:
        raise _Untypable(UNANNOTATED_BINDER, f"binder {name!r} has no annotation")
    if tag == LAM:
        try:
            body_ty = _infer({**ctx, name: annot}, body)
        except _Untypable as err:
            err.steps.append((LAM,))
            raise
        return (ARROW, annot, body_ty)
    # mu: the annotation is the result type, the binder stands for its negation
    try:
        body_ty = _infer({**ctx, name: (ARROW, annot, BOT)}, body)
    except _Untypable as err:
        err.steps.append((MU,))
        raise
    if body_ty != BOT:
        raise _Untypable(MU_BODY_NOT_BOT, f"mu body has type {format_type(body_ty)}")
    return annot


_RULE_NAMES = {VAR: "ax", APP: "->e", LAM: "->i", MU: "bot_c"}


def derivation_lines(ctx: Mapping[str, TypeExpr], t: Term) -> list[str]:
    """One line per AST node: rule name, context, judgement (for --explain)."""
    lines: list[str] = []

    def walk(ctx: Context, t: Term, depth: int) -> None:
        ty = infer(ctx, t)
        ctx_str = print_context(ctx)
        turnstile = f"{ctx_str} |- " if ctx_str else "|- "
        lines.append(
            f"{'  ' * depth}{_RULE_NAMES[t[0]]}  {turnstile}"
            f"{print_term(t)} : {format_type(ty)}"
        )
        tag = t[0]
        if tag == APP:
            walk(ctx, t[1], depth + 1)
            walk(ctx, t[2], depth + 1)
        elif tag == LAM:
            walk({**ctx, t[1]: t[2]}, t[3], depth + 1)
        elif tag == MU:
            walk({**ctx, t[1]: (ARROW, t[2], BOT)}, t[3], depth + 1)

    walk(dict(ctx), t, 0)
    return lines


@dataclass
class SubjectReductionReport:
    """Outcome of exploring a term's reducts and re-checking their types."""

    root_type: TypeExpr
    nodes_checked: int
    edges_checked: int
    complete: bool
    violations: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_subject_reduction(
    ctx: Mapping[str, TypeExpr], t: Term, fuel: int
) -> SubjectReductionReport:
    """Type every node of t's reduction graph (`reduction_graph`, cut at
    `fuel` nodes) and report each edge into a node whose type is not
    t's: (source, reduct, the reduct's type or the failing rule)."""
    root_type = infer(ctx, t)
    g = reduction_graph(t, fuel)
    wrong: dict[Term, str] = {}
    for node in g.nodes:
        try:
            ty = infer(ctx, node)
        except TypeCheckError as err:
            wrong[node] = err.kind
            continue
        if ty != root_type:
            wrong[node] = format_type(ty)
    violations = sorted(
        (print_term(src), print_term(dst), wrong[dst]) for src, dst in g.edges if dst in wrong
    )
    return SubjectReductionReport(
        root_type, len(g.nodes), len(g.edges), g.complete, violations
    )

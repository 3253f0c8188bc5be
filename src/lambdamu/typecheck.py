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
    return _infer(dict(ctx), t, ())


def _infer(ctx: Context, t: Term, path: tuple[str, ...]) -> TypeExpr:
    tag = t[0]
    if tag == VAR:
        ty = ctx.get(t[1])
        if ty is None:
            raise TypeCheckError(UNBOUND_VARIABLE, path, f"variable {t[1]!r} not in context")
        return ty
    if tag == APP:
        fun_ty = _infer(ctx, t[1], path + ("fun",))
        # bot, or a metavariable when the annotations come from a principal typing
        if fun_ty[0] != ARROW:
            raise TypeCheckError(
                NOT_AN_ARROW, path, f"function part has type {format_type(fun_ty)}"
            )
        arg_ty = _infer(ctx, t[2], path + ("arg",))
        if arg_ty != fun_ty[1]:
            raise TypeCheckError(
                ARGUMENT_MISMATCH,
                path,
                f"expected {format_type(fun_ty[1])}, argument has {format_type(arg_ty)}",
            )
        return fun_ty[2]
    name, annot, body = t[1], t[2], t[3]
    if annot is None:
        raise TypeCheckError(UNANNOTATED_BINDER, path, f"binder {name!r} has no annotation")
    if tag == LAM:
        body_ty = _infer({**ctx, name: annot}, body, path + ("lam",))
        return (ARROW, annot, body_ty)
    # mu: the annotation is the result type, the binder stands for its negation
    body_ty = _infer({**ctx, name: (ARROW, annot, BOT)}, body, path + ("mu",))
    if body_ty != BOT:
        raise TypeCheckError(
            MU_BODY_NOT_BOT, path, f"mu body has type {format_type(body_ty)}"
        )
    return annot


_RULE_NAMES = {VAR: "ax", APP: "->e", LAM: "->i", MU: "bot_c"}


def derivation_lines(ctx: Mapping[str, TypeExpr], t: Term) -> list[str]:
    """One line per AST node: rule name, context, judgement (for --explain)."""
    lines: list[str] = []

    def walk(ctx: Context, t: Term, depth: int) -> None:
        ty = _infer(ctx, t, ())
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

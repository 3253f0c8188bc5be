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

from .syntax import format_type, print_context, print_term
from .terms import APP, ARROW, BOT, LAM, MU, VAR, Term, TypeExpr, canonical

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
    ctx: Mapping[str, TypeExpr], t: Term, max_steps: int
) -> SubjectReductionReport:
    """Breadth-first over the alpha-quotiented reducts of t, to depth
    max_steps, verifying that every reachable term keeps the root's type.
    """
    from .reduction import one_step_reducts

    root_type = infer(ctx, t)
    root = canonical(t)
    seen = {root}
    frontier = [root]
    nodes = 1
    edges = 0
    complete = False
    violations: list[tuple[str, str, str]] = []
    for _ in range(max_steps):
        if not frontier:
            break
        next_frontier = []
        for node in frontier:
            for reduct in sorted(one_step_reducts(node), key=print_term):
                edges += 1
                try:
                    ty = infer(ctx, reduct)
                    if ty != root_type:
                        violations.append(
                            (print_term(node), print_term(reduct), format_type(ty))
                        )
                except TypeCheckError as err:
                    violations.append((print_term(node), print_term(reduct), err.kind))
                if reduct not in seen:
                    seen.add(reduct)
                    nodes += 1
                    next_frontier.append(reduct)
        frontier = next_frontier
    if not frontier:
        complete = True
    return SubjectReductionReport(root_type, nodes, edges, complete, violations)

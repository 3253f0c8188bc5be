"""The two cut-elimination rules and the machinery around them.

A logical cut (beta redex) contracts by substitution:

    (\\x. M) N  ->  M[x:=N]

A classical cut (mu redex) re-routes the argument under the binder:

    (mu x. M) N  ->  mu y. M[x := \\z. y (z N)]      y, z fresh

Reduction is allowed at every position, including under binders.
Positions are paths of steps among "lam", "mu", "fun", "arg".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .syntax import print_term
from .terms import (
    APP,
    ARROW,
    LAM,
    MU,
    VAR,
    Term,
    canonical,
    free_vars,
    fresh_name,
    substitute,
)

Path = tuple[str, ...]


class NotARedexError(ValueError):
    pass


class InvalidPositionError(ValueError):
    pass


@dataclass(frozen=True)
class HeadForm:
    """Decomposition of a term into binder prefix, head and spine.

    The head is either a variable node or a redex (an application whose
    function part is an abstraction).  Reassembling prefix, head and
    spine gives back the original term syntactically.
    """

    prefix: tuple[tuple[str, str, Optional[tuple]], ...]
    head: Term
    spine: tuple[Term, ...]

    @property
    def head_is_variable(self) -> bool:
        return self.head[0] == VAR

    def reassemble(self) -> Term:
        t = self.head
        for arg in self.spine:
            t = (APP, t, arg)
        for kind, name, annot in reversed(self.prefix):
            t = (kind, name, annot, t)
        return t


def head_form(t: Term) -> HeadForm:
    """Strip the maximal binder prefix and flatten the application spine."""
    prefix = []
    while t[0] == LAM or t[0] == MU:
        prefix.append((t[0], t[1], t[2]))
        t = t[3]
    spine = []
    while t[0] == APP:
        spine.append(t[2])
        t = t[1]
    spine.reverse()
    if t[0] == VAR:
        return HeadForm(tuple(prefix), t, tuple(spine))
    # t is an abstraction with at least one spine element: the head redex
    return HeadForm(tuple(prefix), (APP, t, spine[0]), tuple(spine[1:]))


def is_redex(t: Term) -> bool:
    return t[0] == APP and (t[1][0] == LAM or t[1][0] == MU)


def contract_redex(t: Term, avoid: Iterable[str] = ()) -> Term:
    """Contract a top-level redex.

    For a mu redex the two fresh binders are drawn from the bases y and z,
    avoiding the free variables of both subterms plus `avoid`.  When the
    contracted binder carries an arrow annotation A -> B, the fresh mu
    binder gets B and the fresh lambda binder gets A -> B; otherwise both
    stay unannotated.
    """
    if not is_redex(t):
        raise NotARedexError(print_term(t))
    fun, q = t[1], t[2]
    binder, annot, body = fun[1], fun[2], fun[3]
    if fun[0] == LAM:
        return substitute(body, binder, q)
    taken = set(free_vars(body)) | set(free_vars(q)) | set(avoid)
    y = fresh_name("y", taken)
    z = fresh_name("z", taken | {y})
    if isinstance(annot, tuple) and annot[0] == ARROW:
        mu_annot, lam_annot = annot[2], annot
    else:
        mu_annot = lam_annot = None
    wrapper = (LAM, z, lam_annot, (APP, (VAR, y), (APP, (VAR, z), q)))
    return (MU, y, mu_annot, substitute(body, binder, wrapper))


def redex_positions(t: Term) -> list[Path]:
    """All redex positions in leftmost-outermost document order."""
    out: list[Path] = []

    def walk(t: Term, path: Path) -> None:
        tag = t[0]
        if tag == VAR:
            return
        if tag == APP:
            if t[1][0] == LAM or t[1][0] == MU:
                out.append(path)
            walk(t[1], path + ("fun",))
            walk(t[2], path + ("arg",))
        else:
            walk(t[3], path + ("lam" if tag == LAM else "mu",))

    walk(t, ())
    return out


def is_normal_form(t: Term) -> bool:
    tag = t[0]
    if tag == VAR:
        return True
    if tag == APP:
        if t[1][0] == LAM or t[1][0] == MU:
            return False
        return is_normal_form(t[1]) and is_normal_form(t[2])
    return is_normal_form(t[3])


def reduce_at(t: Term, path: Path) -> Term:
    """Contract the redex addressed by `path`, leaving the rest untouched."""

    def walk(t: Term, i: int, binders: tuple[str, ...]) -> Term:
        if i == len(path):
            if not is_redex(t):
                raise InvalidPositionError(f"no redex at {'.'.join(path) or 'root'}")
            return contract_redex(t, binders)
        step = path[i]
        tag = t[0]
        if step == "fun" and tag == APP:
            return (APP, walk(t[1], i + 1, binders), t[2])
        if step == "arg" and tag == APP:
            return (APP, t[1], walk(t[2], i + 1, binders))
        if step == "lam" and tag == LAM or step == "mu" and tag == MU:
            return (tag, t[1], t[2], walk(t[3], i + 1, binders + (t[1],)))
        raise InvalidPositionError(
            f"step {step!r} does not match the term at {'.'.join(path[:i]) or 'root'}"
        )

    return walk(t, 0, ())


def one_step_reducts(t: Term) -> set[Term]:
    """Canonical forms of all one-step reducts; alpha-duplicates collapse."""
    return {canonical(reduce_at(t, p)) for p in redex_positions(t)}


def head_reduce(t: Term) -> Optional[Term]:
    """Contract the head redex, if any (None on head normal forms)."""
    hf = head_form(t)
    if hf.head_is_variable:
        return None
    prefix_names = tuple(name for _, name, _ in hf.prefix)
    contracted = contract_redex(hf.head, prefix_names)
    return HeadForm(hf.prefix, contracted, hf.spine).reassemble()


def _head_redex_path(t: Term) -> Path:
    hf = head_form(t)
    path = tuple(("lam" if kind == LAM else "mu") for kind, _, _ in hf.prefix)
    return path + ("fun",) * len(hf.spine)


def arg_terms(t: Term) -> set[Term]:
    """The head-form argument set: spine elements for a variable head,
    abstraction and argument of the redex plus the remaining spine
    otherwise.  The redex's abstraction is taken whole, so no part has a
    binder of the redex free.  Returned as canonical forms (duplicates
    collapse)."""
    hf = head_form(t)
    if hf.head_is_variable:
        parts = hf.spine
    else:
        redex = hf.head
        parts = (redex[1], redex[2]) + hf.spine
    return {canonical(p) for p in parts}


@dataclass(frozen=True)
class TraceStep:
    path: Path
    term: Term


@dataclass(frozen=True)
class Trace:
    """A reduction run: the start term, the steps fired, and whether the
    run stopped at a (head) normal form rather than at the step limit."""

    start: Term
    steps: tuple[TraceStep, ...]
    finished: bool

    @property
    def final(self) -> Term:
        return self.steps[-1].term if self.steps else self.start


STRATEGIES = ("head", "leftmost-outermost", "lo", "random")


def reduce_with_strategy(
    t: Term, strategy: str, max_steps: int, seed: int = 0
) -> Trace:
    """Run at most max_steps reduction steps under the given strategy.

    `head` fires the head redex until head normal form;
    `leftmost-outermost` (alias `lo`) fires the first redex position;
    `random` picks a position uniformly, deterministically per seed.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    steps: list[TraceStep] = []
    current = t
    finished = False
    for _ in range(max_steps):
        if strategy == "head":
            hf = head_form(current)
            if hf.head_is_variable:
                finished = True
                break
            path = _head_redex_path(current)
        else:
            positions = redex_positions(current)
            if not positions:
                finished = True
                break
            if strategy == "random":
                path = positions[rng.randrange(len(positions))]
            else:
                path = positions[0]
        current = reduce_at(current, path)
        steps.append(TraceStep(path, current))
    else:
        # ran out of budget; note whether we happen to be done anyway
        if strategy == "head":
            finished = head_form(current).head_is_variable
        else:
            finished = not redex_positions(current)
    return Trace(t, tuple(steps), finished)


def format_trace(trace: Trace) -> str:
    """One line per step: index, dot-separated path, printed term."""
    lines = []
    for i, step in enumerate(trace.steps):
        path = ".".join(step.path) if step.path else "-"
        lines.append(f"{i}\t{path}\t{print_term(step.term)}")
    return "\n".join(lines)

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
from typing import Iterable, Iterator, Optional

from .syntax import print_term
from .terms import (
    APP,
    ARROW,
    LAM,
    MU,
    VAR,
    CanonicalTerm,
    Term,
    canonical,
    free_vars,
    fresh_name,
    number_binders,
    substitute,
)

Path = tuple[str, ...]


class NotARedexError(ValueError):
    pass


class InvalidPositionError(ValueError):
    pass


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


def _redexes(t: Term) -> Iterator[tuple[list[tuple[str, Term]], Term]]:
    """Every redex of t in leftmost-outermost document order, as
    (frames, redex).  `frames` holds one (step, node) pair per node on
    the way from the root down to the redex: the node and the step taken
    out of it.  The list is reused, so read it before drawing the next
    redex.

    Function sides and binder bodies are entered in a loop; only
    arguments wait on an explicit stack, so spines and binder chains of
    any depth are walked without recursion.  Steps are recorded, never
    recovered by comparing children: substitution can share one object
    between both sides of an application."""
    frames: list[tuple[str, Term]] = []
    # (how many frames lead to the argument's parent, the frame into the
    # argument, argument)
    todo: list[tuple[int, Optional[tuple[str, Term]], Term]] = [(0, None, t)]
    while todo:
        depth, frame, node = todo.pop()
        del frames[depth:]
        if frame is not None:
            frames.append(frame)
        while True:
            tag = node[0]
            if tag == APP:
                fun, arg = node[1], node[2]
                fun_tag = fun[0]
                if fun_tag == LAM or fun_tag == MU:
                    yield frames, node
                if arg[0] != VAR:
                    todo.append((len(frames), ("arg", node), arg))
                if fun_tag == VAR:
                    break
                frames.append(("fun", node))
                node = fun
            elif tag == VAR or node[3][0] == VAR:
                break
            else:
                frames.append((tag, node))
                node = node[3]


def _contract_in(frames: list[tuple[str, Term]], redex: Term) -> Term:
    """The whole term, with `redex` (reached through `frames`)
    contracted; the binders above it are avoided by the fresh names of
    the mu rule."""
    binders = (node[1] for step, node in frames if step == LAM or step == MU)
    t = contract_redex(redex, binders)
    for step, node in reversed(frames):
        if step == "fun":
            t = (APP, t, node[2])
        elif step == "arg":
            t = (APP, node[1], t)
        else:
            t = (step, node[1], node[2], t)
    return t


def redex_positions(t: Term) -> list[Path]:
    """All redex positions in leftmost-outermost document order."""
    return [tuple(step for step, _ in frames) for frames, _ in _redexes(t)]


def is_normal_form(t: Term) -> bool:
    return next(_redexes(t), None) is None


def reduce_at(t: Term, path: Path) -> Term:
    """Contract the redex addressed by `path`, leaving the rest untouched."""
    frames = []
    for i, step in enumerate(path):
        tag = t[0]
        if tag == APP and step in ("fun", "arg"):
            frames.append((step, t))
            t = t[1] if step == "fun" else t[2]
        elif tag == step and tag in (LAM, MU):
            frames.append((step, t))
            t = t[3]
        else:
            raise InvalidPositionError(
                f"step {step!r} does not match the term at {'.'.join(path[:i]) or 'root'}"
            )
    if not is_redex(t):
        raise InvalidPositionError(f"no redex at {'.'.join(path) or 'root'}")
    return _contract_in(frames, t)


def one_step_reducts(t: Term) -> set[Term]:
    """Canonical forms of all one-step reducts; alpha-duplicates collapse.
    One walk of t finds every redex; each reduct is rebuilt along the
    path to its redex, so it shares every subterm off that path with t.

    When t is a `CanonicalTerm`, each reduct is built canonical, and
    marked so, without a walk of the whole reduct (`_canonical_reduct`);
    any other t has each reduct put through `canonical`."""
    if type(t) is CanonicalTerm:
        return {_canonical_reduct(frames, redex) for frames, redex in _redexes(t)}
    return {canonical(_contract_in(frames, redex)) for frames, redex in _redexes(t)}


def _canonical_reduct(frames: list[tuple[str, Term]], redex: Term) -> CanonicalTerm:
    """canonical(_contract_in(frames, redex)) for a redex of a
    `CanonicalTerm`, reached through `frames`.

    The reduct's free names are among the term's, so none starts with x,
    and its canonical form is its binders numbered in pre-order.  The
    binders before the redex (above it, and left of its path) keep
    their numbers.  The contractum is numbered from the redex's own
    binder number k.  The arguments right of the path, which come after
    the redex in pre-order, are renumbered only when the contractum
    binds a different number of names than the redex did; the first
    binder among them tells by its old number, so the redex's binders
    are never counted."""
    k = int(redex[1][1][1:])
    # the binders above need no avoiding: each is an x<i>, and the fresh
    # names of the mu rule start with y and z
    t, end, _ = number_binders(contract_redex(redex), k)
    # the new number minus the old one of the binders right of the path;
    # None until an argument holding a binder is met
    shift: Optional[int] = None
    for step, node in reversed(frames):
        if step == "fun":
            arg = node[2]
            if shift is None and arg[0] != VAR:
                first = _first_binder(arg)
                if first is not None:
                    shift = end - first
            if shift:
                arg, end, _ = number_binders(arg, end)
            t = (APP, t, arg)
        elif step == "arg":
            t = (APP, node[1], t)
        else:
            t = (step, node[1], node[2], t)
    return CanonicalTerm(t)


def _first_binder(t: Term) -> Optional[int]:
    """The number of the first binder of a canonical t in pre-order, or
    None when t binds nothing."""
    todo = [t]
    while todo:
        t = todo.pop()
        while t[0] == APP:
            todo.append(t[2])
            t = t[1]
        if t[0] != VAR:
            return int(t[1][1:])
    return None


def head_reduce(t: Term) -> Optional[Term]:
    """Contract the head redex, if any (None on head normal forms).
    The head redex is the leftmost-outermost one when its path enters
    no argument."""
    frames, redex = next(_redexes(t), (None, None))
    if redex is None or any(step == "arg" for step, _ in frames):
        return None
    return _contract_in(frames, redex)


def arg_terms(t: Term) -> set[Term]:
    """The head-form argument set: spine elements for a variable head,
    abstraction and argument of the redex plus the remaining spine
    otherwise.  The redex's abstraction is taken whole, so no part has a
    binder of the redex free.  Returned as canonical forms (duplicates
    collapse)."""
    while t[0] == LAM or t[0] == MU:
        t = t[3]
    parts = []
    while t[0] == APP:
        parts.append(t[2])
        t = t[1]
    if t[0] != VAR:
        parts.append(t)
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


STRATEGIES = ("head", "lo", "leftmost-outermost", "random")


def _next_path(t: Term, strategy: str, rng: random.Random) -> Optional[Path]:
    """The path the strategy fires next in t, or None where it stops."""
    positions = redex_positions(t)
    if not positions:
        return None
    if strategy == "random":
        return positions[rng.randrange(len(positions))]
    if strategy == "head" and "arg" in positions[0]:
        return None
    return positions[0]


def reduce_with_strategy(
    t: Term, strategy: str, max_steps: int, seed: int = 0
) -> Trace:
    """Run at most max_steps reduction steps under the given strategy.

    `head` fires the head redex until head normal form, that is the
    leftmost-outermost redex until that one sits inside an argument;
    `leftmost-outermost` (alias `lo`) fires the first redex position;
    `random` picks a position uniformly, deterministically per seed.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    steps: list[TraceStep] = []
    current = t
    for _ in range(max_steps):
        path = _next_path(current, strategy, rng)
        if path is None:
            break
        current = reduce_at(current, path)
        steps.append(TraceStep(path, current))
    return Trace(t, tuple(steps), _next_path(current, strategy, rng) is None)


def format_trace(trace: Trace) -> str:
    """One line per step: index, dot-separated path, printed term."""
    lines = []
    for i, step in enumerate(trace.steps):
        path = ".".join(step.path) if step.path else "-"
        lines.append(f"{i}\t{path}\t{print_term(step.term)}")
    return "\n".join(lines)

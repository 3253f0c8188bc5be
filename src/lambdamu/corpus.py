"""Corpus machinery behind the lemma suites.

Three views of "every well-typed term within bounds":

* an honest per-instance enumerator (used directly at small sizes and as
  the reference the other two are tested against),
* an exact instance count via dynamic programming over context
  multisets (annotations and variable names never need to be spelled
  out to count derivations),
* the annotation-erased shape quotient: reduction never reads
  annotations, so strong normalization, reduction length and graph
  shape are decided once per erased shape.  The scan generates only
  typeable shapes: a goal type goes down each shape through one
  unifier whose bindings are undone on backtracking, so a subtree whose
  constraints fail is never completed (after Tarau, "On Type-directed
  Generation of Lambda Terms", ICLP 2015 TC).  Per-shape instance
  counts come from counting the annotation assignments compatible with
  the shape's principal binder types, once per distinct pattern of
  them.  The generator spells each shape as the compact pre-order code
  its scan entry keeps, decoded on demand, and the entry keeps the
  binder types the scan unified, so the sweeps neither parse a shape
  nor type it again.

Subject reduction does depend on annotations, so the sweep over the
full corpus runs symbolically: shapes are annotated with their
principal type expressions (metavariables allowed, as the scan
recorded them) and typed through the kernel's
`check_subject_reduction`, whose equality checks are syntactic, so a
success covers all concrete annotation instances at once.  A root that
fails to type, or any reduct that fails to type or whose type differs
from the root's, sends the shape to an exact per-instance check, which
is the only source of reported violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .syntax import print_term
from .terms import (
    APP,
    ARROW,
    BOT,
    LAM,
    MU,
    VAR,
    Term,
    TypeExpr,
    fresh_name,
)
from .typecheck import TypeCheckError, check_subject_reduction, connective_count

META = "?"


# ---------------------------------------------------------------------------
# type enumeration


def enumerate_types(max_lgt: int) -> list[TypeExpr]:
    """All types with at most max_lgt arrows, fewest arrows first; within
    one arrow count, domains with fewer arrows come first."""

    def exactly(k: int) -> list[TypeExpr]:
        if k == 0:
            return [BOT]
        out = []
        for dk in range(k):
            for dom in exactly(dk):
                for cod in exactly(k - 1 - dk):
                    out.append((ARROW, dom, cod))
        return out

    out: list[TypeExpr] = []
    for k in range(max_lgt + 1):
        out.extend(exactly(k))
    return out


# ---------------------------------------------------------------------------
# per-instance enumeration

CtxItems = tuple[tuple[str, TypeExpr], ...]


def _binder_names(ctx_names, depth_limit: int, base: str) -> list[str]:
    return [fresh_name(f"{base}{d}", ctx_names) for d in range(depth_limit)]


def _enum_exact(
    ctx: CtxItems,
    n: int,
    depth: int,
    goal: Optional[TypeExpr],
    universe: list[TypeExpr],
    names: list[str],
    lgt_bound: int,
) -> Iterator[tuple[Term, TypeExpr]]:
    """All annotated terms of exactly n nodes (of type `goal` if given),
    binder names fixed by depth, annotations bounded by lgt_bound."""
    if n == 1:
        for name, ty in ctx:
            if goal is None or ty == goal:
                yield (VAR, name), ty
        return
    b = names[depth]
    # lambda
    if goal is None:
        for annot in universe:
            ctx2 = ctx + ((b, annot),)
            for body, bty in _enum_exact(ctx2, n - 1, depth + 1, None, universe, names, lgt_bound):
                yield (LAM, b, annot, body), (ARROW, annot, bty)
    elif isinstance(goal, tuple):
        annot, want = goal[1], goal[2]
        if connective_count(annot) <= lgt_bound:
            ctx2 = ctx + ((b, annot),)
            for body, _ in _enum_exact(ctx2, n - 1, depth + 1, want, universe, names, lgt_bound):
                yield (LAM, b, annot, body), goal
    # mu: the annotation is the term's own type
    if goal is None:
        for annot in universe:
            ctx2 = ctx + ((b, (ARROW, annot, BOT)),)
            for body, _ in _enum_exact(ctx2, n - 1, depth + 1, BOT, universe, names, lgt_bound):
                yield (MU, b, annot, body), annot
    elif connective_count(goal) <= lgt_bound:
        ctx2 = ctx + ((b, (ARROW, goal, BOT)),)
        for body, _ in _enum_exact(ctx2, n - 1, depth + 1, BOT, universe, names, lgt_bound):
            yield (MU, b, goal, body), goal
    # application: function part enumerated freely, argument goal-directed
    for n1 in range(1, n - 1):
        n2 = n - 1 - n1
        for fun, fty in _enum_exact(ctx, n1, depth, None, universe, names, lgt_bound):
            if not isinstance(fty, tuple):
                continue
            if goal is not None and fty[2] != goal:
                continue
            for arg, _ in _enum_exact(ctx, n2, depth, fty[1], universe, names, lgt_bound):
                yield (APP, fun, arg), fty[2]


def enumerate_well_typed(
    ctx: Mapping[str, TypeExpr], max_cxty: int, lgt_bound: int
) -> Iterator[tuple[Term, TypeExpr]]:
    """Every well-typed term with size <= max_cxty and binder annotations
    of lgt <= lgt_bound, once per alpha class (binders named by depth),
    smaller terms first; deterministic order."""
    universe = enumerate_types(lgt_bound)
    items = tuple(sorted(ctx.items()))
    names = _binder_names(set(ctx), max_cxty + 1, "x")
    for n in range(1, max_cxty + 1):
        yield from _enum_exact(items, n, 0, None, universe, names, lgt_bound)


def enumerate_typed_of_type(
    ctx: Mapping[str, TypeExpr], goal: TypeExpr, max_cxty: int, lgt_bound: int
) -> Iterator[Term]:
    """Every well-typed term of the given type within the bounds."""
    universe = enumerate_types(lgt_bound)
    items = tuple(sorted(ctx.items()))
    names = _binder_names(set(ctx), max_cxty + 1, "x")
    for n in range(1, max_cxty + 1):
        for term, _ in _enum_exact(items, n, 0, goal, universe, names, lgt_bound):
            yield term


# ---------------------------------------------------------------------------
# exact instance counting (no terms materialized)


def count_typed_instances(
    ctx: Mapping[str, TypeExpr], max_cxty: int, lgt_bound: int
) -> int:
    """Number of terms enumerate_well_typed would yield, computed by DP
    over (context multiset, size).  Variable names never matter for the
    count: a var node picks one context entry of its type."""
    universe = enumerate_types(lgt_bound)
    ids: dict[TypeExpr, int] = {}
    rev: list[TypeExpr] = []

    def tid(t: TypeExpr) -> int:
        i = ids.get(t)
        if i is None:
            i = len(rev)
            ids[t] = i
            rev.append(t)
        return i

    uni = [tid(t) for t in universe]
    negs = [tid((ARROW, t, BOT)) for t in universe]
    bot = tid(BOT)
    arrows: dict[int, tuple[int, int]] = {}

    def arrow_parts(i: int) -> Optional[tuple[int, int]]:
        if i in arrows:
            return arrows[i]
        t = rev[i]
        parts = None if t == BOT else (tid(t[1]), tid(t[2]))
        arrows[i] = parts
        return parts

    memo: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}

    def counts(cms: tuple[int, ...], n: int) -> dict[int, int]:
        key = (cms, n)
        got = memo.get(key)
        if got is not None:
            return got
        out: dict[int, int] = {}
        if n == 1:
            for t in cms:
                out[t] = out.get(t, 0) + 1
        if n >= 2:
            for u, nu in zip(uni, negs):
                sub = counts(tuple(sorted(cms + (u,))), n - 1)
                for b, c in sub.items():
                    a = tid((ARROW, rev[u], rev[b]))
                    arrows.setdefault(a, (u, b))
                    out[a] = out.get(a, 0) + c
                subm = counts(tuple(sorted(cms + (nu,))), n - 1)
                c = subm.get(bot)
                if c:
                    out[u] = out.get(u, 0) + c
        if n >= 3:
            for n1 in range(1, n - 1):
                left = counts(cms, n1)
                right = counts(cms, n - 1 - n1)
                for f, cf in left.items():
                    parts = arrow_parts(f)
                    if parts is None:
                        continue
                    ca = right.get(parts[0])
                    if ca:
                        out[parts[1]] = out.get(parts[1], 0) + cf * ca
        memo[key] = out
        return out

    root = tuple(sorted(tid(t) for t in ctx.values()))
    try:
        return sum(
            sum(counts(root, n).values()) for n in range(1, max_cxty + 1)
        )
    finally:
        # `counts` calls itself through its own closure cell: a cycle
        # that would keep the memo alive until a full collection
        del counts


# ---------------------------------------------------------------------------
# untyped shapes


def _shapes_exact(n: int, depth: int, env: tuple[str, ...], names: list[str]) -> Iterator[Term]:
    if n == 1:
        for x in env:
            yield (VAR, x)
        return
    b = names[depth]
    env2 = env + (b,)
    for body in _shapes_exact(n - 1, depth + 1, env2, names):
        yield (LAM, b, None, body)
    for body in _shapes_exact(n - 1, depth + 1, env2, names):
        yield (MU, b, None, body)
    for n1 in range(1, n - 1):
        for fun in _shapes_exact(n1, depth, env, names):
            for arg in _shapes_exact(n - 1 - n1, depth, env, names):
                yield (APP, fun, arg)


def iter_shapes(free_names: tuple[str, ...], max_size: int) -> Iterator[Term]:
    """All unannotated terms, once per alpha class (binders named by
    depth), free variables drawn from free_names, smaller first."""
    names = _binder_names(set(free_names), max_size + 1, "b")
    for n in range(1, max_size + 1):
        yield from _shapes_exact(n, 0, free_names, names)


# ---------------------------------------------------------------------------
# principal typings (unification with metavariables)


class _Unifier:
    """Unification with an occurs check over type expressions whose
    leaves may be metavariables.  Every binding goes on a trail, so
    `undo(mark)` takes back all bindings made since `mark()`: a search
    binds, goes deeper and backtracks without copying the substitution.

    An expression's first item tells its kind: META for a metavariable,
    ARROW for an arrow, and the "b" of BOT."""

    __slots__ = ("sub", "n", "trail")

    def __init__(self):
        self.sub: dict = {}
        self.n = 0
        self.trail: list = []

    def fresh(self):
        self.n += 1
        return (META, self.n)

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        trail, sub = self.trail, self.sub
        while len(trail) > mark:
            del sub[trail.pop()]

    def bind(self, v, t) -> None:
        self.sub[v] = t
        self.trail.append(v)

    def find(self, t):
        sub = self.sub
        while t[0] == META:
            got = sub.get(t)
            if got is None:
                break
            t = got
        return t

    def occurs(self, v, t) -> bool:
        t = self.find(t)
        if t == v:
            return True
        if t[0] == ARROW:
            return self.occurs(v, t[1]) or self.occurs(v, t[2])
        return False

    def unify(self, a, b) -> bool:
        a = self.find(a)
        b = self.find(b)
        if a == b:
            return True
        if a[0] == META:
            if self.occurs(a, b):
                return False
            self.bind(a, b)
            return True
        if b[0] == META:
            return self.unify(b, a)
        if a == BOT or b == BOT:
            return False
        return self.unify(a[1], b[1]) and self.unify(a[2], b[2])

    def resolve(self, t):
        t = self.find(t)
        if t[0] == ARROW:
            return (ARROW, self.resolve(t[1]), self.resolve(t[2]))
        return t


@dataclass(frozen=True)
class Principal:
    """Most general typing of a shape: one type expression per binder in
    pre-order (metavariables as ("?", k) leaves) and the root type."""

    binder_types: tuple
    root_type: object


def principal_typing(shape: Term, ctx: Mapping[str, TypeExpr]) -> Optional[Principal]:
    """Unification-based inference over an unannotated shape; None when
    the shape admits no simple typing at all."""
    u = _Unifier()
    binders: list = []

    def walk(t: Term, env: dict):
        tag = t[0]
        if tag == VAR:
            return env[t[1]]
        if tag == APP:
            fty = walk(t[1], env)
            if fty is None:
                return None
            aty = walk(t[2], env)
            if aty is None:
                return None
            beta = u.fresh()
            if not u.unify(fty, (ARROW, aty, beta)):
                return None
            return beta
        tv = u.fresh()
        binders.append(tv)
        if tag == LAM:
            bty = walk(t[3], {**env, t[1]: tv})
            if bty is None:
                return None
            return (ARROW, tv, bty)
        bty = walk(t[3], {**env, t[1]: (ARROW, tv, BOT)})
        if bty is None:
            return None
        if not u.unify(bty, BOT):
            return None
        return tv

    ty = walk(shape, dict(ctx))
    if ty is None:
        return None
    return Principal(tuple(u.resolve(b) for b in binders), u.resolve(ty))


def _match_into(expr, concrete, binding: dict) -> bool:
    """Match a metavariable expression against a concrete type, extending
    `binding` consistently."""
    if expr[0] == META:
        got = binding.get(expr)
        if got is None:
            binding[expr] = concrete
            return True
        return got == concrete
    if expr == BOT:
        return concrete == BOT
    if concrete == BOT:
        return False
    return _match_into(expr[1], concrete[1], binding) and _match_into(
        expr[2], concrete[2], binding
    )


def _expr_metavars(expr, acc: dict) -> None:
    if expr[0] == META:
        acc[expr] = None
    elif expr[0] == ARROW:
        _expr_metavars(expr[1], acc)
        _expr_metavars(expr[2], acc)


def _components(exprs) -> list[list]:
    """Group binder expressions into connected components by shared
    metavariables (assignments multiply across components).  Each
    expression's metavariables are visited in order of first occurrence,
    so the components and their order do not depend on how the
    metavariables are numbered."""
    mv_of = []
    for e in exprs:
        acc: dict = {}
        _expr_metavars(e, acc)
        mv_of.append(acc)
    parent = list(range(len(exprs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict = {}
    for i, mvs in enumerate(mv_of):
        for m in mvs:
            if m in owner:
                parent[find(i)] = find(owner[m])
            else:
                owner[m] = i
    groups: dict[int, list] = {}
    for i, e in enumerate(exprs):
        groups.setdefault(find(i), []).append(e)
    return [groups[k] for k in sorted(groups)]


def _component_assignments(exprs: list, universe) -> Iterator[dict]:
    def go(i: int, binding: dict) -> Iterator[dict]:
        if i == len(exprs):
            yield binding
            return
        for u in universe:
            b2 = dict(binding)
            if _match_into(exprs[i], u, b2):
                yield from go(i + 1, b2)

    yield from go(0, {})


def assignment_count(binder_exprs, universe) -> int:
    """How many annotation vectors (each binder type in `universe`) are
    compatible with the principal binder expressions."""
    total = 1
    for comp in _components(list(binder_exprs)):
        c = sum(1 for _ in _component_assignments(comp, universe))
        if c == 0:
            return 0
        total *= c
    return total


def assignments(binder_exprs, universe) -> Iterator[dict]:
    """All compatible metavariable assignments, deterministically."""
    comps = _components(list(binder_exprs))

    def go(i: int, binding: dict) -> Iterator[dict]:
        if i == len(comps):
            yield binding
            return
        for b in _component_assignments(comps[i], universe):
            merged = dict(binding)
            merged.update(b)
            yield from go(i + 1, merged)

    yield from go(0, {})


def apply_type_subst(expr, binding: dict):
    if expr[0] == META:
        got = binding.get(expr)
        return expr if got is None else got
    if expr[0] == ARROW:
        return (ARROW, apply_type_subst(expr[1], binding), apply_type_subst(expr[2], binding))
    return expr


def annotate_shape(shape: Term, binder_types) -> Term:
    """Set binder annotations in pre-order from `binder_types`."""
    it = iter(binder_types)

    def walk(t: Term) -> Term:
        tag = t[0]
        if tag == VAR:
            return t
        if tag == APP:
            return (APP, walk(t[1]), walk(t[2]))
        ann = next(it)
        return (tag, t[1], ann, walk(t[3]))

    return walk(shape)


# ---------------------------------------------------------------------------
# the shape scan


# A shape code spells a shape in pre-order, one character per node: a
# lambda, a mu, an application, or a leaf whose character indexes the
# scan's name table.  A binder's name follows from its depth, so the
# code does not spell it.
_LAM_CODE, _MU_CODE, _APP_CODE = "\\", "^", "@"
_LEAF_BASE = ord("a")  # the leaf of names[i] is chr(_LEAF_BASE + i)


@dataclass(frozen=True, slots=True)
class ShapeNames:
    """The names one scan's shape codes refer to: the context's names
    sorted, then the binder names by depth.  The binder at depth d is
    named names[free + d]."""

    names: tuple[str, ...]
    free: int


_OPEN_APP = (APP,)


def decode_shape(code: str, table: ShapeNames) -> Term:
    """The shape a code spells: the term parse_term gives for its printed
    text, with None annotations.  One loop over the code; `stack` holds
    the nodes still open: a binder waiting for its body, an application
    waiting for its function, or one waiting for its argument."""
    names, free = table.names, table.free
    stack: list = []
    depth = 0
    for c in code:
        if c == _APP_CODE:
            stack.append(_OPEN_APP)
        elif c == _LAM_CODE or c == _MU_CODE:
            stack.append((LAM if c == _LAM_CODE else MU, names[free + depth]))
            depth += 1
        else:
            t = (VAR, names[ord(c) - _LEAF_BASE])
            while stack:
                frame = stack.pop()
                if frame is _OPEN_APP:
                    stack.append((APP, t))
                    break
                if frame[0] == APP:
                    t = (APP, frame[1], t)
                else:
                    depth -= 1
                    t = (frame[0], frame[1], None, t)
            else:
                return t
    raise ValueError(f"incomplete shape code {code!r}")


@dataclass(frozen=True, slots=True)
class ShapeEntry:
    """One realizable erased shape: its pre-order code, how many
    annotated instances it stands for, whether it is a normal form, its
    principal binder types (pre-order, metavariables numbered in order
    of first occurrence) and the scan's name table, which the code
    indexes.  Entries with equal binder types share one tuple."""

    code: str
    instances: int
    normal: bool
    binder_types: tuple
    table: ShapeNames = field(repr=False)

    @property
    def shape(self) -> Term:
        return decode_shape(self.code, self.table)

    @property
    def text(self) -> str:
        return print_term(self.shape)


@dataclass(frozen=True)
class ShapeScan:
    entries: tuple[ShapeEntry, ...]
    total_instances: int
    shapes_seen: int
    typeable: int


def _typed_shapes(n: int, env: tuple, u: _Unifier, binders: list) -> Iterator[str]:
    """The codes of the shapes of exactly n nodes that `_shapes_exact`
    yields and that have a simple typing, in the same order.  `env`
    holds one (leaf character, type) pair per name in scope, in the
    order of the scan's name table, so a binder's leaf is the character
    after the last one in scope.

    A goal type goes down the shape and each variable leaf is unified
    with its goal, so a subtree stops as soon as its constraints fail.
    At each yield `u` holds the shape's most general typing and
    `binders` its binder types in pre-order; each level undoes its own
    bindings and pops its own binders before it moves on."""

    def gen(n: int, env: tuple, goal) -> Iterator[str]:
        if n == 1:
            for leaf, ty in env:
                m = u.mark()
                if u.unify(ty, goal):
                    yield leaf
                u.undo(m)
            return
        b = chr(_LEAF_BASE + len(env))
        goal = u.find(goal)
        if goal != BOT:
            m = u.mark()
            if goal[0] == META:
                dom, cod = u.fresh(), u.fresh()
                u.bind(goal, (ARROW, dom, cod))
            else:
                dom, cod = goal[1], goal[2]
            binders.append(dom)
            for body in gen(n - 1, env + ((b, dom),), cod):
                yield _LAM_CODE + body
            binders.pop()
            u.undo(m)
        # a mu binder is annotated with the term's own type
        binders.append(goal)
        for body in gen(n - 1, env + ((b, (ARROW, goal, BOT)),), BOT):
            yield _MU_CODE + body
        binders.pop()
        for n1 in range(1, n - 1):
            dom = u.fresh()
            for fun in gen(n1, env, (ARROW, dom, goal)):
                fun = _APP_CODE + fun
                for arg in gen(n - 1 - n1, env, dom):
                    yield fun + arg

    return gen(n, env, u.fresh())


def _pattern(exprs, u: _Unifier, cons: dict) -> tuple:
    """The resolved binder types, metavariables renumbered in order of
    first occurrence: shapes whose patterns are equal have equal
    assignment counts.  Nodes are hash-consed through `cons`, which
    lives for one scan: an arrow is keyed by the identities of its
    interned parts (after Filliatre & Conchon, "Type-safe modular
    hash-consing", ML Workshop 2006)."""
    renamed: dict = {}

    def walk(t):
        t = u.find(t)
        if t[0] == META:
            got = renamed.get(t)
            if got is None:
                k = len(renamed) + 1
                got = renamed[t] = cons.setdefault(k, (META, k))
            return got
        if t == BOT:
            return BOT
        dom, cod = walk(t[1]), walk(t[2])
        key = (id(dom), id(cod))
        got = cons.get(key)
        if got is None:
            got = cons[key] = (ARROW, dom, cod)
        return got

    return tuple(walk(e) for e in exprs)


def _shape_total(free: int, max_size: int) -> int:
    """How many shapes iter_shapes yields over `free` names: S(1, k) = k
    and S(n, k) = 2 S(n-1, k+1) + sum of S(i, k) S(n-1-i, k) over the
    application splits, k being the names in scope."""
    memo: dict = {}

    def count(n: int, k: int) -> int:
        got = memo.get((n, k))
        if got is None:
            if n == 1:
                got = k
            else:
                got = 2 * count(n - 1, k + 1) + sum(
                    count(i, k) * count(n - 1 - i, k) for i in range(1, n - 1)
                )
            memo[n, k] = got
        return got

    return sum(count(n, free) for n in range(1, max_size + 1))


_scan_cache: dict = {}


def shape_scan(ctx: Mapping[str, TypeExpr], max_cxty: int, lgt_bound: int) -> ShapeScan:
    """The erased shapes over the context's names, in iter_shapes order,
    that have a principal typing realizable with annotations of lgt <=
    lgt_bound, each with its number of annotated instances.  Cached per
    configuration.

    The shapes come from one type-directed generator over one undoable
    unifier, which spells each typeable shape as its pre-order code
    over one name table for the scan and builds no term.  Each shape's
    binder types, renamed in order of first occurrence, key a memo of
    assignment counts for the scan, so each pattern is counted once;
    every entry with that pattern keeps the memo's key as its binder
    types.  A shape is normal unless some application's code is
    followed by a binder's, which is then the root of its function
    part: a redex.  `shapes_seen` counts what iter_shapes would yield,
    by recurrence."""
    key = (tuple(sorted(ctx.items())), max_cxty, lgt_bound)
    got = _scan_cache.get(key)
    if got is not None:
        return got
    universe = enumerate_types(lgt_bound)
    names = _binder_names(set(ctx), max_cxty + 1, "b")
    free = sorted(ctx)
    table = ShapeNames(tuple(free + names), len(free))
    env = tuple((chr(_LEAF_BASE + i), ctx[x]) for i, x in enumerate(free))
    u = _Unifier()
    binders: list = []
    cons: dict = {}
    counts: dict = {}
    entries = []
    total = 0
    typeable = 0
    for n in range(1, max_cxty + 1):
        for code in _typed_shapes(n, env, u, binders):
            typeable += 1
            pattern = _pattern(binders, u, cons)
            got = counts.get(pattern)
            if got is None:
                got = counts[pattern] = (pattern, assignment_count(pattern, universe))
            pattern, count = got
            if count:
                normal = _APP_CODE + _LAM_CODE not in code and _APP_CODE + _MU_CODE not in code
                entries.append(ShapeEntry(code, count, normal, pattern, table))
                total += count
    out = ShapeScan(tuple(entries), total, _shape_total(len(ctx), max_cxty), typeable)
    _scan_cache[key] = out
    return out


def clear_scan_cache() -> None:
    _scan_cache.clear()


def instances(shape: Term, binder_types, universe) -> Iterator[Term]:
    """Every concrete annotated instance of `shape`: one per assignment
    compatible with its principal binder types, in deterministic order
    (the same for any numbering of their metavariables).  A match
    against a concrete universe type binds every metavariable of the
    expression, so the annotations are ground."""
    for binding in assignments(binder_types, universe):
        yield annotate_shape(shape, [apply_type_subst(e, binding) for e in binder_types])


def materialize_instance(shape: Term, ctx: Mapping[str, TypeExpr], lgt_bound: int) -> Optional[Term]:
    """The first concrete annotated instance of a realizable shape, or
    None."""
    p = principal_typing(shape, ctx)
    if p is None:
        return None
    return next(instances(shape, p.binder_types, enumerate_types(lgt_bound)), None)


# ---------------------------------------------------------------------------
# symbolic subject reduction


@dataclass
class SrSweepResult:
    edges: int
    nodes: int
    fallbacks: int
    violations: list  # (term_text, reason)
    complete: bool = True  # False when the symbolic graph was cut at fuel


# concrete instances checked per fallback before giving up
_FALLBACK_CAP = 65536


def sr_shape_sweep(
    shape: Term,
    binder_types,
    ctx: Mapping[str, TypeExpr],
    lgt_bound: int,
    fuel: int = 100000,
) -> SrSweepResult:
    """Verify type preservation along every reduction edge of every
    annotated instance of `shape`, symbolically where possible.

    `binder_types` is the shape's principal typing under `ctx`: one
    type expression per binder in pre-order, as `ShapeEntry.binder_types`
    or `principal_typing(shape, ctx).binder_types` give it; how its
    metavariables are numbered does not matter.  The shape is annotated
    with them and typed with `check_subject_reduction`.  Metavariables
    compare by syntactic equality, so a report without violations holds
    in every concrete instance.  When the report has violations, or the
    root fails to type, the shape falls back to checking its concrete
    instances one by one, so every violation reported names a concrete
    instance.
    """
    result = SrSweepResult(0, 0, 0, [])
    try:
        report = check_subject_reduction(ctx, annotate_shape(shape, binder_types), fuel)
    except TypeCheckError:
        report = None
    if report is not None:
        result.edges, result.nodes = report.edges_checked, report.nodes_checked
        if report.ok:
            result.complete = report.complete
            return result
    _fallback_concrete(shape, binder_types, ctx, enumerate_types(lgt_bound), fuel, result)
    return result


def _fallback_concrete(shape, binder_types, ctx, universe, fuel, result) -> None:
    """Last resort: check each concrete instance of the shape."""
    result.fallbacks += 1
    for n, inst in enumerate(instances(shape, binder_types, universe)):
        if n == _FALLBACK_CAP:
            result.violations.append((print_term(inst), "fallback instance cap exceeded"))
            return
        try:
            report = check_subject_reduction(ctx, inst, fuel)
        except TypeCheckError as err:
            # every assignment of the principal exprs should typecheck
            result.violations.append(
                (print_term(inst), f"instance does not typecheck: {err.kind}")
            )
            continue
        result.edges += report.edges_checked
        result.nodes += report.nodes_checked
        if not report.complete:
            result.violations.append(
                (print_term(inst), f"Unknown nodes_visited={report.nodes_checked}")
            )
        for src, dst, found in report.violations:
            result.violations.append(
                (print_term(inst), f"{src} -> {dst} has type {found}")
            )

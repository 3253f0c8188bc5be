"""Corpus machinery behind the lemma suites.

Three views of "every well-typed term within bounds":

* an honest per-instance enumerator (used directly at small sizes and as
  the reference the other two are tested against),
* an exact instance count via dynamic programming over context
  multisets (annotations and variable names never need to be spelled
  out to count derivations),
* the annotation-erased shape quotient: reduction never reads
  annotations, so strong normalization, reduction length and graph
  shape are decided once per erased shape.  Per-shape instance counts
  come from counting the annotation assignments compatible with the
  shape's principal typing.

Subject reduction does depend on annotations, so the sweep over the
full corpus runs symbolically: shapes are annotated with their
principal type expressions (metavariables allowed), and every reachable
reduct is re-typed with the kernel's `infer`, whose equality checks are
syntactic, so a success covers all concrete annotation instances at
once.  The only inspection reduction performs on an annotation (is the
contracted mu binder's annotation an arrow?) is handled by
case-splitting the metavariable.  Any failure to type, or any type that
differs from the root's, sends the branch to an exact per-instance
check, which is the only source of reported violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .reduction import is_normal_form, one_step_reducts
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
    canonical,
    free_vars,
    fresh_name,
)
from .typecheck import TypeCheckError, check_subject_reduction, connective_count, infer

META = "?"


def is_metavar(t) -> bool:
    return isinstance(t, tuple) and t[0] == META


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
    return sum(
        sum(counts(root, n).values()) for n in range(1, max_cxty + 1)
    )


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
    __slots__ = ("sub", "n")

    def __init__(self):
        self.sub: dict = {}
        self.n = 0

    def fresh(self):
        self.n += 1
        return (META, self.n)

    def find(self, t):
        while is_metavar(t) and t in self.sub:
            t = self.sub[t]
        return t

    def occurs(self, v, t) -> bool:
        t = self.find(t)
        if t == v:
            return True
        if isinstance(t, tuple) and t[0] == ARROW:
            return self.occurs(v, t[1]) or self.occurs(v, t[2])
        return False

    def unify(self, a, b) -> bool:
        a = self.find(a)
        b = self.find(b)
        if a == b:
            return True
        if is_metavar(a):
            if self.occurs(a, b):
                return False
            self.sub[a] = b
            return True
        if is_metavar(b):
            return self.unify(b, a)
        if a == BOT or b == BOT:
            return False
        return self.unify(a[1], b[1]) and self.unify(a[2], b[2])

    def resolve(self, t):
        t = self.find(t)
        if isinstance(t, tuple) and t[0] == ARROW:
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
    if is_metavar(expr):
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


def _expr_metavars(expr, acc: set) -> None:
    if is_metavar(expr):
        acc.add(expr)
    elif isinstance(expr, tuple) and expr[0] == ARROW:
        _expr_metavars(expr[1], acc)
        _expr_metavars(expr[2], acc)


def _components(exprs) -> list[list]:
    """Group binder expressions into connected components by shared
    metavariables (assignments multiply across components)."""
    mv_of = []
    for e in exprs:
        acc: set = set()
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
    if is_metavar(expr):
        got = binding.get(expr)
        return expr if got is None else got
    if isinstance(expr, tuple) and expr[0] == ARROW:
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


@dataclass(frozen=True)
class ShapeEntry:
    """One realizable erased shape: its text, how many annotated
    instances it stands for, which context names it uses, and whether it
    is a normal form."""

    text: str
    instances: int
    uses: frozenset[str]
    normal: bool


@dataclass(frozen=True)
class ShapeScan:
    entries: tuple[ShapeEntry, ...]
    total_instances: int
    shapes_seen: int
    typeable: int


_scan_cache: dict = {}


def shape_scan(ctx: Mapping[str, TypeExpr], max_cxty: int, lgt_bound: int) -> ShapeScan:
    """Enumerate erased shapes over the context's names, keep those with
    a principal typing realizable with annotations of lgt <= lgt_bound,
    and count each one's annotated instances.  Cached per configuration;
    a sub-context reuses a wider scan by filtering on used names."""
    key = (tuple(sorted(ctx.items())), max_cxty, lgt_bound)
    got = _scan_cache.get(key)
    if got is not None:
        return got
    names = frozenset(ctx)
    for (items, mc, lb), scan in list(_scan_cache.items()):
        wider = dict(items)
        if mc == max_cxty and lb == lgt_bound and names <= set(wider) and all(
            wider[n] == t for n, t in ctx.items()
        ):
            entries = tuple(e for e in scan.entries if e.uses <= names)
            out = ShapeScan(
                entries,
                sum(e.instances for e in entries),
                scan.shapes_seen,
                scan.typeable,
            )
            _scan_cache[key] = out
            return out
    universe = enumerate_types(lgt_bound)
    free = tuple(sorted(ctx))
    entries = []
    total = 0
    seen = 0
    typeable = 0
    for shape in iter_shapes(free, max_cxty):
        seen += 1
        p = principal_typing(shape, ctx)
        if p is None:
            continue
        typeable += 1
        count = assignment_count(p.binder_types, universe)
        if count == 0:
            continue
        entries.append(
            ShapeEntry(
                print_term(shape),
                count,
                free_vars(shape),
                is_normal_form(shape),
            )
        )
        total += count
    out = ShapeScan(tuple(entries), total, seen, typeable)
    _scan_cache[key] = out
    return out


def clear_scan_cache() -> None:
    _scan_cache.clear()


def materialize_instance(shape: Term, ctx: Mapping[str, TypeExpr], lgt_bound: int) -> Optional[Term]:
    """A concrete annotated instance of a realizable shape (the first
    assignment in deterministic order), or None.  A match against a
    concrete universe type binds every metavariable of the expression,
    so the resulting annotations are ground."""
    p = principal_typing(shape, ctx)
    if p is None:
        return None
    universe = enumerate_types(lgt_bound)
    for binding in assignments(p.binder_types, universe):
        return annotate_shape(
            shape, [apply_type_subst(e, binding) for e in p.binder_types]
        )
    return None


# ---------------------------------------------------------------------------
# symbolic subject reduction


def _term_type_subst(t: Term, binding: dict) -> Term:
    tag = t[0]
    if tag == VAR:
        return t
    if tag == APP:
        return (APP, _term_type_subst(t[1], binding), _term_type_subst(t[2], binding))
    ann = None if t[2] is None else apply_type_subst(t[2], binding)
    return (tag, t[1], ann, _term_type_subst(t[3], binding))


def _collect_binder_exprs(t: Term, acc: list) -> None:
    tag = t[0]
    if tag == VAR:
        return
    if tag == APP:
        _collect_binder_exprs(t[1], acc)
        _collect_binder_exprs(t[2], acc)
        return
    acc.append(t[2])
    _collect_binder_exprs(t[3], acc)


def _metavar_mu_redex(t: Term):
    """The annotation of the first mu redex, in document order, whose
    annotation is a metavariable; None when there is no such redex."""
    tag = t[0]
    if tag == VAR:
        return None
    if tag == APP:
        fun = t[1]
        if fun[0] == MU and is_metavar(fun[2]):
            return fun[2]
        return _metavar_mu_redex(fun) or _metavar_mu_redex(t[2])
    return _metavar_mu_redex(t[3])


@dataclass
class SrSweepResult:
    edges: int
    nodes: int
    fallbacks: int
    violations: list  # (term_text, reason)


def sr_shape_sweep(
    shape: Term,
    ctx: Mapping[str, TypeExpr],
    lgt_bound: int,
    max_nodes: int = 100000,
    fallback_cap: int = 65536,
) -> SrSweepResult:
    """Verify type preservation along every reduction edge of every
    annotated instance of `shape`, symbolically where possible.

    Metavariable case-splits (bot vs fresh arrow) happen when reduction
    must inspect a mu annotation of unknown shape; branches with no
    realizable instances are dropped.  If a term of a branch fails to
    type or a reduct's type differs from the root's, the branch falls
    back to checking its concrete instances one by one, so every
    violation reported names a concrete instance.
    """
    universe = enumerate_types(lgt_bound)
    p = principal_typing(shape, ctx)
    result = SrSweepResult(0, 0, 0, [])
    if p is None:
        return result
    root = annotate_shape(shape, p.binder_types)
    _sweep_branch(root, dict(ctx), universe, max_nodes, fallback_cap, result)
    return result


def _branch_realizable(root: Term, universe) -> bool:
    exprs: list = []
    _collect_binder_exprs(root, exprs)
    return assignment_count(exprs, universe) > 0


def _type_or_none(ctx, t: Term):
    try:
        return infer(ctx, t)
    except TypeCheckError:
        return None


def _sweep_branch(root, ctx, universe, max_nodes, fallback_cap, result) -> None:
    if not _branch_realizable(root, universe):
        return
    root_ty = _type_or_none(ctx, root)
    if root_ty is None:
        _fallback_concrete(root, ctx, universe, fallback_cap, result)
        return
    start = canonical(root)
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for node in frontier:
            result.nodes += 1
            m = _metavar_mu_redex(node)
            if m is not None:
                # the mu rule inspects this annotation: split it
                arrow_case = (ARROW, (META, (m, 1)), (META, (m, 2)))
                for inst in (BOT, arrow_case):
                    _sweep_branch(
                        _term_type_subst(root, {m: inst}),
                        ctx,
                        universe,
                        max_nodes,
                        fallback_cap,
                        result,
                    )
                return
            reducts = one_step_reducts(node)
            result.edges += len(reducts)
            for reduct in reducts:
                # metavariables compare by syntactic equality, so an equal
                # type here is equal in every concrete instance
                if _type_or_none(ctx, reduct) != root_ty:
                    _fallback_concrete(root, ctx, universe, fallback_cap, result)
                    return
                if reduct not in seen:
                    if len(seen) >= max_nodes:
                        result.violations.append(
                            (repr(root), "exploration budget exhausted")
                        )
                        return
                    seen.add(reduct)
                    next_frontier.append(reduct)
        frontier = sorted(next_frontier, key=repr)


def _fallback_concrete(symbolic_root, ctx, universe, cap, result) -> None:
    """Last resort: check each concrete instance of this branch."""
    result.fallbacks += 1
    exprs: list = []
    _collect_binder_exprs(symbolic_root, exprs)
    n = 0
    for binding in assignments(exprs, universe):
        n += 1
        if n > cap:
            result.violations.append(
                (repr(symbolic_root), "fallback instance cap exceeded")
            )
            return
        inst = _term_type_subst(symbolic_root, binding)
        try:
            report = check_subject_reduction(ctx, inst, 10000)
        except TypeCheckError as err:
            # every assignment of the principal exprs should typecheck
            result.violations.append(
                (print_term(inst), f"instance does not typecheck: {err.kind}")
            )
            continue
        result.edges += report.edges_checked
        result.nodes += report.nodes_checked
        for src, dst, found in report.violations:
            result.violations.append(
                (print_term(inst), f"{src} -> {dst} has type {found}")
            )

"""Independent oracles the implementation is checked against.

These deliberately avoid the production code paths they validate:
brute_eta does an explicit path search with no memoization,
all_annotated_trees generates every tree and filters by the type
checker instead of enumerating goal-directed, generate_and_filter_scan
builds every untyped shape, types each one from scratch and spells its
code with a recursive encoder of its own, and two_pass_canonical
collects the free names before it renames a single binder.
"""

from __future__ import annotations

from lambdamu.corpus import (
    ShapeEntry,
    ShapeNames,
    ShapeScan,
    assignment_count,
    enumerate_types,
    iter_shapes,
    principal_typing,
)
from lambdamu.reduction import is_normal_form, one_step_reducts
from lambdamu.terms import APP, ARROW, LAM, MU, VAR, free_vars, fresh_name
from lambdamu.typecheck import TypeCheckError, infer


def brute_eta(term) -> int:
    """Longest reduction length by explicit path search (no memo); only
    call on terms known to normalize."""
    best = 0
    for reduct in one_step_reducts(term):
        length = 1 + brute_eta(reduct)
        if length > best:
            best = length
    return best


def brute_longest_path(graph) -> int:
    """Longest path from the root of an acyclic reduction graph, by
    explicit enumeration of all paths."""
    succ: dict = {}
    for a, b in graph.edges:
        succ.setdefault(a, []).append(b)

    def longest(node) -> int:
        return max((1 + longest(n) for n in succ.get(node, ())), default=0)

    return longest(graph.root)


def all_annotated_trees(ctx_names: tuple[str, ...], size: int, lgt_bound: int):
    """Every annotated term tree with exactly `size` nodes, binder names
    canonical by depth, annotations drawn from the type universe."""
    universe = enumerate_types(lgt_bound)

    def gen(n: int, depth: int, env: tuple[str, ...]):
        if n == 1:
            for x in env:
                yield (VAR, x)
            return
        b = f"x{depth}"
        for annot in universe:
            for body in gen(n - 1, depth + 1, env + (b,)):
                yield (LAM, b, annot, body)
                yield (MU, b, annot, body)
        for n1 in range(1, n - 1):
            for fun in gen(n1, depth, env):
                for arg in gen(n - 1 - n1, depth, env):
                    yield (APP, fun, arg)

    yield from gen(size, 0, ctx_names)


def generate_and_filter(ctx: dict, goal, max_cxty: int, lgt_bound: int):
    """The generate-all-trees-then-filter-by-infer enumeration oracle."""
    out = []
    for n in range(1, max_cxty + 1):
        for tree in all_annotated_trees(tuple(sorted(ctx)), n, lgt_bound):
            try:
                if infer(ctx, tree) == goal:
                    out.append(tree)
            except TypeCheckError:
                pass
    return out


def generate_and_filter_scan(ctx: dict, max_cxty: int, lgt_bound: int) -> ShapeScan:
    """shape_scan by generate and filter: every untyped shape from
    iter_shapes, typed from scratch by principal_typing, its
    annotations counted by assignment_count, its code spelt by
    `_shape_code` and its binder types renamed by `_first_occurrence`."""
    universe = enumerate_types(lgt_bound)
    free = sorted(ctx)
    binders = [fresh_name(f"b{d}", ctx) for d in range(max_cxty + 1)]
    table = ShapeNames(tuple(free + binders), len(free))
    entries = []
    total = seen = typeable = 0
    for shape in iter_shapes(tuple(free), max_cxty):
        seen += 1
        p = principal_typing(shape, ctx)
        if p is None:
            continue
        typeable += 1
        count = assignment_count(p.binder_types, universe)
        if count:
            entries.append(ShapeEntry(
                _shape_code(shape, table.names), count, is_normal_form(shape),
                _first_occurrence(p.binder_types), table,
            ))
            total += count
    return ShapeScan(tuple(entries), total, seen, typeable)


def _shape_code(t, names) -> str:
    """Pre-order, one character per node: a backslash for a lambda, "^"
    for a mu, "@" for an application, chr(ord("a") + i) for a leaf
    named names[i]."""
    if t[0] == VAR:
        return chr(ord("a") + names.index(t[1]))
    if t[0] == APP:
        return "@" + _shape_code(t[1], names) + _shape_code(t[2], names)
    return ("\\" if t[0] == LAM else "^") + _shape_code(t[3], names)


def _first_occurrence(exprs) -> tuple:
    """Metavariables renumbered 1, 2, ... in order of first occurrence."""
    renamed: dict = {}

    def walk(t):
        if t[0] == "?":
            return renamed.setdefault(t, ("?", len(renamed) + 1))
        if t[0] == ARROW:
            return (ARROW, walk(t[1]), walk(t[2]))
        return t

    return tuple(walk(e) for e in exprs)


def two_pass_canonical(t):
    """canonical(t) in two passes: first the free names, then the binders
    renamed x0, x1, ... in pre-order, skipping every free name."""
    avoid = free_vars(t)
    counter = [0]

    def next_name() -> str:
        while True:
            name = "x%d" % counter[0]
            counter[0] += 1
            if name not in avoid:
                return name

    def walk(t, env):
        tag = t[0]
        if tag == VAR:
            name = t[1]
            return (VAR, env.get(name, name))
        if tag == APP:
            return (APP, walk(t[1], env), walk(t[2], env))
        name = next_name()
        return (tag, name, t[2], walk(t[3], {**env, t[1]: name}))

    return walk(t, {})

"""Reduction-graph exploration, strong-normalization verdicts, and the
longest-reduction measure.

The graph is quotiented by alpha-equivalence: nodes are canonical forms.
Without the quotient the fresh names introduced by the mu rule would make
the state space infinite even for terminating terms.

Fuel counts distinct nodes visited, backed by a proportional total-size
allowance so that terms which diverge by growing exhaust it in bounded
time.  Exhaustion yields an explicit Unknown verdict, never a silent
answer: divergence without a cycle always lands in Unknown.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Union

from .reduction import is_normal_form, one_step_reducts
from .syntax import print_term
from .terms import Term, canonical, term_size


@dataclass(frozen=True)
class StronglyNormalizing:
    """Complete acyclic graph: eta is the longest reduction length."""

    eta: int
    graph_nodes: int


@dataclass(frozen=True)
class NotSN:
    """A reduction cycle: consecutive entries are one-step reducts and the
    last steps back to the first."""

    cycle: tuple[Term, ...]


@dataclass(frozen=True)
class Unknown:
    """Fuel ran out before the graph closed or a cycle appeared."""

    nodes_visited: int


SnStatus = Union[StronglyNormalizing, NotSN, Unknown]


@dataclass(frozen=True)
class ReductionGraph:
    root: Term
    nodes: frozenset[Term]
    edges: frozenset[tuple[Term, Term]]
    complete: bool


def reduction_graph(t: Term, fuel: int) -> ReductionGraph:
    """Breadth-first closure of the one-step relation from canonical(t).

    Whole levels are kept: when a level's new nodes would take the node
    count past `fuel` (or the work past its allowance), that level is
    left out and the graph is incomplete.  So a cut graph depends only
    on the term and the fuel, not on set iteration order."""
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    _headroom()
    allowance = _work_allowance(fuel)
    root = canonical(t)
    nodes = {root}
    edges: set[tuple[Term, Term]] = set()
    frontier = [root]
    work = term_size(root)
    while frontier:
        level = []
        level_edges = []
        for node in frontier:
            for reduct in one_step_reducts(node):
                if reduct not in nodes:
                    work += term_size(reduct)
                    nodes.add(reduct)
                    level.append(reduct)
                level_edges.append((node, reduct))
        if len(nodes) > fuel or work > allowance:
            nodes.difference_update(level)
            edges.update(e for e in level_edges if e[1] in nodes)
            return ReductionGraph(root, frozenset(nodes), frozenset(edges), False)
        edges.update(level_edges)
        frontier = level
    return ReductionGraph(root, frozenset(nodes), frozenset(edges), True)


_WHITE, _GREY, _BLACK = 0, 1, 2

# Terms that diverge by growing produce ever-larger nodes; fuel alone
# would let them eat quadratic time before running out.  Exploration
# therefore also carries a work allowance (total nodes of all terms
# visited) proportional to fuel; exhausting either yields Unknown.
_WORK_PER_FUEL = 40
_WORK_CAP = 4_000_000
_RECURSION_FLOOR = 30000


def _work_allowance(fuel: int) -> int:
    return min(_WORK_PER_FUEL * max(fuel, 64), _WORK_CAP)


def _headroom() -> None:
    # deep left spines (a grower's reducts) exceed the default limit
    if sys.getrecursionlimit() < _RECURSION_FLOOR:
        sys.setrecursionlimit(_RECURSION_FLOOR)


# Verdicts are pure in (canonical term, fuel); the cache only re-serves them.
_sn_cache: dict[tuple[Term, int], SnStatus] = {}
_SN_CACHE_LIMIT = 1 << 21


def clear_sn_cache() -> None:
    _sn_cache.clear()


def explore_sn(t: Term, fuel: int) -> SnStatus:
    """Depth-first exploration with on-stack cycle detection.

    Sound by construction: StronglyNormalizing only for a completely
    explored acyclic graph, NotSN only with a verified cycle witness.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    root = canonical(t)
    if is_normal_form(root):
        return StronglyNormalizing(0, 1)
    key = (root, fuel)
    hit = _sn_cache.get(key)
    if hit is not None:
        return hit
    status = _explore(root, fuel)
    if len(_sn_cache) < _SN_CACHE_LIMIT:
        _sn_cache[key] = status
    return status


def _sorted_reducts(node: Term) -> list[Term]:
    return sorted(one_step_reducts(node), key=print_term)


def _explore(root: Term, fuel: int) -> SnStatus:
    _headroom()
    allowance = _work_allowance(fuel)
    color = {root: _GREY}
    eta: dict[Term, int] = {}
    reducts: dict[Term, list[Term]] = {root: _sorted_reducts(root)}
    stack: list[tuple[Term, int]] = [(root, 0)]
    visited = 1
    work = term_size(root)
    while stack:
        node, i = stack[-1]
        children = reducts[node]
        if i == len(children):
            eta[node] = 1 + max(eta[c] for c in children) if children else 0
            color[node] = _BLACK
            stack.pop()
            continue
        stack[-1] = (node, i + 1)
        child = children[i]
        c = color.get(child, _WHITE)
        if c == _BLACK:
            continue
        if c == _GREY:
            # a node on the current path: extract the cycle witness
            cycle = []
            for n, _ in stack:
                if cycle or n == child:
                    cycle.append(n)
            return NotSN(tuple(cycle))
        work += term_size(child)
        if visited + 1 > fuel or work > allowance:
            return Unknown(visited)
        visited += 1
        color[child] = _GREY
        reducts[child] = _sorted_reducts(child)
        stack.append((child, 0))
    return StronglyNormalizing(eta[root], len(color))


def longest_reduction(t: Term, fuel: int) -> Union[int, NotSN, Unknown]:
    """The longest-reduction length of t, or the non-SN/unknown verdict."""
    status = explore_sn(t, fuel)
    if isinstance(status, StronglyNormalizing):
        return status.eta
    return status


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: ReductionGraph) -> str:
    """DOT rendering: nodes are printed canonical terms, lexicographic
    order, the root marked root=true."""
    node_strs = sorted(print_term(n) for n in g.nodes)
    root_str = print_term(g.root)
    lines = ["digraph reduction {"]
    for s in node_strs:
        attr = " [root=true]" if s == root_str else ""
        lines.append(f"  {_dot_quote(s)}{attr};")
    edge_strs = sorted((print_term(a), print_term(b)) for a, b in g.edges)
    for a, b in edge_strs:
        lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

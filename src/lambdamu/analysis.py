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

import functools
import sys
from dataclasses import dataclass
from typing import Optional, Union

from .reduction import is_normal_form, one_step_reducts
from .syntax import print_term
from .terms import APP, LAM, MU, VAR, Term, canonical, term_size


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


def _headroom(fn):
    """fn with the recursion limit raised to _RECURSION_FLOOR while it
    runs, and the caller's limit given back on return: the reducts of a
    grower are deep left spines, past the default limit, and the code
    that prints or types the nodes of a graph walks them too."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        limit = sys.getrecursionlimit()
        if limit >= _RECURSION_FLOOR:
            return fn(*args, **kwargs)
        sys.setrecursionlimit(_RECURSION_FLOOR)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setrecursionlimit(limit)

    return run


@_headroom
def reduction_graph(t: Term, fuel: int) -> ReductionGraph:
    """Breadth-first closure of the one-step relation from canonical(t).

    Whole levels are kept: when a level's new nodes would take the node
    count past `fuel` (or the work past its allowance), that level is
    left out and the graph is incomplete.  So a cut graph depends only
    on the term and the fuel, not on set iteration order."""
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    root = canonical(t)
    nodes = {root}
    edges: set[tuple[Term, Term]] = set()
    frontier = [root]
    work = term_size(root)
    allowance = _work_allowance(fuel, work)
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
# The allowance never falls below 40 times the root's own size, so a
# large root still has room for its reducts.
_WORK_PER_FUEL = 40
_WORK_CAP = 4_000_000
_RECURSION_FLOOR = 30000


def _work_allowance(fuel: int, root_size: int) -> int:
    return min(
        _WORK_PER_FUEL * max(fuel, 64, root_size),
        max(_WORK_CAP, _WORK_PER_FUEL * root_size),
    )


# Verdicts are pure in (canonical term, fuel); the cache only re-serves
# them, each with the work total of its search.  It holds searched
# verdicts only: a composed verdict is never stored, so what the cache
# serves never depends on `_compose`.
_sn_cache: dict[tuple[Term, int], tuple[SnStatus, int]] = {}
_SN_CACHE_LIMIT = 1 << 21


def clear_sn_cache() -> None:
    _sn_cache.clear()


def explore_sn(t: Term, fuel: int) -> SnStatus:
    """The verdict on t at a node fuel.

    A variable-headed term is decided from its arguments' graphs when
    that gives the same verdict as search (`_compose`); every other term
    by depth-first exploration with on-stack cycle detection.  Sound by
    construction: StronglyNormalizing only for a completely explored (or
    composed) acyclic graph, NotSN only with a verified cycle witness.
    """
    return _verdict(t, fuel, True)


def _search_sn(t: Term, fuel: int) -> SnStatus:
    """explore_sn without composition: the verdict of a search of t's
    whole graph, for checks that compare it with the verdicts of parts."""
    return _verdict(t, fuel, False)


@_headroom
def _verdict(t: Term, fuel: int, compose: bool) -> SnStatus:
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    root = canonical(t)
    if is_normal_form(root):
        return StronglyNormalizing(0, 1)
    key = (root, fuel)
    found = _sn_cache.get(key)
    if found is None and compose:
        found = _compose(root, fuel)
    if found is None:
        found = _search(key)
    return found[0]


def _search(key: tuple[Term, int]) -> tuple[SnStatus, int]:
    """Explore a canonical, non-normal root at a fuel, and cache the
    verdict with its work total."""
    found = _explore(*key)
    if len(_sn_cache) < _SN_CACHE_LIMIT:
        _sn_cache[key] = found
    return found


def _compose(root: Term, fuel: int) -> Optional[tuple[StronglyNormalizing, int]]:
    """The verdict on a variable-headed root, and the work total its
    search would reach, from the graphs of its arguments; None when
    search must decide it.

    The one-step reducts of \\x1...xk. y M1 ... Mn are exactly the terms
    with one Mi reduced, so its alpha-quotiented graph is the product of
    the Mi's: nodes = prod N_i, eta = sum eta_i, and work = c * prod N_i
    + sum_i W_i * prod_{j != i} N_j, where c = k + 1 + n counts the
    term's own binders, head and applications.  A variable-headed
    argument (a normal form among them) is decomposed the same way; a
    redex-headed one, a leaf, is searched through the cache.

    None, so that the search decides, when there are fewer than two
    leaves (the graph is then a copy of the one leaf's, and composing
    would search it twice when it diverges), when a leaf is not SN, or
    when the nodes pass the fuel or the work passes the allowance.  When
    the verdict is composed, the search would have completed with the
    same eta and nodes: it visits every node once, within both bounds.
    """
    # the parts in pre-order: (c, n) for a variable-headed part with n
    # arguments, None for a leaf; explicit stacks, no recursion
    parts: list[Optional[tuple[int, int]]] = []
    leaves: list[Term] = []
    todo = [root]
    while todo:
        part = t = todo.pop()
        c = 1
        while t[0] == LAM or t[0] == MU:
            c += 1
            t = t[3]
        head = t
        while head[0] == APP:
            head = head[1]
        if head[0] != VAR:
            parts.append(None)
            leaves.append(part)
            continue
        n = 0
        while t[0] == APP:
            todo.append(t[2])
            t = t[1]
            n += 1
        parts.append((c + n, n))
    if len(leaves) < 2:
        return None
    verdicts = []
    for leaf in leaves:
        key = (canonical(leaf), fuel)
        found = _sn_cache.get(key) or _search(key)
        if not isinstance(found[0], StronglyNormalizing):
            return None
        verdicts.append(found)
    # fold the parts bottom-up: (nodes, eta, work) of each finished part
    done: list[tuple[int, int, int]] = []
    for part in reversed(parts):
        if part is None:
            status, work = verdicts.pop()
            done.append((status.graph_nodes, status.eta, work))
            continue
        c, n = part
        nodes, eta, work = 1, 0, 0
        for _ in range(n):
            n_i, eta_i, work_i = done.pop()
            work = work * n_i + work_i * nodes
            nodes *= n_i
            eta += eta_i
        done.append((nodes, eta, work + c * nodes))
    ((nodes, eta, work),) = done
    if nodes > fuel or work > _work_allowance(fuel, term_size(root)):
        return None
    return StronglyNormalizing(eta, nodes), work


def _sorted_reducts(node: Term) -> list[Term]:
    reducts = list(one_step_reducts(node))
    if len(reducts) > 1:
        reducts.sort(key=print_term)
    return reducts


def _explore(root: Term, fuel: int) -> tuple[SnStatus, int]:
    """The depth-first search, and the total size of the nodes it
    visited."""
    color = {root: _GREY}
    eta: dict[Term, int] = {}
    reducts: dict[Term, list[Term]] = {root: _sorted_reducts(root)}
    stack: list[tuple[Term, int]] = [(root, 0)]
    visited = 1
    work = term_size(root)
    allowance = _work_allowance(fuel, work)
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
            return NotSN(tuple(cycle)), work
        work += term_size(child)
        if visited + 1 > fuel or work > allowance:
            return Unknown(visited), work
        visited += 1
        color[child] = _GREY
        reducts[child] = _sorted_reducts(child)
        stack.append((child, 0))
    return StronglyNormalizing(eta[root], len(color)), work


def longest_reduction(t: Term, fuel: int) -> Union[int, NotSN, Unknown]:
    """The longest-reduction length of t, or the non-SN/unknown verdict."""
    status = explore_sn(t, fuel)
    if isinstance(status, StronglyNormalizing):
        return status.eta
    return status


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


@_headroom
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

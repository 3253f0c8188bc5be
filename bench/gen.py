"""Seeded input generators for the `terms` and `diverge` workloads.

Inputs are made in memory from the seed alone; nothing is read from or
written to an input file.  Every generated term is written in the
program's concrete syntax, and carries what it was built to be: a
typed term carries the type it was built at, a divergent term whether
it loops or grows.

`terms`: each term is a head variable f (of type bot -> bot -> bot)
applied over two or three independent redex components, so its
reduction graph is the product of theirs.  A component is a chain of
redex gadgets (beta and mu redexes, nested) around a variable.  The
slot of a term fixes how many graph nodes each component has and which
gadget chain of that node count it is; the seed picks the leaf
variables, the order and arrangement of the f applications, and a
binder wrapped around the whole.  So every seed yields terms of the
same graph sizes and nearly the same cost, which keeps the latency
percentiles steady from seed to seed, while no two terms of a round
are alpha-equivalent.

`diverge`: seeded variants of the catalog's loops (under lambda and mu
binders, in argument position, applied to arguments, next to a
terminating component) and of its grower.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log

import reducer

CONTEXT = "v:bot, w:bot, f:bot->bot->bot, g:bot->bot"
BOT = "bot"
BB = ("->", BOT, BOT)

# One-hole gadgets of type bot around a bot-typed hole.
GADGETS = {
    "I": "(\\x:bot. x) ({})",
    "D": "(\\x:bot. f x x) ({})",
    "M1": "(mu k:(bot->bot). k (\\y:bot. y)) ({})",
    "M2": "(mu k:(bot->bot). k (\\y:bot. k (\\u:bot. y))) ({})",
    "H": "(\\h:bot->bot. h (h ({}))) (\\y:bot. y)",
    "G": "g ({})",
}

# Gadget chains, innermost first, grouped by the number of nodes in the
# alpha-quotiented reduction graph of the chain around a variable
# (test_gen.py checks each count with the benchmark's reducer).
CHAINS = {
    2: ("I", "D", "G-I", "I-G", "G-D", "D-G"),
    3: ("I-I", "G-I-I", "I-I-G"),
    4: ("H", "M1", "D-I", "G-H", "G-M1", "H-G", "M1-G"),
    6: ("D-D", "H-I", "I-D", "I-H"),
    8: ("D-H", "D-M1", "M1-I"),
    10: ("M2", "G-M2", "M2-G", "I-I-M1"),
    12: ("D-D-I", "D-H-I", "D-I-H", "I-D-I", "I-I-D", "M1-I-I"),
    16: ("M1-H", "M1-M1", "D-M1-I"),
    20: ("H-D", "M1-D", "M2-I", "D-I-D"),
    32: ("D-M2", "I-M2", "D-M1-H", "D-M1-M1"),
    40: ("M2-H", "M2-M1", "H-D-I", "M1-D-I"),
}

TERMS_PER_ROUND = 110
SMALLEST_GRAPH = 8
LARGEST_GRAPH = 400


def chain_text(chain: str, leaf: str) -> str:
    text = leaf
    for gadget in chain.split("-"):
        text = GADGETS[gadget].format(text)
    return text


def _recipe(target: float) -> tuple[int, ...]:
    """The two or three component node counts whose product is nearest
    to target (fewer components first on ties)."""
    sizes = sorted(CHAINS)
    best = None
    for a in sizes:
        for b in sizes:
            if b < a:
                continue
            for c in [None] + [s for s in sizes if s >= b]:
                combo = (a, b) if c is None else (a, b, c)
                prod = a * b * (c or 1)
                key = (abs(log(prod / target)), len(combo), combo)
                if best is None or key < best[0]:
                    best = (key, combo)
    return best[1]


def recipes() -> list[tuple[int, ...]]:
    """The component node counts of every slot of a `terms` round; graph
    sizes rise geometrically from SMALLEST_GRAPH to LARGEST_GRAPH."""
    n = TERMS_PER_ROUND
    ratio = (LARGEST_GRAPH / SMALLEST_GRAPH) ** (1 / (n - 1))
    return [_recipe(SMALLEST_GRAPH * ratio**i) for i in range(n)]


@dataclass(frozen=True)
class TypedTerm:
    text: str
    type: object  # "bot" or ("->", dom, cod)
    graph_nodes: int  # by construction: the product of the recipe


def _slot_rng(seed: int, slot: int) -> random.Random:
    return random.Random(seed * 1_000_003 + slot)


def _f_tree(rng: random.Random, parts: list[str]) -> str:
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i : i + 2] = [f"f ({parts[i]}) ({parts[i + 1]})"]
    return parts[0]


def _wrap(rng: random.Random, body: str) -> tuple[str, object]:
    kind = rng.randrange(5)
    if kind == 0:
        return body, BOT
    if kind == 1:
        return f"\\u:bot. {body}", BB
    if kind == 2:
        return f"\\u:bot->bot. {body}", ("->", BB, BOT)
    if kind == 3:
        return f"g ({body})", BOT
    return f"mu q:bot. q ({body})", BOT


def typed_terms(seed: int) -> list[TypedTerm]:
    """One `terms` round: TERMS_PER_ROUND pairwise non-alpha-equivalent
    well-typed terms under CONTEXT."""
    out: list[TypedTerm] = []
    seen: set = set()
    for slot, recipe in enumerate(recipes()):
        chains = [random.Random(slot).choice(CHAINS[nodes]) for nodes in recipe]
        rng = _slot_rng(seed, slot)
        while True:
            parts = [chain_text(chain, rng.choice("vw")) for chain in chains]
            rng.shuffle(parts)
            text, ty = _wrap(rng, _f_tree(rng, parts))
            key = reducer.parse(text)
            if key not in seen:
                break
        seen.add(key)
        nodes = 1
        for n in recipe:
            nodes *= n
        out.append(TypedTerm(text, ty, nodes))
    return out


@dataclass(frozen=True)
class DivergentTerm:
    name: str
    text: str
    loops: bool  # True: has a reduction cycle; False: diverges by growing
    fuel: int


CATALOG_FUEL = 100_000
LOOP_VARIANTS = 10
# Grower variants: GROWER_VARIANTS at each of these fuels.  Their cost is
# bounded by the work allowance that the fuel sets, so each class costs
# about the same from seed to seed.
GROWER_FUELS = (500, 2_000)
GROWER_VARIANTS = 10
GROWERS = (
    "(\\a. a a {z}) (\\a. a a {z})",
    "(\\a. a a {z} {z}) (\\a. a a {z} {z})",
    "(\\a. a a ({z} {z})) (\\a. a a ({z} {z}))",
    "(\\a. a a {z}) (\\a. a a {z}) {z}",
)


# Contexts a divergent term is put in: under a binder, in argument
# position, applied, erased by a redex, and as a later argument.
DIVERGENT_WRAPPERS = (
    "\\q{level}. {body}",
    "mu q{level}. {body}",
    "x ({body})",
    "({body}) y",
    "(\\e. v) ({body})",
    "h v ({body})",
)


def _wrap_divergent(rng: random.Random, body: str, depth: int) -> str:
    for level in range(depth, 0, -1):
        body = DIVERGENT_WRAPPERS[rng.randrange(len(DIVERGENT_WRAPPERS))].format(
            level=level, body=body
        )
    return body


def divergent_terms(seed: int, catalog: list[tuple[str, str]]) -> list[DivergentTerm]:
    """The catalog terms (name, text) at CATALOG_FUEL, then LOOP_VARIANTS
    seeded variants of its loops, each next to a terminating component
    and under one to three wrappers, and GROWER_VARIANTS growing terms
    at each of GROWER_FUELS.  A catalog term loops when the reducer
    finds a cycle in its first few nodes; the others grow.  No two
    terms are alpha-equivalent."""
    out: list[DivergentTerm] = []
    seen: set = set()
    loops = []

    def add(name: str, text: str, looping: bool, fuel: int) -> bool:
        key = reducer.parse(text)
        if key in seen:
            return False
        seen.add(key)
        out.append(DivergentTerm(name, text, looping, fuel))
        return True

    for name, text in catalog:
        looping = reducer.explore(reducer.parse(text), limit=50).cycle
        if looping:
            loops.append(_strip_comments(text))
        add(name, text, looping, CATALOG_FUEL)
    for i in range(LOOP_VARIANTS):
        rng = _slot_rng(seed, i)
        loop = f"({loops[i % len(loops)]})"
        nodes = (4, 6, 8, 10)[i % 4]
        while True:
            ballast = chain_text(rng.choice(CHAINS[nodes]), rng.choice("vw"))
            body = f"f ({ballast}) {loop}" if rng.randrange(2) else f"f {loop} ({ballast})"
            if add(f"loop{i}", _wrap_divergent(rng, body, 1 + i % 3), True, CATALOG_FUEL):
                break
    for f, fuel in enumerate(GROWER_FUELS):
        for i in range(GROWER_VARIANTS):
            rng = _slot_rng(seed, LOOP_VARIANTS + f * GROWER_VARIANTS + i)
            while True:
                grower = GROWERS[i % len(GROWERS)].format(z=rng.choice(("z", "u", "s")))
                text = _wrap_divergent(rng, f"({grower})", rng.randrange(3))
                if add(f"grow{fuel}_{i}", text, False, fuel):
                    break
    return out


def _strip_comments(text: str) -> str:
    return " ".join(line.split("--", 1)[0] for line in text.splitlines()).strip()

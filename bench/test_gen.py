"""The seeded generators make what they claim to make.

    python3 -m pytest bench
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import reducer  # noqa: E402
from lambdamu import syntax, typecheck  # noqa: E402


def _catalog():
    return [(p.stem, p.read_text(encoding="utf-8"))
            for p in sorted((SRC / "lambdamu" / "catalog").glob("*.lmu"))]


def test_every_chain_has_its_stated_graph_size():
    for nodes, chains in gen.CHAINS.items():
        for chain in chains:
            result = reducer.explore(reducer.parse(gen.chain_text(chain, "v")))
            assert result.complete and result.nodes == nodes, chain


def test_typed_terms_are_distinct_typed_and_seeded():
    terms = gen.typed_terms(5)
    assert len(terms) == gen.TERMS_PER_ROUND
    assert len({reducer.parse(t.text) for t in terms}) == len(terms)
    assert terms == gen.typed_terms(5)
    assert terms != gen.typed_terms(6)
    ctx = syntax.parse_context(gen.CONTEXT)
    for t in terms:
        assert typecheck.infer(ctx, syntax.parse_term(t.text)) == t.type


def test_graph_sizes_do_not_depend_on_the_seed():
    sizes = [t.graph_nodes for t in gen.typed_terms(1)]
    assert sizes == [t.graph_nodes for t in gen.typed_terms(2)]
    for t in gen.typed_terms(3)[:40]:
        assert reducer.explore(reducer.parse(t.text)).nodes == t.graph_nodes


def test_divergent_terms_are_distinct_and_classified():
    terms = gen.divergent_terms(5, _catalog())
    assert len({reducer.parse(t.text) for t in terms}) == len(terms)
    assert terms == gen.divergent_terms(5, _catalog())
    by_name = {t.name: t for t in terms}
    assert not by_name["grower"].loops
    assert by_name["omega"].loops
    for t in terms:
        if t.loops:
            assert reducer.explore(reducer.parse(t.text), limit=1000).cycle, t.name

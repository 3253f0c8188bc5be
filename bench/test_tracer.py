"""The tracer wraps layer functions wherever callers look them up.

    python3 -m pytest bench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
from lambdamu import analysis, corpus, lemmas, syntax  # noqa: E402


def _count_reducts(tr, result, args, parent):
    if parent == "analysis.explore_sn":
        tr.count("nodes")


def _count_shapes(tr, item, args, parent):
    tr.count("shapes")


def test_spans_counts_and_restore(tmp_path):
    original = analysis.explore_sn
    tr = tracer.Tracer({
        "analysis.explore_sn": None,
        "reduction.one_step_reducts": _count_reducts,
        "corpus.iter_shapes": _count_shapes,
        "analysis.no_such_function": None,
    })
    term = syntax.parse_term("(\\x:bot.x) ((\\x:bot.x) y)")
    analysis.clear_sn_cache()
    with tr:
        assert lemmas.explore_sn is not original  # the caller's own lookup
        status = lemmas.explore_sn(term, 100)
        shapes = list(corpus.iter_shapes(("v",), 3))
    assert lemmas.explore_sn is original and analysis.explore_sn is original
    assert status.graph_nodes == 3
    assert tr.absent == ["analysis.no_such_function"]
    assert tr.counts == {"nodes": 3, "shapes": len(shapes)}
    calls, total, own = tr.layer_stats("analysis.explore_sn")
    assert calls == 1 and 0 < own < total
    assert tr.layer_stats("corpus.iter_shapes")[0] == len(shapes) + 1

    path = tmp_path / "spans.bin"
    tr.dump(path)
    header, (layer, parent, start, end) = tracer.load(path)
    assert header["spans"] == len(layer) == 3 + 1 + len(shapes) + 1
    explore = header["layers"].index("analysis.explore_sn")
    root = list(layer).index(explore)
    assert parent[root] == -1
    children = [i for i in range(len(layer)) if parent[i] == root]
    assert len(children) == 3
    assert all(start[root] <= start[i] <= end[i] <= end[root] for i in children)

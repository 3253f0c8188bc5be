"""The benchmark (bench/run.py) finds its layers by name; a rename in
the program would only show as `layer absent` in a traced run and zero
that layer's metrics.  These checks read its names without running it."""

import importlib
import importlib.util
import sys
from pathlib import Path

from lambdamu import analysis, lemmas
from lambdamu.corpus import shape_scan
from lambdamu.syntax import parse_term

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_layer_is_a_callable_of_the_program():
    layers = _bench_run().LAYERS
    assert layers
    for name in layers:
        module, function = name.split(".")
        found = getattr(importlib.import_module(f"lambdamu.{module}"), function, None)
        assert callable(found), name


def test_names_the_benchmark_reads_directly():
    # the tracer wraps explore_sn where lemmas looks it up
    assert lemmas.explore_sn is analysis.explore_sn
    # the corpus workload reads `text`, `normal` and `instances` of a
    # scan's entries, and parses the text
    entry = next(e for e in shape_scan({"v": "bot"}, 4, 2).entries if not e.normal)
    assert isinstance(entry.normal, bool) and entry.instances > 0
    assert parse_term(entry.text) == entry.shape

"""Benchmark of the lambdamu checker: one workload per run.

    python3 bench/run.py --workload corpus|terms|diverge --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/`; the
benchmark's own inputs, reducer and tracer live next to this file.  A
run makes its inputs from the seed (set-up), then runs whole rounds of
the workload until S seconds have passed (at least one round), checks
every output against properties and the benchmark's own reducer, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run makes one untraced round and then one round with every layer
function wrapped (see tracer.py), reports the per-layer metrics and the
tracing overhead, and writes the spans to bench/out/.  README.md gives
the workloads and what each metric means on each of them.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FUEL = 100_000  # the CLI's default fuel


def process_age() -> float:
    """Seconds since this process started, from the kernel's record of
    its start; the time since this file began running where that record
    cannot be read."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _STARTED


@dataclass
class Round:
    """What one pass over a workload's inputs measured and produced."""

    wall_s: float = 0.0
    thm8_s: float = 0.0
    sr_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# workloads


class Corpus:
    """The cold `thm8` and `sr` suites over the {v:bot} corpus of size
    <= SIZE, as `lambdamu lemmas --suite thm8|sr` runs them.  The corpus
    is fixed by the bounds; the seed picks the shapes the checks sample."""

    CONTEXT = "v:bot"
    SIZE = 9
    LGT = 2
    SAMPLE = 200

    def __init__(self, seed: int):
        self.seed = seed
        self.ctx = syntax.parse_context(self.CONTEXT)
        self.config = lemmas.SuiteConfig.make(self.ctx, self.SIZE, self.LGT, FUEL, seed)

    def run_round(self) -> Round:
        out = Round()
        started = time.perf_counter()
        for suite in ("thm8", "sr"):
            corpus.clear_scan_cache()
            analysis.clear_sn_cache()
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                report = lemmas.run_suite(suite, self.config)
            except Exception as err:  # one failed suite run is one failed operation
                out.failed += 1
                print(f"{suite} suite raised {err!r}", file=sys.stderr)
                continue
            took = time.perf_counter() - t0
            setattr(out, f"{suite}_s", took)
            out.latencies_ms.append(took * 1000)
            out.outputs.append(report)
        out.wall_s = time.perf_counter() - started
        return out

    def check(self, outputs) -> tuple[list[str], dict]:
        """Problems found in a round's outputs, and the workload's sizes."""
        problems = []
        for report in outputs:
            if report.failures or report.passes != report.instances:
                problems.append(
                    f"{report.suite}: {len(report.failures)} failures, "
                    f"{report.passes} passes of {report.instances}"
                )
        dp = corpus.count_typed_instances(self.ctx, self.SIZE, self.LGT)
        for report in outputs:
            if report.instances != dp:
                problems.append(f"{report.suite}: {report.instances} instances, DP count {dp}")
        scan = corpus.shape_scan(self.ctx, self.SIZE, self.LGT)
        redexes = [e for e in scan.entries if not e.normal]
        rng = random.Random(self.seed)
        for entry in rng.sample(redexes, min(self.SAMPLE, len(redexes))):
            problems += self._check_shape(entry.text)
        counts = {
            "instances": dp,
            "shapes_seen": scan.shapes_seen,
            "typeable": scan.typeable,
            "realizable": len(scan.entries),
            "redex_shapes": len(redexes),
            "max_eta": max((r.max_eta for r in outputs), default=0),
            "max_graph_nodes": max((r.max_graph_nodes for r in outputs), default=0),
        }
        return problems, counts

    def _check_shape(self, text: str) -> list[str]:
        shape = syntax.parse_term(text)
        st = analysis.explore_sn(shape, FUEL)
        if not isinstance(st, analysis.StronglyNormalizing):
            return [f"{text}: {st}"]
        own = reducer.explore(reducer.parse(text))
        problems = []
        if (own.nodes, own.eta) != (st.graph_nodes, st.eta):
            problems.append(f"{text}: program eta/nodes {st.eta}/{st.graph_nodes}, "
                            f"reducer {own.eta}/{own.nodes}")
        etas = [analysis.explore_sn(r, FUEL).eta for r in reduction.one_step_reducts(shape)]
        if max(etas) != st.eta - 1:
            problems.append(f"{text}: largest reduct eta {max(etas)}, eta {st.eta}")
        inst = corpus.materialize_instance(shape, self.ctx, self.LGT)
        ty = typecheck.infer(self.ctx, inst)
        graph = analysis.reduction_graph(inst, FUEL)
        for node in graph.nodes:
            if typecheck.infer(self.ctx, node) != ty:
                problems.append(f"{syntax.print_term(inst)}: reduct "
                                f"{syntax.print_term(node)} changes type")
        return problems


class Terms:
    """Distinct well-typed terms of gen.typed_terms, each taken through
    parse -> infer -> explore_sn (the verdict, timed per term) and then
    check_subject_reduction over its whole graph."""

    SR_STEPS = 10_000

    def __init__(self, seed: int):
        self.ctx = syntax.parse_context(gen.CONTEXT)
        self.inputs = gen.typed_terms(seed)
        # a seeded order spreads terms of equal size over the round, so a
        # slow moment of the machine does not land on one size class
        self.order = list(range(len(self.inputs)))
        random.Random(seed).shuffle(self.order)

    def run_round(self) -> Round:
        out = Round()
        analysis.clear_sn_cache()
        started = time.perf_counter()
        for i in self.order:
            text = self.inputs[i].text
            out.attempted += 1
            try:
                t0 = time.perf_counter()
                term = syntax.parse_term(text)
                ty = typecheck.infer(self.ctx, term)
                status = analysis.explore_sn(term, FUEL)
                t1 = time.perf_counter()
                sr = typecheck.check_subject_reduction(self.ctx, term, self.SR_STEPS)
                t2 = time.perf_counter()
            except Exception as err:
                out.failed += 1
                print(f"{text}: {err!r}", file=sys.stderr)
                continue
            out.latencies_ms.append((t1 - t0) * 1000)
            out.thm8_s += t1 - t0
            out.sr_s += t2 - t1
            out.outputs.append((i, ty, status, sr))
        out.wall_s = time.perf_counter() - started
        return out

    def check(self, outputs) -> tuple[list[str], dict]:
        problems = []
        nodes = edges = 0
        for i, ty, status, sr in outputs:
            item = self.inputs[i]
            text = item.text
            if ty != item.type:
                problems.append(f"{text}: infer gives {ty}, built at {item.type}")
            if not isinstance(status, analysis.StronglyNormalizing):
                problems.append(f"{text}: {status}, a typed term must be SN")
                continue
            own = reducer.explore(reducer.parse(text))
            if (own.nodes, own.eta) != (status.graph_nodes, status.eta):
                problems.append(f"{text}: program eta/nodes {status.eta}/{status.graph_nodes}, "
                                f"reducer {own.eta}/{own.nodes}")
            if own.nodes != item.graph_nodes:
                problems.append(f"{text}: built for {item.graph_nodes} nodes, has {own.nodes}")
            graph = analysis.reduction_graph(syntax.parse_term(text), FUEL)
            if not graph.complete or len(graph.nodes) != status.graph_nodes:
                problems.append(f"{text}: reduction_graph has {len(graph.nodes)} nodes")
            if not (sr.ok and sr.complete and sr.nodes_checked == status.graph_nodes):
                problems.append(f"{text}: subject reduction {sr}")
            nodes += status.graph_nodes
            edges += sr.edges_checked
        return problems, {"terms": len(self.inputs), "graph_nodes": nodes, "graph_edges": edges}


class Diverge:
    """The non-SN catalog and seeded variants of its terms: each parsed
    and explored (timed per term) at its fuel, then its graph built as
    `lambdamu graph` does, at no more than GRAPH_FUEL."""

    GRAPH_FUEL = 2_000

    def __init__(self, seed: int):
        catalog = [(p.stem, p.read_text(encoding="utf-8"))
                   for p in sorted((SRC / "lambdamu" / "catalog").glob("*.lmu"))]
        self.inputs = gen.divergent_terms(seed, catalog)
        self.order = list(range(len(self.inputs)))
        random.Random(seed).shuffle(self.order)

    def run_round(self) -> Round:
        out = Round()
        analysis.clear_sn_cache()
        started = time.perf_counter()
        for i in self.order:
            item = self.inputs[i]
            out.attempted += 1
            try:
                t0 = time.perf_counter()
                term = syntax.parse_term(item.text)
                status = analysis.explore_sn(term, item.fuel)
                t1 = time.perf_counter()
                graph = analysis.reduction_graph(term, min(item.fuel, self.GRAPH_FUEL))
                t2 = time.perf_counter()
            except Exception as err:
                out.failed += 1
                print(f"{item.name}: {err!r}", file=sys.stderr)
                continue
            out.latencies_ms.append((t1 - t0) * 1000)
            out.thm8_s += t1 - t0
            out.sr_s += t2 - t1
            out.outputs.append((i, status, len(graph.nodes), graph.complete))
        out.wall_s = time.perf_counter() - started
        return out

    def check(self, outputs) -> tuple[list[str], dict]:
        problems = []
        visited = 0
        for i, status, graph_nodes, complete in outputs:
            item = self.inputs[i]
            if not item.loops:
                if not isinstance(status, analysis.Unknown):
                    problems.append(f"{item.name}: grows, but got {status}")
                else:
                    visited += status.nodes_visited
                continue
            if not isinstance(status, analysis.NotSN):
                problems.append(f"{item.name}: loops, but got {status}")
                continue
            cycle = [reducer.parse(syntax.print_term(t)) for t in status.cycle]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if b not in reducer.reducts(a):
                    problems.append(f"{item.name}: witness step is not a reduction")
            own = reducer.reachable(reducer.parse(item.text), self.GRAPH_FUEL)
            if not complete or own != graph_nodes:
                problems.append(f"{item.name}: reduction_graph has {graph_nodes} nodes, "
                                f"reducer {own}")
        return problems, {
            "terms": len(self.inputs),
            "loops": sum(d.loops for d in self.inputs),
            "growers": sum(not d.loops for d in self.inputs),
            "grower_nodes_visited": visited,
        }


WORKLOADS = {"corpus": Corpus, "terms": Terms, "diverge": Diverge}


# ---------------------------------------------------------------------------
# tracing


def _after_iter_shapes(tr, item, args, parent):
    tr.count("corpus.shapes")


def _after_principal_typing(tr, result, args, parent):
    if parent != "corpus.sr_shape_sweep" and result is not None:
        tr.count("corpus.typeable")


def _after_assignment_count(tr, result, args, parent):
    # the SR sweep also counts assignments, per branch; only the scan's
    # calls say how many shapes are realizable
    if parent != "corpus.sr_shape_sweep" and result > 0:
        tr.count("corpus.realizable")
        tr.count("corpus.instances", result)


def _after_sr_shape_sweep(tr, result, args, parent):
    tr.count("corpus.sr_nodes", result.nodes)
    tr.count("corpus.sr_edges", result.edges)
    tr.count("corpus.sr_fallbacks", result.fallbacks)


def _size(t) -> int:
    """AST nodes of a program term (tagged tuples, see terms.py)."""
    n = 0
    todo = [t]
    while todo:
        u = todo.pop()
        n += 1
        if u[0] == "app":
            todo.append(u[1])
            todo.append(u[2])
        elif u[0] != "var":
            todo.append(u[3])
    return n


def _after_one_step_reducts(tr, result, args, parent):
    tr.count("reduction.reducts", len(result))
    tr.count("reduction.reduct_size", sum(_size(r) for r in result))
    if parent == "analysis.explore_sn":
        tr.count("analysis.graph_nodes")


LAYERS = {
    "corpus.iter_shapes": _after_iter_shapes,
    "corpus.principal_typing": _after_principal_typing,
    "corpus.assignment_count": _after_assignment_count,
    "corpus.sr_shape_sweep": _after_sr_shape_sweep,
    "syntax.parse_term": None,
    "syntax.print_term": None,
    "typecheck.infer": None,
    "typecheck.check_subject_reduction": None,
    "analysis.explore_sn": None,
    "reduction.one_step_reducts": _after_one_step_reducts,
    "terms.canonical": None,
    "terms.substitute": None,
    "lemmas.run_suite": None,
}

COUNTERS = ("corpus.shapes", "corpus.typeable", "corpus.realizable", "corpus.instances",
            "corpus.sr_nodes", "corpus.sr_edges", "corpus.sr_fallbacks",
            "analysis.graph_nodes", "reduction.reducts")
SELF_TIMES = ("corpus.iter_shapes", "corpus.principal_typing", "corpus.assignment_count",
              "corpus.sr_shape_sweep", "syntax.parse_term", "syntax.print_term",
              "typecheck.infer", "analysis.explore_sn", "reduction.one_step_reducts",
              "terms.canonical", "terms.substitute", "lemmas.run_suite")
CALLS = ("corpus.principal_typing", "syntax.parse_term", "syntax.print_term",
         "typecheck.check_subject_reduction", "analysis.explore_sn",
         "reduction.one_step_reducts", "terms.canonical")


def layer_metrics(tr: "tracer.Tracer", overhead_s: float) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    c = tr.counts.get
    for layer in SELF_TIMES:
        put(f"{layer}.self_s", tr.layer_stats(layer)[2], "s")
    for layer in CALLS:
        put(f"{layer}.calls", tr.layer_stats(layer)[0], "count")
    for name in COUNTERS:
        put(name, int(c(name, 0)), "count")
    shapes, nodes, reducts = c("corpus.shapes", 0), c("analysis.graph_nodes", 0), c("reduction.reducts", 0)
    put("corpus.shape_yield", c("corpus.realizable", 0) / shapes if shapes else 0.0, "ratio")
    explore_s = tr.layer_stats("analysis.explore_sn")[1]
    put("analysis.us_per_node", explore_s * 1e6 / nodes if nodes else 0.0, "us/node")
    put("reduction.reduct_size_mean", c("reduction.reduct_size", 0) / reducts if reducts else 0.0, "nodes")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.spans", len(tr.span_layer), "count")
    put("trace.absent_layers", len(tr.absent), "count")
    return m


# ---------------------------------------------------------------------------
# entry point


def end_to_end_metrics(rounds: list[Round], setup_s: float, peak_rss_mb: float) -> dict:
    latencies = [x for r in rounds for x in r.latencies_ms]
    if len(latencies) >= 2:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    else:
        p90 = latencies[0] if latencies else 0.0
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "thm8_s": (statistics.median(r.thm8_s for r in rounds), "s"),
        "sr_s": (statistics.median(r.sr_s for r in rounds), "s"),
        "verdict_ms_p50": (statistics.median(latencies) if latencies else 0.0, "ms"),
        "verdict_ms_p90": (p90, "ms"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lambdamu" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'lambdamu'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    global analysis, corpus, lemmas, reduction, syntax, typecheck, gen, reducer, tracer
    from lambdamu import analysis, corpus, lemmas, reduction, syntax, typecheck
    import gen
    import reducer
    import tracer

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = process_age()

    rounds: list[Round] = []
    if args.trace:
        plain = workload.run_round()
        tr = tracer.Tracer(LAYERS)
        with tr:
            rounds.append(workload.run_round())
        for name in tr.absent:
            print(f"layer absent: {name}", file=sys.stderr)
        metrics = layer_metrics(tr, rounds[0].wall_s - plain.wall_s)
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"trace-{args.workload}-{args.seed}.bin")
    else:
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(workload.run_round())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end_metrics(rounds, setup_s, peak_rss_mb)

    problems, counts = workload.check(rounds[-1].outputs)
    for problem in problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    print("counts: " + json.dumps({"rounds": len(rounds), **counts}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

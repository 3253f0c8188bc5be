"""Command-line front end.

    lambdamu check "\\x:bot. x"
    lambdamu reduce "(\\x:bot. x) y" --strategy lo --max-steps 100 --trace
    lambdamu eta "(\\x:bot. x) ((\\x:bot. x) y)"
    lambdamu sn "(\\x. x x) (\\x. x x)" --fuel 10
    lambdamu graph "(\\x:bot. x) ((\\x:bot. x) y)" --format dot
    lambdamu lemmas --suite thm8 --max-size 7 --context "v:bot" --json out.json
    lambdamu enumerate --type "bot->bot" --max-size 4
    lambdamu step "(mu x:(bot->bot). x (\\w:bot. w)) v"

Exit codes: 0 success / verdict holds, 1 verdict failure (type error,
not strongly normalizing, suite failures), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis import (
    NotSN,
    StronglyNormalizing,
    Unknown,
    explore_sn,
    graph_to_dot,
    longest_reduction,
    reduction_graph,
)
from .lemmas import SUITES, SamplingFailed, SuiteConfig, report_to_json, run_suite
from .corpus import enumerate_typed_of_type
from .reduction import (
    format_trace,
    redex_positions,
    reduce_at,
    reduce_with_strategy,
)
from .syntax import ParseError, parse_context, parse_term, parse_type, print_term, format_type
from .terms import Term
from .typecheck import TypeCheckError, derivation_lines, infer

OK, VERDICT_FAILURE, USAGE = 0, 1, 2


def _read_term(arg: str) -> Term:
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return parse_term(fh.read())
    return parse_term(arg)


def _cmd_check(args) -> int:
    term = _read_term(args.term)
    try:
        if args.explain:
            for line in derivation_lines(args.context, term):
                print(line)
        else:
            print(format_type(infer(args.context, term)))
        return OK
    except TypeCheckError as err:
        print(f"type error: {err}", file=sys.stderr)
        return VERDICT_FAILURE


def _cmd_reduce(args) -> int:
    term = _read_term(args.term)
    trace = reduce_with_strategy(term, args.strategy, args.max_steps, args.seed)
    if args.trace and trace.steps:
        print(format_trace(trace))
    print(print_term(trace.final))
    return OK


def _print_status(status) -> int:
    if isinstance(status, StronglyNormalizing):
        print(f"SN eta={status.eta} nodes={status.graph_nodes}")
        return OK
    if isinstance(status, NotSN):
        print(f"NotSN cycle_length={len(status.cycle)}")
        return VERDICT_FAILURE
    print(f"Unknown nodes_visited={status.nodes_visited}")
    return VERDICT_FAILURE


def _cmd_eta(args) -> int:
    result = longest_reduction(_read_term(args.term), args.fuel)
    if isinstance(result, int):
        print(result)
        return OK
    return _print_status(result)


def _cmd_sn(args) -> int:
    return _print_status(explore_sn(_read_term(args.term), args.fuel))


def _cmd_graph(args) -> int:
    g = reduction_graph(_read_term(args.term), args.fuel)
    sys.stdout.write(graph_to_dot(g))
    return OK


def _cmd_lemmas(args) -> int:
    config = SuiteConfig.make(
        context=args.context,
        max_cxty=args.max_size,
        lgt_bound=args.lgt_bound,
        fuel=args.fuel,
        seed=args.seed,
    )
    report = run_suite(args.suite, config)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report, config))
            fh.write("\n")
    print(
        f"suite={report.suite} instances={report.instances} "
        f"passes={report.passes} failures={len(report.failures)} "
        f"max_eta={report.max_eta} max_graph_nodes={report.max_graph_nodes}"
    )
    for term, ctx_str, reason in report.failures[:50]:
        print(f"FAIL [{ctx_str}] {term}: {reason}", file=sys.stderr)
    return OK if report.ok else VERDICT_FAILURE


def _cmd_enumerate(args) -> int:
    goal = parse_type(args.type)
    for term in enumerate_typed_of_type(args.context, goal, args.max_size, args.lgt_bound):
        print(print_term(term))
    return OK


def _cmd_step(args) -> int:
    term = _read_term(args.term)
    while True:
        print(print_term(term))
        positions = redex_positions(term)
        if not positions:
            print("normal form")
            return OK
        for i, path in enumerate(positions):
            print(f"  [{i}] {'.'.join(path) or '-'}")
        sys.stdout.write("redex> ")
        sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:
            return OK
        line = line.strip()
        if not line:
            continue
        try:
            index = int(line)
        except ValueError:
            index = -1
        if 0 <= index < len(positions):
            term = reduce_at(term, positions[index])
        else:
            print(f"pick an index between 0 and {len(positions) - 1}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdamu",
        description="Type-check, reduce and analyze lambda-mu terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def term_arg(p):
        p.add_argument("term", help="a term, or @FILE to read one from a file")

    def ctx_flag(p):
        p.add_argument(
            "--context",
            default="",
            help="free-variable typings, comma separated: 'v:bot, f:bot->bot'",
        )

    p = sub.add_parser("check", help="infer the type of a term")
    term_arg(p)
    ctx_flag(p)
    p.add_argument("--explain", action="store_true", help="print the derivation, one rule per line")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("reduce", help="run a reduction strategy")
    term_arg(p)
    ctx_flag(p)
    p.add_argument("--strategy", choices=["head", "lo", "leftmost-outermost", "random"], default="lo")
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="print each step: index, path, term")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("eta", help="length of the longest reduction")
    term_arg(p)
    ctx_flag(p)
    p.add_argument("--fuel", type=int, default=100000)
    p.set_defaults(fn=_cmd_eta)

    p = sub.add_parser("sn", help="strong-normalization verdict")
    term_arg(p)
    ctx_flag(p)
    p.add_argument("--fuel", type=int, default=100000)
    p.set_defaults(fn=_cmd_sn)

    p = sub.add_parser("graph", help="the reduction graph")
    term_arg(p)
    ctx_flag(p)
    p.add_argument("--fuel", type=int, default=100000)
    p.add_argument("--format", choices=["dot"], default="dot")
    p.set_defaults(fn=_cmd_graph)

    p = sub.add_parser("lemmas", help="run a lemma suite")
    p.add_argument("--suite", choices=list(SUITES), required=True)
    p.add_argument("--max-size", type=int, default=11)
    p.add_argument("--lgt-bound", type=int, default=2)
    p.add_argument("--fuel", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", default=None, help="write the report to this path")
    ctx_flag(p)
    p.set_defaults(fn=_cmd_lemmas)

    p = sub.add_parser("enumerate", help="all typed terms of a type, within bounds")
    p.add_argument("--type", required=True)
    p.add_argument("--max-size", type=int, default=7)
    p.add_argument("--lgt-bound", type=int, default=2)
    ctx_flag(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("step", help="interactive stepper: pick redexes by index")
    term_arg(p)
    ctx_flag(p)
    p.set_defaults(fn=_cmd_step)

    return parser


# (argparse dest, least value) of the numeric options that have one
_LOWER_BOUNDS = (("fuel", 1), ("max_size", 1), ("lgt_bound", 0), ("max_steps", 0))


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for dest, least in _LOWER_BOUNDS:
        value = getattr(args, dest, least)
        if value < least:
            flag = "--" + dest.replace("_", "-")
            print(f"error: {flag} must be at least {least}, got {value}", file=sys.stderr)
            return USAGE
    try:
        args.context = parse_context(args.context)
        return args.fn(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return USAGE
    except (OSError, SamplingFailed, RecursionError) as err:
        # RecursionError: tuple equality recurses in C, so comparing two
        # distinct, equal, very deep terms can pass any recursion limit
        print(f"error: {err}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lambdamu.cli import main

MU_EXAMPLE = "(mu x:(bot->bot). (x (\\w:bot. w))) v"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check(capsys):
    code, out, _ = run(capsys, "check", "\\x:bot. x")
    assert code == 0 and out.strip() == "bot -> bot"


def test_check_type_error_exits_1(capsys):
    code, _, err = run(capsys, "check", "\\x. x")
    assert code == 1 and "unannotated-binder" in err


def test_check_explain(capsys):
    code, out, _ = run(capsys, "check", MU_EXAMPLE, "--context", "v:bot", "--explain")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[0].split()[0] == "->e"
    assert {line.strip().split()[0] for line in lines} == {"ax", "->i", "->e", "bot_c"}


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "check", "(\\x. x")
    assert code == 2 and "parse error" in err


def test_eta(capsys):
    code, out, _ = run(
        capsys, "eta", "(\\x:bot.x) ((\\x:bot.x) y)", "--context", "y:bot"
    )
    assert code == 0 and out.strip() == "2"


def test_sn_omega(capsys):
    code, out, _ = run(capsys, "sn", "(\\x. x x) (\\x. x x)", "--fuel", "10")
    assert code == 1 and out.strip() == "NotSN cycle_length=1"


def test_sn_ok(capsys):
    code, out, _ = run(capsys, "sn", MU_EXAMPLE)
    assert code == 0 and out.strip().startswith("SN eta=3")


def test_sn_unknown(capsys):
    code, out, _ = run(capsys, "sn", "(\\a. a a z) (\\a. a a z)", "--fuel", "50")
    assert code == 1 and out.startswith("Unknown nodes_visited=")


@pytest.mark.parametrize(
    "argv",
    [
        ("sn", "x", "--fuel", "0"),
        ("eta", "x", "--fuel", "-1"),
        ("graph", "x", "--fuel", "0"),
        ("lemmas", "--suite", "thm8", "--max-size", "5", "--context", "v:bot", "--fuel", "0"),
        ("lemmas", "--suite", "thm8", "--max-size", "-1"),
        ("lemmas", "--suite", "thm8", "--max-size", "0"),
        ("lemmas", "--suite", "thm8", "--lgt-bound", "-1"),
        ("enumerate", "--type", "bot", "--max-size", "0"),
        ("enumerate", "--type", "bot", "--lgt-bound", "-1"),
        ("reduce", "x", "--max-steps", "-3"),
    ],
)
def test_fuel_below_one_is_a_usage_error(capsys, argv):
    # and --max-size below 1, --lgt-bound and --max-steps below 0, likewise
    flag, value = argv[-2:]
    least = 0 if flag in ("--lgt-bound", "--max-steps") else 1
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: %s must be at least %d, got %s\n" % (flag, least, value)


@pytest.mark.parametrize("command", ["reduce", "eta", "sn", "graph", "step"])
def test_malformed_context_is_a_parse_error(capsys, command):
    code, out, err = run(capsys, command, "x", "--context", "garbage")
    assert code == 2 and out == ""
    assert err.startswith("parse error: expected name:type")
    assert err.count("\n") == 1


@pytest.mark.parametrize("context, message, span", [
    ("v:bot, w", "expected name:type", (7, 8)),  # the pair without a colon
    ("v:bot, w:bat", "expected a type", (9, 12)),  # the type text
])
def test_context_parse_errors_point_into_the_context_text(capsys, context, message, span):
    code, out, err = run(capsys, "sn", "v", "--context", context)
    assert code == 2 and out == ""
    assert err == "parse error: %s (at bytes %d..%d)\n" % ((message,) + span)


def test_sampler_without_inhabitants_is_a_usage_error():
    # no context and size 1: no term exists, so the l3 sampler must give up
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "lambdamu.cli", "lemmas", "--suite", "l3", "--max-size", "1"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: no typed term of size <= 1")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "sn"])
def test_deep_input_is_a_parse_error(tmp_path, command):
    # a fresh process at the default recursion limit: 900 nested
    # parentheses through a file, and a chain of 3,000 binders
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    if command == "check":
        path = tmp_path / "deep.lmu"
        path.write_text("(" * 900 + "v" + ")" * 900 + "\n")
        argv = ["check", f"@{path}", "--context", "v:bot"]
    else:
        argv = ["sn", "".join(f"\\x{i}. " for i in range(3000)) + "x0"]
    done = subprocess.run(
        [sys.executable, "-m", "lambdamu.cli", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("parse error: term nested too deeply")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "--context", "v:bot"], 1),
        (["reduce"], 0),
        (["reduce", "--trace"], 0),
    ],
    ids=["check", "reduce", "reduce-trace"],
)
def test_long_application_spine_in_a_fresh_process(tmp_path, argv, code):
    # a fresh process at the default recursion limit: the parser reads a
    # spine in a loop, and so must the type checker, the reducer and the
    # printer
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    path = tmp_path / "spine.lmu"
    path.write_text("(\\x. x) " + " ".join(["v"] * 3000) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "lambdamu.cli", argv[0], f"@{path}", *argv[1:]],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == code, done.stderr[-500:]
    if code:
        path_text = ".".join(["fun"] * 3000)
        expected = f"type error: unannotated-binder at {path_text}: binder 'x' has no annotation\n"
        assert done.stderr == expected
    else:
        normal_form = " ".join(["v"] * 3000)
        lines = done.stdout.splitlines()
        assert lines[-1] == normal_form
        if "--trace" in argv:
            assert lines[:-1] == ["\t".join(["0", ".".join(["fun"] * 2999), normal_form])]


@pytest.mark.parametrize("command", ["sn", "graph"])
def test_sn_and_graph_on_a_40000_argument_spine_in_a_fresh_process(tmp_path, command):
    # a fresh process at the default recursion limit: canonical forms and
    # term sizes loop down the spine, past the explorer's raised limit
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    path = tmp_path / "spine.lmu"
    args = " ".join(["v"] * 40000)
    path.write_text(f"(\\x. x) {args}\n")
    done = subprocess.run(
        [sys.executable, "-m", "lambdamu.cli", command, f"@{path}", "--context", "v:bot"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr[-500:]
    if command == "sn":
        assert done.stdout == "SN eta=1 nodes=2\n"
    else:
        root = f'"(\\\\x0. x0) {args}"'
        assert done.stdout.splitlines() == [
            "digraph reduction {",
            f"  {root} [root=true];",
            f'  "{args}";',
            f'  {root} -> "{args}";',
            "}",
        ]


@pytest.mark.parametrize("command", ["sn", "graph"])
def test_equal_deep_reducts_are_one_error_line_in_a_fresh_process(tmp_path, command):
    # two redexes give equal 40,000-deep reducts, and comparing two
    # distinct equal tuples recurses in C past any recursion limit: the
    # command reports it as an error, never a traceback
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    path = tmp_path / "spine.lmu"
    path.write_text("(\\x. x) ((\\y. y) v) " + " ".join(["v"] * 40000) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "lambdamu.cli", command, f"@{path}", "--context", "v:bot"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2, done.stderr[-500:]
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr[-500:]


def test_graph_of_a_deep_binder_chain_in_a_fresh_process():
    # a fresh process at the default recursion limit: `sn` decides the
    # term, and printing the nodes of its graph walks 700-deep binder
    # chains
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    term = "(\\f. f (f v)) (\\y. " + "".join(f"\\a{i}. " for i in range(700)) + "y)"
    done = subprocess.run(
        [sys.executable, "-m", "lambdamu.cli", "graph", term, "--context", "v:bot"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr[-500:]
    lines = done.stdout.splitlines()
    assert len(lines) == 12 and (lines[0], lines[-1]) == ("digraph reduction {", "}")
    assert sum(" -> " in line for line in lines) == 5
    assert sum(line.endswith(" [root=true];") for line in lines) == 1


@pytest.mark.parametrize("command", ["check", "sn"])
def test_a_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "term.lmu"
    path.write_bytes(b"\xff\\x. x\n")
    code, out, err = run(capsys, command, f"@{path}")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sn_on_a_root_larger_than_the_fuel_allowance(capsys):
    term = "(\\x. x) (" + " ".join(["v"] * 1400) + ")"
    code, out, _ = run(capsys, "sn", term, "--fuel", "10")
    assert code == 0 and out == "SN eta=1 nodes=2\n"


def test_reduce_trace(capsys):
    code, out, _ = run(capsys, "reduce", MU_EXAMPLE, "--trace")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4  # three steps plus the final term
    assert lines[-1] == "mu y:bot. y v"
    assert lines[0].split("\t")[0] == "0"


def test_reduce_strategies_agree_on_confluent_example(capsys):
    final = {}
    for strategy in ("lo", "head", "random"):
        code, out, _ = run(capsys, "reduce", "(\\x:bot. x) y", "--strategy", strategy)
        assert code == 0
        final[strategy] = out.strip()
    assert final["lo"] == final["random"] == "y"


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "(\\x:bot. x) y")
    assert code == 0
    assert out.startswith("digraph reduction {")
    assert '[root=true]' in out


@pytest.mark.parametrize("text, sn, nodes, edges", [
    ("(\\a. \\b. a) (\\c. x1)", "SN eta=1 nodes=2",
     ["(\\x0. \\x2. x0) (\\x3. x1)", "\\x0. \\x2. x1"], [(0, 1)]),
    ("(\\x. x) x0", "SN eta=1 nodes=2", ["(\\x1. x1) x0", "x0"], [(0, 1)]),
    ("(\\a. \\b. \\c. a) x2 x5", "SN eta=2 nodes=3",
     ["(\\x0. \\x1. \\x3. x0) x2 x5", "(\\x0. \\x1. x2) x5", "\\x0. x2"],
     [(0, 1), (1, 2)]),
    ("(mu a. a x1) (\\b. b)", "SN eta=2 nodes=3",
     ["(mu x0. x0 x1) (\\x2. x2)", "mu x0. (\\x2. x0 (x2 (\\x3. x3))) x1",
      "mu x0. x0 (x1 (\\x2. x2))"], [(0, 1), (1, 2)]),
    ("\\a. x7", "SN eta=0 nodes=1", ["\\x0. x7"], []),
])
def test_free_numbered_names_print_as_before(capsys, text, sn, nodes, edges):
    # binders are numbered around the free names x0, x1, ...
    code, out, _ = run(capsys, "sn", text)
    assert code == 0 and out == sn + "\n"
    code, out, _ = run(capsys, "graph", text, "--format", "dot")
    quoted = ['"' + n.replace("\\", "\\\\") + '"' for n in nodes]
    lines = ["digraph reduction {", f"  {quoted[0]} [root=true];"]
    lines += [f"  {q};" for q in quoted[1:]]
    lines += [f"  {quoted[a]} -> {quoted[b]};" for a, b in edges]
    assert code == 0 and out == "\n".join(lines + ["}"]) + "\n"


def test_cut_graph_does_not_depend_on_hash_seed():
    # fuel 7 cuts this graph; which nodes survive the cut must not
    # follow set iteration order
    import lambdamu

    src = str(Path(lambdamu.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "lambdamu.cli", "graph",
            "f ((\\x. x) v) ((\\x. x) v) ((\\x. x) v) ((\\x. x) v) ((\\x. x) v)",
            "--fuel", "7"]
    outs = set()
    for seed in ("1", "2", "3", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        outs.add(done.stdout)
    assert len(outs) == 1
    assert outs.pop().startswith("digraph reduction {")


def test_lemmas_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "lemmas",
        "--suite",
        "l3",
        "--max-size",
        "5",
        "--fuel",
        "500",
        "--seed",
        "9",
        "--context",
        "v:bot",
        "--json",
        str(path),
    )
    assert code == 0
    assert "suite=l3" in out and "failures=0" in out
    doc = json.loads(path.read_text())
    assert doc["suite"] == "l3"
    assert doc["config"]["seed"] == 9
    assert doc["passes"] == doc["instances"]


def test_lemmas_thm8_small(capsys):
    code, out, _ = run(
        capsys, "lemmas", "--suite", "thm8", "--max-size", "4", "--fuel", "1000",
        "--context", "v:bot",
    )
    assert code == 0
    assert "instances=468" in out


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--type", "bot->bot", "--max-size", "2", "--lgt-bound", "1"
    )
    assert code == 0
    assert "\\x0:bot. x0" in out.splitlines()


def test_step(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
    code, out, _ = run(capsys, "step", "(\\x:bot. x) y")
    assert code == 0
    assert "normal form" in out
    assert "[0]" in out


def test_step_rejects_an_index_outside_the_list(capsys, monkeypatch):
    # -1 must not pick the last redex
    term = "(\\x:bot. x) ((\\x:bot. x) y)"
    monkeypatch.setattr("sys.stdin", io.StringIO("-1\n2\n"))
    code, out, err = run(capsys, "step", term)
    assert code == 0
    assert err == "pick an index between 0 and 1\n" * 2
    assert out.count("(\\x:bot. x) ((\\x:bot. x) y)\n") == 3


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--suite", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "x", "--unknown-flag"])
    assert exc.value.code == 2


def test_term_from_file(capsys, tmp_path):
    path = tmp_path / "term.lmu"
    path.write_text("-- identity\n\\x:bot. x\n")
    code, out, _ = run(capsys, "check", f"@{path}")
    assert code == 0 and out.strip() == "bot -> bot"


def test_every_capability_has_a_command():
    """Coverage audit: each command group exposes its library surface.

    check      -> infer, derivation_lines (and the parser under everything)
    reduce     -> reduce_with_strategy, redex_positions, reduce_at, traces
    eta        -> longest_reduction (on top of substitute/canonical)
    sn         -> explore_sn (cycle witnesses, alpha-quotient graphs)
    graph      -> reduction_graph, graph_to_dot
    lemmas     -> all six suites: enumeration, random generation, the
                  lemma checks, measure_quadruple, reports
    enumerate  -> enumerate_typed_of_type
    step       -> redex_positions + reduce_at interactively
    """
    from lambdamu.cli import _build_parser
    from lambdamu.lemmas import SUITES

    parser = _build_parser()
    actions = [a for a in parser._actions if a.dest == "command"]
    commands = set(actions[0].choices)
    assert commands == {
        "check",
        "reduce",
        "eta",
        "sn",
        "graph",
        "lemmas",
        "enumerate",
        "step",
    }
    assert set(SUITES) == {"l3", "l4", "l5", "l7", "sr", "thm8"}

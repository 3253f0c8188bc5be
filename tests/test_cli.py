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
    ],
)
def test_fuel_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --fuel must be at least 1, got %s\n" % argv[-1]


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

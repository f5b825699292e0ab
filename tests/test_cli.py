import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from cliquedyn import are_isomorphic, complete_graph, cycle_graph, octahedron, regular
from cliquedyn.cli import build_parser, main, parse_graph_expression
from cliquedyn.graph6 import encode
from cliquedyn.regular import RegularGenSpec, enumerate_regular


def test_expression_parser():
    assert parse_graph_expression("cycle 5") == cycle_graph(5)
    assert parse_graph_expression("complete 4") == complete_graph(4)
    assert are_isomorphic(parse_graph_expression("octahedron 3"), octahedron(3))
    g = parse_graph_expression("complement(union(cycle 3, cycle 5))")
    assert g.n == 8
    j = parse_graph_expression("join(empty 2, empty 2)")
    assert are_isomorphic(j, cycle_graph(4))
    assert parse_graph_expression("complete_bipartite 3 3").edge_count() == 9


def test_expression_parser_rejects_garbage():
    for bad in ("cycle", "cycle x", "frob 3", "union(cycle 3", "cycle 3 junk", ""):
        with pytest.raises(ValueError):
            parse_graph_expression(bad)


def test_analyze_octahedron(capsys):
    code = main(["analyze", "octahedron 3", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["helly"]["is_helly"] is False
    assert out["behavior"]["status"] == "divergent"
    assert out["behavior"]["certificate"]["kind"] == "octahedron"
    assert out["behavior"]["certificate"]["m"] == 3


def test_analyze_cycle_complements(capsys):
    code = main(["analyze", "complement(cycle 7)", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["behavior"]["status"] == "convergent"

    code = main(["analyze", "complement(union(cycle 3, cycle 5))", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["behavior"]["status"] == "divergent"
    assert out["behavior"]["certificate"]["kind"] == "connected-sum"


def test_analyze_graph6_string(capsys):
    code = main(["analyze", "C~", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["order"] == 4 and out["clique_count"] == 1


def test_analyze_capped_clique_count_is_null_with_a_note(capsys):
    argv = ["analyze", "complement(cycle 7)", "--limit-cliques", "3", "--limit-vertices", "10", "--format", "json"]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out) == {
        "behavior": {
            "iterations_done": 0,
            "limit": "clique-cap",
            "max_order_seen": 7,
            "status": "unknown",
            "trace": [[7, 14, "~fca5637dab4"]],
        },
        "clique_count": None,
        "clique_count_note": "maximal clique count exceeded the cap of 3",
        "degrees": {"max": 4, "min": 4, "regular": 4},
        "edges": 14,
        "helly": {"is_helly": True, "witness": None},
        "input": "complement(cycle 7)",
        "order": 7,
    }


def test_analyze_finds_the_constructor_name_before_any_whitespace(capsys):
    assert main(["analyze", "cycle\t5", "--format", "json"]) == 0
    tab = json.loads(capsys.readouterr().out)
    assert main(["analyze", "cycle 5", "--format", "json"]) == 0
    space = json.loads(capsys.readouterr().out)
    assert tab == {**space, "input": "cycle\t5"}
    assert (tab["order"], tab["edges"], tab["degrees"]["regular"]) == (5, 5, 2)
    assert main(["analyze", ""]) == 2


def test_analyze_bad_input_exits_2(tmp_path, capsys):
    assert main(["analyze", "cycle nope"]) == 2
    assert main(["analyze", "!!notgraph6!!"]) == 2
    el = tmp_path / "g.edges"
    el.write_text("3 2\n0 1\n1 0\n")
    assert main(["analyze", str(el)]) == 2
    assert "repeated edge (0, 1)" in capsys.readouterr().err


def test_analyze_resource_limit_exits_3(capsys):
    code = main(["analyze", "complement(cycle 7)", "--limit-cliques", "3"])
    assert code == 3
    # the table names the cap the count passed, in the JSON note's words
    assert capsys.readouterr().out == (
        "order 7, edges 14, maximal clique count exceeded the cap of 3\n"
        "helly: True\n"
        "behavior: unknown (clique-cap after 0 iterations)\n"
    )


def test_analyze_file_inputs(tmp_path, capsys):
    g6 = tmp_path / "g.g6"
    g6.write_text("C~\n")
    assert main(["analyze", str(g6), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 4

    el = tmp_path / "g.edges"
    el.write_text("3 3\n0 1\n1 2\n0 2\n")
    assert main(["analyze", str(el), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 3 and out["edges"] == 3


def test_census_cli(tmp_path, capsys):
    out_path = tmp_path / "census.json"
    code = main(
        ["census", "-k", "2", "-n", "8", "--check", "helly", "--check", "behavior",
         "--jobs", "1", "--out", str(out_path), "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["total"] == 3
    assert doc["spec"]["count"] == 100
    assert doc["totals"]["helly_complement"] == 1
    # exemplar sidecar files in plain graph6
    side = tmp_path / "census.json.helly-complement.g6"
    assert side.exists()
    assert len(side.read_text().strip().splitlines()) == 1


def test_census_cli_unknown_exits_3(capsys):
    code = main(
        ["census", "-k", "2", "-n", "8", "--check", "behavior",
         "--jobs", "1", "--limit-iter", "1"]
    )
    assert code == 3


def test_search_cli(tmp_path, capsys):
    out_path = tmp_path / "hits.json"
    code = main(
        ["search", "-k", "3", "-n", "12", "--target", "helly-complement",
         "--out", str(out_path), "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["hits"]) == 1

    code = main(["search", "-k", "1", "-n", "8", "--target", "helly-complement"])
    assert code == 1  # no hits


def test_search_cli_prints_one_line_per_hit(capsys):
    argv = ["search", "-k", "1", "-n", "8", "--target", "convergent-nonhelly-complement"]
    assert main(argv) == 1
    assert capsys.readouterr().out == "0 hit(s)\n"
    argv = ["search", "-k", "3", "-n", "12", "--target", "helly-complement"]
    assert main(argv + ["--format", "json"]) == 0
    hits = [h["graph6"] for h in json.loads(capsys.readouterr().out)["hits"]]
    assert main(argv) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in ["1 hit(s)"] + hits)


def test_bound_cli(capsys):
    code = main(["bound", "3", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = out["rows"]
    assert [r["n"] for r in rows] == [5, 9, 13]


def test_bound_cli_table(capsys):
    assert main(["bound", "2"]) == 0
    text = capsys.readouterr().out
    assert "N(k)" in text


def test_gen_cli(tmp_path, capsys):
    out_path = tmp_path / "g.g6"
    assert main(["gen", "-k", "3", "-n", "6", "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert main(["gen", "-k", "4", "-n", "40"]) == 2  # ceiling exceeded


def test_gen_cli_refuses_a_ceiling_below_one(monkeypatch, capsys):
    monkeypatch.setattr(regular, "_regular_classes", lambda k, n: ())
    assert main(["gen", "-k", "3", "-n", "8", "--ceiling", "-1"]) == 2
    assert capsys.readouterr().err == "gen error: ceiling must be positive, got -1\n"


def test_gen_cli_without_graphs_writes_nothing(tmp_path, capsys):
    out_path = tmp_path / "none.g6"
    with pytest.warns(UserWarning, match="no 3-regular graphs on 7 vertices"):
        assert main(["gen", "-k", "3", "-n", "7", "--out", str(out_path)]) == 0
        assert main(["gen", "-k", "3", "-n", "7"]) == 0
    assert out_path.read_text() == ""
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "-k", "3", "-n", "8", "--random", "--count", "0"],
        ["gen", "-k", "-1", "-n", "5"],
        ["analyze", "cycle 5", "--limit-iter", "0"],
        ["search", "-k", "3", "-n", "8", "--target", "helly-complement", "--limit-vertices", "0"],
        ["census", "-k", "3", "-n", "12", "--random", "--count", "5", "--seed", "-2", "--check", "helly"],
        ["census", "-k", "3", "-n", "8", "--jobs", "0"],
        ["search", "-k", "3", "-n", "8", "--target", "helly-complement", "--max-hits", "0"],
        ["search", "-k", "3", "-n", "8", "--target", "helly-complement", "--max-hits", "-1"],
        ["search", "-k", "3", "-n", "8", "--target", "helly-complement", "--budget", "0"],
    ],
)
def test_bad_flags_exit_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]} error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("make_argv", [lambda n: ["gen", "-k", "1", "-n", str(n)]], ids=["gen"])
def test_recursion_too_deep_exits_2_with_one_line(make_argv, capsys):
    # the row placement for degrees 1 and 2 recurses once per row; an
    # order past the recursion limit is refused, and the limit is kept
    limit = sys.getrecursionlimit()
    argv = make_argv(limit + 200)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]} error: maximum recursion depth exceeded")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sys.getrecursionlimit() == limit


def _search_hits(argv, capsys):
    code = main(["search", *argv, "--format", "json"])
    return code, [h["graph6"] for h in json.loads(capsys.readouterr().out)["hits"]]


def test_search_random_budget_is_the_sample_count(capsys):
    # expected hits were recorded before search took a spec; they must not change
    argv = ["-k", "2", "-n", "9", "--random", "--seed", "3", "--target", "divergent-complement"]
    code, hits = _search_hits(argv + ["--budget", "5"], capsys)
    assert code == 0
    assert hits == ["HoCPACK", "H`?IS_c", "HCJ@a?H", "HGU?cGa", "HCW_Gf?"]
    spec = RegularGenSpec(k=2, n=9, mode="random", count=5, seed=3)
    assert hits == list(map(encode, enumerate_regular(spec)))
    # with --connected the budget still counts samples drawn, not connected ones kept
    argv = ["-k", "2", "-n", "9", "--random", "--connected", "--seed", "0",
            "--target", "divergent-complement"]
    assert _search_hits(argv + ["--budget", "5"], capsys) == (0, ["HbA@?SK", "H`?IS_c"])
    # every sample of 1-regular graphs on 4 vertices has a Helly complement (C4)
    argv = ["-k", "1", "-n", "4", "--random", "--target", "helly-complement"]
    assert len(_search_hits(argv, capsys)[1]) == 1000
    assert len(_search_hits(argv + ["--budget", "1200"], capsys)[1]) == 1200


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_commands() -> list[list[str]]:
    text = README.read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["cliquedyn"]:
                commands.append(words[1:])
    return commands


def test_readme_cli_examples_parse():
    # parses every `cliquedyn ...` line of the README's sh blocks; runs none
    commands = _readme_cli_commands()
    assert len(commands) == 7
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_quick_tour_runs_and_states_its_values():
    # runs the README's python block line by line; every expression line
    # whose comment states a value must produce it: its repr, or the
    # length of a list
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        source, _, comment = line.partition("#")
        if not source.strip():
            continue
        try:
            code = compile(source.strip(), "README.md", "eval")
        except SyntaxError:
            exec(source.strip(), namespace)
            continue
        value = eval(code, namespace)
        stated = f"{len(value)} " if isinstance(value, list) else repr(value)
        assert comment.strip().startswith(stated), (source, value)
        checked += 1
    assert checked == 5

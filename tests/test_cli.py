"""End-to-end checks of the command line surface.

Each test drives scgm.cli.main with an argv list and inspects exit
codes, stdout, and the files written into a temp directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scgm import ContingencyTable, VariableSpec, dump_table
from scgm.cli import main
from scgm.constraints import render_statement
from scgm.graphs import parse_graph, stratified_markov

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return write_chain_inputs(tmp_path_factory.mktemp("cli"))


def write_chain_inputs(root):
    """Chain table over three binary variables plus graph specs for it.

    The generating distribution factors as p(1) p(2|1) p(3|2), so the
    arc 1 -> 3 of the complete ordering is superfluous.
    """
    vs = (VariableSpec("1", 2), VariableSpec("2", 2), VariableSpec("3", 2))
    p1 = np.array([0.6, 0.4])
    p2g1 = np.array([[0.8, 0.2], [0.3, 0.7]])
    p3g2 = np.array([[0.75, 0.25], [0.2, 0.8]])
    counts = []
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                counts.append(5000 * p1[i1] * p2g1[i1, i2] * p3g2[i2, i3])
    table = ContingencyTable(vs, counts)
    (root / "chain.csv").write_text(dump_table(table), encoding="utf-8")
    (root / "chain.json").write_text(dump_table(table, format="json"), encoding="utf-8")
    (root / "complete.graph").write_text(
        "component T1 = {1}\ncomponent T2 = {2}\ncomponent T3 = {3}\n"
        "arc 1 -> 2\narc 2 -> 3\narc 1 -> 3\n",
        encoding="utf-8",
    )
    (root / "true.graph").write_text(
        "component T1 = {1}\ncomponent T2 = {2}\ncomponent T3 = {3}\n"
        "arc 1 -> 2\narc 2 -> 3\n",
        encoding="utf-8",
    )
    (root / "broken.graph").write_text("component T1 = {1,2\n", encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_admissible_graph(capsys):
    assert main(["validate", "--graph", str(GOLDEN / "fig_a.graph")]) == 0
    assert "admissible" in capsys.readouterr().out


def test_validate_rejects_bad_stratum(capsys):
    assert main(["validate", "--graph", str(GOLDEN / "fig3.graph")]) == 1
    out = capsys.readouterr().out
    assert "not admissible" in out
    assert "stratum" in out


def test_validate_malformed_file_is_a_parse_error(workdir, capsys):
    assert main(["validate", "--graph", str(workdir / "broken.graph")]) == 2
    assert main(["validate", "--graph", str(workdir / "no-such-file.graph")]) == 2


def test_validate_rejects_a_duplicate_component_name(tmp_path, capsys):
    path = tmp_path / "dup.graph"
    path.write_text("component A = {1,2}\ncomponent A = {3}\n", encoding="utf-8")
    assert main(["validate", "--graph", str(path)]) == 1
    assert "component A declared twice" in capsys.readouterr().out


def test_validate_reports_an_arc_to_an_undeclared_vertex(tmp_path, capsys):
    path = tmp_path / "undeclared.graph"
    path.write_text(
        "component A = {1}\ncomponent B = {2,3}\narc 1 -> 9\nstratum (1,2) | {} = {()}\n",
        encoding="utf-8",
    )
    assert main(["validate", "--graph", str(path)]) == 1
    out = capsys.readouterr().out
    assert "arc 1 -> 9 uses an undeclared vertex" in out


@pytest.mark.parametrize(
    "name, text",
    [
        ("bad.graph", "component T1 = {1}\ncomponent T2 = {2,3}\narc 1 -> 2\n"
                      "stratum (2,3) | {1} = {(x)}\n"),
        ("bad.json", json.dumps({
            "schema": "scgm-graph/1",
            "components": [{"name": "T1", "vertices": ["1"]},
                           {"name": "T2", "vertices": ["2", "3"]}],
            "arcs": [["1", "2"]],
            "strata": [{"pair": ["2", "3"], "given": ["1"], "patterns": [["x"]]}],
        })),
    ],
    ids=["text", "json"],
)
def test_validate_non_integer_context_level_is_a_parse_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'x' is not an integer" in err
    if name.endswith(".graph"):
        assert "line 4" in err


def _graph_json(**fields):
    graph = {
        "schema": "scgm-graph/1",
        "components": [{"name": "T1", "vertices": ["1"]},
                       {"name": "T2", "vertices": ["2", "3"]}],
        "edges": [],
        "arcs": [["1", "2"]],
        "strata": [],
    }
    graph.update(fields)
    return json.dumps(graph)


@pytest.mark.parametrize(
    "text, message",
    [
        (_graph_json(edges=[["1", "2", "3"]]), "an edge must be a list of 2 vertex names"),
        (_graph_json(arcs=[["1"]]), "an arc must be a list of 2 vertex names"),
        (_graph_json(strata=[{"pair": ["1", "2", "3"], "given": [], "patterns": [[]]}]),
         "a stratum pair must be a list of 2 vertex names"),
        (_graph_json(components=[{"name": "T1", "vertices": "123"}]),
         "component T1 vertices must be a list of vertex names"),
        (_graph_json(components=[{"name": ["T1"], "vertices": ["1"]}]),
         "a component name must be a string, got ['T1']"),
    ],
    ids=["edge", "arc", "stratum-pair", "vertices-string", "name-list"],
)
def test_validate_misshapen_json_graph_is_a_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", "--graph", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_validate_reports_an_empty_json_component(workdir, tmp_path, capsys):
    # the text parser refuses an empty component; a JSON graph used to pass
    # validate and then fail the fit with an unrelated statement error
    path = tmp_path / "empty.json"
    path.write_text(
        _graph_json(components=[{"name": "T1", "vertices": ["1", "2", "3"]},
                                {"name": "B", "vertices": []}],
                    edges=[["1", "2"], ["2", "3"]], arcs=[]),
        encoding="utf-8",
    )
    assert main(["validate", "--graph", str(path)]) == 1
    assert "component B lists no vertices" in capsys.readouterr().out
    code = main(["fit", "--table", str(workdir / "chain.csv"),
                 "--graph", str(path), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 1
    assert "not admissible" in out
    assert "component B lists no vertices" in out


@pytest.mark.parametrize(
    "name, text",
    [
        ("dup.csv", "variable,cardinality,coding\n1,2,baseline\n1,2,baseline\n"),
        ("dup.json", json.dumps({
            "schema": "scgm-table/1",
            "variables": [{"name": "1", "cardinality": 2},
                          {"name": "1", "cardinality": 2}],
            "cells": [],
        })),
    ],
    ids=["csv", "json"],
)
def test_a_table_declaring_a_variable_twice_is_a_format_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    graph = tmp_path / "one.graph"
    graph.write_text("component T1 = {1}\n", encoding="utf-8")
    assert main(["validate", "--graph", str(graph), "--table", str(path)]) == 2
    assert capsys.readouterr().err == "error: duplicate variable name '1'\n"


# ---------------------------------------------------------------------------
# markov


def test_markov_lists_statements(capsys):
    assert main(["markov", "--graph", str(GOLDEN / "fig_a.graph")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "CI: {3} _||_ {4} | {1,2}",
        "CI: {3} _||_ {2} | {1}",
        "CI: {5} _||_ {1,2}",
    ]


def test_markov_json_and_files(workdir, capsys):
    out_dir = workdir / "markov"
    code = main(
        ["markov", "--graph", str(workdir / "true.graph"),
         "--table", str(workdir / "chain.csv"),
         "--json", "--out", str(out_dir)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "scgm-statements/1"
    assert [s["text"] for s in payload["statements"]] == ["CI: {3} _||_ {1} | {2}"]
    assert payload["run"]["version"]
    assert payload["run"]["seed"] == 0

    text = (out_dir / "statements.txt").read_text(encoding="utf-8")
    assert "# command: markov" in text
    assert "CI: {3} _||_ {1} | {2}" in text
    disk = json.loads((out_dir / "statements.json").read_text(encoding="utf-8"))
    assert disk["statements"] == payload["statements"]


# ---------------------------------------------------------------------------
# constraints


def test_constraints_from_statement(workdir, capsys):
    out_dir = workdir / "c-stmt"
    code = main(
        ["constraints", "--table", str(workdir / "chain.csv"),
         "--statement", "CI: {3} _||_ {1} | {2}", "--out", str(out_dir)]
    )
    assert code == 0
    payload = json.loads((out_dir / "constraints.json").read_text(encoding="utf-8"))
    assert payload["schema"] == "scgm-constraints/1"
    assert len(payload["rows"]) == 2
    assert payload["run"]["aic_formula"].startswith("AIC = ")


def test_lower_threshold_constraints_carry_the_tables_codings(tmp_path, capsys):
    vs = (
        VariableSpec("1", 2),
        VariableSpec("2", 2, "local"),
        VariableSpec("3", 3, "reverse-continuation"),
    )
    table = tmp_path / "leq.csv"
    table.write_text(dump_table(ContingencyTable(vs, np.arange(1.0, 13.0))), encoding="utf-8")
    code = main(
        ["constraints", "--table", str(table),
         "--statement", "CS: {1} _||_ {2} | {3} <= (2)", "--out", str(tmp_path / "out")]
    )
    assert code == 0
    payload = json.loads((tmp_path / "out" / "constraints.json").read_text(encoding="utf-8"))
    assert payload["variables"] == [
        {"name": "1", "cardinality": 2, "coding": "baseline"},
        {"name": "2", "cardinality": 2, "coding": "local"},
        {"name": "3", "cardinality": 3, "coding": "reverse-continuation"},
    ]
    assert len(payload["rows"]) == 2


def test_constraints_from_graph_prints_json_without_out(workdir, capsys):
    code = main(
        ["constraints", "--table", str(workdir / "chain.csv"),
         "--graph", str(workdir / "true.graph")]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["origin"] == "chain graph model"
    assert len(payload["rows"]) == 2


def test_constraints_rejects_bad_statement(workdir, capsys):
    code = main(
        ["constraints", "--table", str(workdir / "chain.csv"),
         "--statement", "CI: {3} _||_ {9}"]
    )
    assert code == 1


@pytest.mark.parametrize("op", ["=", ">="])
def test_constraints_rejects_a_non_integer_context_level(workdir, capsys, op):
    code = main(
        ["constraints", "--table", str(workdir / "chain.csv"),
         "--statement", f"CS: {{2}} _||_ {{3}} | {{1}} {op} (x)"]
    )
    assert code == 1
    assert "'x' in '(x)' is not an integer" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_all_outputs(workdir, capsys):
    out_dir = workdir / "fit-true"
    code = main(
        ["fit", "--table", str(workdir / "chain.csv"),
         "--graph", str(workdir / "true.graph"), "--out", str(out_dir)]
    )
    assert code == 0
    fit = json.loads((out_dir / "fit.json").read_text(encoding="utf-8"))
    assert fit["schema"] == "scgm-fit/1"
    assert fit["G2"] < 1e-6
    assert fit["df"] == 2
    assert fit["converged"] is True
    assert fit["aic_formula"] == fit["run"]["aic_formula"]
    assert fit["run"]["config"]["graph"] == str(workdir / "true.graph")

    beta = (out_dir / "beta.csv").read_text(encoding="utf-8")
    assert beta.startswith("# scgm ")
    assert "component,responses,covariates,covariate_cell,response_cell,value" in beta
    for name in ("T1", "T2", "T3"):
        assert (out_dir / f"conditional_{name}.csv").exists()
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["schema"] == "scgm-report/1"


def test_fit_on_fig4_writes_the_regression_report(tmp_path, capsys):
    # fig4's component T3 has parents declared out of table order
    out_dir = tmp_path / "fig4"
    code = main(
        ["fit", "--table", str(GOLDEN / "fig4_sparse288_0.csv"),
         "--graph", str(GOLDEN / "fig4.graph"), "--out", str(out_dir)]
    )
    assert code == 0
    assert "regression report skipped" not in capsys.readouterr().err
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert [c["name"] for c in report["components"]] == ["T1", "T2", "T3"]
    for name in ("T1", "T2", "T3"):
        assert (out_dir / f"conditional_{name}.csv").exists()


def test_fit_accepts_json_tables_and_repeats_byte_identically(workdir, capsys):
    out_a = workdir / "fit-a"
    out_b = workdir / "fit-b"
    argv = ["fit", "--table", str(workdir / "chain.json"),
            "--graph", str(workdir / "complete.graph")]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_a)]) == 0
    first = (out_a / "fit.json").read_bytes()
    assert main(argv + ["--out", str(out_b)]) == 0
    again = (out_a / "fit.json").read_bytes()
    assert first == again
    # different out dir: identical except for the recorded out path
    other = (out_b / "fit.json").read_text(encoding="utf-8")
    assert other.replace(str(out_b), str(out_a)) == first.decode("utf-8")


def test_fit_saturated_model_is_exact(workdir, capsys):
    out_dir = workdir / "fit-sat"
    code = main(
        ["fit", "--table", str(workdir / "chain.csv"),
         "--graph", str(workdir / "complete.graph"), "--out", str(out_dir)]
    )
    assert code == 0
    fit = json.loads((out_dir / "fit.json").read_text(encoding="utf-8"))
    assert fit["G2"] == 0.0
    assert fit["df"] == 0
    assert fit["iterations"] == 0


def test_fit_iteration_cap_exits_three(workdir, capsys):
    out_dir = workdir / "fit-capped"
    code = main(
        ["fit", "--table", str(workdir / "chain.csv"),
         "--graph", str(workdir / "true.graph"),
         "--max-iterations", "1", "--out", str(out_dir)]
    )
    assert code == 3
    fit = json.loads((out_dir / "fit.json").read_text(encoding="utf-8"))
    assert fit["converged"] is False


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-iterations", "0"], "max_iterations must be positive and finite, got 0"),
        (["--smoothing", "-1"], "smoothing must be positive and finite, got -1.0"),
        (["--smoothing", "nan"], "smoothing must be positive and finite, got nan"),
    ],
    ids=["max-iterations-0", "smoothing-negative", "smoothing-nan"],
)
def test_fit_rejects_a_bad_option(workdir, tmp_path, capsys, flags, message):
    code = main(
        ["fit", "--table", str(workdir / "chain.csv"),
         "--graph", str(workdir / "true.graph"), "--out", str(tmp_path / "o"), *flags]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--table", "{table}", "--graph", "{graph}"],
        ["markov", "--table", "{table}", "--graph", "{graph}"],
        ["constraints", "--table", "{table}", "--graph", "{graph}"],
        ["fit", "--table", "{table}", "--graph", "{graph}", "--out", "{out}"],
        ["search", "--table", "{table}", "--graph", "{graph}", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_table_that_does_not_match_the_graph_is_not_admissible(
    workdir, tmp_path, capsys, argv
):
    # validate used to call such a graph admissible; the other subcommands
    # printed the mismatch without the admissibility header
    vs = (VariableSpec("x", 2), VariableSpec("y", 2), VariableSpec("z", 2))
    table = tmp_path / "xyz.csv"
    table.write_text(dump_table(ContingencyTable(vs, np.ones(8))), encoding="utf-8")
    paths = {"table": table, "graph": workdir / "true.graph", "out": tmp_path / "o"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().out == (
        "graph spec is not admissible:\n"
        "  - graph vertices ['1', '2', '3'] do not match the table "
        "variables ['x', 'y', 'z']\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["markov", "--table", "{table}", "--graph", "{graph}"],
        ["constraints", "--table", "{table}", "--graph", "{graph}"],
        ["fit", "--table", "{table}", "--graph", "{graph}", "--out", "{out}"],
        ["search", "--table", "{table}", "--graph", "{graph}", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize(
    "spec, problem",
    [
        ("edge 1 -- 3\n", "edge 1 -- 3 crosses components T1 and T3"),
        ("arc 3 -> 1\n", "semi-directed cycle through components T1, T2, T3"),
    ],
    ids=["crossing-edge", "cycle"],
)
def test_a_structural_problem_is_reported_by_the_library(
    workdir, tmp_path, capsys, argv, spec, problem
):
    # problems validate finds without a table: the subcommands no longer
    # check the graph themselves, the library raises and main reports it
    graph = tmp_path / "bad.graph"
    graph.write_text((workdir / "true.graph").read_text(encoding="utf-8") + spec, encoding="utf-8")
    paths = {"table": workdir / "chain.csv", "graph": graph, "out": tmp_path / "o"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"graph spec is not admissible:\n  - {problem}\n"
    assert captured.err == ""
    assert not (tmp_path / "o").exists()


def test_fit_validates_its_graph_five_times(workdir, tmp_path, monkeypatch):
    # cli, regression and graphs each used to check the same graph: 7 calls
    import scgm.cli
    import scgm.fitting
    import scgm.graphs
    import scgm.regression

    calls = []
    original = scgm.graphs.validate

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (scgm.graphs, scgm.regression, scgm.fitting, scgm.cli):
        monkeypatch.setattr(module, "validate", counting)
    code = main(
        ["fit", "--table", str(GOLDEN / "fig4_sparse288_0.csv"),
         "--graph", str(GOLDEN / "fig4.graph"), "--out", str(tmp_path / "o")]
    )
    assert code == 0
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# search


def test_search_recovers_the_generating_graph(workdir, capsys):
    out_dir = workdir / "search"
    code = main(
        ["search", "--table", str(workdir / "chain.csv"),
         "--graph", str(workdir / "complete.graph"), "--out", str(out_dir)]
    )
    assert code == 0
    trace = json.loads((out_dir / "search.json").read_text(encoding="utf-8"))
    assert trace["schema"] == "scgm-trace/1"
    assert trace["final_graph"] == (workdir / "true.graph").read_text(encoding="utf-8")
    assert trace["step2"]["removable"] == [["arc", "1", "3"]]
    assert trace["run"]["config"]["criterion"] == "max-aic"

    text = (out_dir / "search.txt").read_text(encoding="utf-8")
    assert "step 1: single-link removals" in text
    assert "step 2: joint removal and single restorations" in text
    assert "step 3: context-specific weakenings" in text
    assert "CI: {3} _||_ {1} | {2}" in text


def test_search_reruns_byte_identically(workdir, capsys):
    out_dir = workdir / "search-again"
    argv = ["search", "--table", str(workdir / "chain.csv"),
            "--graph", str(workdir / "complete.graph"), "--out", str(out_dir)]
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert main(argv) == 0
    again = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == again
    assert set(first) == {"search.json", "search.txt"}


def chain_search_text(root):
    """The trace pinned by golden/search_chain3.json, as written there: the
    search.json of ``scgm search`` on root's chain inputs, without its run block."""
    out_dir = root / "search-golden"
    assert main(
        ["search", "--table", str(root / "chain.csv"),
         "--graph", str(root / "complete.graph"), "--out", str(out_dir)]
    ) == 0
    trace = json.loads((out_dir / "search.json").read_text(encoding="utf-8"))
    del trace["run"]
    return json.dumps(trace, indent=2, sort_keys=True) + "\n"


def test_search_json_matches_the_golden_trace(workdir, capsys):
    assert chain_search_text(workdir) == (GOLDEN / "search_chain3.json").read_text(encoding="utf-8")


def test_search_text_renders_step2_statements_in_table_order(tmp_path, capsys):
    # 4 depends on 1 alone; the skeleton declares 3 before 1 and 2, so its
    # statements list vertices out of table order unless read with the table
    vs = tuple(VariableSpec(str(i), 2) for i in range(1, 5))
    p123 = np.array([0.25, 0.05, 0.08, 0.12, 0.06, 0.14, 0.04, 0.26])
    p4g1 = np.array([[0.7, 0.3], [0.2, 0.8]])
    counts = [
        4000 * p123[i] * p4g1[i // 4, i4] for i in range(8) for i4 in range(2)
    ]
    (tmp_path / "t.csv").write_text(dump_table(ContingencyTable(vs, counts)))
    (tmp_path / "s.graph").write_text(
        "component T1 = {3,1,2}\ncomponent T2 = {4}\n"
        "edge 3 -- 1\nedge 3 -- 2\nedge 1 -- 2\n"
        "arc 3 -> 4\narc 1 -> 4\narc 2 -> 4\n"
    )
    out_dir = tmp_path / "o"
    assert main(
        ["search", "--table", str(tmp_path / "t.csv"),
         "--graph", str(tmp_path / "s.graph"), "--out", str(out_dir)]
    ) == 0
    trace = json.loads((out_dir / "search.json").read_text(encoding="utf-8"))
    assert trace["step2"]["removable"] == [["arc", "3", "4"], ["arc", "2", "4"]]
    expected = [
        "; ".join(
            render_statement(s) for s in stratified_markov(parse_graph(c["graph"]), vs)
        )
        for c in trace["step2"]["candidates"]
    ]
    assert expected[0] == "CI: {4} _||_ {2,3} | {1}"
    lines = (out_dir / "search.txt").read_text(encoding="utf-8").splitlines()
    header = lines.index("step 2: joint removal and single restorations")
    rows = lines[header + 3 : header + 3 + len(expected)]
    for row, statements in zip(rows, expected):
        assert row.endswith("  " + statements)


@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
def test_search_rejects_an_alpha_outside_the_unit_interval(workdir, tmp_path, capsys, alpha):
    code = main(
        ["search", "--table", str(workdir / "chain.csv"),
         "--graph", str(workdir / "complete.graph"), "--out", str(tmp_path / "o"),
         "--alpha", alpha]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha must lie strictly between 0 and 1")
    assert not (tmp_path / "o").exists()


def test_search_rejects_a_skeleton_with_strata(workdir, tmp_path, capsys):
    path = tmp_path / "strat.graph"
    path.write_text(
        (workdir / "complete.graph").read_text(encoding="utf-8")
        + "stratum (3,2) | {1} = {(1)}\n",
        encoding="utf-8",
    )
    code = main(
        ["search", "--table", str(workdir / "chain.csv"),
         "--graph", str(path), "--out", str(tmp_path / "o")]
    )
    assert code == 1


# ---------------------------------------------------------------------------
# oracle selftest and packaging


def test_oracle_selftest_passes(capsys):
    assert main(["oracle-selftest"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def run_module(module, *args):
    """``python -m module args`` with the package's source on the path."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )


def test_module_entry_point_reports_version():
    proc = run_module("scgm.cli", "--version")
    assert proc.returncode == 0
    assert "scgm" in proc.stdout


def test_package_runs_as_a_module():
    proc = run_module("scgm", "--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("scgm ")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

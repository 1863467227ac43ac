"""The timed operations and the output gate.

Each operation looks the package's functions up through their modules at
call time (``fitting.fit_constrained``, not a name imported here), so the
traced run's wrappers see the calls the operations make.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from scgm import cli, constraints, fitting, graphs, params, regression, tables

FEASIBILITY_LIMIT = 1e-6
G2_MARGIN = 0.01


@dataclass
class FitOutput:
    """What a fit op hands to the gate and to the report op."""

    table: object
    graph: object
    system: object
    result: object


@dataclass
class OpRecord:
    kind: str
    seconds: float
    ok: bool
    reasons: list = field(default_factory=list)
    g2_gap: float | None = None


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _csv_text(rows) -> str:
    return "".join(",".join(str(cell) for cell in row) + "\n" for row in rows)


def fit_op(table_path: Path, graph_path: Path, out: Path) -> FitOutput:
    """What ``scgm fit`` does up to and including writing fit.json."""
    with open(table_path, "r", encoding="utf-8") as fh:
        table = tables.load_table(fh, format="csv")
    graph = graphs.load_graph(graph_path)
    problems = graphs.validate(graph, table.variables)
    if problems:
        raise ValueError("graph is not admissible: " + "; ".join(problems))
    system = regression.scgm_constraint_system(graph, table.variables)
    result = fitting.fit_constrained(table, system, fitting.FitOptions())
    _write_json(out / "fit.json", fitting.fit_to_json(result, system))
    return FitOutput(table, graph, system, result)


def report_op(fit: FitOutput, out: Path) -> None:
    """The regression report ``scgm fit`` writes after fit.json."""
    allocation = regression.graph_allocation(fit.graph, fit.table.variables)
    vec = params.param_vector(fit.result.pi_hat, allocation)
    reg = regression.regression_from_params(vec, fit.graph)
    beta_rows, cond_tables = regression.report_csv_rows(reg)
    (out / "beta.csv").write_text(_csv_text(beta_rows), encoding="utf-8")
    for name, rows in cond_tables.items():
        (out / f"conditional_{name}.csv").write_text(_csv_text(rows), encoding="utf-8")
    _write_json(out / "report.json", regression.regression_report(reg))


def search_op(table_path: Path, skeleton_path: Path, out: Path) -> int:
    """``scgm search`` in-process; its stdout is kept off the benchmark's."""
    argv = ["search", "--table", str(table_path), "--graph", str(skeleton_path),
            "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def fit_gate(fit: FitOutput, reference: dict) -> tuple:
    """Reasons the fit op's output is wrong (empty when it passes), and G2 - G2_ref."""
    result = fit.result
    reasons = []
    if not result.converged:
        reasons.append(f"not converged after {result.iterations} iterations")
    if result.df != reference["df"]:
        reasons.append(f"df {result.df} != reference {reference['df']}")
    h = constraints.evaluate_system(result.pi_hat, fit.system)
    worst = float(np.max(np.abs(h))) if h.size else 0.0
    if not worst <= FEASIBILITY_LIMIT:
        reasons.append(f"max |h(pi_hat)| = {worst:.3e} > {FEASIBILITY_LIMIT:g}")
    g2_ref = reference["G2_ref"]
    if not result.G2 <= g2_ref * (1.0 + G2_MARGIN):
        reasons.append(f"G2 {result.G2:.6f} is more than 1% above G2_ref {g2_ref:.6f}")
    return reasons, result.G2 - g2_ref


def search_gate(exit_code: int, out: Path, reference: dict) -> list:
    if exit_code != 0:
        return [f"scgm search exited {exit_code}"]
    trace = json.loads((out / "search.json").read_text(encoding="utf-8"))
    reasons = []
    if trace["final_graph"] != reference["final_graph"]:
        reasons.append("final graph differs from the reference")
    if trace["final_fit"]["df"] != reference["df"]:
        reasons.append(f"final df {trace['final_fit']['df']} != reference {reference['df']}")
    return reasons

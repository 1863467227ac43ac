"""Command line surface: reproducible runs over table and graph files.

Subcommands
-----------
validate          check a graph spec for structural and stratum problems
markov            list the independence statements a graph encodes
constraints       emit the linear constraint system for a graph or statement
fit               constrained maximum likelihood fit of a table under a graph
search            three-step model search from a stratum-free skeleton
oracle-selftest   run the brute-force oracle's internal consistency checks

Exit codes
----------
0  success
1  a domain violation.  A graph the library finds inadmissible
   (``InadmissibleGraphError``) prints "graph spec is not admissible:"
   and its problems on stdout; any other ``ScgmError``, such as a bad
   statement or an infeasible system, prints ``error: ...`` on stderr.
2  an input or parse problem, printed as ``error: ...`` on stderr: an
   unreadable file or invalid JSON, a ``TableFormatError``, any other
   ``GraphFormatError``, or an ``OptionError`` (a flag out of its range).
3  the fit did not converge.

Every file written embeds the run configuration, the seed, the library
version, and the AIC/BIC formula strings; re-running the same
configuration reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .constraints import (
    generate_constraints,
    parse_statement,
    render_statement,
    statement_to_json,
    system_to_json,
)
from .errors import (
    GraphFormatError,
    InadmissibleGraphError,
    OptionError,
    ScgmError,
    TableFormatError,
)
from .fitting import (
    AIC_FORMULA,
    BIC_FORMULA,
    FitOptions,
    fit_constrained,
    fit_to_json,
    model_search,
    trace_to_json,
)
from .graphs import (
    load_graph,
    # parse_graph is no longer called here but stays importable under this
    # module's name, where callers wrap it
    parse_graph,  # noqa: F401
    render_graph,
    render_stratum,
    stratified_markov,
    validate,
)
from .oracle import selftest
from .params import param_vector
from .regression import (
    graph_allocation,
    regression_from_params,
    regression_report,
    report_csv_rows,
    scgm_constraint_system,
)
from .tables import load_table


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run; embedded in every output file."""

    command: str
    table: str | None = None
    graph: str | None = None
    statement: str | None = None
    smoothing: float | None = None
    max_iterations: int | None = None
    criterion: str | None = None
    alpha: float | None = None
    seed: int = 0
    out: str | None = None

    @classmethod
    def from_args(cls, args) -> RunConfig:
        """The run of a parsed command line; a field its subcommand lacks is None."""
        return cls(**{f.name: getattr(args, f.name, None) for f in fields(cls)})

    def run_block(self) -> dict:
        config = {k: v for k, v in asdict(self).items() if v is not None}
        return {
            "command": self.command,
            "config": config,
            "seed": self.seed,
            "version": __version__,
            "aic_formula": AIC_FORMULA,
            "bic_formula": BIC_FORMULA,
        }


# ---------------------------------------------------------------------------
# shared plumbing


def _read_table(path_text: str):
    path = Path(path_text)
    fmt = "json" if path.suffix.lower() == ".json" else "csv"
    with open(path, "r", encoding="utf-8") as fh:
        return load_table(fh, format=fmt)


def _read_graph(path_text: str):
    return load_graph(Path(path_text))


def _comment_header(run: dict) -> list[str]:
    config = json.dumps(run["config"], sort_keys=True)
    return [
        f"# scgm {run['version']}",
        f"# command: {run['command']}",
        f"# config: {config}",
        f"# seed: {run['seed']}",
        f"# {run['aic_formula']}",
        f"# {run['bic_formula']}",
    ]


def _dump_json(payload: dict, run: dict) -> str:
    payload = dict(payload)
    payload["run"] = run
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(rows, run: dict) -> str:
    buf = io.StringIO()
    for line in _comment_header(run):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _reject(problems) -> int:
    print("graph spec is not admissible:")
    for p in problems:
        print(f"  - {p}")
    return 1


def _fmt(value, spec: str) -> str:
    if value is None:
        return "-"
    return format(value, spec)


def _final_fit_line(fit) -> str:
    f = fit.summary()
    return (
        f"final fit: G2={f['G2']:.4f} df={f['df']} p={f['p_value']:.4f} "
        f"AIC={f['AIC']:.2f} BIC={f['BIC']:.2f} converged={f['converged']}"
    )


def _fit_columns(fit) -> list[str]:
    if fit is None:
        return ["-", "-", "-", "-", "-"]
    return [
        _fmt(fit["G2"], ".2f"),
        str(fit["df"]),
        _fmt(fit["p_value"], ".4f"),
        _fmt(fit["AIC"], ".2f"),
        _fmt(fit["BIC"], ".2f"),
    ]


def _table_lines(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def render(row):
        return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
    return [render(header)] + [render(r) for r in rows]


def _link_text(link) -> str:
    kind, u, v = link
    return f"{kind} {u} -- {v}" if kind == "edge" else f"{kind} {u} -> {v}"


def _graph_block(label: str, rendered: str) -> list[str]:
    return [f"{label}:"] + ["  " + l for l in rendered.strip().splitlines()]


def _fit_options(args) -> FitOptions:
    """The fit options the flags ask for; OptionError when one is out of range."""
    kwargs = {}
    if getattr(args, "smoothing", None) is not None:
        kwargs["smoothing"] = args.smoothing
    if getattr(args, "max_iterations", None) is not None:
        kwargs["max_iterations"] = args.max_iterations
    return FitOptions(**kwargs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    graph = _read_graph(args.graph)
    variables = _read_table(args.table).variables if args.table else None
    problems = validate(graph, variables)
    if problems:
        return _reject(problems)
    print(
        "graph spec is admissible: "
        f"{len(graph.vertices)} vertices, {len(graph.components)} components, "
        f"{len(graph.edges)} edges, {len(graph.arcs)} arcs, "
        f"{len(graph.strata)} strata"
    )
    return 0


def cmd_markov(args) -> int:
    config = RunConfig.from_args(args)
    graph = _read_graph(args.graph)
    variables = _read_table(args.table).variables if args.table else None
    stmts = stratified_markov(graph, variables)
    lines = [render_statement(s) for s in stmts]

    payload = {
        "schema": "scgm-statements/1",
        "graph": render_graph(graph),
        "statements": [
            {"text": line, **statement_to_json(s)}
            for line, s in zip(lines, stmts)
        ],
    }
    run = config.run_block()
    if args.json:
        sys.stdout.write(_dump_json(payload, run))
    else:
        for line in lines:
            print(line)
    if args.out:
        out = _out_dir(args)
        text = "\n".join(_comment_header(run) + lines) + "\n"
        (out / "statements.txt").write_text(text, encoding="utf-8")
        (out / "statements.json").write_text(_dump_json(payload, run), encoding="utf-8")
    return 0


def cmd_constraints(args) -> int:
    config = RunConfig.from_args(args)
    variables = _read_table(args.table).variables
    if args.graph:
        system = scgm_constraint_system(_read_graph(args.graph), variables)
    else:
        system = generate_constraints(parse_statement(args.statement), variables)
    run = config.run_block()
    text = _dump_json(system_to_json(system), run)
    if args.out:
        out = _out_dir(args)
        (out / "constraints.json").write_text(text, encoding="utf-8")
        print(f"wrote {out / 'constraints.json'}")
    else:
        sys.stdout.write(text)
    print(
        f"{len(system.rows)} rows ({system.pre_dedup_count} before dedup) "
        f"for: {system.origin}",
        file=sys.stderr,
    )
    return 0


def cmd_fit(args) -> int:
    config = RunConfig.from_args(args)
    options = _fit_options(args)
    table = _read_table(args.table)
    graph = _read_graph(args.graph)
    system = scgm_constraint_system(graph, table.variables)
    result = fit_constrained(table, system, options)
    run = config.run_block()

    out = _out_dir(args)
    (out / "fit.json").write_text(
        _dump_json(fit_to_json(result, system), run), encoding="utf-8"
    )
    written = [out / "fit.json"]

    try:
        vec = param_vector(result.pi_hat, graph_allocation(graph, table.variables))
        reg = regression_from_params(vec, graph)
    except ScgmError as exc:
        print(f"regression report skipped: {exc}", file=sys.stderr)
    else:
        beta_rows, cond_tables = report_csv_rows(reg)
        (out / "beta.csv").write_text(_csv_text(beta_rows, run), encoding="utf-8")
        written.append(out / "beta.csv")
        for name, rows in cond_tables.items():
            path = out / f"conditional_{name}.csv"
            path.write_text(_csv_text(rows, run), encoding="utf-8")
            written.append(path)
        (out / "report.json").write_text(
            _dump_json(regression_report(reg), run), encoding="utf-8"
        )
        written.append(out / "report.json")

    s = result.summary()
    print(
        f"G2={s['G2']:.4f} df={s['df']} p={s['p_value']:.4f} "
        f"AIC={s['AIC']:.2f} BIC={s['BIC']:.2f} "
        f"converged={s['converged']} iterations={s['iterations']}"
    )
    for path in written:
        print(f"wrote {path}")
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return 3
    return 0


def _search_text(trace, run: dict) -> str:
    lines = list(_comment_header(run))
    lines.append("")
    lines += _graph_block("skeleton", render_graph(trace.skeleton))
    lines.append(f"criterion: {trace.criterion}   alpha: {trace.alpha}")
    stats = ["G2", "df", "p", "AIC", "BIC"]

    lines.append("")
    lines.append("step 1: single-link removals")
    rows = [
        [_link_text(link)] + _fit_columns(c.fit) + [c.error or "; ".join(c.statements)]
        for link, c in trace.step1
    ]
    lines += _table_lines(["removed link"] + stats + ["statement set"], rows)

    lines.append("")
    lines.append("step 2: joint removal and single restorations")
    lines.append(
        "removable: "
        + (", ".join(_link_text(l) for l in trace.removable) or "(none)")
    )
    rows = []
    for restored, c in trace.step2:
        if restored is None:
            label = "all removable dropped"
        elif restored == "all":
            label = "skeleton kept (no candidate passed)"
        else:
            label = "restore " + _link_text(restored)
        rows.append([label] + _fit_columns(c.fit) + [c.error or "; ".join(c.statements)])
    lines += _table_lines(["candidate"] + stats + ["statement set"], rows)
    lines += _graph_block("selected", render_graph(trace.step2[trace.selected][1].graph))

    lines.append("")
    lines.append("step 3: context-specific weakenings of the remaining links")
    if not trace.step3:
        lines.append("(no links to revisit)")
    for link, source, tried, chosen in trace.step3:
        lines.append(f"link {_link_text(link)} ({source.replace('_', ' ')}):")
        rows = [
            [render_stratum(st)] + _fit_columns(c.fit) + [c.error or ""]
            for st, c in tried
        ]
        if rows:
            lines += [
                "  " + l
                for l in _table_lines(["stratum"] + stats + ["error"], rows)
            ]
        else:
            lines.append("  (no admissible stratum candidates)")
        chosen_text = "(none)" if chosen is None else render_stratum(tried[chosen][0])
        lines.append(f"  chosen: {chosen_text}")

    lines.append("")
    lines += _graph_block("final graph", render_graph(trace.final_graph))
    lines.append("final statements:")
    lines += [f"  {s}" for s in trace.final.statements]
    lines.append(_final_fit_line(trace.final_fit))
    return "\n".join(lines) + "\n"


def cmd_search(args) -> int:
    config = RunConfig.from_args(args)
    options = _fit_options(args)
    table = _read_table(args.table)
    skeleton = _read_graph(args.graph)
    trace = model_search(table, skeleton, options, criterion=args.criterion, alpha=args.alpha)
    run = config.run_block()

    out = _out_dir(args)
    (out / "search.json").write_text(
        _dump_json(trace_to_json(trace), run), encoding="utf-8"
    )
    (out / "search.txt").write_text(_search_text(trace, run), encoding="utf-8")

    for line in _graph_block("final graph", render_graph(trace.final_graph)):
        print(line)
    print(_final_fit_line(trace.final_fit))
    print(f"wrote {out / 'search.json'}")
    print(f"wrote {out / 'search.txt'}")
    if not trace.final_fit.converged:
        print("final fit did not converge", file=sys.stderr)
        return 3
    return 0


def cmd_oracle_selftest(args) -> int:
    ok, rows = selftest(args.seed)
    for name, passed, detail in rows:
        line = f"{'ok  ' if passed else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
    print(f"{sum(1 for _, p, _ in rows if p)}/{len(rows)} checks passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scgm",
        description="Marginal-parameterization models over graph specs: "
        "validate, extract independencies, generate constraints, fit, search.",
    )
    parser.add_argument("--version", action="version", version=f"scgm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in outputs (default 0)")

    p = sub.add_parser("validate", help="check a graph spec for problems")
    p.add_argument("--graph", required=True, help="graph spec file (text or JSON)")
    p.add_argument("--table",
                   help="table file; checks the vertices and stratum levels against it")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("markov", help="list the independence statements of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--table", help="table file; canonicalizes statement rendering")
    p.add_argument("--json", action="store_true", help="print JSON instead of text")
    p.add_argument("--out", help="directory for statements.txt / statements.json")
    add_seed(p)
    p.set_defaults(func=cmd_markov)

    p = sub.add_parser(
        "constraints", help="emit the constraint system for a graph or statement"
    )
    p.add_argument("--table", required=True, help="table file carrying the variables")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--graph", help="graph spec file")
    what.add_argument(
        "--statement",
        help='statement text, e.g. "CI: {3} _||_ {4} | {1,2}" '
        'or "CS: {3} _||_ {4} | {1,2} = (1,*)"',
    )
    p.add_argument("--out", help="directory for constraints.json")
    add_seed(p)
    p.set_defaults(func=cmd_constraints)

    def add_fit_options(p):
        p.add_argument("--smoothing", type=float,
                       help="additive cell smoothing for the start (default 0.5)")
        p.add_argument("--max-iterations", type=int, dest="max_iterations",
                       help="iteration cap for the constrained fit")

    p = sub.add_parser("fit", help="constrained maximum likelihood fit")
    p.add_argument("--table", required=True)
    p.add_argument("--graph", required=True)
    add_fit_options(p)
    p.add_argument("--out", default=".", help="output directory (default .)")
    add_seed(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("search", help="three-step model search from a skeleton")
    p.add_argument("--table", required=True)
    p.add_argument("--graph", required=True, help="stratum-free skeleton spec")
    p.add_argument("--criterion", choices=("max-aic", "min-aic"), default="max-aic")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="p-value threshold (default 0.05)")
    add_fit_options(p)
    p.add_argument("--out", default=".", help="output directory (default .)")
    add_seed(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle-selftest", help="run the oracle's internal checks")
    add_seed(p)
    p.set_defaults(func=cmd_oracle_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InadmissibleGraphError as exc:
        return _reject(exc.problems)
    except (TableFormatError, GraphFormatError, OptionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScgmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

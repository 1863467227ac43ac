"""Spans around calls into the package's layers, made from outside it.

The wrappers replace a function at the name its caller looks it up under:
``scgm.cli`` and ``scgm.fitting`` import functions by name, so a wrapper
on ``scgm.fitting.fit_constrained`` sees the search's fits and the fit
op's, while ``scgm.params.param_value`` (used by ``param_vector``) stays
unwrapped and ``scgm.fitting.param_value`` sees only the ``eta_hat``
calls.  A span is recorded only inside an operation span.  Spans are kept
in memory as (name, start, end, parent) and written out at the end.
Work the tracer does for a metric (hashing constraint rows) is put off
until the operation span has closed, so no layer's time includes it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import scgm.cli
import scgm.fitting
import scgm.graphs
import scgm.params
import scgm.regression
import scgm.tables

MB = 1e6

# largest share of an operation's wall time that may fall outside every
# wrapped layer (file writes, JSON encoding, the benchmark's own calls)
UNATTRIBUTED_LIMIT = 0.10


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._installed = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(index)
        return index

    def close(self, index: int, **info) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4].update(info)
        self._stack.pop()
        if not self._stack:
            _count_repeat_rows(self.spans[index + 1:])

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            self.close(index)
            if info is not None:
                self.spans[index][4].update(info(self, args, result))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def install(self) -> None:
        for module, attr, name, info in _WRAPPERS:
            self.wrap(module, attr, name, info)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def dump(self, path: Path, origin: float) -> None:
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, **info}
            for n, s, e, p, info in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _count_repeat_rows(spans) -> None:
    """Replace each generated system kept in ``spans`` by its row counts.

    ``spans`` are those of one operation; a row is a repeat when an earlier
    call in the same operation generated it.
    """
    seen = set()
    for span in spans:
        system = span[4].pop("system", None)
        if system is None:
            continue
        keys = [row.canonical_key() for row in system.rows]
        span[4]["rows"] = len(keys)
        span[4]["repeat_rows"] = sum(1 for k in keys if k in seen)
        seen.update(keys)


_WRAPPERS = [
    (scgm.tables, "load_table", "tables.load_table", None),
    (scgm.cli, "load_table", "tables.load_table", None),
    (scgm.graphs, "load_graph", "graphs.load_graph", None),
    (scgm.cli, "load_graph", "graphs.load_graph", None),
    (scgm.graphs, "validate", "graphs.validate", None),
    (scgm.fitting, "validate", "graphs.validate", None),
    (scgm.regression, "validate", "graphs.validate", None),
    (scgm.fitting, "stratified_markov", "graphs.stratified_markov",
     lambda t, a, r: {"statements": len(r)}),
    (scgm.regression, "stratified_markov", "graphs.stratified_markov",
     lambda t, a, r: {"statements": len(r)}),
    (scgm.regression, "generate_constraints", "constraints.generate_constraints",
     lambda t, a, r: {"system": r}),
    (scgm.regression, "scgm_constraint_system", "regression.scgm_constraint_system", None),
    (scgm.fitting, "scgm_constraint_system", "regression.scgm_constraint_system", None),
    (scgm.fitting, "fit_constrained", "fitting.fit_constrained",
     lambda t, a, r: {"iterations": r.iterations, "converged": r.converged}),
    (scgm.fitting, "compile_system", "fitting.compile_system",
     lambda t, a, r: {"events": r.A.shape[0], "bytes": r.A.nbytes + r.C.nbytes}),
    (np.linalg, "lstsq", "linalg.lstsq", lambda t, a, r: {"order": a[0].shape[0]}),
    (np.linalg, "svd", "linalg.svd", None),
    (scgm.fitting, "param_value", "fitting.param_value", None),
    (scgm.params, "param_vector", "params.param_vector",
     lambda t, a, r: {"params": r.dimension}),
    (scgm.regression, "graph_allocation", "regression.report", None),
    (scgm.regression, "regression_from_params", "regression.report", None),
    (scgm.regression, "report_csv_rows", "regression.report", None),
    (scgm.regression, "regression_report", "regression.report", None),
    (scgm.cli, "model_search", "fitting.model_search", None),
    (scgm.cli, "parse_graph", "cli.parse_graph", None),
]

OP_PREFIX = "op."


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def largest_self_times(spans, primary_ops: int, count: int = 3) -> dict:
    """The ``count`` span names with the largest self time per primary operation."""
    totals = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        totals[span[0]] += seconds
    ranked = sorted(totals.items(), key=lambda item: item[1], reverse=True)[:count]
    return {name: seconds / primary_ops for name, seconds in ranked}


def _within(spans, index: int, ancestor_name: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == ancestor_name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, primary_ops: int) -> dict:
    """Per-layer metrics, as totals per primary operation (fit op or search op).

    Exceptions: ``fitting.events``, ``fitting.compiled_mb``,
    ``fitting.kkt_order_max``, ``fitting.kkt_mb`` and ``params.params``
    describe the largest call; ``fitting.iterations`` and
    ``fitting.converged_share`` are per fit; the ``*_share`` metrics are
    ratios over the whole traced stretch.  ``constraints.repeat_row_share``
    counts rows an earlier call in the same operation already generated
    (across the candidates of one search).
    """
    selfs = self_times(spans)
    dur = defaultdict(float)
    self_sum = defaultdict(float)
    calls = defaultdict(int)
    info = defaultdict(list)
    for i, (name, start, end, _, extra) in enumerate(spans):
        dur[name] += end - start
        self_sum[name] += selfs[i]
        calls[name] += 1
        info[name].append(extra)

    def per_op(value):
        return value / primary_ops

    def total(name, key):
        return sum(e.get(key, 0) for e in info[name])

    def largest(name, key):
        return max((e.get(key, 0) for e in info[name]), default=0)

    fits = info["fitting.fit_constrained"]
    rows = total("constraints.generate_constraints", "rows")
    kkt_order = largest("linalg.lstsq", "order")
    search_fits = [
        i for i, s in enumerate(spans)
        if s[0] == "fitting.fit_constrained" and _within(spans, i, "fitting.model_search")
    ]
    search_errors = [
        i for i, s in enumerate(spans)
        if s[0] in ("fitting.fit_constrained", "regression.scgm_constraint_system")
        and s[4].get("error") and _within(spans, i, "fitting.model_search")
    ]
    op_total = sum(dur[n] for n in dur if n.startswith(OP_PREFIX))
    op_self = sum(self_sum[n] for n in self_sum if n.startswith(OP_PREFIX))
    report_ops = info[OP_PREFIX + "report"]

    return {
        "tables.load_s": per_op(dur["tables.load_table"]),
        "graphs.load_s": per_op(dur["graphs.load_graph"]),
        "graphs.validate_s": per_op(dur["graphs.validate"]),
        "graphs.validate_calls": per_op(calls["graphs.validate"]),
        "graphs.markov_s": per_op(self_sum["graphs.stratified_markov"]),
        "graphs.statements": per_op(total("graphs.stratified_markov", "statements")),
        "constraints.generate_s": per_op(dur["constraints.generate_constraints"]),
        "constraints.rows": per_op(rows),
        "constraints.repeat_row_share": (
            total("constraints.generate_constraints", "repeat_rows") / rows if rows else 0.0
        ),
        "regression.system_self_s": per_op(self_sum["regression.scgm_constraint_system"]),
        "fitting.compile_s": per_op(dur["fitting.compile_system"]),
        "fitting.compile_calls": per_op(calls["fitting.compile_system"]),
        "fitting.events": largest("fitting.compile_system", "events"),
        "fitting.compiled_mb": largest("fitting.compile_system", "bytes") / MB,
        "fitting.kkt_s": per_op(dur["linalg.lstsq"]),
        "fitting.kkt_calls": per_op(calls["linalg.lstsq"]),
        "fitting.kkt_order_max": kkt_order,
        "fitting.kkt_mb": 8.0 * kkt_order**2 / MB,
        "fitting.iterations": (
            sum(e.get("iterations", 0) for e in fits) / len(fits) if fits else 0.0
        ),
        "fitting.converged_share": (
            sum(1 for e in fits if e.get("converged")) / len(fits) if fits else 0.0
        ),
        "fitting.rank_s": per_op(dur["linalg.svd"]),
        "fitting.solver_self_s": per_op(self_sum["fitting.fit_constrained"]),
        "params.eta_hat_s": per_op(dur["fitting.param_value"]),
        "params.eta_hat_calls": per_op(calls["fitting.param_value"]),
        "params.param_vector_s": per_op(dur["params.param_vector"]),
        "params.params": largest("params.param_vector", "params"),
        "regression.report_s": per_op(dur["regression.report"]),
        "regression.report_failed": per_op(sum(1 for e in report_ops if not e.get("ok"))),
        "fitting.search_fits": per_op(len(search_fits)),
        "fitting.search_fit_errors": per_op(len(search_errors)),
        "cli.render_s": per_op(dur[OP_PREFIX + "search"] - dur["fitting.model_search"]),
        "cli.parse_graph_calls": per_op(calls["cli.parse_graph"]),
        "bench.unattributed_share": op_self / op_total if op_total else 0.0,
    }

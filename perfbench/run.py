"""Benchmark of the scgm package: seeded fit and search workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-dense --seed 0 --seconds 22 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  fit-dense       fig4 at 3^7 = 2187 cells, N = 20000; large-order KKT solves
  fit-sparse      fig4 at 288 cells, six tables of N = 300, mostly zero cells
  search-planted  three-step model search from the complete 21-link skeleton
                  over a 128-cell table planted with fig4's components

Each run is one process and a closed loop: operations run back to back,
the first one (a fit op and a report op on the workload's warm-up table,
see workloads.write_inputs) is an unsampled warm-up, then whole passes
over the inputs run until ``--seconds`` have passed, always at least one.  Every fit op and search
op goes through the output gate against ``references.json``.

``setup_s`` is the median wall time of several fresh interpreters that
import scgm and load the run's input files.  With ``--trace 1`` the run
measures an untraced stretch, then the same stretch with spans around
the package's layers (see tracing.py), and reports per-layer metrics per
primary operation (fit op, or search op) and the tracing overhead.  The
traced run is not correct when more than ``tracing.UNATTRIBUTED_LIMIT`` of
the operations' wall time falls outside every wrapped layer.

The second-to-last line of stdout is a JSON object with every end-to-end
metric (null where a metric has no sample, e.g. ``report_s`` when no
report op succeeded), machine facts and problem sizes; the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``, whose
metrics are the gated ``GATED`` ones, or the per-layer ones when traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import workloads  # noqa: E402

SETUP_REPEATS = 11

# the end-to-end metrics gated by BENCHMARK.json
GATED = ("setup_s", "op_s", "peak_rss_mb")

def unit_of(name: str) -> str:
    if name == "g2_gap":
        return "G2"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def median_or_none(values):
    values = list(values)
    return statistics.median(values) if values else None


def machine_facts() -> dict:
    import numpy as np

    with contextlib.redirect_stdout(io.StringIO()):
        config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure_setup(inputs) -> float:
    """Median wall time of a fresh interpreter importing scgm and loading the inputs."""
    graphs = [str(inputs.graph)] + ([str(inputs.skeleton)] if inputs.skeleton else [])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import scgm\n"
        "from scgm import graphs, tables\n"
        f"for p in {[str(p) for p in inputs.tables]!r}:\n"
        "    with open(p, encoding='utf-8') as fh:\n"
        "        tables.load_table(fh, format='csv')\n"
        f"for p in {graphs!r}:\n"
        "    graphs.load_graph(p)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs passes of a workload's operations and gates their outputs."""

    def __init__(self, ops, workload, inputs, references, out):
        self.ops = ops
        self.workload = workload
        self.inputs = inputs
        self.references = references
        self.out = out
        self.tracer = None
        self.sizes = {}

    def _timed(self, kind, fn):
        span = self.tracer.open("op." + kind) if self.tracer else None
        start = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # an operation fails on its own; the run goes on
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span, ok=error is None)
        return value, seconds, error

    def fit_and_report(self, table, graph, reference):
        """A fit op, gated when a reference is given, then a report op."""
        fit, seconds, error = self._timed(
            "fit", lambda: self.ops.fit_op(table, graph, self.out)
        )
        if fit is None:
            return [self.ops.OpRecord("fit", seconds, False, [error])], None
        if table == self.inputs.tables[0] and not self.sizes:
            rows = len(fit.system.rows)
            cells = int(fit.table.counts.size)
            self.sizes = {"K": cells, "R": rows, "kkt_order": cells + rows}
        record = self.ops.OpRecord("fit", seconds, True)
        if reference is not None:
            reasons, gap = self.ops.fit_gate(fit, reference)
            record.ok, record.reasons, record.g2_gap = not reasons, reasons, gap
        _, seconds, error = self._timed("report", lambda: self.ops.report_op(fit, self.out))
        report = self.ops.OpRecord("report", seconds, error is None, [error] if error else [])
        return [record, report], fit

    def warm_up(self):
        self.fit_and_report(self.inputs.warmup, self.inputs.graph, None)

    def one_pass(self):
        if self.workload == "search-planted":
            code, seconds, error = self._timed(
                "search",
                lambda: self.ops.search_op(self.inputs.tables[0], self.inputs.skeleton, self.out),
            )
            if error:
                return [self.ops.OpRecord("search", seconds, False, [error])]
            reasons = self.ops.search_gate(code, self.out, self.references)
            return [self.ops.OpRecord("search", seconds, not reasons, reasons)]
        records = []
        for table, reference in zip(self.inputs.tables, self.references["tables"]):
            records += self.fit_and_report(table, self.inputs.graph, reference)[0]
        return records

    def measure(self, seconds):
        records = []
        start = time.perf_counter()
        while True:
            records += self.one_pass()
            if time.perf_counter() - start >= seconds:
                return records


def primary_kind(workload: str) -> str:
    return "search" if workload == "search-planted" else "fit"


def end_to_end(records, workload, setup_s) -> dict:
    """Every end-to-end metric; None where there is no sample."""
    def times(kind, only_ok=False):
        return [r.seconds for r in records if r.kind == kind and (r.ok or not only_ok)]

    failed = sum(1 for r in records if not r.ok)
    metrics = {
        "setup_s": setup_s,
        "fit_s": median_or_none(times("fit")),
        "report_s": median_or_none(times("report", only_ok=True)),
        "search_s": median_or_none(times("search")),
        "g2_gap": median_or_none(r.g2_gap for r in records if r.g2_gap is not None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": failed / len(records),
    }
    metrics["op_s"] = metrics[primary_kind(workload) + "_s"]
    return metrics


def with_units(metrics: dict) -> dict:
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def failures(records) -> dict:
    out = {}
    for r in records:
        for reason in r.reasons:
            seen = out.setdefault(r.kind, [])
            if reason not in seen:
                seen.append(reason)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scgm" / "__init__.py").is_file():
        print(f"error: no scgm package under {SRC}", file=sys.stderr)
        return 2
    import scgm
    from perfbench import ops, tracing

    if Path(scgm.__file__).resolve().parent != (SRC / "scgm").resolve():
        print(f"error: scgm imported from {scgm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        inputs = workloads.write_inputs(args.workload, args.seed, run_dir / "inputs")
        references = workloads.slot_references(
            workloads.load_references(), args.workload, args.seed, inputs
        )
        out = run_dir / "out"
        out.mkdir()
        runner = Runner(ops, args.workload, inputs, references, out)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "slot": workloads.slot_of(args.workload, args.seed),
            "trace": args.trace,
            "seconds": args.seconds,
            "machine": machine_facts(),
        }
        setup_s = None if args.trace else measure_setup(inputs)
        runner.warm_up()
        records = runner.measure(args.seconds)
        detail["sizes"] = runner.sizes
        metrics = end_to_end(records, args.workload, setup_s)
        detail["metrics"] = with_units(metrics)
        self_time_ok = True
        if args.trace:
            tracer = runner.tracer = tracing.Tracer()
            origin = time.perf_counter()
            tracer.install()
            try:
                traced = runner.measure(args.seconds)
            finally:
                tracer.uninstall()
            kind = primary_kind(args.workload)
            primary = [r.seconds for r in traced if r.kind == kind]
            layers = tracing.layer_metrics(tracer.spans, len(primary))
            layers["bench.trace_overhead_s"] = (
                statistics.median(primary) - metrics["op_s"]
            )
            detail["layers"] = with_units(layers)
            unattributed = layers["bench.unattributed_share"]
            self_time_ok = unattributed <= tracing.UNATTRIBUTED_LIMIT
            detail["self_time_check"] = {
                "unattributed_share": unattributed,
                "limit": tracing.UNATTRIBUTED_LIMIT,
                "ok": self_time_ok,
                "largest_self_s": tracing.largest_self_times(tracer.spans, len(primary)),
            }
            if not self_time_ok:
                print(f"error: {unattributed:.1%} of operation time is outside every "
                      "traced layer", file=sys.stderr)
            tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.json", origin)
            records += traced
            reported = layers
        else:
            reported = {k: metrics[k] for k in GATED}
        detail["ops"] = {k: sum(1 for r in records if r.kind == k)
                         for k in ("fit", "report", "search")}
        detail["failures"] = failures(records)
        gated = [r for r in records if r.kind != "report"]
        result = {
            "correct": self_time_ok and all(r.ok for r in gated),
            "attempted": len(records),
            "failed": sum(1 for r in records if not r.ok),
            "metrics": with_units(reported),
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

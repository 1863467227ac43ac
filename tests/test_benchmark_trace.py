"""The benchmark's tracer reads a fit of the package as it is compiled now.

``perfbench/tracing.py`` wraps package functions and reads fields of what
they return (a compiled system's event count and bytes, among others); a
change to those shapes would make every traced operation fail.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import ops, tracing  # noqa: E402
from scgm.fitting import compile_system  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def test_the_benchmark_tracer_reads_a_fit_and_its_report(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = tracer.open("op.fit")
        fit = ops.fit_op(GOLDEN / "fig4_sparse288_0.csv", GOLDEN / "fig4.graph", tmp_path)
        ops.report_op(fit, tmp_path)
        tracer.close(op, ok=True)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans if s[4].get("error")] == []
    compiled = compile_system(fit.table.variables, fit.system)
    layers = tracing.layer_metrics(tracer.spans, primary_ops=1)
    assert layers["fitting.events"] == compiled.A.shape[0] == 192
    assert layers["fitting.compiled_mb"] * tracing.MB == compiled.A.nbytes + compiled.C.nbytes

"""Checks of the benchmark itself: inputs, output gate, result lines.

Run with ``python -m pytest -q perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import ops, run, tracing, workloads
from scgm import probability_vector

ROOT = Path(__file__).resolve().parents[2]

GEN_INPUTS = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "from pathlib import Path\n"
    "from perfbench import workloads\n"
    "for name in workloads.WORKLOADS:\n"
    "    workloads.write_inputs(name, 3, Path(sys.argv[3]) / name)\n"
)


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in sorted(directory.rglob("*"))
            if p.is_file()}


def test_inputs_are_byte_identical_across_hash_seeds(tmp_path):
    written = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run(
            [sys.executable, "-c", GEN_INPUTS, str(ROOT), str(ROOT / "src"), str(out)],
            check=True, env=env,
        )
        written.append(_files(out))
    assert written[0] == written[1]
    assert len(written[0]) == 3 + 7 + 3  # tables and graphs of each workload


def test_references_belong_to_the_generated_inputs(tmp_path):
    references = workloads.load_references()
    for name in workloads.WORKLOADS:
        assert sorted(references["workloads"][name]) == sorted(
            str(s) for s in workloads.reference_slots(name)
        )
        for seed in workloads.reference_slots(name):
            inputs = workloads.write_inputs(name, seed, tmp_path / name / str(seed))
            workloads.slot_references(references, name, seed, inputs)


def test_fig4_input_is_the_golden_graph():
    golden = ROOT / "tests" / "golden" / "fig4.graph"
    assert workloads.FIG4.read_bytes() == golden.read_bytes()


@pytest.fixture(scope="module")
def sparse_fit(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gate")
    inputs = workloads.write_inputs("fit-sparse", 0, directory)
    reference = workloads.slot_references(
        workloads.load_references(), "fit-sparse", 0, inputs
    )["tables"][0]
    return ops.fit_op(inputs.tables[0], inputs.graph, directory), reference


def _with_pi(fit, weights):
    table = fit.table
    pi = probability_vector(table.variables, weights)
    counts = table.counts
    mask = counts > 0
    g2 = 2.0 * float(np.sum(counts[mask] * np.log(counts[mask] / (counts.sum() * pi.probs[mask]))))
    result = dataclasses.replace(fit.result, pi_hat=pi, G2=g2)
    return dataclasses.replace(fit, result=result)


def test_gate_passes_the_default_fit(sparse_fit):
    fit, reference = sparse_fit
    reasons, gap = ops.fit_gate(fit, reference)
    assert reasons == []
    assert 0.0 < gap < 0.02


def test_gate_rejects_a_uniform_pi_hat(sparse_fit):
    # the uniform table satisfies every independence, so G2 rejects it
    fit, reference = sparse_fit
    reasons, _ = ops.fit_gate(_with_pi(fit, np.ones(fit.table.counts.size)), reference)
    assert any("above G2_ref" in r for r in reasons)


def test_gate_rejects_an_infeasible_pi_hat(sparse_fit):
    # the smoothed observed table has a G2 below G2_ref: only feasibility catches it
    fit, reference = sparse_fit
    reasons, _ = ops.fit_gate(_with_pi(fit, fit.table.counts + 0.01), reference)
    assert len(reasons) == 1 and reasons[0].startswith("max |h(pi_hat)|")


def test_gate_rejects_a_wrong_df(sparse_fit):
    fit, reference = sparse_fit
    wrong = dataclasses.replace(fit, result=dataclasses.replace(fit.result, df=fit.result.df + 1))
    reasons, _ = ops.fit_gate(wrong, reference)
    assert reasons == [f"df {reference['df'] + 1} != reference {reference['df']}"]


def test_gate_rejects_an_unconverged_fit(sparse_fit):
    fit, reference = sparse_fit
    stuck = dataclasses.replace(fit, result=dataclasses.replace(fit.result, converged=False))
    reasons, _ = ops.fit_gate(stuck, reference)
    assert reasons and reasons[0].startswith("not converged")


def test_null_report_s_is_never_written_as_zero():
    records = [
        ops.OpRecord("fit", 0.25, True, g2_gap=0.01),
        ops.OpRecord("report", 0.0, False, ["StatementError: no coefficient"]),
    ]
    metrics = run.end_to_end(records, "fit-sparse", 0.5)
    assert metrics["report_s"] is None
    assert metrics["failed_share"] == 0.5
    line = json.dumps(run.with_units(metrics))
    assert '"report_s": {"value": null, "unit": "s"}' in line
    records.append(ops.OpRecord("report", 0.125, True))
    assert run.end_to_end(records, "fit-sparse", 0.5)["report_s"] == 0.125


def test_self_times_subtract_direct_children_only():
    spans = [
        ["op.fit", 0.0, 10.0, None, {"ok": True}],
        ["fitting.fit_constrained", 1.0, 9.0, 0, {"iterations": 4, "converged": True}],
        ["linalg.lstsq", 2.0, 6.0, 1, {"order": 100}],
        ["fitting.param_value", 7.0, 8.0, 1, {}],
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 4.0, 1.0]
    layers = tracing.layer_metrics(spans, primary_ops=1)
    assert layers["fitting.kkt_s"] == 4.0
    assert layers["fitting.solver_self_s"] == 3.0
    assert layers["fitting.kkt_mb"] == 8.0 * 100**2 / 1e6
    assert layers["bench.unattributed_share"] == 0.2
    assert layers["fitting.search_fits"] == 0
    assert list(tracing.largest_self_times(spans, primary_ops=2)) == [
        "linalg.lstsq", "fitting.fit_constrained", "op.fit"]


class _Row:
    def __init__(self, key):
        self.key = key

    def canonical_key(self):
        return self.key


class _System:
    def __init__(self, *keys):
        self.rows = [_Row(k) for k in keys]


def test_repeat_rows_count_within_one_operation_only():
    tracer = tracing.Tracer()
    for systems in ([_System("a", "b"), _System("b", "c")], [_System("a", "c")]):
        op = tracer.open("op.search")
        for system in systems:
            span = tracer.open("constraints.generate_constraints")
            tracer.close(span, system=system)
        tracer.close(op, ok=True)
    generated = [s[4] for s in tracer.spans if s[0] == "constraints.generate_constraints"]
    assert generated == [{"rows": 2, "repeat_rows": 0}, {"rows": 2, "repeat_rows": 1},
                         {"rows": 2, "repeat_rows": 0}]
    layers = tracing.layer_metrics(tracer.spans, primary_ops=2)
    assert layers["constraints.rows"] == 3.0
    assert layers["constraints.repeat_row_share"] == 1 / 6


def test_tracer_restores_every_wrapped_function():
    import scgm.fitting

    before = (scgm.fitting.fit_constrained, np.linalg.lstsq)
    tracer = tracing.Tracer()
    tracer.install()
    assert scgm.fitting.fit_constrained is not before[0]
    tracer.uninstall()
    assert (scgm.fitting.fit_constrained, np.linalg.lstsq) == before


def test_every_layer_metric_is_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    computed = set(tracing.layer_metrics([], primary_ops=1)) | {"bench.trace_overhead_s"}
    assert names == computed
    assert {m["name"] for m in declared["end_to_end"]} == set(run.GATED)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert tuple(w["name"] for w in declared["workloads"]) == workloads.WORKLOADS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-sparse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Regenerate references.json: the output gate's reference values.

    python3 perfbench/make_references.py

For every seed slot of a fit workload it fits each table twice: tightly,
with FitOptions(constraint_tolerance=1e-10, gradient_tolerance=1e-9),
which gives G2_ref and the reference df, and with the default options the
benchmark uses, recorded for comparison.  For search-planted it runs
``scgm search`` with default options and records the final graph and df.
Each entry carries the SHA-256 of its table files.  Run it only when the
inputs change or a change to the package is meant to change these values.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# perfbench first: it sets the BLAS thread count before numpy loads
from perfbench import ops, workloads  # noqa: E402, I001
from scgm import constraints, fitting  # noqa: E402

import numpy as np  # noqa: E402

TIGHT = {"constraint_tolerance": 1e-10, "gradient_tolerance": 1e-9}


def fit_reference(table_path: Path, graph_path: Path, out: Path) -> dict:
    fit = ops.fit_op(table_path, graph_path, out)
    tight = fitting.fit_constrained(fit.table, fit.system, fitting.FitOptions(**TIGHT))
    h = constraints.evaluate_system(tight.pi_hat, fit.system)
    return {
        "G2_ref": tight.G2,
        "df": tight.df,
        "tight_converged": tight.converged,
        "tight_iterations": tight.iterations,
        "tight_max_abs_h": float(np.max(np.abs(h))),
        "default_G2": fit.result.G2,
        "default_df": fit.result.df,
        "default_iterations": fit.result.iterations,
        "K": int(fit.table.counts.size),
        "R": len(fit.system.rows),
        "zero_cell_share": float(np.mean(fit.table.counts == 0)),
    }


def search_reference(inputs, out: Path) -> dict:
    code = ops.search_op(inputs.tables[0], inputs.skeleton, out)
    if code != 0:
        raise RuntimeError(f"scgm search exited {code}")
    trace = json.loads((out / "search.json").read_text(encoding="utf-8"))
    return {
        "final_graph": trace["final_graph"],
        "df": trace["final_fit"]["df"],
        "G2": trace["final_fit"]["G2"],
        "fits": len(trace["step1"])
        + len(trace["step2"]["candidates"])
        + sum(len(e["candidates"]) for e in trace["step3"])
        + 1,
    }


def main() -> int:
    refs = {"tight_options": TIGHT, "workloads": {}}
    work = ROOT / ".perfbench" / "references"
    for workload in workloads.WORKLOADS:
        entries = {}
        for slot in workloads.reference_slots(workload):
            shutil.rmtree(work, ignore_errors=True)
            inputs = workloads.write_inputs(workload, slot, work / "inputs")
            out = work / "out"
            out.mkdir()
            entry = {
                "table_sha256": [workloads.file_digest(p) for p in inputs.tables],
            }
            if workload == "search-planted":
                entry.update(search_reference(inputs, out))
            else:
                entry["tables"] = [fit_reference(t, inputs.graph, out) for t in inputs.tables]
            entries[str(slot)] = entry
            print(workload, slot, json.dumps(entry)[:300], flush=True)
        refs["workloads"][workload] = entries
    workloads.REFERENCES.write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

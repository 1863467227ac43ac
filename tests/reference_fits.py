"""Refit the benchmark's reference tables and compare two checkouts' numbers.

Run from the root of a checkout:

    python3 tests/reference_fits.py --save FILE      # refit, write FILE
    python3 tests/reference_fits.py --compare FILE   # refit, compare with FILE

The fits are the 70 tables the benchmark's fit workloads read (10
``fit-dense`` slots of one 3^7-cell table, 10 ``fit-sparse`` slots of six
288-cell tables), each fitted under fig4 with default options as a fit
operation does, and ``scgm search`` from the 21-link skeleton on the
planted 128-cell tables of slots 0, 2, 5 and 9.  The inputs come from
``perfbench.workloads``, which this script only reads.

To compare a change with its parent, copy this file into the parent's
checkout, run ``--save`` there, then ``--compare`` here.  The comparison
prints, per workload, the largest relative change of G2 and the largest
absolute change of a ``pi_hat`` cell, of an ``eta_hat`` value and of
``kkt_residual`` (for a search, of its final fit's), and lists every fit
whose df,
iterations or ``converged`` differ, and every search whose final graph,
final df, candidate count or any candidate's df, iterations,
``converged`` or error differs.  It exits 1 when it lists one, 0
otherwise.  A search candidate's G2 counts towards the search's largest
G2 change.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from scgm import cli, fitting, graphs, regression, tables  # noqa: E402

SEARCH_SLOTS = (0, 2, 5, 9)
# fields of a search candidate that must not change
CANDIDATE_FIELDS = ("df", "iterations", "converged")


def fit_record(table_text: str, graph) -> dict:
    table = tables.load_table(table_text, format="csv")
    system = regression.scgm_constraint_system(graph, table.variables)
    res = fitting.fit_constrained(table, system, fitting.FitOptions())
    return {
        "G2": res.G2,
        "df": res.df,
        "iterations": res.iterations,
        "converged": res.converged,
        "kkt_residual": res.kkt_residual,
        "pi_hat": res.pi_hat.as_array().ravel().tolist(),
        "eta_hat": list(res.eta_hat.values()),
    }


def candidates(trace: dict) -> list:
    """Every candidate of a search trace, in trace order."""
    out = [c for c in trace["step1"]] + trace["step2"]["candidates"]
    for step in trace["step3"]:
        out += step["candidates"]
    return [{"fit": c["fit"], "error": c["error"]} for c in out]


def search_record(slot: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        table = tmp / "table.csv"
        table.write_text(workloads.table_csv(workloads.planted_table(slot)), encoding="utf-8")
        skeleton = tmp / "skeleton.graph"
        skeleton.write_text(workloads.SKELETON, encoding="utf-8")
        argv = ["search", "--table", str(table), "--graph", str(skeleton), "--out", str(tmp)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"scgm search on planted slot {slot} exited {code}")
        trace = json.loads((tmp / "search.json").read_text(encoding="utf-8"))
    return {
        "final_graph": trace["final_graph"],
        "final_df": trace["final_fit"]["df"],
        "final_kkt_residual": trace["final_fit"]["kkt_residual"],
        "final_eta_hat": [p["value"] for p in trace["final_fit"]["eta_hat"]],
        "candidates": candidates(trace),
    }


def refit() -> dict:
    fig4 = graphs.load_graph(workloads.FIG4)
    fits = {}
    for workload in ("fit-dense", "fit-sparse"):
        fits[workload] = {
            f"{slot}/{index}": fit_record(workloads.table_csv(table), fig4)
            for slot in range(workloads.FIT_SLOTS)
            for index, table in enumerate(workloads.tables_for(workload, slot))
        }
    searches = {str(slot): search_record(slot) for slot in SEARCH_SLOTS}
    return {"fits": fits, "searches": searches}


def relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def largest_change(a: list, b: list) -> float:
    """The largest absolute change between two lists of floats; inf when
    their lengths differ."""
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def compare(old: dict, new: dict) -> list:
    """Print the float changes; return the mismatches."""
    mismatches = []
    for workload, old_fits in old["fits"].items():
        new_fits = new["fits"][workload]
        if old_fits.keys() != new_fits.keys():
            mismatches.append(f"{workload}: the set of fitted tables differs")
        g2 = pi = eta = kkt = 0.0
        for key in sorted(old_fits.keys() & new_fits.keys()):
            a, b = old_fits[key], new_fits[key]
            for field in ("df", "iterations", "converged"):
                if a[field] != b[field]:
                    mismatches.append(f"{workload} {key}: {field} {a[field]!r} != {b[field]!r}")
            g2 = max(g2, relative(a["G2"], b["G2"]))
            pi = max(pi, largest_change(a["pi_hat"], b["pi_hat"]))
            eta = max(eta, largest_change(a["eta_hat"], b["eta_hat"]))
            kkt = max(kkt, abs(a["kkt_residual"] - b["kkt_residual"]))
        print(f"{workload}: {len(old_fits)} fits; max rel G2 change {g2:.2e}; "
              f"max abs pi_hat change {pi:.2e}; max abs eta_hat change {eta:.2e}; "
              f"max abs kkt_residual change {kkt:.2e}")
    g2 = eta = kkt = 0.0
    for slot, a in old["searches"].items():
        b = new["searches"][slot]
        for field in ("final_graph", "final_df"):
            if a[field] != b[field]:
                mismatches.append(f"search slot {slot}: {field} differs")
        eta = max(eta, largest_change(a["final_eta_hat"], b["final_eta_hat"]))
        kkt = max(kkt, abs(a["final_kkt_residual"] - b["final_kkt_residual"]))
        if len(a["candidates"]) != len(b["candidates"]):
            mismatches.append(f"search slot {slot}: {len(a['candidates'])} candidates "
                              f"!= {len(b['candidates'])}")
        for k, (ca, cb) in enumerate(zip(a["candidates"], b["candidates"])):
            if ca["error"] != cb["error"] or (ca["fit"] is None) != (cb["fit"] is None):
                mismatches.append(f"search slot {slot} candidate {k}: error differs")
                continue
            if ca["fit"] is None:
                continue
            for field in CANDIDATE_FIELDS:
                if ca["fit"][field] != cb["fit"][field]:
                    mismatches.append(f"search slot {slot} candidate {k}: {field} "
                                      f"{ca['fit'][field]!r} != {cb['fit'][field]!r}")
            g2 = max(g2, relative(ca["fit"]["G2"], cb["fit"]["G2"]))
    print(f"search: slots {', '.join(old['searches'])}; max rel candidate G2 change {g2:.2e}; "
          f"final fit: max abs eta_hat change {eta:.2e}, "
          f"max abs kkt_residual change {kkt:.2e}")
    for line in mismatches:
        print(f"  mismatch  {line}")
    return mismatches


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--save", metavar="FILE", help="write the refitted numbers to FILE")
    mode.add_argument("--compare", metavar="FILE", help="compare the refitted numbers with FILE")
    args = parser.parse_args(argv)
    new = refit()
    if args.save:
        Path(args.save).write_text(json.dumps(new) + "\n", encoding="utf-8")
        return 0
    old = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    return 1 if compare(old, new) else 0


if __name__ == "__main__":
    sys.exit(run())

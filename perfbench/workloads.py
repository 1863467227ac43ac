"""Seeded inputs of the three workloads and their reference values.

Every input is drawn with ``numpy.random.default_rng`` from the workload's
tag and the seed slot, and written with this module's own CSV writer, so
the files depend on nothing but the seed: not on ``PYTHONHASHSEED`` and
not on any code of the package under test.  The package receives only
the written table and graph files.

A fit workload's seed selects one of ``FIT_SLOTS`` input slots
(``seed % FIT_SLOTS``).  Each slot has reference values in
``references.json``, made by ``make_references.py`` from tight fits, which
the output gate checks against; the file also holds the SHA-256 of every
input so that a change to this generator cannot silently pair new inputs
with old references.

search-planted searches the table of slot ``SEARCH_SLOT`` for every seed.
The search's path and the solver's iteration counts change so much from
one sampled table to the next (on a 2-core Xeon VM with two BLAS threads:
14 s to 69 s over slots 0-9, with 108 to 135 fits and up to 15 fits
stopping at the iteration cap) that no run length this benchmark can
afford gives a steady median over seeds.  Slot 2 (108 fits, about 3000
iterations, one fit near the cap; 15 s to 20 s with one BLAS thread) sits
in the lower half of that range, which keeps a full set of benchmark runs
(70 runs of about 25 s to 60 s) inside an hour.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
FIG4 = HERE / "inputs" / "fig4.graph"

FIT_SLOTS = 10
SEARCH_SLOT = 2

WORKLOADS = ("fit-dense", "fit-sparse", "search-planted")
_TAGS = {"fit-dense": 1, "fit-sparse": 2, "search-planted": 3}

# fig4 at 3^7 cells; three of the four codings, all valid regression
# covariates (the continuation-coded variable is a pure response)
DENSE_CODINGS = ("continuation", "local", "local", "local", "baseline", "baseline", "baseline")
DENSE_N = 20000
DENSE_ALPHA = 3.0

# fig4 at 288 cells with N = 300 and Dirichlet(0.3): most cells are zero
# and the estimates sit on the boundary of the simplex
SPARSE_CARDS = (2, 2, 2, 2, 3, 3, 2)
SPARSE_TABLES = 6
SPARSE_N = 300
SPARSE_ALPHA = 0.3

SEARCH_N = 5000

_COMPONENTS = """component T1 = {5,6,7}
component T2 = {2,3,4}
component T3 = {1}
"""
_T1_EDGES = "edge 5 -- 6\nedge 5 -- 7\nedge 6 -- 7\n"
_T2_EDGES = "edge 2 -- 3\nedge 2 -- 4\nedge 3 -- 4\n"
_T1_TO_T2 = "".join(f"arc {a} -> {b}\n" for a in "567" for b in "234")

# the complete skeleton over fig4's components: 21 links
SKELETON = (
    _COMPONENTS + _T1_EDGES + _T2_EDGES + _T1_TO_T2
    + "".join(f"arc {a} -> 1\n" for a in "234567")
)
# the generating graph: response 1 depends on 3, 5 and 7 only
PLANTED = (
    _COMPONENTS + _T1_EDGES + _T2_EDGES + _T1_TO_T2
    + "".join(f"arc {a} -> 1\n" for a in "357")
)


@dataclass(frozen=True)
class Table:
    """Counts in canonical order (last variable fastest) with codings."""

    cards: tuple
    codings: tuple
    counts: np.ndarray


@dataclass(frozen=True)
class Inputs:
    """Paths of one run's input files, as handed to the package."""

    tables: tuple
    graph: Path
    warmup: Path
    skeleton: Path | None = None


def slot_of(workload: str, seed: int) -> int:
    return SEARCH_SLOT if workload == "search-planted" else seed % FIT_SLOTS


def reference_slots(workload: str) -> list:
    return [SEARCH_SLOT] if workload == "search-planted" else list(range(FIT_SLOTS))


def _rng(workload: str, slot: int, index: int = 0):
    return np.random.default_rng([_TAGS[workload], slot, index])


def dense_table(slot: int) -> Table:
    rng = _rng("fit-dense", slot)
    cards = (3,) * 7
    probs = rng.dirichlet(np.full(int(np.prod(cards)), DENSE_ALPHA))
    return Table(cards, DENSE_CODINGS, rng.multinomial(DENSE_N, probs))


def sparse_tables(slot: int) -> list:
    out = []
    for index in range(SPARSE_TABLES):
        rng = _rng("fit-sparse", slot, index)
        probs = rng.dirichlet(np.full(int(np.prod(SPARSE_CARDS)), SPARSE_ALPHA))
        out.append(
            Table(SPARSE_CARDS, ("baseline",) * 7, rng.multinomial(SPARSE_N, probs))
        )
    return out


def planted_table(slot: int) -> Table:
    """Binary table from P(5,6,7) P(2,3,4 | 5,6,7) P(1 | 3,5,7).

    Every factor is a table of Dirichlet(1) draws, so the only
    independencies are the three missing arcs into 1.
    """
    rng = _rng("search-planted", slot)
    p567 = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
    p234 = rng.dirichlet(np.ones(8), size=8).reshape(2, 2, 2, 2, 2, 2)
    p1 = rng.dirichlet(np.ones(2), size=8).reshape(2, 2, 2, 2)
    # axes: a..g are variables 1..7
    joint = np.einsum("efg,efgbcd,cega->abcdefg", p567, p234, p1).ravel()
    joint = joint / joint.sum()
    return Table((2,) * 7, ("baseline",) * 7, rng.multinomial(SEARCH_N, joint))


def table_csv(table: Table) -> str:
    """The package's CSV table format, every cell listed."""
    lines = ["variable,cardinality,coding"]
    for name, (card, coding) in enumerate(zip(table.cards, table.codings), start=1):
        lines.append(f"{name},{card},{coding}")
    cells = np.indices(table.cards).reshape(len(table.cards), -1).T + 1
    for cell, count in zip(cells, table.counts):
        lines.append("cell:" + ",".join(str(int(l)) for l in cell) + f",{int(count)}")
    return "\n".join(lines) + "\n"


def tables_for(workload: str, slot: int) -> list:
    if workload == "fit-dense":
        return [dense_table(slot)]
    if workload == "fit-sparse":
        return sparse_tables(slot)
    if workload == "search-planted":
        return [planted_table(slot)]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the seed's table and graph files into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    slot = slot_of(workload, seed)
    paths = []
    for index, table in enumerate(tables_for(workload, slot)):
        path = directory / f"table{index}.csv"
        path.write_text(table_csv(table), encoding="utf-8")
        paths.append(path)
    graph = directory / "model.graph"
    if workload == "search-planted":
        graph.write_text(PLANTED, encoding="utf-8")
        skeleton = directory / "skeleton.graph"
        skeleton.write_text(SKELETON, encoding="utf-8")
        return Inputs(tuple(paths), graph, paths[0], skeleton)
    graph.write_bytes(FIG4.read_bytes())
    if workload == "fit-dense":
        # the first fit in a process pays one-off costs (lazy imports, BLAS
        # threads); a 288-cell table takes them instead of a 2187-cell fit
        warmup = directory / "warmup.csv"
        warmup.write_text(table_csv(sparse_tables(slot)[0]), encoding="utf-8")
        return Inputs(tuple(paths), graph, warmup)
    return Inputs(tuple(paths), graph, paths[0])


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def slot_references(references: dict, workload: str, seed: int, inputs: Inputs) -> dict:
    """The slot's references, after checking they belong to these inputs."""
    slot = slot_of(workload, seed)
    entry = references["workloads"][workload][str(slot)]
    digests = [file_digest(p) for p in inputs.tables]
    if digests != entry["table_sha256"]:
        raise RuntimeError(
            f"{workload} slot {slot}: generated tables do not match the "
            "references; rerun perfbench/make_references.py"
        )
    return entry

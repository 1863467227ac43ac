"""Contingency tables over ordered categorical variables.

A table is a flat vector of nonnegative cell counts laid out in
lexicographic order with the LAST declared variable varying fastest.
That layout is load-bearing: every sign convention downstream assumes
it, so it is fixed here once rather than made configurable.

Counts are stored as floats, not integers, so that expected-count
tables produced by a fit can be fed back in as data for consistency
checks.

Two serialization surfaces are provided. The CSV form is a variable
header block followed by one ``cell:`` row per cell, zero counts included
(the reader accepts omitted cells as zero); the JSON
form mirrors it under the schema tag ``scgm-table/1``. Both round-trip
bit-exactly on canonical tables.  The CSV form has no place for level
labels, so its writer refuses a labelled table rather than drop them.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateCellError, TableFormatError

CODINGS = ("baseline", "local", "continuation", "reverse-continuation")

TABLE_SCHEMA = "scgm-table/1"


@dataclass(frozen=True)
class VariableSpec:
    """One ordered categorical variable: name, number of levels, coding.

    Levels are 1-based, running 1..cardinality. The coding names the
    reference event this variable contributes when it enters a logit
    contrast; the params module gives the four codings their meaning.
    A reverse-continuation variable is handled as the level relabeling
    i -> cardinality + 1 - i followed by continuation coding, so the
    relabeling applied twice is the identity.
    """

    name: str
    cardinality: int
    coding: str = "baseline"
    level_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be nonempty")
        if int(self.cardinality) != self.cardinality or self.cardinality < 2:
            raise ValueError(
                f"variable {self.name!r}: cardinality must be an integer >= 2"
            )
        if self.coding not in CODINGS:
            raise TableFormatError(f"unknown coding keyword {self.coding!r}")
        if self.level_labels is not None and len(self.level_labels) != self.cardinality:
            raise ValueError(f"variable {self.name!r}: need one label per level")

    @property
    def levels(self) -> range:
        return range(1, self.cardinality + 1)


def variable_names(variables: tuple[VariableSpec, ...]) -> tuple[str, ...]:
    return tuple(v.name for v in variables)


def variables_to_json(variables: tuple[VariableSpec, ...]) -> list[dict]:
    """Name, cardinality and coding of each variable, as output files list them."""
    return [
        {"name": v.name, "cardinality": v.cardinality, "coding": v.coding}
        for v in variables
    ]


def subset_in_order(
    variables: tuple[VariableSpec, ...], names: tuple[str, ...] | frozenset[str]
) -> tuple[VariableSpec, ...]:
    """The listed variables, re-sorted into declaration order."""
    wanted = set(names)
    unknown = wanted - {v.name for v in variables}
    if unknown:
        raise KeyError(f"unknown variables {sorted(unknown)!r}")
    return tuple(v for v in variables if v.name in wanted)


def cell_count(variables: tuple[VariableSpec, ...]) -> int:
    out = 1
    for v in variables:
        out *= v.cardinality
    return out


def all_cells(variables: tuple[VariableSpec, ...]):
    """All cells in canonical order (last variable fastest)."""
    return itertools.product(*(v.levels for v in variables))


def cell_offset(variables: tuple[VariableSpec, ...], cell: tuple[int, ...]) -> int:
    if len(cell) != len(variables):
        raise ValueError("cell arity does not match the variable list")
    offset = 0
    for v, level in zip(variables, cell):
        if not 1 <= level <= v.cardinality:
            raise ValueError(
                f"level {level} out of range for variable {v.name!r}"
            )
        offset = offset * v.cardinality + (level - 1)
    return offset


def _check_variables(variables) -> tuple[VariableSpec, ...]:
    variables = tuple(variables)
    if not variables:
        raise ValueError("need at least one variable")
    seen = set()
    for v in variables:
        if not isinstance(v, VariableSpec):
            raise TypeError("variables must be VariableSpec instances")
        if v.name in seen:
            raise ValueError(f"duplicate variable name {v.name!r}")
        seen.add(v.name)
    return variables


@dataclass(frozen=True, eq=False)
class ContingencyTable:
    """Nonnegative cell counts in canonical order."""

    variables: tuple[VariableSpec, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", _check_variables(self.variables))
        counts = np.array(self.counts, dtype=float).ravel()
        if counts.size != cell_count(self.variables):
            raise ValueError(
                f"expected {cell_count(self.variables)} cells, got {counts.size}"
            )
        if np.any(counts < 0) or not np.all(np.isfinite(counts)):
            raise TableFormatError("counts must be finite and nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def shape(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.variables)


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A joint distribution in canonical cell order.

    Entries may be zero (a zero cell only becomes an error when a log
    contrast is evaluated on it), must be nonnegative, and must sum to
    one within 1e-12.
    """

    variables: tuple[VariableSpec, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", _check_variables(self.variables))
        probs = np.array(self.probs, dtype=float).ravel()
        if probs.size != cell_count(self.variables):
            raise ValueError(
                f"expected {cell_count(self.variables)} cells, got {probs.size}"
            )
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def shape(self) -> tuple[int, ...]:
        return tuple(v.cardinality for v in self.variables)

    def as_array(self) -> np.ndarray:
        return self.probs.reshape(self.shape())


def probability_vector(variables, weights) -> ProbabilityVector:
    """Normalize nonnegative weights into a ProbabilityVector."""
    weights = np.asarray(weights, dtype=float).ravel()
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    return ProbabilityVector(tuple(variables), weights / total)


def marginalize(pv: ProbabilityVector, names) -> ProbabilityVector:
    """Marginal distribution of the named variables, in declaration order."""
    names = tuple(names)
    if not names:
        raise ValueError("marginal variable set must be nonempty")
    keep = subset_in_order(pv.variables, names)
    drop_axes = tuple(
        axis for axis, v in enumerate(pv.variables) if v.name not in {k.name for k in keep}
    )
    arr = pv.as_array()
    if drop_axes:
        arr = arr.sum(axis=drop_axes)
    return ProbabilityVector(keep, arr.ravel())


# ---------------------------------------------------------------- I/O ---- #


def _parse_count(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise TableFormatError(f"line {line_no}: bad count {token!r}") from exc
    if value < 0:
        raise TableFormatError(f"line {line_no}: negative count {token!r}")
    return value


def _table_from_entries(variables, entries) -> ContingencyTable:
    try:
        variables = _check_variables(variables)
    except ValueError as exc:
        raise TableFormatError(str(exc)) from exc
    counts = np.zeros(cell_count(variables))
    seen = set()
    for cell, value, line_no in entries:
        if len(cell) != len(variables):
            raise TableFormatError(
                f"line {line_no}: cell arity {len(cell)} does not match "
                f"{len(variables)} declared variables"
            )
        try:
            offset = cell_offset(variables, cell)
        except ValueError as exc:
            raise TableFormatError(f"line {line_no}: {exc}") from exc
        if offset in seen:
            raise DuplicateCellError(f"line {line_no}: cell {cell!r} repeated")
        seen.add(offset)
        counts[offset] = value
    return ContingencyTable(variables, counts)


def load_table_csv(text: str) -> ContingencyTable:
    lines = text.splitlines()
    header_seen = False
    variables: list[VariableSpec] = []
    entries = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != "variable,cardinality,coding":
                raise TableFormatError(
                    "first row must be the header 'variable,cardinality,coding'"
                )
            header_seen = True
            continue
        if line.startswith("cell:"):
            fields = line[len("cell:"):].split(",")
            if len(fields) < 2:
                raise TableFormatError(f"line {line_no}: cell row needs levels and a count")
            try:
                cell = tuple(int(f) for f in fields[:-1])
            except ValueError as exc:
                raise TableFormatError(f"line {line_no}: bad level in {line!r}") from exc
            entries.append((cell, _parse_count(fields[-1], line_no), line_no))
        else:
            fields = line.split(",")
            if len(fields) != 3:
                raise TableFormatError(
                    f"line {line_no}: variable row needs name,cardinality,coding"
                )
            name, card, coding = (f.strip() for f in fields)
            try:
                cardinality = int(card)
            except ValueError as exc:
                raise TableFormatError(f"line {line_no}: bad cardinality {card!r}") from exc
            try:
                variables.append(VariableSpec(name, cardinality, coding))
            except ValueError as exc:
                raise TableFormatError(f"line {line_no}: {exc}") from exc
    if not variables:
        raise TableFormatError("no variables declared")
    return _table_from_entries(variables, entries)


def dump_table_csv(table: ContingencyTable) -> str:
    lines = ["variable,cardinality,coding"]
    for v in table.variables:
        if v.level_labels is not None:
            raise TableFormatError(
                f"variable {v.name!r} has level labels, which the CSV format "
                "cannot hold; write the table as JSON"
            )
        if (
            "," in v.name
            or v.name != v.name.strip()
            or v.name.splitlines() != [v.name]
            or v.name.startswith(("#", "cell:"))
        ):
            raise TableFormatError(
                f"variable name {v.name!r} would not read back from CSV, which "
                "splits rows at line breaks and fields at commas, strips "
                "whitespace and reads rows starting '#' or 'cell:' as comments "
                "and cells; write the table as JSON"
            )
        lines.append(f"{v.name},{v.cardinality},{v.coding}")
    for cell, count in zip(all_cells(table.variables), table.counts):
        lines.append("cell:" + ",".join(str(l) for l in cell) + f",{float(count)!r}")
    return "\n".join(lines) + "\n"


def _json_int(value, what: str) -> int:
    """A JSON integer; a fraction, a bool or a non-number is refused, not truncated."""
    # exact type: JSON true and false load as bool, a subclass of int
    if type(value) is not int:
        raise TableFormatError(f"{what} {value!r} is not an integer")
    return value


def _json_str(value, what: str) -> str:
    """A JSON string; a number, a list or null is refused, not turned into text."""
    if not isinstance(value, str):
        raise TableFormatError(f"{what} {value!r} is not a string")
    return value


def _json_labels(value, name: str):
    """Level labels as a tuple of strings; absent or empty labels are None."""
    if value is None:
        return None
    if not isinstance(value, list):
        raise TableFormatError(f"variable {name!r}: level_labels {value!r} is not a list")
    return tuple(_json_str(v, f"variable {name!r}: level label") for v in value) or None


def load_table_json(text: str) -> ContingencyTable:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != TABLE_SCHEMA:
        raise TableFormatError(f"expected schema {TABLE_SCHEMA!r}")
    variables = []
    for spec in payload.get("variables", []):
        try:
            name = _json_str(spec["name"], "variable name")
            variables.append(
                VariableSpec(
                    name,
                    _json_int(spec["cardinality"], "cardinality"),
                    str(spec.get("coding", "baseline")),
                    _json_labels(spec.get("level_labels"), name),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TableFormatError(f"bad variable spec {spec!r}: {exc}") from exc
    entries = []
    for row_no, row in enumerate(payload.get("cells", []), start=1):
        try:
            cell = tuple(_json_int(l, f"cell row {row_no}: level") for l in row["cell"])
            value = row["count"]
            # exact types, as for levels: a JSON true or "3" is not a count
            if type(value) not in (int, float):
                raise TableFormatError(f"cell row {row_no}: count {value!r} is not a number")
        except (KeyError, ValueError, TypeError) as exc:
            raise TableFormatError(f"bad cell row {row!r}") from exc
        if value < 0:
            raise TableFormatError(f"negative count in {row!r}")
        entries.append((cell, value, row_no))
    if not variables:
        raise TableFormatError("no variables declared")
    return _table_from_entries(variables, entries)


def dump_table_json(table: ContingencyTable) -> str:
    payload = {
        "schema": TABLE_SCHEMA,
        "variables": [
            {
                "name": v.name,
                "cardinality": v.cardinality,
                "coding": v.coding,
                **({"level_labels": list(v.level_labels)} if v.level_labels else {}),
            }
            for v in table.variables
        ],
        "cells": [
            {"cell": list(cell), "count": float(count)}
            for cell, count in zip(all_cells(table.variables), table.counts)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_table(source, format: str = "csv") -> ContingencyTable:
    """Parse a table from a path, text, bytes, or a readable stream.

    An ``os.PathLike`` (such as a ``pathlib.Path``) is read as a UTF-8
    file.  A ``str`` is always the table's text, never a file name; bytes
    are decoded as UTF-8.  Any other source is a TableFormatError.
    """
    if isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8") as fh:
            source = fh.read()
    elif hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if not isinstance(source, str):
        raise TableFormatError(
            f"cannot read a table from {type(source).__name__}: "
            "expected a path, text, bytes or a readable stream"
        )
    if format == "csv":
        return load_table_csv(source)
    if format == "json":
        return load_table_json(source)
    raise ValueError(f"unknown table format {format!r}")


def dump_table(table: ContingencyTable, format: str = "csv") -> str:
    if format == "csv":
        return dump_table_csv(table)
    if format == "json":
        return dump_table_json(table)
    raise ValueError(f"unknown table format {format!r}")

"""Translate independence statements into linear constraints on parameters.

A context-specific statement "A independent of B given C at these context
cells" becomes, per context cell, one signed row per straddling effect and
effect cell.  The shape of the inner terms depends on how each context
variable is coded: a baseline-coded variable pins its context coordinate
(top levels drop out by nullity), a local-coded one contributes the
lattice sum of parameters at or above the context coordinate.  Threshold
contexts admit a much simpler description: the parameters indexed inside
the threshold region vanish one by one.

Rows are emitted deterministically (effect, effect cell, context cell) and
deduplicated up to a global sign; the count before deduplication is kept
on the system because closed-form counting identities refer to it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import StatementError, UnsupportedCodingError
from .params import ParamIndex, param_index, param_values
from .tables import ProbabilityVector, VariableSpec, probability_vector, subset_in_order, variable_names


# ---------------------------------------------------------------------------
# statements

@dataclass(frozen=True)
class CellListContext:
    cells: tuple

    def kind(self):
        return "cells"


@dataclass(frozen=True)
class PatternContext:
    """Per-variable fixed level or None, where None matches every level."""

    pattern: tuple

    def kind(self):
        return "pattern"


@dataclass(frozen=True)
class ThresholdContext:
    bound: tuple
    direction: str  # "geq" or "leq"

    def kind(self):
        return self.direction


@dataclass(frozen=True)
class Statement:
    """Independence statement: lhs independent of rhs given the context.

    ``context`` is None for plain conditional independence, otherwise one
    of the context types above, aligned with ``given``.
    """

    lhs: tuple
    rhs: tuple
    given: tuple = ()
    context: object = None

    def is_context_specific(self):
        return self.context is not None


def validate_statement(stmt: Statement, variables) -> Statement:
    """Normalize variable order and check ranges; returns the canonical form."""
    names = variable_names(variables)
    spec_by = {s.name: s for s in variables}
    groups = []
    for label, group in (("lhs", stmt.lhs), ("rhs", stmt.rhs), ("given", stmt.given)):
        for n in group:
            if n not in names:
                raise StatementError(f"unknown variable {n!r} in {label}")
        groups.append(tuple(n for n in names if n in group))
    lhs, rhs, given = groups
    if not lhs or not rhs:
        raise StatementError("both independence sides must be nonempty")
    seen = set()
    for n in lhs + rhs + given:
        if n in seen:
            raise StatementError(f"variable {n!r} used twice in the statement")
        seen.add(n)

    ctx = stmt.context
    if ctx is not None and not given:
        raise StatementError("a context requires conditioning variables")
    if isinstance(ctx, PatternContext):
        if len(ctx.pattern) != len(stmt.given):
            raise StatementError("pattern length must match the conditioning set")
        remap = dict(zip(stmt.given, ctx.pattern))
        pattern = tuple(remap[n] for n in given)
        for n, p in zip(given, pattern):
            if p is not None and not 1 <= p <= spec_by[n].cardinality:
                raise StatementError(f"pattern level {p} out of range for {n!r}")
        ctx = PatternContext(pattern)
    elif isinstance(ctx, CellListContext):
        if not ctx.cells:
            raise StatementError("context cell list is empty")
        remapped = []
        for cell in ctx.cells:
            if len(cell) != len(stmt.given):
                raise StatementError("context cell length must match the conditioning set")
            remap = dict(zip(stmt.given, cell))
            cell = tuple(remap[n] for n in given)
            for n, l in zip(given, cell):
                if not 1 <= l <= spec_by[n].cardinality:
                    raise StatementError(f"context level {l} out of range for {n!r}")
            remapped.append(cell)
        ctx = CellListContext(tuple(sorted(set(remapped))))
    elif isinstance(ctx, ThresholdContext):
        if len(ctx.bound) != len(stmt.given):
            raise StatementError("threshold bound length must match the conditioning set")
        remap = dict(zip(stmt.given, ctx.bound))
        bound = tuple(remap[n] for n in given)
        for n, b in zip(given, bound):
            if not 1 <= b <= spec_by[n].cardinality:
                raise StatementError(f"threshold level {b} out of range for {n!r}")
        if ctx.direction not in ("geq", "leq"):
            raise StatementError(f"unknown threshold direction {ctx.direction!r}")
        ctx = ThresholdContext(bound, ctx.direction)
    elif ctx is not None:
        raise StatementError(f"unknown context type {type(ctx).__name__}")
    return Statement(lhs, rhs, given, ctx)


def context_cells(stmt: Statement, variables):
    """Explicit tuple of context cells for list, pattern and threshold forms."""
    spec_by = {s.name: s for s in variables}
    ctx = stmt.context
    if ctx is None:
        ranges = [range(1, spec_by[n].cardinality + 1) for n in stmt.given]
        return tuple(itertools.product(*ranges))
    if isinstance(ctx, CellListContext):
        return ctx.cells
    if isinstance(ctx, PatternContext):
        ranges = [
            (p,) if p is not None else tuple(range(1, spec_by[n].cardinality + 1))
            for n, p in zip(stmt.given, ctx.pattern)
        ]
        return tuple(itertools.product(*ranges))
    lo = ctx.bound
    if ctx.direction == "geq":
        ranges = [range(b, spec_by[n].cardinality + 1) for n, b in zip(stmt.given, lo)]
    else:
        ranges = [range(1, b + 1) for b in lo]
    return tuple(itertools.product(*ranges))


# -- text form --------------------------------------------------------------

_SET = r"\{([^}]*)\}"
_STMT_RE = re.compile(
    rf"^\s*(CI|CS)\s*:\s*{_SET}\s*_\|\|_\s*{_SET}\s*(?:\|\s*{_SET}\s*(.*))?$"
)


def _parse_names(body):
    body = body.strip()
    if not body:
        return ()
    return tuple(part.strip() for part in body.split(","))


def _parse_tuple(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise StatementError(f"expected a parenthesized tuple, got {text!r}")
    items = []
    for part in text[1:-1].split(","):
        part = part.strip()
        items.append(None if part == "*" else int(part))
    return tuple(items)


def parse_statement(text: str) -> Statement:
    """Parse the textual statement syntax.

    CI: {1} _||_ {2,3} | {4}          plain conditional (| part optional)
    CS: {1} _||_ {2} | {3,4} = (1,*)  asterisk pattern
    CS: {1} _||_ {2} | {3,4} = {(1,1),(2,1)}  explicit cell list
    CS: {1} _||_ {2} | {3,4} >= (2,2) threshold (also <=)
    """
    m = _STMT_RE.match(text)
    if not m:
        raise StatementError(f"unparseable statement: {text!r}")
    kind, lhs_s, rhs_s, given_s, tail = m.groups()
    lhs = _parse_names(lhs_s)
    rhs = _parse_names(rhs_s)
    given = _parse_names(given_s) if given_s is not None else ()
    tail = (tail or "").strip()

    if kind == "CI":
        if tail:
            raise StatementError("conditional statements take no context part")
        return Statement(lhs, rhs, given, None)
    if not given:
        raise StatementError("context-specific statements need conditioning variables")
    if tail.startswith(">=") or tail.startswith("<="):
        op, rest = tail[:2], tail[2:]
        bound = _parse_tuple(rest)
        if any(b is None for b in bound):
            raise StatementError("threshold bounds cannot contain asterisks")
        return Statement(lhs, rhs, given, ThresholdContext(bound, "geq" if op == ">=" else "leq"))
    if tail.startswith("="):
        rest = tail[1:].strip()
        if rest.startswith("{"):
            if not rest.endswith("}"):
                raise StatementError(f"unterminated cell list in {text!r}")
            cells = []
            for part in re.findall(r"\(([^)]*)\)", rest[1:-1]):
                cell = _parse_tuple("(" + part + ")")
                if any(c is None for c in cell):
                    raise StatementError("cell lists cannot contain asterisks")
                cells.append(cell)
            if not cells:
                raise StatementError("empty cell list")
            return Statement(lhs, rhs, given, CellListContext(tuple(cells)))
        pattern = _parse_tuple(rest)
        return Statement(lhs, rhs, given, PatternContext(pattern))
    raise StatementError(f"context-specific statement needs '=', '>=' or '<=': {text!r}")


def render_statement(stmt: Statement) -> str:
    """Canonical textual form; inverse of parse_statement up to whitespace."""

    def names(group):
        return "{" + ",".join(group) + "}"

    head = f"{names(stmt.lhs)} _||_ {names(stmt.rhs)}"
    if stmt.given:
        head += f" | {names(stmt.given)}"
    ctx = stmt.context
    if ctx is None:
        return "CI: " + head
    if isinstance(ctx, PatternContext):
        body = ",".join("*" if p is None else str(p) for p in ctx.pattern)
        return f"CS: {head} = ({body})"
    if isinstance(ctx, CellListContext):
        cells = ",".join("(" + ",".join(str(l) for l in c) + ")" for c in ctx.cells)
        return f"CS: {head} = {{{cells}}}"
    op = ">=" if ctx.direction == "geq" else "<="
    return f"CS: {head} {op} (" + ",".join(str(b) for b in ctx.bound) + ")"


def statement_kind(stmt: Statement) -> str:
    if stmt.context is not None:
        return "context-specific"
    return "conditional" if stmt.given else "marginal"


def statement_to_json(stmt: Statement) -> dict:
    ctx = stmt.context
    if ctx is None:
        context = None
    elif isinstance(ctx, CellListContext):
        context = {"kind": "cells", "cells": [list(c) for c in ctx.cells]}
    elif isinstance(ctx, PatternContext):
        context = {"kind": "pattern", "pattern": list(ctx.pattern)}
    else:
        context = {"kind": ctx.direction, "bound": list(ctx.bound)}
    return {
        "type": "cs" if stmt.is_context_specific() else "ci",
        "lhs": list(stmt.lhs),
        "rhs": list(stmt.rhs),
        "given": list(stmt.given),
        "context": context,
    }


def statement_from_json(obj: dict) -> Statement:
    try:
        lhs = tuple(obj["lhs"])
        rhs = tuple(obj["rhs"])
        given = tuple(obj.get("given", ()))
        raw = obj.get("context")
    except (KeyError, TypeError) as exc:
        raise StatementError(f"malformed statement object: {exc}")
    if raw is None:
        return Statement(lhs, rhs, given, None)
    kind = raw.get("kind")
    if kind == "cells":
        return Statement(lhs, rhs, given, CellListContext(tuple(tuple(c) for c in raw["cells"])))
    if kind == "pattern":
        return Statement(lhs, rhs, given, PatternContext(tuple(raw["pattern"])))
    if kind in ("geq", "leq"):
        return Statement(lhs, rhs, given, ThresholdContext(tuple(raw["bound"]), kind))
    raise StatementError(f"unknown context kind {kind!r}")


# ---------------------------------------------------------------------------
# constraint rows

@dataclass(frozen=True)
class Term:
    index: ParamIndex
    coef: int


@dataclass(frozen=True)
class Row:
    terms: tuple
    origin: str = ""

    def canonical_key(self):
        ordered = tuple(sorted((t.index.key(), t.coef) for t in self.terms))
        if ordered and ordered[0][1] < 0:
            ordered = tuple((k, -c) for k, c in ordered)
        return ordered


@dataclass(frozen=True)
class ConstraintSystem:
    """Deduplicated constraint rows plus the variables they refer to.

    For a lower-threshold statement the variables carry reversed level
    scales for the conditioning set; evaluate such systems on a table whose
    context axes have been flipped with reverse_variable_levels.
    """

    variables: tuple
    rows: tuple
    pre_dedup_count: int
    origin: str = ""

    @property
    def indices(self):
        seen = []
        have = set()
        for row in self.rows:
            for t in row.terms:
                if t.index not in have:
                    have.add(t.index)
                    seen.append(t.index)
        return tuple(seen)


def _dedup(rows):
    out = []
    seen = set()
    for row in rows:
        key = row.canonical_key()
        if key and key not in seen:
            seen.add(key)
            out.append(row)
    return tuple(out)


def merge_systems(variables, systems, origin=""):
    rows = []
    pre = 0
    for s in systems:
        rows.extend(s.rows)
        pre += s.pre_dedup_count
    return ConstraintSystem(tuple(variables), _dedup(rows), pre, origin)


def interaction_sets(A, B, version="straddling"):
    """Effects through which an independence of A and B expresses itself.

    ``straddling`` (default): every union of a nonempty subset of A and a
    nonempty subset of B.  ``sided``: every nonempty subset of A or of B
    taken alone, kept for comparison pipelines.
    """
    A = tuple(A)
    B = tuple(B)
    if not A or not B or set(A) & set(B):
        raise StatementError("independence sides must be nonempty and disjoint")
    out = []
    if version == "straddling":
        for ra in range(1, len(A) + 1):
            for a in itertools.combinations(A, ra):
                for rb in range(1, len(B) + 1):
                    for b in itertools.combinations(B, rb):
                        out.append(tuple(a + b))
    elif version == "sided":
        for side in (A, B):
            for r in range(1, len(side) + 1):
                out.extend(itertools.combinations(side, r))
    else:
        raise StatementError(f"unknown interaction-set version {version!r}")
    return out


def _sorted_effects(effects, names):
    return sorted(effects, key=lambda e: (len(e), tuple(names.index(v) for v in e)))


def _effect_cells(variables, effect):
    spec_by = {s.name: s for s in variables}
    ranges = [range(1, spec_by[v].cardinality) for v in effect]
    return itertools.product(*ranges)


def _margin_for(variables, stmt_vars, alloc):
    names = variable_names(variables)
    target = tuple(n for n in names if n in stmt_vars)
    if alloc is None:
        return target
    for m in alloc.marginals:
        if set(target) <= set(m):
            return m
    raise StatementError(
        f"no marginal of the allocation contains the statement variables {target}"
    )


def _inner_context_terms(spec_by, c_vars, kcell_map):
    """Per-context-variable expansion of one signed term.

    Returns the list of cells (dicts) the inner sum runs over for the
    context subset ``c_vars``, or [] when a baseline coordinate sits at the
    top level (the term vanishes).  Baseline pins the context coordinate,
    local sums the lattice at or above it.
    """
    axes = []
    for v in c_vars:
        spec = spec_by[v]
        k = kcell_map[v]
        if spec.coding == "baseline":
            if k == spec.cardinality:
                return []
            axes.append([(v, k)])
        elif spec.coding == "local":
            axes.append([(v, i) for i in range(k, spec.cardinality)])
        else:
            raise UnsupportedCodingError(
                f"explicit context cells need baseline or local coding on the "
                f"conditioning set; {v!r} is {spec.coding}"
            )
    cells = []
    for combo in itertools.product(*axes):
        cells.append(dict(combo))
    return cells


def context_cell_rows(stmt, variables, alloc=None, version="straddling") -> ConstraintSystem:
    """Signed constraint rows for list or pattern contexts.

    Implements the alternating sum over subsets of the conditioning set,
    with the inner expansion dispatched per context-variable coding.
    """
    stmt = validate_statement(stmt, variables)
    if isinstance(stmt.context, ThresholdContext):
        raise StatementError("threshold contexts use threshold_rows")
    spec_by = {s.name: s for s in variables}
    names = variable_names(variables)
    margin = _margin_for(variables, set(stmt.lhs + stmt.rhs + stmt.given), alloc)
    kcells = context_cells(stmt, variables)
    origin = render_statement(stmt)

    C = stmt.given
    rows = []
    for v in _sorted_effects(interaction_sets(stmt.lhs, stmt.rhs, version), names):
        for i_v in _effect_cells(variables, v):
            vmap = dict(zip(v, i_v))
            for kcell in kcells:
                kmap = dict(zip(C, kcell))
                terms = []
                for r in range(len(C) + 1):
                    for c_vars in itertools.combinations(C, r):
                        sign = -1 if (len(C) - r) % 2 else 1
                        for inner in _inner_context_terms(spec_by, c_vars, kmap):
                            cmap = dict(vmap)
                            cmap.update(inner)
                            idx = param_index(variables, margin, v + c_vars, cmap)
                            terms.append(Term(idx, sign))
                rows.append(Row(tuple(terms), origin))
    return ConstraintSystem(tuple(variables), _dedup(rows), len(rows), origin)


def constraints_baseline(stmt, variables, alloc=None):
    """Rows for baseline-coded conditioning variables (list/pattern context)."""
    stmt = validate_statement(stmt, variables)
    spec_by = {s.name: s for s in variables}
    for n in stmt.given:
        if spec_by[n].coding != "baseline":
            raise UnsupportedCodingError(
                f"baseline constraint generation requires baseline coding on {n!r}"
            )
    return context_cell_rows(stmt, variables, alloc)


def constraints_local(stmt, variables, alloc=None):
    """Rows for local-coded conditioning variables (list/pattern context)."""
    stmt = validate_statement(stmt, variables)
    spec_by = {s.name: s for s in variables}
    for n in stmt.given:
        if spec_by[n].coding != "local":
            raise UnsupportedCodingError(
                f"local constraint generation requires local coding on {n!r}"
            )
    return context_cell_rows(stmt, variables, alloc)


def reverse_variable_levels(pv: ProbabilityVector, names) -> ProbabilityVector:
    """Flip the level order of the named variables (and swap their codings).

    Continuation and reverse-continuation exchange roles on a reversed
    scale; baseline and local keep their labels.
    """
    axes = tuple(k for k, spec in enumerate(pv.variables) if spec.name in names)
    arr = np.flip(pv.as_array(), axis=axes)
    return probability_vector(reversed_context_specs(pv.variables, names), arr.ravel())


def reversed_context_specs(variables, names):
    """Variable specs after reversing the named scales."""
    flip = {"continuation": "reverse-continuation", "reverse-continuation": "continuation"}
    out = []
    for spec in variables:
        if spec.name in names:
            out.append(
                VariableSpec(spec.name, spec.cardinality, flip.get(spec.coding, spec.coding),
                             tuple(reversed(spec.level_labels)) if spec.level_labels else None)
            )
        else:
            out.append(spec)
    return tuple(out)


def threshold_rows(stmt, variables, alloc=None) -> ConstraintSystem:
    """Single-term rows for threshold contexts.

    Inside an upper threshold every parameter whose context coordinates sit
    at or above the bound vanishes, together with the context-free effects.
    Requires local or continuation coding on the conditioning set; a lower
    threshold is normalized by reversing the conditioning scales first, and
    the returned system's variables carry those reversed specs.
    """
    stmt = validate_statement(stmt, variables)
    if not isinstance(stmt.context, ThresholdContext):
        raise StatementError("threshold_rows needs a threshold context")
    spec_by = {s.name: s for s in variables}

    if stmt.context.direction == "leq":
        rev = reversed_context_specs(variables, set(stmt.given))
        bound = tuple(
            spec_by[n].cardinality + 1 - b for n, b in zip(stmt.given, stmt.context.bound)
        )
        flipped = Statement(stmt.lhs, stmt.rhs, stmt.given, ThresholdContext(bound, "geq"))
        inner = threshold_rows(flipped, rev, alloc)
        origin = render_statement(stmt)
        rows = tuple(Row(r.terms, origin) for r in inner.rows)
        return ConstraintSystem(inner.variables, rows, inner.pre_dedup_count, origin)

    for n in stmt.given:
        coding = spec_by[n].coding
        if coding not in ("local", "continuation"):
            raise UnsupportedCodingError(
                f"upper-threshold contexts need local or continuation coding on the "
                f"conditioning set; {n!r} is {coding}"
            )

    names = variable_names(variables)
    margin = _margin_for(variables, set(stmt.lhs + stmt.rhs + stmt.given), alloc)
    origin = render_statement(stmt)
    C = stmt.given
    bound_by = dict(zip(C, stmt.context.bound))

    rows = []
    for v in _sorted_effects(interaction_sets(stmt.lhs, stmt.rhs), names):
        for r in range(len(C) + 1):
            for c_vars in itertools.combinations(C, r):
                c_ranges = [
                    range(bound_by[n], spec_by[n].cardinality) for n in c_vars
                ]
                for i_v in _effect_cells(variables, v):
                    vmap = dict(zip(v, i_v))
                    for i_c in itertools.product(*c_ranges):
                        cmap = dict(vmap)
                        cmap.update(zip(c_vars, i_c))
                        idx = param_index(variables, margin, v + c_vars, cmap)
                        rows.append(Row((Term(idx, 1),), origin))
    sysvars = tuple(variables)
    return ConstraintSystem(sysvars, _dedup(rows), len(rows), origin)


def constraints_conditional(lhs, rhs, given, variables, alloc=None):
    """Zero constraints equivalent to plain conditional independence."""
    stmt = validate_statement(Statement(tuple(lhs), tuple(rhs), tuple(given), None), variables)
    names = variable_names(variables)
    spec_by = {s.name: s for s in variables}
    margin = _margin_for(variables, set(stmt.lhs + stmt.rhs + stmt.given), alloc)
    origin = render_statement(stmt)
    rows = []
    C = stmt.given
    for v in _sorted_effects(interaction_sets(stmt.lhs, stmt.rhs), names):
        for r in range(len(C) + 1):
            for c_vars in itertools.combinations(C, r):
                effect = tuple(n for n in names if n in v + c_vars)
                for cell in _effect_cells(variables, effect):
                    idx = param_index(variables, margin, effect, dict(zip(effect, cell)))
                    rows.append(Row((Term(idx, 1),), origin))
    return ConstraintSystem(tuple(variables), _dedup(rows), len(rows), origin)


def generate_constraints(stmt, variables, alloc=None):
    """Dispatch a statement to the appropriate generator."""
    stmt = validate_statement(stmt, variables)
    if stmt.context is None:
        return constraints_conditional(stmt.lhs, stmt.rhs, stmt.given, variables, alloc)
    if isinstance(stmt.context, ThresholdContext):
        return threshold_rows(stmt, variables, alloc)
    return context_cell_rows(stmt, variables, alloc)


def expected_constraint_count(stmt, variables) -> int:
    """Closed-form count of constraints for an explicit context list.

    One statement imposes (product of cardinalities over both independence
    sides, minus one) constraints per context cell; the generated straddling
    and sided families together realize exactly this count before
    deduplication.
    """
    stmt = validate_statement(stmt, variables)
    if not isinstance(stmt.context, (CellListContext, PatternContext)):
        raise StatementError("the closed-form count applies to explicit context lists")
    spec_by = {s.name: s for s in variables}
    prod = 1
    for n in stmt.lhs + stmt.rhs:
        prod *= spec_by[n].cardinality
    return (prod - 1) * len(context_cells(stmt, variables))


# ---------------------------------------------------------------------------
# evaluation and export

def evaluate_system(pv: ProbabilityVector, system: ConstraintSystem):
    """Every row's value at ``pv``: parameters once each, then row sums."""
    values = dict(zip(system.indices, param_values(pv, system.indices)))
    out = []
    for row in system.rows:
        total = 0.0
        for t in row.terms:
            total += t.coef * values[t.index]
        out.append(total)
    return np.array(out)


def system_to_json(system: ConstraintSystem) -> dict:
    return {
        "schema": "scgm-constraints/1",
        "origin": system.origin,
        "variables": [
            {"name": s.name, "cardinality": s.cardinality, "coding": s.coding}
            for s in system.variables
        ],
        "pre_dedup_count": system.pre_dedup_count,
        "rows": [
            {
                "origin": row.origin,
                "terms": [
                    {
                        "eta": {
                            "margin": list(t.index.margin),
                            "effect": list(t.index.effect),
                            "cell": list(t.index.cell),
                        },
                        "coef": t.coef,
                    }
                    for t in row.terms
                ],
            }
            for row in system.rows
        ],
    }

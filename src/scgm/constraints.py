"""Translate independence statements into linear constraints on parameters.

generate_constraints is the one entry point.  It validates a statement,
picks the margin its rows sit on and builds one of two row shapes:

* single-parameter rows over a region: for every effect straddling both
  sides, widened by any subset of the conditioning set, each parameter
  whose conditioning coordinates sit at or above a per-variable lower
  bound vanishes.  A plain independence is the region at bound 1 on every
  conditioning variable.  Its rows hold slice by slice when the
  conditioning variables are baseline or local coded.  A continuation or
  reverse-continuation parameter pools the levels on one side of its
  observed level, so with such a conditioning variable the rows also
  force independence within each pooled set: a smaller, pooled-margin
  model, which is still open as item 15 of ROADMAP.md.  An upper
  threshold (>=) at bound b is the region at b.  A lower threshold (<=)
  at bound b on a c-level variable is the region at c + 1 - b: a
  reverse-continuation parameter at coordinate j contrasts level
  c + 1 - j with the levels below it, so its contrast stays within levels
  1..b exactly when j >= c + 1 - b, and a reverse-continuation variable
  outside the effect is pinned at level 1.
* context cells (a cell list or an asterisk pattern): per context cell, one
  signed row per straddling effect and effect cell, alternating over
  subsets of the conditioning set.  Each conditioning variable is baseline
  (pins its context coordinate; top levels drop out by nullity) or local
  (contributes the lattice sum at or above it).

``CONTEXT_CODINGS`` lists the codings each context form admits on its
conditioning variables; they are checked before any row is built.

Row order is deterministic.  Straddling effects come by (size, declaration
position) in both shapes.  Region rows then run over the conditioning
subsets by (size, position) and, within one widened effect, over its
parameter cells in canonical order: coordinates in declaration order,
lexicographic, last fastest.  Context-cell rows run over effect cells in
that order and then over context cells (sorted for a list, lexicographic
for a pattern); a row's terms follow the conditioning subsets by (size,
position) and then the lattice sum.  Rows are deduplicated up to a global
sign, keeping the first; the count before deduplication is kept on the
system because closed-form counting identities refer to it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .errors import StatementError, UnsupportedCodingError
from .params import ParamIndex, effect_cells, index_to_json, param_index, param_values
from .tables import ProbabilityVector, variable_names, variables_to_json


# ---------------------------------------------------------------------------
# statements

@dataclass(frozen=True)
class CellListContext:
    cells: tuple


@dataclass(frozen=True)
class PatternContext:
    """Per-variable fixed level or None, where None matches every level."""

    pattern: tuple


@dataclass(frozen=True)
class ThresholdContext:
    bound: tuple
    direction: str  # "geq" or "leq"


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
    for n in (*stmt.lhs, *stmt.rhs, *stmt.given):
        if n in seen:
            raise StatementError(f"variable {n!r} used twice in the statement")
        seen.add(n)

    ctx = stmt.context
    if ctx is not None and not given:
        raise StatementError("a context requires conditioning variables")

    def align(levels, what, wildcard=False):
        # one level per conditioning variable as the statement lists them,
        # put into declaration order and range-checked; None is an asterisk
        if len(levels) != len(stmt.given):
            raise StatementError(f"{what} length must match the conditioning set")
        by_name = dict(zip(stmt.given, levels))
        out = tuple(by_name[n] for n in given)
        for n, level in zip(given, out):
            if level is None and wildcard:
                continue
            if level is None or not 1 <= level <= spec_by[n].cardinality:
                raise StatementError(f"{what} level {level} out of range for {n!r}")
        return out

    if isinstance(ctx, PatternContext):
        ctx = PatternContext(align(ctx.pattern, "pattern", wildcard=True))
    elif isinstance(ctx, CellListContext):
        if not ctx.cells:
            raise StatementError("context cell list is empty")
        ctx = CellListContext(tuple(sorted({align(c, "context cell") for c in ctx.cells})))
    elif isinstance(ctx, ThresholdContext):
        if ctx.direction not in ("geq", "leq"):
            raise StatementError(f"unknown threshold direction {ctx.direction!r}")
        ctx = ThresholdContext(align(ctx.bound, "threshold bound"), ctx.direction)
    elif ctx is not None:
        raise StatementError(f"unknown context type {type(ctx).__name__}")
    return Statement(lhs, rhs, given, ctx)


def context_cells(stmt: Statement, variables):
    """Explicit tuple of context cells for list, pattern and threshold forms."""
    spec_by = {s.name: s for s in variables}
    ctx = stmt.context
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


_ROW_RE = re.compile(r"\(([^()]*)\)")
_ROW_LIST_RE = re.compile(rf"\s*(?:{_ROW_RE.pattern}\s*(?:,\s*{_ROW_RE.pattern}\s*)*)?")


def _parse_levels(row, bad_level):
    """Levels of one row's text between its parentheses, ``1,*,3``: an int
    per item, None for an asterisk.  Any other item, an empty one included,
    raises ``bad_level(item, row)``."""
    items = []
    for part in row.split(","):
        part = part.strip()
        try:
            items.append(None if part == "*" else int(part))
        except ValueError:
            raise bad_level(part, row) from None
    return tuple(items)


def parse_rows(text, bad_level):
    """Rows of a list of parenthesized rows separated by commas,
    ``(1,*),(2,3)``, each read by ``_parse_levels``; ``()`` is the empty
    row.  None when ``text`` is anything else."""
    if not _ROW_LIST_RE.fullmatch(text):
        return None
    rows = _ROW_RE.findall(text)
    return [_parse_levels(row, bad_level) if row.strip() else () for row in rows]


def _bad_level(item, row):
    return StatementError(f"level {item!r} in {f'({row})'!r} is not an integer or *")


def _parse_tuple(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise StatementError(f"expected a parenthesized tuple, got {text!r}")
    return _parse_levels(text[1:-1], _bad_level)


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
            cells = parse_rows(rest[1:-1], _bad_level)
            if cells is None:
                raise StatementError(f"malformed cell list in {text!r}")
            if any(None in cell for cell in cells):
                raise StatementError("cell lists cannot contain asterisks")
            if not cells:
                raise StatementError("empty cell list")
            return Statement(lhs, rhs, given, CellListContext(tuple(cells)))
        pattern = _parse_tuple(rest)
        return Statement(lhs, rhs, given, PatternContext(pattern))
    raise StatementError(f"context-specific statement needs '=', '>=' or '<=': {text!r}")


def render_statement(stmt: Statement) -> str:
    """Canonical textual form; inverse of parse_statement up to whitespace.

    A variable name that parse_statement would not read back raises
    StatementError: an empty name, one with whitespace at either end
    (stripped on reading) or one holding ',' or '}' (a set's syntax).
    """
    for name in stmt.lhs + stmt.rhs + stmt.given:
        if not name or name != name.strip() or "," in name or "}" in name:
            raise StatementError(
                f"variable name {name!r} would not read back from a statement's "
                "text, whose sets split at ',', end at '}' and strip whitespace"
            )
    return _statement_text(stmt)


def _statement_text(stmt: Statement) -> str:
    """The text ``render_statement`` writes, for any names: a system's
    origin label, which nothing parses."""

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


def _is_level(value) -> bool:
    # exact type: JSON true and false load as bool, a subclass of int
    return type(value) is int


def _json_items(value, what, item_ok=lambda v: isinstance(v, str)):
    """A JSON list as a tuple, refused unless every item passes ``item_ok``."""
    if not isinstance(value, list) or not all(map(item_ok, value)):
        raise StatementError(f"malformed statement object: bad {what} {value!r}")
    return tuple(value)


def statement_from_json(obj: dict) -> Statement:
    """The statement ``statement_to_json`` wrote; StatementError when a
    field is missing or has the wrong JSON type, rather than a guess."""
    if not isinstance(obj, dict):
        raise StatementError(f"a statement must be a JSON object, got {obj!r}")
    try:
        lhs, rhs = _json_items(obj["lhs"], "lhs"), _json_items(obj["rhs"], "rhs")
        given = _json_items(obj.get("given", []), "given")
        raw = obj.get("context")
        if raw is None:
            return Statement(lhs, rhs, given, None)
        if not isinstance(raw, dict):
            raise StatementError(f"a context must be a JSON object or null, got {raw!r}")
        kind = raw.get("kind")
        if kind == "cells":
            cells = _json_items(raw["cells"], "cells", lambda c: isinstance(c, list))
            ctx = CellListContext(tuple(_json_items(c, "cell", _is_level) for c in cells))
        elif kind == "pattern":
            pattern = _json_items(raw["pattern"], "pattern", lambda v: v is None or _is_level(v))
            ctx = PatternContext(pattern)
        elif kind in ("geq", "leq"):
            ctx = ThresholdContext(_json_items(raw["bound"], "bound", _is_level), kind)
        else:
            raise StatementError(f"unknown context kind {kind!r}")
    except KeyError as exc:
        raise StatementError(f"malformed statement object: missing {exc}") from None
    return Statement(lhs, rhs, given, ctx)


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
    """Deduplicated constraint rows plus the variables they are stated on.

    The variables are the caller's, codings included: a row's parameters
    mean what those codings make them mean, so the system holds on a table
    with the same variables.
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


def interaction_sets(A, B):
    """Effects through which an independence of A and B expresses itself:
    every union of a nonempty subset of A and a nonempty subset of B."""
    A = tuple(A)
    B = tuple(B)
    if not A or not B or set(A) & set(B):
        raise StatementError("independence sides must be nonempty and disjoint")
    out = []
    for ra in range(1, len(A) + 1):
        for a in itertools.combinations(A, ra):
            for rb in range(1, len(B) + 1):
                for b in itertools.combinations(B, rb):
                    out.append(tuple(a + b))
    return out


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
    local sums the lattice at or above it; callers check that every
    variable is one of the two.
    """
    axes = []
    for v in c_vars:
        spec = spec_by[v]
        k = kcell_map[v]
        if spec.coding == "baseline":
            if k == spec.cardinality:
                return []
            axes.append([(v, k)])
        else:
            axes.append([(v, i) for i in range(k, spec.cardinality)])
    return [dict(combo) for combo in itertools.product(*axes)]


# The codings each context form admits on its conditioning variables, and
# the form's name in the refusal.  Cell lists and patterns read the
# context as slices, which baseline and local parameters pin.
CONTEXT_CODINGS = {
    "geq": ("upper-threshold contexts", ("local", "continuation")),
    "leq": ("lower-threshold contexts", ("reverse-continuation",)),
    "cells": ("explicit context cells", ("baseline", "local")),
}


def _region_terms(stmt, variables, margin, effects, lower=None):
    """Single-parameter rows: for every straddling effect, widened by each
    subset of the conditioning set, every parameter whose conditioning
    coordinates sit at or above ``lower`` (1 where absent) vanishes."""
    names = variable_names(variables)
    card = {s.name: s.cardinality for s in variables}
    C = stmt.given
    for v in effects:
        for r in range(len(C) + 1):
            for c_vars in itertools.combinations(C, r):
                effect = tuple(n for n in names if n in v + c_vars)
                for cell in effect_cells(card, effect, lower):
                    yield (Term(param_index(variables, margin, effect, cell), 1),)


def _context_cell_terms(stmt, variables, margin, effects):
    """Signed rows for list or pattern contexts.

    Implements the alternating sum over subsets of the conditioning set,
    with the inner expansion dispatched per context-variable coding.
    """
    spec_by = {s.name: s for s in variables}
    card = {s.name: s.cardinality for s in variables}
    kcells = context_cells(stmt, variables)
    C = stmt.given
    for v in effects:
        for i_v in effect_cells(card, v):
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
                yield tuple(terms)


def generate_constraints(stmt, variables, alloc=None) -> ConstraintSystem:
    """Constraint rows of one independence statement, on ``variables``.

    The rows sit on the first marginal of ``alloc`` that contains the
    statement's variables, or on exactly those variables without an
    allocation.  A threshold's rows are the region at a lower bound per
    conditioning variable: the bound b of an upper threshold, and
    c + 1 - b for a lower one on a c-level variable.  A conditioning
    variable whose coding ``CONTEXT_CODINGS`` does not list for the
    context's form raises UnsupportedCodingError.
    """
    stmt = validate_statement(stmt, variables)
    ctx = stmt.context
    spec_by = {s.name: s for s in variables}
    if ctx is not None:
        form, allowed = CONTEXT_CODINGS[
            ctx.direction if isinstance(ctx, ThresholdContext) else "cells"
        ]
        for n in stmt.given:
            if spec_by[n].coding not in allowed:
                raise UnsupportedCodingError(
                    f"{form} need {' or '.join(allowed)} coding on the "
                    f"conditioning set; {n!r} is {spec_by[n].coding}"
                )
    lower = None
    if isinstance(ctx, ThresholdContext):
        lower = {
            n: b if ctx.direction == "geq" else spec_by[n].cardinality + 1 - b
            for n, b in zip(stmt.given, ctx.bound)
        }

    margin = _margin_for(variables, set(stmt.lhs + stmt.rhs + stmt.given), alloc)
    names = variable_names(variables)
    effects = sorted(
        interaction_sets(stmt.lhs, stmt.rhs),
        key=lambda e: (len(e), tuple(names.index(v) for v in e)),
    )
    if isinstance(ctx, (CellListContext, PatternContext)):
        terms = _context_cell_terms(stmt, variables, margin, effects)
    else:
        terms = _region_terms(stmt, variables, margin, effects, lower)
    origin = _statement_text(stmt)
    rows = [Row(t, origin) for t in terms]
    return ConstraintSystem(tuple(variables), _dedup(rows), len(rows), origin)


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
        "variables": variables_to_json(system.variables),
        "pre_dedup_count": system.pre_dedup_count,
        "rows": [
            {
                "origin": row.origin,
                "terms": [
                    {
                        "eta": index_to_json(t.index),
                        "coef": t.coef,
                    }
                    for t in row.terms
                ],
            }
            for row in system.rows
        ],
    }

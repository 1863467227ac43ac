"""Marginal log-linear parameters with per-variable logit codings.

A parameter is addressed by a marginal set of variables, a nonempty effect
subset, and a cell whose coordinates run over the non-reference range
1..I-1 of each effect variable.  Its value is the alternating sum over
effect subsets of log probabilities of events: each effect variable sits
either at its observed level or at its coding's reference event, and the
remaining margin variables are pinned at the conditioning level (the top
of the scale by default).  Aggregated events sum probabilities before the
log is taken.

First-order parameters therefore come out as log(reference/observed),
matching the printed closed forms; a dedicated convention test pins this
direction once and for all.

``event_table`` is the one place that walks the signed events: it lists
the distinct (margin, levels) events of a set of parameters and each
parameter's signed terms over them.  Every evaluator reads it.
``param_values`` (hence ``param_value``, ``param_vector`` and
``constraints.evaluate_system``) marginalizes each margin once and sums
each event's slice of the marginal array once; ``fitting.compile_system``
turns the same table, read one index at a time through a cache, into a
dense 0/1 event-by-cell matrix A, which the solver needs for its Jacobian
anyway.  One-off evaluation keeps slice sums: dense per-margin
event-by-cell blocks for the 2187-cell fig4 parameter vector raised peak
memory by about a fifth on a 2-vCPU Xeon (146 MB to 181 MB in the
benchmark's fit-dense workload, 125 MB to 152 MB for a fit plus
param_vector alone).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllocationCoverageError,
    AllocationOrderError,
    StatementError,
    UnsupportedCodingError,
    ZeroMassSliceError,
)
from .tables import (
    ProbabilityVector,
    VariableSpec,
    marginalize,
    subset_in_order,
    variable_names,
)


# ---------------------------------------------------------------------------
# events per coding

def observed_and_reference(spec: VariableSpec, coord: int):
    """The (observed, reference) level sets for one variable at one coordinate.

    baseline: {i} vs {I};  local: {i} vs {i+1};
    continuation: {i} vs {i+1..I};
    reverse-continuation: {I+1-i} vs {1..I-i} (counts down from the top).
    """
    size = spec.cardinality
    if not 1 <= coord <= size - 1:
        raise StatementError(
            f"coordinate {coord} out of range for {spec.name!r} (1..{size - 1})"
        )
    if spec.coding == "baseline":
        return (coord,), (size,)
    if spec.coding == "local":
        return (coord,), (coord + 1,)
    if spec.coding == "continuation":
        return (coord,), tuple(range(coord + 1, size + 1))
    return (size + 1 - coord,), tuple(range(1, size - coord + 1))


def conditioning_level(spec: VariableSpec) -> int:
    """Default level at which a non-effect margin variable is pinned."""
    return 1 if spec.coding == "reverse-continuation" else spec.cardinality


def signed_events(margin_specs, effect, cell, context=None):
    """All (sign, event) pairs entering one parameter's alternating sum.

    ``event`` maps each margin variable to the tuple of levels it may take.
    ``context`` optionally overrides the pinning of margin variables outside
    the effect: values are a single level or an iterable of levels.
    """
    context = dict(context or {})
    effect = tuple(effect)
    per_var = {}
    for spec in margin_specs:
        if spec.name in effect:
            per_var[spec.name] = observed_and_reference(spec, cell[spec.name])
        elif spec.name in context:
            ev = context[spec.name]
            levels = (ev,) if isinstance(ev, int) else tuple(ev)
            for lvl in levels:
                if not 1 <= lvl <= spec.cardinality:
                    raise StatementError(
                        f"context level {lvl} out of range for {spec.name!r}"
                    )
            per_var[spec.name] = (levels, levels)
        else:
            lvl = conditioning_level(spec)
            per_var[spec.name] = ((lvl,), (lvl,))
    for name in context:
        if name in effect or name not in per_var:
            raise StatementError(f"context variable {name!r} not in margin minus effect")

    out = []
    for r in range(len(effect) + 1):
        for ref_vars in itertools.combinations(effect, r):
            sign = -1.0 if (len(effect) - r) % 2 else 1.0
            event = {}
            for spec in margin_specs:
                obs, ref = per_var[spec.name]
                event[spec.name] = ref if spec.name in ref_vars else obs
            out.append((sign, event))
    return out


# ---------------------------------------------------------------------------
# parameter addressing

@dataclass(frozen=True)
class ParamIndex:
    """Address of one parameter: marginal set, effect subset, effect cell."""

    margin: tuple[str, ...]
    effect: tuple[str, ...]
    cell: tuple[int, ...]

    def key(self):
        return (self.margin, self.effect, self.cell)


def param_index(variables, margin, effect, cell) -> ParamIndex:
    """Canonicalize an index: declaration order, validated coordinates."""
    mspecs = subset_in_order(variables, tuple(margin))
    mnames = variable_names(mspecs)
    effect = tuple(effect)
    if not effect:
        raise StatementError("effect set must be nonempty")
    for n in effect:
        if n not in mnames:
            raise StatementError(f"effect variable {n!r} not inside margin {mnames}")
    espec = subset_in_order(variables, effect)
    enames = variable_names(espec)
    cmap = cell if isinstance(cell, dict) else dict(zip(effect, cell))
    if set(cmap) != set(enames) or (not isinstance(cell, dict) and len(cell) != len(effect)):
        raise StatementError("cell does not match the effect variables")
    coords = []
    for spec in espec:
        c = int(cmap[spec.name])
        if not 1 <= c <= spec.cardinality - 1:
            raise StatementError(
                f"coordinate {c} out of range for {spec.name!r} (1..{spec.cardinality - 1})"
            )
        coords.append(c)
    return ParamIndex(tuple(mnames), tuple(enames), tuple(coords))


# ---------------------------------------------------------------------------
# evaluation

def event_table(variables, indices, context=None):
    """The distinct events of ``indices`` and each index's signed terms.

    Returns (events, terms): ``events`` lists (margin, levels) keys in
    first-seen order, ``levels`` holding one level tuple per margin
    variable in declaration order; ``terms[i]`` lists the (event position,
    sign) pairs of ``indices[i]`` in signed-event order.  ``context`` pins
    non-effect margin variables as in ``signed_events``, for every index.

    ``fitting.EventCache`` calls it one index at a time and numbers the
    events across a whole model search; a compile then puts its events
    back in the first-seen order this function gives for all its indices.
    """
    event_pos = {}
    terms = []
    for idx in indices:
        mspecs = subset_in_order(variables, idx.margin)
        margin = variable_names(mspecs)
        cell = dict(zip(idx.effect, idx.cell))
        row = []
        for sign, event in signed_events(mspecs, idx.effect, cell, context):
            key = (margin, tuple(event[name] for name in margin))
            row.append((event_pos.setdefault(key, len(event_pos)), sign))
        terms.append(row)
    return list(event_pos), terms


def param_values(pv: ProbabilityVector, indices, context=None) -> list:
    """Evaluate parameters by index, marginalizing and slice-summing once.

    Raises ZeroMassSliceError for the first index with a non-positive event.
    """
    events, terms = event_table(pv.variables, indices, context)
    marginals = {}
    masses = []
    for margin, levels in events:
        if margin not in marginals:
            marginals[margin] = marginalize(pv, margin).as_array()
        sel = np.ix_(*(np.array(lv) - 1 for lv in levels))
        masses.append(float(marginals[margin][sel].sum()))
    out = []
    for idx, row in zip(indices, terms):
        total = 0.0
        for pos, sign in row:
            if masses[pos] <= 0.0:
                raise ZeroMassSliceError(
                    f"zero-probability event for parameter {idx.margin}/{idx.effect}"
                )
            total += sign * math.log(masses[pos])
        out.append(total)
    return out


def param_value(pv: ProbabilityVector, margin, effect, cell, context=None) -> float:
    """Evaluate one parameter on a probability vector.

    ``cell`` is a mapping name -> coordinate or a tuple aligned with
    ``effect``; ``context`` optionally pins margin variables outside the
    effect at explicit levels or aggregated events instead of the top.
    """
    idx = param_index(pv.variables, margin, effect, cell)
    return param_values(pv, [idx], context)[0]


def conditional_param(pv: ProbabilityVector, margin, effect, cell, context) -> float:
    """Parameter of the effect with the remaining margin pinned at ``context``.

    ``context`` must cover every margin variable outside the effect; levels
    may be single or aggregated.  With the top cell this reduces to the
    default parameter.
    """
    idx = param_index(pv.variables, margin, effect, cell)
    rest = [n for n in idx.margin if n not in idx.effect]
    if set(context) != set(rest):
        raise StatementError(
            f"context must pin exactly the margin variables outside the effect {rest}"
        )
    return param_value(pv, margin, effect, cell, context=context)


# ---------------------------------------------------------------------------
# allocation of effects to marginal sets

@dataclass(frozen=True)
class EffectAllocation:
    """Ordered marginal sets plus the first-containing assignment of effects."""

    variables: tuple[VariableSpec, ...]
    marginals: tuple[tuple[str, ...], ...]
    assignment: dict

    @property
    def dimension(self) -> int:
        card = {s.name: s.cardinality for s in self.variables}
        total = 0
        for effect in self.assignment:
            n = 1
            for v in effect:
                n *= card[v] - 1
            total += n
        return total

    def effects_in(self, margin):
        margin = tuple(margin)
        return tuple(e for e, m in self.assignment.items() if m == margin)

    def indices(self):
        """Every ParamIndex of the parameterization, in deterministic order.

        Marginals in listed order; effects by (size, position); cells in
        lexicographic order with the last coordinate fastest.
        """
        names = variable_names(self.variables)
        spec_by = {s.name: s for s in self.variables}
        for margin in self.marginals:
            effects = sorted(
                self.effects_in(margin),
                key=lambda e: (len(e), tuple(names.index(v) for v in e)),
            )
            for effect in effects:
                ranges = [range(1, spec_by[v].cardinality) for v in effect]
                for cell in itertools.product(*ranges):
                    yield ParamIndex(margin, effect, cell)


def allocate_effects(variables, marginals) -> EffectAllocation:
    """Assign every covered effect to the first listed marginal containing it.

    The listing must never place a set after one of its supersets, and the
    union of subsets of earlier marginals must cover every nonempty subset
    of the last marginal, otherwise the parameterization is incomplete.
    """
    names = variable_names(variables)
    norm = []
    for m in marginals:
        mnames = variable_names(subset_in_order(variables, tuple(m)))
        norm.append(tuple(mnames))
    if not norm:
        raise AllocationCoverageError("no marginal sets given")
    for j in range(len(norm)):
        for i in range(j + 1, len(norm)):
            if set(norm[i]) <= set(norm[j]):
                raise AllocationOrderError(
                    f"marginal {norm[i]} listed after a superset {norm[j]}"
                )

    assignment = {}
    for margin in norm:
        ordered = [n for n in names if n in margin]
        for r in range(1, len(ordered) + 1):
            for effect in itertools.combinations(ordered, r):
                if effect not in assignment:
                    assignment[effect] = margin

    union = [n for n in names if any(n in m for m in norm)]
    uncovered = []
    for r in range(1, len(union) + 1):
        for effect in itertools.combinations(union, r):
            if effect not in assignment:
                uncovered.append(effect)
    if uncovered:
        shown = ", ".join("{" + ",".join(e) + "}" for e in uncovered[:5])
        raise AllocationCoverageError(
            f"{len(uncovered)} effects inside the covered variables are unassigned: {shown}"
        )
    return EffectAllocation(tuple(variables), tuple(norm), assignment)


@dataclass(frozen=True)
class ParamVector:
    """All parameter values of an allocation, keyed by ParamIndex."""

    allocation: EffectAllocation
    values: dict

    @property
    def dimension(self) -> int:
        return len(self.values)

    def as_array(self):
        return np.array([self.values[i] for i in self.allocation.indices()])


def param_vector(pv: ProbabilityVector, allocation: EffectAllocation) -> ParamVector:
    """Evaluate the whole parameterization with default conditioning."""
    indices = tuple(allocation.indices())
    return ParamVector(allocation, dict(zip(indices, param_values(pv, indices))))


# ---------------------------------------------------------------------------
# coding transforms

def baseline_from_local(vector: ParamVector) -> ParamVector:
    """Rewrite local-coded values as the baseline-coded parameters.

    The baseline value at a cell is the lattice sum of local values over
    all cells at or above it, coordinatewise.  Every effect variable must
    be local coded.
    """
    alloc = vector.allocation
    spec_by = {s.name: s.coding for s in alloc.variables}
    for effect in alloc.assignment:
        for v in effect:
            if spec_by[v] != "local":
                raise UnsupportedCodingError(
                    f"baseline_from_local needs local coding, {v!r} is {spec_by[v]}"
                )
    card = {s.name: s.cardinality for s in alloc.variables}
    out = {}
    for idx in alloc.indices():
        total = 0.0
        ranges = [range(c, card[v]) for v, c in zip(idx.effect, idx.cell)]
        for upper in itertools.product(*ranges):
            total += vector.values[ParamIndex(idx.margin, idx.effect, upper)]
        out[idx] = total
    return ParamVector(alloc, out)

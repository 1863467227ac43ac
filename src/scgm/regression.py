"""Component-wise regression view of an allocated parameter vector.

Each chain component carries, for every nonempty response set inside it, a
family of regression coefficients indexed by subsets of the component's
parent set and their cells.  A coefficient is a signed aggregate of the
parameters allocated at the margin (parents + response set): covariate
subsets enter with sign (-1)^|t|, baseline covariate coordinates pin the
parameter cell, local coordinates sum the lattice at or above the cell.
Conditional logits at any covariate context come back as plain subset sums
of coefficients, with a term dropping whenever one of its covariate
coordinates sits at the top level.

Parameters allocated at the wider margins, whose effects reach non-parent
non-descendants of a component, form the residual mixed block; zeroing it
is exactly the component-level independence statement, and together the
coefficient slots and the mixed block exhaust the allocation.

Covariates must be baseline or local coded.  Aggregated response codings
keep every definition intact but the conditional-logit reading of the
subset sums is only guaranteed for baseline and local responses; the
report carries a flag for that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .constraints import (
    CONTEXT_CODINGS,
    ConstraintSystem,
    _inner_context_terms,
    generate_constraints,
    merge_systems,
)
from .errors import (
    AllocationCoverageError,
    InadmissibleGraphError,
    StatementError,
    UnsupportedCodingError,
)
from .graphs import (
    StratifiedChainGraph,
    chain_components,
    marginal_sets,
    non_descendants,
    parents_of_component,
    stratified_markov,
    validate,
)
from .params import (
    EffectAllocation,
    ParamVector,
    allocate_effects,
    effect_cells,
    index_to_json,
    param_index,
)
from .tables import variable_names, variables_to_json


@dataclass(frozen=True)
class RegressionCoefficient:
    """One regression coefficient: response set, covariate subset, cells."""

    response: tuple
    covariates: tuple
    covariate_cell: tuple
    response_cell: tuple
    value: float


@dataclass(frozen=True)
class ComponentRegression:
    """All coefficient families of one chain component."""

    name: str
    members: tuple
    covariates: tuple
    coefficients: tuple


@dataclass(frozen=True)
class RegressionSystem:
    """Coefficients for every component plus the mixed parameter block."""

    variables: tuple
    allocation: EffectAllocation
    components: tuple
    mixed: tuple
    standard_response_codings: bool
    table: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def dimension(self) -> int:
        n = sum(len(c.coefficients) for c in self.components)
        return n + len(self.mixed)

    def component(self, name: str) -> ComponentRegression:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise StatementError(f"no component named {name!r}")

    def component_for(self, response) -> ComponentRegression:
        want = set(response)
        for comp in self.components:
            if want <= set(comp.members):
                return comp
        raise StatementError(
            f"response set {tuple(response)} is not inside a single component"
        )

    def coefficient(self, response_cell, covariate_cell=None) -> float:
        """Look up one coefficient; cells are mappings name -> level."""
        names = variable_names(self.variables)
        rmap, cmap = dict(response_cell), dict(covariate_cell or {})
        A, t = _ordered(names, rmap), _ordered(names, cmap)
        key = (A, tuple(rmap[n] for n in A), t, tuple(cmap[n] for n in t))
        try:
            return self.table[key]
        except KeyError:
            raise StatementError(
                f"no coefficient for responses {A} with covariates {t} "
                f"at cells {key[1]}, {key[3]}"
            ) from None


def _ordered(names, subset):
    want = set(subset)
    return tuple(n for n in names if n in want)


def _subsets(pool):
    # all subsets in (size, position) order; pool is already ordered
    out = []
    for r in range(len(pool) + 1):
        out.extend(itertools.combinations(pool, r))
    return out


def _coefficient_families(names, members, pa):
    """(A, t, margin, effect, sign) of a component's coefficient families:
    nonempty response sets A by covariate subsets t, in ``_subsets`` order."""
    for A in _subsets(members)[1:]:
        # without parents the whole component is the allocation margin
        margin = _ordered(names, set(pa) | set(A)) if pa else tuple(members)
        for t in _subsets(pa):
            effect = _ordered(names, set(t) | set(A))
            yield A, t, margin, effect, -1.0 if len(t) % 2 else 1.0


def graph_allocation(graph: StratifiedChainGraph, variables) -> EffectAllocation:
    """Allocation over the graph's marginal sequence."""
    _require_admissible(graph, variables)
    return allocate_effects(variables, marginal_sets(graph))


def _require_admissible(graph, variables):
    """Raise InadmissibleGraphError with every problem ``validate`` finds in
    the graph read against ``variables``, a vertex mismatch among them."""
    problems = validate(graph, variables)
    if problems:
        raise InadmissibleGraphError(*problems)


def regression_from_params(vec: ParamVector, graph: StratifiedChainGraph) -> RegressionSystem:
    """Carve an allocated parameter vector into coefficients and mixed block.

    The allocation must follow the graph's marginal sequence: every effect
    (covariate subset + response set) has to live at the margin formed by
    the component's parents and the response set, otherwise the signed
    aggregates would mix margins and the map would not invert.
    """
    variables = vec.allocation.variables
    _require_admissible(graph, variables)
    names = variable_names(variables)
    spec_by = {s.name: s for s in variables}
    card = {s.name: s.cardinality for s in variables}

    # every variable is a response of one component
    standard = all(s.coding in ("baseline", "local") for s in variables)
    # covariates are read as slices, as context cells are
    covariate_codings = CONTEXT_CODINGS["cells"][1]
    components = []
    table = {}
    for name, members in chain_components(graph):
        # responses and covariates in table order, the order coefficient
        # keys use, whatever order the graph declares them in
        members = _ordered(names, members)
        pa = _ordered(names, parents_of_component(graph, name))
        for v in pa:
            if spec_by[v].coding not in covariate_codings:
                raise UnsupportedCodingError(
                    f"covariate {v!r} of component {name!r} is "
                    f"{spec_by[v].coding}-coded; regression covariates need "
                    f"{' or '.join(covariate_codings)} coding"
                )

        coeffs = []
        for A, t, margin, effect, sign in _coefficient_families(names, members, pa):
            assigned = vec.allocation.assignment.get(effect)
            if assigned is None or tuple(assigned) != margin:
                raise AllocationCoverageError(
                    f"effect {effect} is allocated at {assigned}, not at "
                    f"the component margin {margin}; the allocation must "
                    "follow the graph's marginal sequence"
                )
            for i_t in effect_cells(card, t):
                inner = _inner_context_terms(spec_by, t, dict(zip(t, i_t)))
                for i_A in effect_cells(card, A):
                    amap = dict(zip(A, i_A))
                    total = 0.0
                    for cell in inner:
                        idx = param_index(variables, margin, effect, {**cell, **amap})
                        total += vec.values[idx]
                    value = sign * total
                    coeffs.append(RegressionCoefficient(A, t, i_t, i_A, value))
                    table[(A, i_A, t, i_t)] = value
        components.append(ComponentRegression(name, tuple(members), pa, tuple(coeffs)))

    mixed_idx = mixed_param_indices(graph, vec.allocation)
    mixed = tuple((idx, vec.values[idx]) for idx in mixed_idx)

    system = RegressionSystem(
        variables, vec.allocation, tuple(components), mixed, standard, table
    )
    if system.dimension != vec.allocation.dimension:
        raise AllocationCoverageError(
            f"coefficient slots plus the mixed block cover {system.dimension} "
            f"parameters, allocation has {vec.allocation.dimension}"
        )
    return system


def conditional_logit(system: RegressionSystem, response_cell, context) -> float:
    """Subset-sum of coefficients at one covariate context.

    ``context`` must pin every covariate of the component owning the
    response set at a single level; a subset's term drops when any of its
    coordinates is at the top level.
    """
    rmap = dict(response_cell)
    comp = system.component_for(rmap)
    spec_by = {s.name: s for s in system.variables}
    ctx = dict(context) if context else {}
    if set(ctx) != set(comp.covariates):
        raise StatementError(
            f"context must pin exactly the covariates {comp.covariates} "
            f"of component {comp.name!r}"
        )
    for v, lvl in ctx.items():
        if not 1 <= lvl <= spec_by[v].cardinality:
            raise StatementError(f"context level {v}={lvl} out of range")
    total = 0.0
    for t in _subsets(comp.covariates):
        if any(ctx[v] >= spec_by[v].cardinality for v in t):
            continue
        total += system.coefficient(rmap, {v: ctx[v] for v in t})
    return total


def mixed_param_indices(graph: StratifiedChainGraph, alloc: EffectAllocation):
    """Allocated parameters whose effects reach past a component's parents.

    For each component: effects joining a nonempty response subset with a
    nonempty set of non-descendants that is not contained in the parent
    set.  Returned in allocation order, each effect once.
    """
    variables = alloc.variables
    names = variable_names(variables)
    card = {s.name: s.cardinality for s in variables}
    chosen = set()
    for name, members in chain_components(graph):
        pa = set(parents_of_component(graph, name))
        nd = non_descendants(graph, name)
        extra = set(nd) - pa
        if not extra:
            continue
        for A in _subsets(members)[1:]:
            for B in _subsets(nd):
                if not B or not (set(B) & extra):
                    continue
                effect = _ordered(names, set(A) | set(B))
                margin = alloc.assignment.get(effect)
                if margin is None:
                    raise AllocationCoverageError(
                        f"effect {effect} has no slot in the allocation"
                    )
                for cell in effect_cells(card, effect):
                    chosen.add(param_index(variables, margin, effect, cell))
    return tuple(i for i in alloc.indices() if i in chosen)


def scgm_constraint_system(graph, variables) -> ConstraintSystem:
    """Linear constraints of the stratified chain graph model.

    Union of the per-statement constraint systems over the graph's
    independence statements, generated against the graph's own marginal
    sequence.  ``stratified_markov`` comes first: it refuses a graph that
    is not admissible against ``variables``.
    """
    stmts = stratified_markov(graph, variables)
    alloc = allocate_effects(variables, marginal_sets(graph))
    systems = [generate_constraints(s, variables, alloc) for s in stmts]
    return merge_systems(variables, systems, origin="chain graph model")


# ---------------------------------------------------------------------------
# report tables

def conditional_table(system: RegressionSystem, name: str):
    """Conditional logits of one component over every covariate context.

    Returns (contexts, columns, values): context cells over the full
    covariate range, one column per (response set, response cell), and the
    matrix of subset sums, each entry ``conditional_logit``'s value there.
    """
    comp = system.component(name)
    card = {s.name: s.cardinality for s in system.variables}
    ctx_ranges = [range(1, card[v] + 1) for v in comp.covariates]
    contexts = [dict(zip(comp.covariates, c)) for c in itertools.product(*ctx_ranges)]
    columns = [(A, i_A) for A in _subsets(comp.members)[1:] for i_A in effect_cells(card, A)]
    values = [
        [conditional_logit(system, dict(zip(A, i_A)), ctx) for A, i_A in columns]
        for ctx in contexts
    ]
    return contexts, columns, values


def regression_report(system: RegressionSystem) -> dict:
    """JSON-ready report: coefficients, conditional tables, mixed block."""
    comps = []
    for comp in system.components:
        contexts, columns, values = conditional_table(system, comp.name)
        comps.append(
            {
                "name": comp.name,
                "responses": list(comp.members),
                "covariates": list(comp.covariates),
                "coefficients": [
                    {
                        "response": list(c.response),
                        "covariates": list(c.covariates),
                        "covariate_cell": list(c.covariate_cell),
                        "response_cell": list(c.response_cell),
                        "value": c.value,
                    }
                    for c in comp.coefficients
                ],
                "conditional": {
                    "contexts": [
                        [ctx[v] for v in comp.covariates] for ctx in contexts
                    ],
                    "columns": [
                        {"response": list(A), "cell": list(i_A)} for A, i_A in columns
                    ],
                    "values": values,
                },
            }
        )
    return {
        "schema": "scgm-report/1",
        "variables": variables_to_json(system.variables),
        "standard_response_codings": system.standard_response_codings,
        "components": comps,
        "mixed": [{**index_to_json(idx), "value": val} for idx, val in system.mixed],
    }


def _join(items):
    return ",".join(str(x) for x in items)


def report_csv_rows(system: RegressionSystem):
    """Flat coefficient rows plus one conditional table per component.

    Returns (beta_rows, conditional_tables) where beta_rows is a list of
    rows with a header and conditional_tables maps component name to its
    own header + rows (context coordinates first, one column per response
    cell).
    """
    beta = [
        [
            "component",
            "responses",
            "covariates",
            "covariate_cell",
            "response_cell",
            "value",
        ]
    ]
    tables = {}
    for comp in system.components:
        for c in comp.coefficients:
            beta.append(
                [
                    comp.name,
                    _join(c.response),
                    _join(c.covariates),
                    _join(c.covariate_cell),
                    _join(c.response_cell),
                    repr(c.value),
                ]
            )
        contexts, columns, values = conditional_table(system, comp.name)
        header = [f"context:{v}" for v in comp.covariates]
        header += [f"{_join(A)}:{_join(i_A)}" for A, i_A in columns]
        rows = [header]
        for ctx, vals in zip(contexts, values):
            rows.append(
                [str(ctx[v]) for v in comp.covariates] + [repr(v) for v in vals]
            )
        tables[comp.name] = rows
    return beta, tables

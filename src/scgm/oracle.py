"""Brute-force reference machinery for cross-checking the fast paths.

Everything here favours transparency over speed: marginals are built with
dict loops, parameter values come from literal subset enumeration, and
independence is checked by comparing conditional blocks against products
of their margins.  The main modules are tested against these routines,
which deliberately share no computational code with them.

Capped at desk scale (4 variables for parameter evaluation, 256 cells
for planting) because an exponential enumerator is all this needs to be.
"""

from __future__ import annotations

import itertools
import math

from .errors import StatementError, ZeroMassSliceError
from .tables import (
    ProbabilityVector,
    VariableSpec,
    all_cells,
    probability_vector,
    subset_in_order,
    variable_names,
)

MAX_ORACLE_CELLS = 256
MAX_ORACLE_VARIABLES = 4


# ---------------------------------------------------------------------------
# dict-based marginals (independent of tables.marginalize on purpose)

def _margin_dict(pv: ProbabilityVector, names):
    """Marginal distribution over ``names`` as a dict cell -> mass."""
    vnames = variable_names(pv.variables)
    pos = [vnames.index(n) for n in names]
    out: dict[tuple, float] = {}
    for cell, p in zip(all_cells(pv.variables), pv.probs):
        key = tuple(cell[j] for j in pos)
        out[key] = out.get(key, 0.0) + float(p)
    return out


def _observed_and_reference(spec: VariableSpec, coord: int):
    """Per-variable event pair (observed set, reference set) at a cell coordinate.

    Coordinates live in 1..cardinality-1.  For reverse-continuation the
    coordinate indexes from the top of the original scale downwards.
    """
    size = spec.cardinality
    if not 1 <= coord <= size - 1:
        raise StatementError(
            f"coordinate {coord} out of range for variable {spec.name!r} "
            f"(expected 1..{size - 1})"
        )
    if spec.coding == "baseline":
        return frozenset({coord}), frozenset({size})
    if spec.coding == "local":
        return frozenset({coord}), frozenset({coord + 1})
    if spec.coding == "continuation":
        return frozenset({coord}), frozenset(range(coord + 1, size + 1))
    # reverse-continuation: observed level counts down from the top,
    # reference aggregates everything strictly below it.
    obs = size + 1 - coord
    return frozenset({obs}), frozenset(range(1, size - coord + 1))


def _conditioning_level(spec: VariableSpec) -> int:
    # the level at which variables outside the effect are pinned
    return 1 if spec.coding == "reverse-continuation" else spec.cardinality


def direct_param_value(pv: ProbabilityVector, margin, effect, cell) -> float:
    """Evaluate one marginal log-linear contrast by literal subset enumeration.

    ``margin`` and ``effect`` are tuples of variable names with
    effect ⊆ margin; ``cell`` maps each effect variable to its coordinate.
    The value is  sum over J ⊆ effect of (-1)^{|effect \\ J|} log P(event),
    where the event puts J-variables at their reference, the rest of the
    effect at the observed level, and margin-minus-effect variables at the
    coding's conditioning level.  Event probabilities are summed before
    taking logs, so aggregated codings work unchanged.
    """
    if len(pv.variables) > MAX_ORACLE_VARIABLES:
        raise StatementError(
            f"oracle parameter evaluation is capped at {MAX_ORACLE_VARIABLES} variables"
        )
    margin_specs = subset_in_order(pv.variables, tuple(margin))
    margin_names = variable_names(margin_specs)
    effect = tuple(effect)
    if not effect:
        raise StatementError("effect set must be nonempty")
    for name in effect:
        if name not in margin_names:
            raise StatementError(f"effect variable {name!r} not in margin")
    pm = _margin_dict(pv, margin_names)

    events = {}
    for spec in margin_specs:
        if spec.name in effect:
            events[spec.name] = _observed_and_reference(spec, cell[spec.name])
        else:
            lvl = _conditioning_level(spec)
            events[spec.name] = (frozenset({lvl}), frozenset({lvl}))

    effect_in_order = [n for n in margin_names if n in effect]
    total = 0.0
    for r in range(len(effect_in_order) + 1):
        for ref_vars in itertools.combinations(effect_in_order, r):
            sign = -1.0 if (len(effect_in_order) - r) % 2 else 1.0
            sets = []
            for name in margin_names:
                obs, ref = events[name]
                sets.append(sorted(ref if name in ref_vars else obs))
            mass = 0.0
            for combo in itertools.product(*sets):
                mass += pm.get(tuple(combo), 0.0)
            if mass <= 0.0:
                raise ZeroMassSliceError(
                    f"zero-mass event while evaluating parameter on margin {margin_names}"
                )
            total += sign * math.log(mass)
    return total


# ---------------------------------------------------------------------------
# independence statements checked by direct conditional computation

def _context_positions(variables, lhs, rhs, given):
    names = variable_names(variables)
    seen = set()
    for group in (lhs, rhs, given):
        for n in group:
            if n not in names:
                raise StatementError(f"unknown variable {n!r} in statement")
            if n in seen:
                raise StatementError(f"variable {n!r} appears twice in statement")
            seen.add(n)
    if not lhs or not rhs:
        raise StatementError("statement needs nonempty sides")
    return names


def verify_cs_direct(pv: ProbabilityVector, lhs, rhs, given, context_cells) -> float:
    """Max deviation from conditional independence over the context cells.

    The vector is first marginalized to lhs ∪ rhs ∪ given, then for each
    context cell the conditional joint of the two sides is compared with
    the product of its own conditional margins.  Returns the largest
    absolute difference; exact independence gives 0.
    """
    _context_positions(pv.variables, lhs, rhs, given)
    lhs = tuple(lhs)
    rhs = tuple(rhs)
    given = tuple(given)
    scope = [s.name for s in pv.variables if s.name in set(lhs) | set(rhs) | set(given)]
    pm = _margin_dict(pv, scope)
    li = [scope.index(n) for n in lhs]
    ri = [scope.index(n) for n in rhs]
    gi = [scope.index(n) for n in given]
    if not given:
        context_cells = [()]

    worst = 0.0
    for ctx in context_cells:
        block = {}
        for cell, p in pm.items():
            if tuple(cell[j] for j in gi) == tuple(ctx):
                block[(tuple(cell[j] for j in li), tuple(cell[j] for j in ri))] = (
                    block.get((tuple(cell[j] for j in li), tuple(cell[j] for j in ri)), 0.0) + p
                )
        mass = sum(block.values())
        if mass <= 0.0:
            raise ZeroMassSliceError(f"zero-mass context {ctx!r}")
        amarg: dict[tuple, float] = {}
        bmarg: dict[tuple, float] = {}
        for (a, b), p in block.items():
            amarg[a] = amarg.get(a, 0.0) + p
            bmarg[b] = bmarg.get(b, 0.0) + p
        for (a, b), p in block.items():
            worst = max(worst, abs(p / mass - (amarg[a] / mass) * (bmarg[b] / mass)))
    return worst


def max_log_odds_ratio(pv: ProbabilityVector, lhs, rhs, given, ctx) -> float:
    """Strongest 2x2 log odds ratio between the two sides in one context slice.

    Both sides are treated as compound variables.  Used by the rejection
    loops to certify that a slice is visibly dependent.
    """
    _context_positions(pv.variables, lhs, rhs, given)
    scope = [s.name for s in pv.variables if s.name in set(lhs) | set(rhs) | set(given)]
    pm = _margin_dict(pv, scope)
    li = [scope.index(n) for n in lhs]
    ri = [scope.index(n) for n in rhs]
    gi = [scope.index(n) for n in given]
    block: dict[tuple, dict[tuple, float]] = {}
    for cell, p in pm.items():
        if tuple(cell[j] for j in gi) == tuple(ctx):
            a = tuple(cell[j] for j in li)
            b = tuple(cell[j] for j in ri)
            block.setdefault(a, {})[b] = block.get(a, {}).get(b, 0.0) + p
    acells = sorted(block)
    bcells = sorted({b for row in block.values() for b in row})
    best = 0.0
    for a1, a2 in itertools.combinations(acells, 2):
        for b1, b2 in itertools.combinations(bcells, 2):
            p11 = block[a1].get(b1, 0.0)
            p12 = block[a1].get(b2, 0.0)
            p21 = block[a2].get(b1, 0.0)
            p22 = block[a2].get(b2, 0.0)
            if min(p11, p12, p21, p22) <= 0.0:
                return math.inf
            best = max(best, abs(math.log(p11 * p22 / (p12 * p21))))
    return best


def _check_cell_budget(variables):
    n = 1
    for s in variables:
        n *= s.cardinality
    if n > MAX_ORACLE_CELLS:
        raise StatementError(f"oracle planting is capped at {MAX_ORACLE_CELLS} cells")


def _flat_seed(seed):
    # numpy seed sequences accept flat lists of nonnegative ints only
    if isinstance(seed, (tuple, list)):
        out = []
        for part in seed:
            out.extend(_flat_seed(part))
        return out
    return [int(seed) & 0x7FFFFFFF]


def random_positive(variables, seed, concentration=2.0) -> ProbabilityVector:
    """Seeded strictly positive joint distribution (symmetric Dirichlet)."""
    import numpy as np

    _check_cell_budget(variables)
    rng = np.random.default_rng(_flat_seed(seed))
    n = 1
    for s in variables:
        n *= s.cardinality
    w = rng.dirichlet(concentration * np.ones(n))
    w = w + 1e-6           # keep cells away from the underflow region
    return probability_vector(tuple(variables), w)


def plant_distribution(
    variables,
    lhs,
    rhs,
    given,
    context_cells,
    seed,
    min_log_or=0.1,
    attempts=200,
    homogeneous=False,
) -> ProbabilityVector:
    """Random positive joint with exact independence planted at the context cells.

    Draws a generic positive table, then overwrites each context slice's
    lhs-by-rhs block with the product of that slice's own margins, which
    preserves the slice mass.  Slices outside the context are resampled
    until each shows a compound log odds ratio above ``min_log_or``, so
    the independence really is context specific.

    With ``homogeneous=True`` every context slice receives the same product
    block (pooled margins over the whole context region).  Constraint rows
    whose reference events aggregate several context slices, as the
    continuation coding produces, vanish only under this stronger planting:
    a mixture of products with different margins is not a product.
    """
    names = _context_positions(variables, lhs, rhs, given)
    if set(lhs) | set(rhs) | set(given) != set(names):
        raise StatementError("planting requires the statement to cover every variable")
    _check_cell_budget(variables)
    lhs = tuple(lhs)
    rhs = tuple(rhs)
    given = tuple(given)
    if not given:
        context_cells = [()]
    context = {tuple(c) for c in context_cells}

    li = [names.index(n) for n in lhs]
    ri = [names.index(n) for n in rhs]
    gi = [names.index(n) for n in given]

    last = None
    for attempt in range(attempts):
        pv = random_positive(variables, (seed, attempt))
        probs = {cell: float(p) for cell, p in zip(all_cells(variables), pv.probs)}

        pooled_a: dict[tuple, float] = {}
        pooled_b: dict[tuple, float] = {}
        pooled_mass = 0.0
        if homogeneous:
            for c, p in probs.items():
                if tuple(c[j] for j in gi) in context:
                    pooled_a[tuple(c[j] for j in li)] = (
                        pooled_a.get(tuple(c[j] for j in li), 0.0) + p
                    )
                    pooled_b[tuple(c[j] for j in ri)] = (
                        pooled_b.get(tuple(c[j] for j in ri), 0.0) + p
                    )
                    pooled_mass += p

        for ctx in context:
            slice_cells = [c for c in probs if tuple(c[j] for j in gi) == ctx]
            mass = sum(probs[c] for c in slice_cells)
            if homogeneous:
                amarg = {a: v * mass / pooled_mass for a, v in pooled_a.items()}
                bmarg = {b: v * mass / pooled_mass for b, v in pooled_b.items()}
            else:
                amarg = {}
                bmarg = {}
                for c in slice_cells:
                    a = tuple(c[j] for j in li)
                    b = tuple(c[j] for j in ri)
                    amarg[a] = amarg.get(a, 0.0) + probs[c]
                    bmarg[b] = bmarg.get(b, 0.0) + probs[c]
            for c in slice_cells:
                a = tuple(c[j] for j in li)
                b = tuple(c[j] for j in ri)
                probs[c] = amarg[a] * bmarg[b] / mass

        planted = probability_vector(
            tuple(variables), [probs[c] for c in all_cells(variables)]
        )
        last = planted
        if given:
            others = [
                ctx
                for ctx in itertools.product(
                    *[range(1, v.cardinality + 1) for v in variables if v.name in given]
                )
                if tuple(ctx) not in context
            ]
            if any(
                max_log_odds_ratio(planted, lhs, rhs, given, ctx) <= min_log_or
                for ctx in others
            ):
                continue
        return planted
    return last  # pragma: no cover - rejection failure is vanishingly unlikely


def sample_dependent(
    variables,
    lhs,
    rhs,
    given,
    context_cells,
    seed,
    min_log_or=0.1,
    attempts=200,
) -> ProbabilityVector:
    """Random positive joint whose context slices are all visibly dependent.

    Counterpart of plant_distribution for falsification tests: rejection
    keeps drawing until every context slice carries a compound log odds
    ratio above ``min_log_or``.
    """
    names = _context_positions(variables, lhs, rhs, given)
    _check_cell_budget(variables)
    lhs, rhs, given = tuple(lhs), tuple(rhs), tuple(given)
    if not given:
        context_cells = [()]
    for attempt in range(attempts):
        pv = random_positive(variables, (seed, 7919, attempt))
        if all(
            max_log_odds_ratio(pv, lhs, rhs, given, tuple(ctx)) > min_log_or
            for ctx in context_cells
        ):
            return pv
    raise StatementError("could not sample a dependent table; loosen min_log_or")


def ipf_two_way(pv: ProbabilityVector) -> ProbabilityVector:
    """Closed-form independence projection for a two-variable table.

    The maximum-likelihood fit of the independence model is the outer
    product of the observed margins.
    """
    if len(pv.variables) != 2:
        raise StatementError("ipf_two_way expects exactly two variables")
    a, b = pv.variables
    ad = _margin_dict(pv, (a.name,))
    bd = _margin_dict(pv, (b.name,))
    probs = [ad[(i,)] * bd[(j,)] for i, j in all_cells(pv.variables)]
    return probability_vector(pv.variables, probs)


# ---------------------------------------------------------------------------
# graph-structured planting via latent couplings

def plant_graph_distribution(
    variables,
    components,
    edges,
    arcs,
    seed,
    strata=(),
    strength=0.5,
) -> ProbabilityVector:
    """Positive joint distribution exhibiting a chain graph's independencies.

    ``components`` lists vertex-name tuples in a valid topological order;
    ``edges`` are within-component pairs, ``arcs`` are (parent, child)
    pairs from earlier components to later ones.  Each present edge gets
    its own binary latent, each vertex a random conditional table over its
    graph parents and incident latents, so vertices that share no edge are
    conditionally independent given the past exactly as the type of graph
    prescribes.

    ``strata`` entries are (gamma, delta, context_names, patterns):
    the dependence carried by the missing edge or arc (gamma, delta) is
    switched off whenever the current values of context_names match one of
    the patterns, giving an exact context-specific independence.  Pattern
    coordinates may be None to match any level.

    ``strength`` is the Dirichlet concentration for conditional rows;
    smaller values give spikier, more detectable effects.
    """
    import numpy as np

    _check_cell_budget(variables)
    specs = {s.name: s for s in variables}
    names = variable_names(variables)
    comp_of = {}
    for k, comp in enumerate(components):
        for v in comp:
            comp_of[v] = k
    # input order, duplicates dropped: iterating a set would make the draws
    # depend on string hashing, i.e. on PYTHONHASHSEED
    edge_list = list(dict.fromkeys(frozenset(e) for e in edges))
    arc_list = list(dict.fromkeys(tuple(a) for a in arcs))
    parents = {v: tuple(p for (p, c) in arc_list if c == v) for v in names}

    couplings = []  # (gamma, other, kind, context_names, patterns)
    for e in edge_list:
        a, b = sorted(e, key=names.index)
        couplings.append((b, a, "latent", (), ()))
    for gamma, delta, ctx_names, patterns in strata:
        if comp_of[gamma] == comp_of[delta]:
            couplings.append((max(gamma, delta, key=names.index),
                              min(gamma, delta, key=names.index),
                              "latent", tuple(ctx_names), tuple(patterns)))
        else:
            child, par = (gamma, delta) if comp_of[gamma] > comp_of[delta] else (delta, gamma)
            couplings.append((child, par, "direct", tuple(ctx_names), tuple(patterns)))

    latents = [i for i, c in enumerate(couplings) if c[2] == "latent"]

    def matches(patterns, ctx_names, assignment):
        for pat in patterns:
            if all(p is None or assignment[n] == p for n, p in zip(ctx_names, pat)):
                return True
        return False

    # conditional tables: one row per gated input key, drawn in sorted key order
    rng = np.random.default_rng(_flat_seed(seed))
    cpt: dict[str, dict[tuple, list]] = {}
    for v in names:
        k = specs[v].cardinality
        inputs = []
        for p in parents[v]:
            inputs.append(("arc", p, specs[p].cardinality))
        for i, (a, b, kind, _, _) in enumerate(couplings):
            if kind == "latent" and v in (a, b):
                inputs.append(("latent", i, 2))
            elif kind == "direct" and v == a:
                inputs.append(("direct", b, specs[b].cardinality))
        keys = set()
        for combo in itertools.product(*[range(s) for (_, _, s) in inputs]):
            keys.add(combo)
        cpt[v] = {}
        for key in sorted(keys):
            row = rng.dirichlet(strength * np.ones(k))
            row = (row + 0.03) / (1.0 + 0.03 * k)
            cpt[v][key] = [float(x) for x in row]

    def vertex_prob(v, level, assignment, latent_values):
        key = []
        for p in parents[v]:
            key.append(assignment[p] - 1)
        for i, (a, b, kind, ctx_names, patterns) in enumerate(couplings):
            if kind == "latent" and v in (a, b):
                off = patterns and matches(patterns, ctx_names, assignment)
                key.append(0 if off else latent_values[i])
            elif kind == "direct" and v == a:
                off = patterns and matches(patterns, ctx_names, assignment)
                key.append(0 if off else assignment[b] - 1)
        return cpt[v][tuple(key)][level - 1]

    probs = []
    for cell in all_cells(variables):
        assignment = dict(zip(names, cell))
        p = 1.0
        for comp in components:
            comp_latents = [
                i for i in latents
                if couplings[i][0] in comp or couplings[i][1] in comp
            ]
            total = 0.0
            for lv in itertools.product((0, 1), repeat=len(comp_latents)):
                latent_values = dict(zip(comp_latents, lv))
                term = 0.5 ** len(comp_latents)
                for v in comp:
                    term *= vertex_prob(v, assignment[v], assignment, latent_values)
                total += term
            p *= total
        probs.append(p)
    return probability_vector(tuple(variables), probs)


# ---------------------------------------------------------------------------
# self-test suite surfaced through the command line

def selftest(seed=0):
    """Run the oracle's internal consistency checks.

    Returns (all_passed, rows) where each row is (name, passed, detail).
    The checks exercise planting, direct verification, the closed-form
    anchors for each coding, and agreement with the fast parameter path.
    """
    rows = []

    def check(name, fn):
        try:
            fn()
            rows.append((name, True, ""))
        except Exception as exc:
            rows.append((name, False, f"{type(exc).__name__}: {exc}"))

    v3 = (VariableSpec("x", 3), VariableSpec("y", 3))

    def baseline_formula():
        pv = random_positive(v3, (seed, 1))
        got = direct_param_value(pv, ("x", "y"), ("x", "y"), {"x": 1, "y": 1})
        p = {c: float(q) for c, q in zip(all_cells(v3), pv.probs)}
        want = math.log(p[(1, 1)] * p[(3, 3)] / (p[(1, 3)] * p[(3, 1)]))
        assert abs(got - want) < 1e-12, f"{got} vs {want}"

    def continuation_formula():
        vs = (
            VariableSpec("a", 2),
            VariableSpec("b", 2),
            VariableSpec("c", 4, coding="continuation"),
        )
        pv = random_positive(vs, (seed, 2))
        got = direct_param_value(pv, ("a", "b", "c"), ("a", "b"), {"a": 1, "b": 1})
        p = {c: float(q) for c, q in zip(all_cells(vs), pv.probs)}
        want = math.log(p[(1, 1, 4)] * p[(2, 2, 4)] / (p[(1, 2, 4)] * p[(2, 1, 4)]))
        assert abs(got - want) < 1e-12, f"{got} vs {want}"

    def plant_holds():
        vs = (VariableSpec("a", 2), VariableSpec("b", 3), VariableSpec("c", 2))
        pv = plant_distribution(vs, ("a",), ("b",), ("c",), [(1,)], (seed, 3))
        dev = verify_cs_direct(pv, ("a",), ("b",), ("c",), [(1,)])
        assert dev < 1e-14, f"planted deviation {dev}"
        assert max_log_odds_ratio(pv, ("a",), ("b",), ("c",), (2,)) > 0.1

    def uniform_holds():
        vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 3))
        n = 12
        pv = probability_vector(vs, [1.0 / n] * n)
        for ctx in [(1,), (2,), (3,)]:
            assert verify_cs_direct(pv, ("a",), ("b",), ("c",), [ctx]) < 1e-15

    def perturbed_breaks():
        vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 2))
        pv = plant_distribution(vs, ("a",), ("b",), ("c",), [(1,)], (seed, 4))
        w = [float(x) for x in pv.probs]
        w[0] *= 1.5
        bad = probability_vector(vs, w)
        assert verify_cs_direct(bad, ("a",), ("b",), ("c",), [(1,)]) > 1e-3

    def fast_path_agrees():
        from . import params

        vs = (
            VariableSpec("a", 2),
            VariableSpec("b", 3, coding="local"),
            VariableSpec("c", 3, coding="reverse-continuation"),
        )
        import numpy as np

        rng = np.random.default_rng((seed, 5))
        for _ in range(25):
            pv = random_positive(vs, int(rng.integers(1 << 30)))
            for margin in (("a", "b"), ("b", "c"), ("a", "b", "c")):
                specs = subset_in_order(vs, margin)
                for r in range(1, len(margin) + 1):
                    for effect in itertools.combinations(margin, r):
                        eff_specs = subset_in_order(vs, effect)
                        grids = [range(1, s.cardinality) for s in eff_specs]
                        for combo in itertools.product(*grids):
                            cell = dict(zip([s.name for s in eff_specs], combo))
                            slow = direct_param_value(pv, margin, effect, cell)
                            fast = params.param_value(pv, margin, effect, cell)
                            assert abs(slow - fast) < 1e-12, (margin, effect, cell)

    check("baseline 3x3 closed form", baseline_formula)
    check("continuation conditioning at top", continuation_formula)
    check("plant then verify", plant_holds)
    check("uniform satisfies everything", uniform_holds)
    check("perturbation detected", perturbed_breaks)
    check("fast parameter path agrees", fast_path_agrees)
    return all(ok for _, ok, _ in rows), rows

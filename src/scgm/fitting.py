"""Constrained maximum likelihood over contingency tables, plus model search.

The estimation problem: maximize the multinomial log-likelihood over the
probability simplex subject to h(pi) = 0, where h stacks the rows of a
ConstraintSystem evaluated at the interaction parameters of pi.  Every row
is a linear combination of parameters, every parameter a signed sum of
logs of marginal event masses, so h(pi) = C log(A pi) for a fixed 0/1
event matrix A and a coefficient matrix C; the system is compiled to that
form once and the solver works with exact gradients.  ``compile_system``
reads the events and signs from ``params.event_table``, the same table
every other parameter evaluation reads, and builds A and the signed
event rows P of the referenced parameters from it.

It reads them through an ``EventCache``: each parameter index's event
ids and signs, one id per distinct (margin, levels) event, and each
event's cells as flat cell positions.  A search's candidates share most
of their parameters (on a 108-fit search over 128 cells, 111 distinct
indices of 5934 compiled and 279 distinct events of 15480), so
``model_search`` makes one cache and passes it to every fit; that cut the
search's compile time from about 1.2 s to about 0.1 s on a 2-vCPU Xeon.
A compile orders its events by first appearance among its own indices'
terms, as ``event_table`` over those indices would, so A, C and P are the
same bit for bit as from a fresh cache.  The cache keeps cell positions,
not rows of A: a 2187-cell fit has 1404 events with few cells each, and
dense rows would double A's memory.  It lives for one search, neither
shared across searches nor kept by the module, so a search costs the
same whether or not the process ran one before.

The solver runs Lagrangian steps with the multinomial Fisher information
as the Hessian model, with step halving on a likelihood-plus-feasibility
merit.  Probabilities live on logits, so every iterate is interior and
normalized.  Each step is a projection solved on an R x K matrix (R rows,
K cells), never on the (K+R)-order KKT system.  With the logit Jacobian
J = B diag(pi), the Hessian model diag(pi) + 1e-12 I is factored as s^2,
s = sqrt(pi + 1e-12); the step is the scaled gradient g/s plus the
minimum-norm correction that puts it on {u : J diag(1/s) u = -h}, mapped
back by 1/s.  The rank-one term -pi pi^T of the Fisher information is left out:
it moves the step along the all-ones direction, which the softmax
ignores, up to terms of relative size 1e-12/pi.  The rows of
J diag(1/s) are scaled to unit norm before one least-squares solve,
which gives the correction, the multipliers and the pseudo-inverse; one
refinement step with the pseudo-inverse restores J dx = -h where a
collapsing cell makes the gradient and its correction cancel.

Two simpler forms fail near the boundary.  The R x R normal equations
B diag(pi) B^T lam = B g + h square the conditioning and leave fits with
many zero cells unconverged far from the optimum; without the 1e-12 term
some near-boundary fits stall.

Each iterate is evaluated once, by ``_point``, into a frozen record of the
logits, pi, the event masses A pi, the log-likelihood and h.  The line
search builds its trial points the same way, and the accepted trial is
the next iterate.  The loop top adds B, J and the two KKT norms for the
current multipliers; the best iterate seen is kept as its point and
multipliers.  The reported ``kkt_residual``, df and ``pi_hat`` come from
the chosen point without evaluating it again: the last point of a
converged run, whose loop-top J gives the rank, or the best point of an
unconverged one, the only case that rebuilds its Jacobian.

Model search follows a three step procedure: test each single missing
link, remove everything individually removable and reintroduce links one
at a time, then try context-specific relaxations of the independencies
that were rejected.  Selection filters candidates by p-value and ranks by
an information criterion; both directions of the criterion are supported.
Every graph the search fits becomes one ``Candidate`` record: the graph,
its fit summary or the error that stopped the fit, and its statements,
rendered in table order on first read.  Selection, ``trace_to_json`` and
the CLI's text trace all read these records.  A record keeps the summary,
not the ``FitResult``: holding every candidate's estimates raised the
peak memory of a 108-fit search on 128 cells from 34.5 to 36.7 MB, so
the final graph is fitted once more, with the same result bit for bit.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .constraints import ConstraintSystem, render_statement, validate_statement
from .errors import (
    InfeasibleSystemError,
    OptionError,
    ScgmError,
    StatementError,
    ZeroMassSliceError,
)
from .graphs import (
    Stratum,
    StratifiedChainGraph,
    parents_of_component,
    render_graph,
    render_stratum,
    stratified_markov,
    validate,
)
# param_value is re-exported: callers wrap it under this module's name
from .params import event_table, param_value  # noqa: F401
from .regression import scgm_constraint_system
from .tables import ContingencyTable, ProbabilityVector, variables_to_json

AIC_FORMULA = "AIC = G2 - 2*(n_cells - df)"
BIC_FORMULA = "BIC = G2 - ln(N)*(n_cells - df)"

# added to the Fisher information's diagonal in the Newton step; keeps the
# step finite on cells whose mass has collapsed towards zero
RIDGE = 1e-12

# halvings of the step length tried before an iteration counts as stalled
STEP_HALVING_MAX = 20


# ---------------------------------------------------------------------------
# chi-square upper tail

def chisq_sf(x, df) -> float:
    """Upper tail of the chi-square distribution, Q(df/2, x/2).

    Series expansion below the mean, Lentz continued fraction above;
    absolute error below 1e-10.  df = 0 has no distribution: returns 1
    with a warning so that saturated comparisons stay total.
    """
    if x < 0:
        raise ValueError("chi-square statistic must be nonnegative")
    if df == 0:
        warnings.warn("p-value undefined at zero degrees of freedom; returning 1")
        return 1.0
    if df < 0:
        raise ValueError("degrees of freedom must be nonnegative")
    if x == 0:
        return 1.0
    return _upper_regularized_gamma(df / 2.0, x / 2.0)


def _upper_regularized_gamma(a, z) -> float:
    if z < a + 1.0:
        # lower series: P(a,z), then complement
        term = 1.0 / a
        total = term
        n = 0
        while abs(term) > abs(total) * 1e-17:
            n += 1
            term *= z / (a + n)
            total += term
            if n > 100000:
                break
        log_prefix = a * math.log(z) - z - math.lgamma(a)
        return max(0.0, min(1.0, 1.0 - total * math.exp(log_prefix)))
    # continued fraction for Q(a,z), modified Lentz
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 100000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    log_prefix = a * math.log(z) - z - math.lgamma(a)
    return max(0.0, min(1.0, f * math.exp(log_prefix)))


def information_criteria(G2, df, n_cells, N):
    """AIC and BIC against the saturated model.

    Both compare the constrained deviance to the parameter count freed by
    the constraints; the BIC convention is reported alongside results
    because published values for it vary.
    """
    if df < 0:
        raise ValueError("df must be nonnegative")
    aic = G2 - 2.0 * (n_cells - df)
    bic = G2 - math.log(N) * (n_cells - df)
    return aic, bic


# ---------------------------------------------------------------------------
# fitting

@dataclass(frozen=True)
class FitOptions:
    """Iteration controls; all fields must be positive and finite."""

    max_iterations: int = 500
    constraint_tolerance: float = 1e-8
    gradient_tolerance: float = 1e-6
    smoothing: float = 0.5

    def __post_init__(self):
        for name in (
            "max_iterations",
            "constraint_tolerance",
            "gradient_tolerance",
            "smoothing",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise OptionError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class FitResult:
    """Constrained estimate with test statistics.

    eta_hat maps every parameter referenced by the system to its fitted
    value; kkt_residual is the larger of the stationarity and feasibility
    norms at the returned iterate.
    """

    pi_hat: ProbabilityVector
    eta_hat: dict
    G2: float
    df: int
    p_value: float
    AIC: float
    BIC: float
    converged: bool
    iterations: int
    kkt_residual: float
    N: float
    n_cells: int

    def summary(self) -> dict:
        return {
            "G2": self.G2,
            "df": self.df,
            "p_value": self.p_value,
            "AIC": self.AIC,
            "BIC": self.BIC,
            "converged": self.converged,
            "iterations": self.iterations,
        }


@dataclass(frozen=True)
class CompiledSystem:
    """Constraint rows as h(pi) = C log(A pi); A holds 0/1 event selectors.

    P holds one signed event row per entry of ``indices``, so the
    parameters referenced by the system are P log(A pi) and C = C_idx P
    for the rows' coefficients C_idx on those parameters.
    """

    variables: tuple
    indices: tuple
    A: np.ndarray
    C: np.ndarray
    P: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.C.shape[0]

    def param_values(self, pi):
        """Every parameter in ``indices`` at pi, in that order."""
        masses = self.A @ pi
        if np.any(masses <= 0.0):
            zero = np.nonzero(self.P[:, masses <= 0.0].any(axis=1))[0][0]
            idx = self.indices[zero]
            raise ZeroMassSliceError(
                f"zero-probability event for parameter {idx.margin}/{idx.effect}"
            )
        return self.P @ np.log(masses)


class EventCache:
    """Signed terms, event ids and event cells shared by a search's compiles.

    ``terms(idx)`` gives a parameter index's event ids and signs, read once
    from ``event_table``; an event id numbers a distinct (margin, levels)
    event in the order the cache first met it, and ``cells(eid)`` holds
    that event's flat cell positions in the table.
    """

    def __init__(self, variables):
        self.variables = tuple(variables)
        self._terms = {}
        self._ids = {}
        self._cells = []

    def terms(self, idx):
        """Event ids and signs of idx's terms, in signed-event order."""
        row = self._terms.get(idx)
        if row is None:
            events, (signed,) = event_table(self.variables, (idx,))
            ids = [self._event_id(key) for key in events]
            row = self._terms[idx] = (
                tuple(ids[pos] for pos, _ in signed),
                tuple(sign for _, sign in signed),
            )
        return row

    def cells(self, eid):
        return self._cells[eid]

    def _event_id(self, key):
        eid = self._ids.get(key)
        if eid is None:
            eid = self._ids[key] = len(self._cells)
            pinned = dict(zip(*key))
            # C-order flat positions; events pin most variables, so the
            # lists stay short
            flat = [0]
            for s in self.variables:
                levels = pinned.get(s.name, range(1, s.cardinality + 1))
                flat = [f * s.cardinality + (l - 1) for f in flat for l in levels]
            self._cells.append(tuple(flat))
        return eid


def compile_system(variables, system: ConstraintSystem, cache=None) -> CompiledSystem:
    """The system as h(pi) = C log(A pi), read through ``cache``.

    Without a cache a fresh one is made.  Events keep the first-seen order
    of ``event_table(variables, system.indices)``: it fixes the summation
    order of C log(A pi).
    """
    variables = tuple(variables)
    if cache is None:
        cache = EventCache(variables)
    elif cache.variables != variables:
        raise ValueError("event cache was built for other variables")
    n_cells = math.prod(s.cardinality for s in variables)
    indices = system.indices
    terms = [cache.terms(idx) for idx in indices]
    ids = [eid for row_ids, _ in terms for eid in row_ids]
    # event id -> row of A, in first-seen order among the terms
    pos = {eid: row for row, eid in enumerate(dict.fromkeys(ids))}
    A = np.zeros((len(pos), n_cells))
    A[
        [row for row, eid in enumerate(pos) for _ in cache.cells(eid)],
        [cell for eid in pos for cell in cache.cells(eid)],
    ] = 1.0
    P = np.zeros((len(indices), len(pos)))
    # an index's events are distinct, so no entry is written twice
    P[
        [i for i, (row_ids, _) in enumerate(terms) for _ in row_ids],
        [pos[eid] for eid in ids],
    ] = [sign for _, signs in terms for sign in signs]
    index_pos = {idx: i for i, idx in enumerate(indices)}
    C_idx = np.zeros((len(system.rows), len(indices)))
    for r, row in enumerate(system.rows):
        for term in row.terms:
            C_idx[r, index_pos[term.index]] += term.coef
    return CompiledSystem(variables, indices, A, C_idx @ P, P)


@dataclass(frozen=True)
class _Point:
    """One solver iterate: logits x, pi = softmax(x), event masses A pi,
    the log-likelihood p_obs . log(pi) and h = C log(A pi)."""

    x: np.ndarray
    pi: np.ndarray
    masses: np.ndarray
    loglik: float
    h: np.ndarray

    def merit(self, mu) -> float:
        return -self.loglik + mu * float(np.abs(self.h).sum())


def _point(compiled, p_obs, x):
    """The iterate at logits x, or None when an event mass is not positive."""
    z = x - x.max()
    e = np.exp(z)
    total = e.sum()
    pi = e / total
    masses = compiled.A @ pi
    if np.any(masses <= 0.0):
        return None
    loglik = float(p_obs @ z) - math.log(total)
    return _Point(x, pi, masses, loglik, compiled.C @ np.log(masses))


def _centred_jacobian(compiled, point):
    """B = M - (M pi) 1^T for M = dh/dpi; the logit Jacobian is B diag(pi)."""
    M = compiled.C @ (compiled.A / point.masses[:, None])
    return M - (M @ point.pi)[:, None]


def _kkt(compiled, p_obs, point, lam):
    """B, J = B diag(pi), max |stationarity| and max |h| at a point and lam."""
    B = _centred_jacobian(compiled, point)
    J = B * point.pi[None, :]
    stationarity = (p_obs - point.pi) - J.T @ lam
    return B, J, float(np.abs(stationarity).max()), float(np.abs(point.h).max())


def _projection_step(B, pi, g, h):
    """Newton step (dx, lam) on the logits, from an R x K least squares.

    Solves (diag(pi) + RIDGE I) dx + J^T lam = g, J dx = -h for
    J = B diag(pi): in the coordinates u = s dx, s = sqrt(pi + RIDGE), the
    step is q = g / s plus the minimum-norm w with Jt w = -h - Jt q, where
    Jt = J diag(1/s), and lam solves Jt^T lam = -w.  Rows of Jt and the
    right-hand side are scaled to unit norm; one least-squares solve with
    the identity as extra right-hand sides gives w and pinv(Jt), hence lam
    and a refinement step on the linearised constraints.
    """
    s = np.sqrt(pi + RIDGE)
    Jt = B * (pi / s)[None, :]
    q = g / s
    rhs = -h - Jt @ q
    norms = np.linalg.norm(Jt, axis=1)
    norms[norms == 0.0] = 1.0
    Jt /= norms[:, None]
    rhs /= norms
    R = rhs.size
    sol, *_ = np.linalg.lstsq(Jt, np.column_stack([rhs, np.eye(R)]), rcond=None)
    w, pinv = sol[:, 0], sol[:, 1:]
    lam = -(pinv.T @ w) / norms
    dx = (q + w) / s
    # one step of refinement on J dx = -h: where a cell's mass nears zero, q
    # and w are large and cancel in q + w, leaving J dx off by far more than h
    residual = (-h - B @ (pi * dx)) / norms
    dx += (pinv @ residual) / s
    return dx, lam


def _rank(mat, rows) -> int:
    if mat.size == 0 or rows == 0:
        return 0
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > sv[0] * 1e-10 * rows))


def _deviance(counts, pi, N) -> float:
    mask = counts > 0
    g2 = 2.0 * float(np.sum(counts[mask] * np.log(counts[mask] / (N * pi[mask]))))
    if g2 < -1e-9:
        raise AssertionError(f"negative deviance {g2}")
    return max(g2, 0.0)


def fit_constrained(
    table: ContingencyTable, system: ConstraintSystem, options=None, *, cache=None
) -> FitResult:
    """Maximum likelihood under the system's rows.

    Returns the best iterate flagged unconverged when the iteration budget
    runs out; raises InfeasibleSystemError when the solver stalls while
    grossly infeasible, with rank diagnostics in the message.  ``cache``
    is the ``EventCache`` the system is compiled through.
    """
    options = options or FitOptions()
    variables = table.variables
    if system.rows and [(s.name, s.cardinality) for s in variables] != [
        (s.name, s.cardinality) for s in system.variables
    ]:
        raise StatementError("constraint system and table have different variables")
    counts = np.asarray(table.counts, dtype=float)
    N = float(counts.sum())
    if N <= 0:
        raise StatementError("table has no observations")
    n_cells = counts.size

    if not system.rows:
        pi_obs = counts / N
        aic, bic = information_criteria(0.0, 0, n_cells, N)
        return FitResult(
            pi_hat=ProbabilityVector(variables, pi_obs),
            eta_hat={},
            G2=0.0,
            df=0,
            p_value=1.0,
            AIC=aic,
            BIC=bic,
            converged=True,
            iterations=0,
            kkt_residual=0.0,
            N=N,
            n_cells=n_cells,
        )

    compiled = compile_system(variables, system, cache)
    p_obs = counts / N
    start = (counts + options.smoothing) / (N + options.smoothing * n_cells)
    # positive start masses, and every accepted trial has finite merit, so
    # each loop-top point exists
    point = _point(compiled, p_obs, np.log(start))
    lam = np.zeros(compiled.n_rows)
    converged = stalled = False
    best = None  # (feasibility, -loglik, point, lam)
    stalls = 0

    for iterations in range(1, options.max_iterations + 1):
        B, J, stationarity, feas = _kkt(compiled, p_obs, point, lam)
        if best is None or (feas, -point.loglik) < best[:2]:
            best = (feas, -point.loglik, point, lam)
        if feas < options.constraint_tolerance and stationarity < options.gradient_tolerance:
            converged = True
            break

        dx, lam = _projection_step(B, point.pi, p_obs - point.pi, point.h)
        mu = max(1.0, 2.0 * float(np.abs(lam).max(initial=0.0)))
        phi0 = point.merit(mu)
        alpha = 1.0
        for _ in range(STEP_HALVING_MAX + 1):
            trial = _point(compiled, p_obs, point.x + alpha * dx)
            if trial is not None and trial.merit(mu) < phi0:
                point = trial
                stalls = 0
                break
            alpha *= 0.5
        else:
            stalls += 1
            if stalls >= 3:
                stalled = True
                break

    if not converged:
        _, _, point, lam = best
        _, J, stationarity, feas = _kkt(compiled, p_obs, point, lam)
    kkt_residual = max(stationarity, feas)
    df = _rank(J, compiled.n_rows)

    # a truncated run is merely unconverged; only a stalled solver that is
    # still far from the constraint set indicates an infeasible system
    if stalled and feas > max(1e-3, 1000.0 * options.constraint_tolerance):
        raise InfeasibleSystemError(
            f"no feasible point found: max |h| = {feas:.3e} after "
            f"{iterations} iterations; constraint Jacobian rank "
            f"{df} over {compiled.n_rows} rows"
        )

    pi = point.pi
    pv_hat = ProbabilityVector(variables, pi)
    G2 = _deviance(counts, pi, N)
    p = chisq_sf(G2, df) if df >= 1 else 1.0
    aic, bic = information_criteria(G2, df, n_cells, N)
    eta_hat = dict(zip(compiled.indices, compiled.param_values(pi).tolist()))
    return FitResult(
        pi_hat=pv_hat,
        eta_hat=eta_hat,
        G2=G2,
        df=df,
        p_value=p,
        AIC=aic,
        BIC=bic,
        converged=converged,
        iterations=iterations,
        kkt_residual=kkt_residual,
        N=N,
        n_cells=n_cells,
    )


def fit_to_json(result: FitResult, system: ConstraintSystem | None = None) -> dict:
    out = {
        "schema": "scgm-fit/1",
        "variables": variables_to_json(result.pi_hat.variables),
        "N": result.N,
        "n_cells": result.n_cells,
        "G2": result.G2,
        "df": result.df,
        "p_value": result.p_value,
        "AIC": result.AIC,
        "BIC": result.BIC,
        "aic_formula": AIC_FORMULA,
        "bic_formula": BIC_FORMULA,
        "converged": result.converged,
        "iterations": result.iterations,
        "kkt_residual": result.kkt_residual,
        "pi_hat": [float(v) for v in result.pi_hat.as_array().ravel()],
        "eta_hat": [
            {
                "margin": list(idx.margin),
                "effect": list(idx.effect),
                "cell": list(idx.cell),
                "value": val,
            }
            for idx, val in result.eta_hat.items()
        ],
    }
    if system is not None:
        out["n_constraint_rows"] = len(system.rows)
        out["origin"] = system.origin
    return out


# ---------------------------------------------------------------------------
# model search

@dataclass(frozen=True)
class Candidate:
    """One graph the search fitted: its fit summary, or why the fit failed."""

    graph: StratifiedChainGraph
    variables: tuple
    fit: dict | None
    error: str | None

    @cached_property
    def statements(self) -> tuple:
        """The graph's independencies, validated and rendered in table order."""
        return tuple(
            render_statement(validate_statement(s, self.variables))
            for s in stratified_markov(self.graph, self.variables)
        )

    def passes(self, alpha) -> bool:
        return self.fit is not None and self.fit["p_value"] > alpha


@dataclass(frozen=True)
class SearchTrace:
    """Everything the three-step search looked at, in evaluation order.

    ``step1`` holds (link, candidate) per skeleton link; ``step2`` holds
    (restored, candidate), restored being None for the joint removal, a
    link, or "all" for the skeleton fallback, and ``selected`` is the
    position of the chosen one; ``step3`` holds (link, source,
    ((stratum, candidate), ...), chosen position or None) per revisited
    link.  ``final_fit`` is the full fit of ``final``'s graph.
    """

    variables: tuple
    skeleton: StratifiedChainGraph
    criterion: str
    alpha: float
    step1: tuple
    step2: tuple
    selected: int
    step3: tuple
    final: Candidate
    final_fit: FitResult

    @property
    def removable(self) -> tuple:
        return tuple(r for r, _ in self.step2 if isinstance(r, tuple))

    @property
    def final_graph(self) -> StratifiedChainGraph:
        return self.final.graph


def _links(graph):
    out = [("edge", u, v) for u, v in graph.edges]
    out += [("arc", u, v) for u, v in graph.arcs]
    return out


def _without_link(graph, link):
    kind, u, v = link
    if kind == "edge":
        return replace(graph, edges=tuple(e for e in graph.edges if e != (u, v)))
    return replace(graph, arcs=tuple(a for a in graph.arcs if a != (u, v)))


def _evaluate(graph, table, options, cache) -> Candidate:
    """Fit one candidate; a failing fit is recorded in the candidate, not raised."""
    try:
        system = scgm_constraint_system(graph, table.variables)
        fit = fit_constrained(table, system, options, cache=cache).summary()
    except (ScgmError, np.linalg.LinAlgError, ValueError) as exc:
        return Candidate(graph, table.variables, None, f"{type(exc).__name__}: {exc}")
    return Candidate(graph, table.variables, fit, None)


def _pick(candidates, criterion, alpha):
    """Index of the best candidate: p-filter first, then the criterion."""
    passing = [i for i, c in enumerate(candidates) if c.passes(alpha)]
    if not passing:
        return None
    if criterion == "min-aic":
        return min(passing, key=lambda i: (candidates[i].fit["AIC"], i))
    return max(passing, key=lambda i: (candidates[i].fit["AIC"], -i))


def _stratum_candidates(graph, link, variables):
    """Admissible context-specific strata for one absent link.

    Single-row patterns with up to three pinned context variables, plus
    one-variable threshold regions in both directions; strata whose rows
    cover every context cell are skipped (they equal the plain absence).
    """
    kind, u, v = link
    spec_by = {s.name: s for s in variables}
    pair = (u, v) if kind == "edge" else (v, u)
    stripped = _without_link(graph, link)
    if kind == "edge":
        scope = parents_of_component(stripped, graph.component_of(u))
    else:
        parents = parents_of_component(stripped, graph.component_of(v))
        if u not in parents:
            # that was the sole arc from the parent component: without it
            # the pair has no parent relation, so no stratified form exists
            return []
        scope = tuple(w for w in parents if w != u)
    if not scope:
        return []

    seen = set()
    out = []

    def emit(given, rows):
        key = (tuple(given), frozenset(rows))
        if key in seen:
            return
        seen.add(key)
        out.append(Stratum(pair, tuple(given), tuple(rows)))

    for r in range(1, min(3, len(scope)) + 1):
        for given in itertools.combinations(scope, r):
            ranges = [range(1, spec_by[g].cardinality + 1) for g in given]
            for row in itertools.product(*ranges):
                emit(given, [row])

    for g in scope:
        card = spec_by[g].cardinality
        if card < 3:
            continue
        for k in range(2, card):
            emit((g,), [(j,) for j in range(k, card + 1)])  # at or above k
            emit((g,), [(j,) for j in range(1, k + 1)])  # at or below k

    keep = []
    for st in out:
        candidate = replace(stripped, strata=stripped.strata + (st,))
        if validate(candidate, variables):
            continue
        keep.append((st, candidate))
    return keep


def model_search(
    table: ContingencyTable,
    skeleton: StratifiedChainGraph,
    options=None,
    criterion="max-aic",
    alpha=0.05,
) -> SearchTrace:
    """Three-step search for the best stratified model under a skeleton.

    Step one fits the model with each single link removed.  Step two
    removes every link whose single-removal p-value clears alpha, then
    reconsiders those links one at a time against the reduced model,
    keeping the candidate the criterion prefers.  Step three revisits each
    independence that was rejected, singly or jointly, and tries its
    admissible context-specific weakenings on top of the selected model.
    The search itself is deterministic; all randomness lives in the table.
    A failing candidate fit is recorded; a failing fit of the final graph
    raises.
    """
    if criterion not in ("max-aic", "min-aic"):
        raise StatementError(f"unknown selection criterion {criterion!r}")
    if not 0.0 < alpha < 1.0:
        raise StatementError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    if skeleton.strata:
        raise StatementError("model search starts from a stratum-free skeleton")
    options = options or FitOptions()
    variables = table.variables
    problems = validate(skeleton, variables)
    if problems:
        raise StatementError("; ".join(problems))

    # compiles share one cache for this search only
    cache = EventCache(variables)
    links = _links(skeleton)
    step1 = tuple(
        (link, _evaluate(_without_link(skeleton, link), table, options, cache))
        for link in links
    )
    removable = [link for link, c in step1 if c.passes(alpha)]

    # the joint removal (nothing restored), then each removable link restored
    step2 = []
    for restored in [None] + removable:
        g = reduce(_without_link, [l for l in removable if l != restored], skeleton)
        step2.append((restored, _evaluate(g, table, options, cache)))
    selected = _pick([c for _, c in step2], criterion, alpha)
    if selected is None:
        # nothing fits acceptably; fall back to the skeleton itself, which
        # the joint removal already fitted when no link was removable
        skeleton_fit = step2[0][1] if not removable else _evaluate(skeleton, table, options, cache)
        step2.append(("all", skeleton_fit))
        selected = len(step2) - 1
    base = step2[selected][1]

    # links whose plain independence was rejected: singly (step 1) or by
    # not surviving the joint selection (removable but still present)
    selected_links = set(_links(base.graph))
    step3 = []
    for link in (l for l in links if l in selected_links):
        source = (
            "not_retained_jointly" if link in removable else "single_removal_rejected"
        )
        tried = tuple(
            (st, _evaluate(g, table, options, cache))
            for st, g in _stratum_candidates(base.graph, link, variables)
        )
        chosen = _pick([c for _, c in tried], criterion, alpha)
        if chosen is not None:
            base = tried[chosen][1]
        step3.append((link, source, tried, chosen))

    # the final graph is fitted again rather than kept from its candidate
    # fit: the search holds only summaries, so memory stays flat
    final_fit = fit_constrained(
        table, scgm_constraint_system(base.graph, variables), options, cache=cache
    )
    return SearchTrace(
        variables=variables,
        skeleton=skeleton,
        criterion=criterion,
        alpha=alpha,
        step1=step1,
        step2=tuple(step2),
        selected=selected,
        step3=tuple(step3),
        final=base,
        final_fit=final_fit,
    )


def _candidate_json(candidate, **head):
    return {**head, "fit": candidate.fit, "error": candidate.error}


def trace_to_json(trace: SearchTrace) -> dict:
    return {
        "schema": "scgm-trace/1",
        "variables": variables_to_json(trace.variables),
        "criterion": trace.criterion,
        "alpha": trace.alpha,
        "skeleton": render_graph(trace.skeleton),
        "step1": [
            _candidate_json(c, link=list(link), statements=list(c.statements))
            for link, c in trace.step1
        ],
        "step2": {
            "removable": [list(l) for l in trace.removable],
            "candidates": [
                _candidate_json(
                    c,
                    restored=list(r) if isinstance(r, tuple) else r,
                    graph=render_graph(c.graph),
                )
                for r, c in trace.step2
            ],
            "selected": render_graph(trace.step2[trace.selected][1].graph),
        },
        "step3": [
            {
                "link": list(link),
                "source": source,
                "candidates": [
                    _candidate_json(c, stratum=render_stratum(st)) for st, c in tried
                ],
                "chosen": None if chosen is None else render_stratum(tried[chosen][0]),
            }
            for link, source, tried, chosen in trace.step3
        ],
        "final_graph": render_graph(trace.final_graph),
        "final_fit": fit_to_json(trace.final_fit),
    }

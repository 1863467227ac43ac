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

Model search follows a three step procedure: test each single missing
link, remove everything individually removable and reintroduce links one
at a time, then try context-specific relaxations of the independencies
that were rejected.  Selection filters candidates by p-value and ranks by
an information criterion; both directions of the criterion are supported.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .constraints import ConstraintSystem
from .errors import InfeasibleSystemError, ScgmError, StatementError, ZeroMassSliceError
from .graphs import (
    Stratum,
    StratifiedChainGraph,
    parents_of_component,
    render_graph,
    stratified_markov,
    validate,
)
# param_value is re-exported: callers wrap it under this module's name
from .params import event_table, param_value  # noqa: F401
from .regression import scgm_constraint_system
from .tables import ContingencyTable, ProbabilityVector

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
    """Iteration controls; all fields must be positive."""

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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


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

    def value(self, pi):
        return self.C @ np.log(self.A @ pi)

    def jacobian_pi(self, pi):
        masses = self.A @ pi
        return self.C @ (self.A / masses[:, None])

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


def compile_system(variables, system: ConstraintSystem) -> CompiledSystem:
    variables = tuple(variables)
    n_cells = int(np.prod([s.cardinality for s in variables]))
    indices = system.indices
    events, terms = event_table(variables, indices)
    A = np.empty((len(events), n_cells))
    for pos, (margin, levels) in enumerate(events):
        A[pos] = _event_indicator(variables, dict(zip(margin, levels)))
    P = np.zeros((len(indices), len(events)))
    for i, row in enumerate(terms):
        for pos, sign in row:
            P[i, pos] = sign  # an index's events are distinct
    index_pos = {idx: i for i, idx in enumerate(indices)}
    C_idx = np.zeros((len(system.rows), len(indices)))
    for r, row in enumerate(system.rows):
        for term in row.terms:
            C_idx[r, index_pos[term.index]] += term.coef
    return CompiledSystem(variables, indices, A, C_idx @ P, P)


def _event_indicator(variables, levels):
    """0/1 cell vector of the event pinning each named variable to ``levels``."""
    arr = np.zeros(tuple(s.cardinality for s in variables))
    sel = [
        np.array([l - 1 for l in levels[s.name]]) if s.name in levels
        else np.arange(s.cardinality)
        for s in variables
    ]
    arr[np.ix_(*sel)] = 1.0
    return arr.ravel()


def _centred_jacobian(compiled, pi):
    """B = M - (M pi) 1^T for M = dh/dpi; the logit Jacobian is B diag(pi)."""
    M = compiled.jacobian_pi(pi)
    return M - (M @ pi)[:, None]


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


def fit_constrained(table: ContingencyTable, system: ConstraintSystem, options=None) -> FitResult:
    """Maximum likelihood under the system's rows.

    Returns the best iterate flagged unconverged when the iteration budget
    runs out; raises InfeasibleSystemError when the solver stalls while
    grossly infeasible, with rank diagnostics in the message.
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

    compiled = compile_system(variables, system)
    p_obs = counts / N
    start = (counts + options.smoothing) / (N + options.smoothing * n_cells)
    x = np.log(start)
    lam = np.zeros(compiled.n_rows)

    def merit(xv, mu):
        z = xv - xv.max()
        log_norm = math.log(np.exp(z).sum())
        pi = np.exp(z) / np.exp(z).sum()
        masses = compiled.A @ pi
        if np.any(masses <= 0):
            return math.inf, None
        loglik = float(p_obs @ z) - log_norm
        h = compiled.C @ np.log(masses)
        return -loglik + mu * float(np.abs(h).sum()), pi

    converged = False
    stalled = False
    iterations = 0
    kkt_residual = math.inf
    best = None  # (feasibility, -loglik, x copy, lam copy)
    stalls = 0

    for it in range(1, options.max_iterations + 1):
        iterations = it
        z = x - x.max()
        pi = np.exp(z)
        pi /= pi.sum()
        h = compiled.value(pi)
        B = _centred_jacobian(compiled, pi)
        J = B * pi[None, :]
        g = p_obs - pi
        stationarity = g - J.T @ lam
        feas = float(np.abs(h).max())
        kkt_residual = max(float(np.abs(stationarity).max()), feas)

        loglik = float(p_obs @ z) - math.log(np.exp(z).sum())
        state = (feas, -loglik, x.copy(), lam.copy())
        if best is None or (feas, -loglik) < (best[0], best[1]):
            best = state

        if feas < options.constraint_tolerance and float(
            np.abs(stationarity).max()
        ) < options.gradient_tolerance:
            converged = True
            break

        dx, lam_new = _projection_step(B, pi, g, h)

        mu = max(1.0, 2.0 * float(np.abs(lam_new).max(initial=0.0)))
        phi0, _ = merit(x, mu)
        alpha = 1.0
        accepted = False
        for _ in range(STEP_HALVING_MAX + 1):
            phi_try, _ = merit(x + alpha * dx, mu)
            if phi_try < phi0:
                accepted = True
                break
            alpha *= 0.5
        if accepted:
            x = x + alpha * dx
            lam = lam_new
            stalls = 0
        else:
            lam = lam_new
            stalls += 1
            if stalls >= 3:
                stalled = True
                break

    if not converged and best is not None:
        feas, _, x, lam = best

    z = x - x.max()
    pi = np.exp(z)
    pi /= pi.sum()
    h = compiled.value(pi)
    feas = float(np.abs(h).max())
    J = _centred_jacobian(compiled, pi) * pi[None, :]
    stationarity = (p_obs - pi) - J.T @ lam
    kkt_residual = max(float(np.abs(stationarity).max()), feas)

    # a truncated run is merely unconverged; only a stalled solver that is
    # still far from the constraint set indicates an infeasible system
    if stalled and feas > max(1e-3, 1000.0 * options.constraint_tolerance):
        raise InfeasibleSystemError(
            f"no feasible point found: max |h| = {feas:.3e} after "
            f"{iterations} iterations; constraint Jacobian rank "
            f"{_rank(J, compiled.n_rows)} over {compiled.n_rows} rows"
        )

    pv_hat = ProbabilityVector(variables, pi)
    G2 = _deviance(counts, pi, N)
    df = _rank(J, compiled.n_rows)
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
        "variables": [
            {"name": s.name, "cardinality": s.cardinality, "coding": s.coding}
            for s in result.pi_hat.variables
        ],
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
class SearchTrace:
    """Everything the three-step search looked at, in evaluation order."""

    variables: tuple
    skeleton: StratifiedChainGraph
    criterion: str
    alpha: float
    step1: tuple
    step2: dict
    step3: tuple
    final_graph: StratifiedChainGraph
    final_fit: FitResult


def _links(graph):
    out = [("edge", u, v) for u, v in graph.edges]
    out += [("arc", u, v) for u, v in graph.arcs]
    return out


def _without_link(graph, link):
    kind, u, v = link
    if kind == "edge":
        return replace(graph, edges=tuple(e for e in graph.edges if e != (u, v)))
    return replace(graph, arcs=tuple(a for a in graph.arcs if a != (u, v)))


def _with_stratum(graph, stratum):
    return replace(graph, strata=graph.strata + (stratum,))


def _fit_graph(graph, table, options):
    system = scgm_constraint_system(graph, table.variables)
    result = fit_constrained(table, system, options)
    return system, result


def _statement_lines(graph, variables):
    from .constraints import render_statement, validate_statement

    return [
        render_statement(validate_statement(s, variables))
        for s in stratified_markov(graph, variables)
    ]


def _pick(candidates, criterion, alpha):
    """Index of the best candidate: p-filter first, then the criterion."""
    passing = [
        i
        for i, c in enumerate(candidates)
        if c.get("fit") is not None and c["fit"]["p_value"] > alpha
    ]
    if not passing:
        return None
    if criterion == "min-aic":
        return min(passing, key=lambda i: (candidates[i]["fit"]["AIC"], i))
    return max(passing, key=lambda i: (candidates[i]["fit"]["AIC"], -i))


def _fit_entry(graph, table, options):
    try:
        _, result = _fit_graph(graph, table, options)
        return result.summary(), None
    except (ScgmError, np.linalg.LinAlgError, ValueError) as exc:
        # recorded, not fatal: a failing candidate stays in the trace
        return None, f"{type(exc).__name__}: {exc}"


def _stratum_candidates(graph, link, variables):
    """Admissible context-specific strata for one absent link.

    Single-row patterns with up to three pinned context variables, plus
    one-variable threshold regions in both directions; strata whose rows
    cover every context cell are skipped (they equal the plain absence).
    """
    kind, u, v = link
    membership = {}
    for name, members in graph.components:
        for m in members:
            membership[m] = name
    spec_by = {s.name: s for s in variables}

    pair = (u, v) if kind == "edge" else (v, u)
    stripped = _strip_link(graph, pair, kind)
    if kind == "edge":
        comp = membership[u]
        scope = parents_of_component(stripped, comp)
    else:
        comp = membership[v]
        if u not in parents_of_component(stripped, comp):
            # that was the sole arc from the parent component: without it
            # the pair has no parent relation, so no stratified form exists
            return []
        scope = tuple(w for w in parents_of_component(stripped, comp) if w != u)
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
        candidate = _with_stratum(stripped, st)
        if validate(candidate, variables):
            continue
        keep.append((st, candidate))
    return keep


def _strip_link(graph, pair, kind):
    if kind == "edge":
        u, v = pair
        return replace(
            graph,
            edges=tuple(e for e in graph.edges if set(e) != {u, v}),
        )
    v, u = pair  # pair is (child, parent) for arcs
    return replace(graph, arcs=tuple(a for a in graph.arcs if a != (u, v)))


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
    """
    if criterion not in ("max-aic", "min-aic"):
        raise StatementError(f"unknown selection criterion {criterion!r}")
    if skeleton.strata:
        raise StatementError("model search starts from a stratum-free skeleton")
    options = options or FitOptions()
    variables = table.variables
    problems = validate(skeleton, variables)
    if problems:
        raise StatementError("; ".join(problems))

    links = _links(skeleton)

    step1 = []
    removable = []
    rejected = []
    for link in links:
        g = _without_link(skeleton, link)
        fit, error = _fit_entry(g, table, options)
        entry = {
            "link": link,
            "statements": _statement_lines(g, variables),
            "fit": fit,
            "error": error,
        }
        step1.append(entry)
        if fit is not None and fit["p_value"] > alpha:
            removable.append(link)
        else:
            rejected.append(link)

    reduced = skeleton
    for link in removable:
        reduced = _without_link(reduced, link)

    step2_candidates = []
    fit, error = _fit_entry(reduced, table, options)
    step2_candidates.append(
        {"restored": None, "graph": reduced, "fit": fit, "error": error}
    )
    for link in removable:
        g = skeleton
        for other in removable:
            if other != link:
                g = _without_link(g, other)
        fit, error = _fit_entry(g, table, options)
        step2_candidates.append(
            {"restored": link, "graph": g, "fit": fit, "error": error}
        )

    pick = _pick(step2_candidates, criterion, alpha)
    if pick is None:
        # nothing fits acceptably; fall back to the skeleton itself
        fit, error = _fit_entry(skeleton, table, options)
        step2_candidates.append(
            {"restored": "all", "graph": skeleton, "fit": fit, "error": error}
        )
        pick = len(step2_candidates) - 1
    selected = step2_candidates[pick]["graph"]
    restored = step2_candidates[pick]["restored"]

    step2 = {
        "removable": removable,
        "candidates": [
            {
                "restored": c["restored"],
                "graph": render_graph(c["graph"]),
                "fit": c["fit"],
                "error": c["error"],
            }
            for c in step2_candidates
        ],
        "selected": render_graph(selected),
    }

    # links whose plain independence was rejected: singly (step 1) or by
    # not surviving the joint selection (removable but still present)
    selected_links = set(_links(selected))
    revisit = [l for l in links if l in selected_links]

    step3 = []
    base = selected
    for link in revisit:
        source = "single_removal_rejected" if link in rejected else "not_retained_jointly"
        candidates = []
        for st, g in _stratum_candidates(base, link, variables):
            fit, error = _fit_entry(g, table, options)
            candidates.append(
                {"stratum": st, "graph": g, "fit": fit, "error": error}
            )
        pick = _pick(candidates, criterion, alpha)
        chosen = None
        if pick is not None:
            chosen = candidates[pick]["stratum"]
            base = candidates[pick]["graph"]
        step3.append(
            {
                "link": link,
                "source": source,
                "candidates": [
                    {
                        "stratum": _stratum_text(c["stratum"]),
                        "fit": c["fit"],
                        "error": c["error"],
                    }
                    for c in candidates
                ],
                "chosen": _stratum_text(chosen) if chosen else None,
            }
        )

    _, final_fit = _fit_graph(base, table, options)
    return SearchTrace(
        variables=variables,
        skeleton=skeleton,
        criterion=criterion,
        alpha=alpha,
        step1=tuple(step1),
        step2=step2,
        step3=tuple(step3),
        final_graph=base,
        final_fit=final_fit,
    )


def _stratum_text(st: Stratum | None) -> str | None:
    if st is None:
        return None
    rows = ",".join(
        "(" + ",".join("*" if x is None else str(x) for x in row) + ")"
        for row in st.patterns
    )
    return (
        f"stratum ({st.pair[0]},{st.pair[1]}) | "
        f"{{{','.join(st.given)}}} = {{{rows}}}"
    )


def trace_to_json(trace: SearchTrace) -> dict:
    return {
        "schema": "scgm-trace/1",
        "variables": [
            {"name": s.name, "cardinality": s.cardinality, "coding": s.coding}
            for s in trace.variables
        ],
        "criterion": trace.criterion,
        "alpha": trace.alpha,
        "skeleton": render_graph(trace.skeleton),
        "step1": [
            {
                "link": list(e["link"]),
                "statements": e["statements"],
                "fit": e["fit"],
                "error": e["error"],
            }
            for e in trace.step1
        ],
        "step2": {
            "removable": [list(l) for l in trace.step2["removable"]],
            "candidates": [
                {
                    "restored": list(c["restored"])
                    if isinstance(c["restored"], tuple)
                    else c["restored"],
                    "graph": c["graph"],
                    "fit": c["fit"],
                    "error": c["error"],
                }
                for c in trace.step2["candidates"]
            ],
            "selected": trace.step2["selected"],
        },
        "step3": [
            {
                "link": list(e["link"]),
                "source": e["source"],
                "candidates": e["candidates"],
                "chosen": e["chosen"],
            }
            for e in trace.step3
        ],
        "final_graph": render_graph(trace.final_graph),
        "final_fit": fit_to_json(trace.final_fit),
    }

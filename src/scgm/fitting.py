"""Constrained maximum likelihood over contingency tables, plus model search.

The estimation problem: maximize the multinomial log-likelihood over the
probability simplex subject to h(pi) = 0, where h stacks the rows of a
ConstraintSystem evaluated at the interaction parameters of pi.  Every row
is a linear combination of parameters, every parameter a signed sum of
logs of marginal event masses, so h(pi) = C log(A pi) for a fixed 0/1
event matrix A and a coefficient matrix C; the system is compiled to that
form once and the solver works with exact gradients.  ``compile_system``
reads the events and signs from a ``params.EventCache``, the numbering
every other parameter evaluation reads, and builds A and the signed
event rows P of the referenced parameters from it.  It sums C's entries
from each row's terms and their indices' signed events; C = C_idx P for
the rows' coefficients C_idx on the parameters, but neither C_idx nor
the product is formed.

A and C are kept as their nonzeros.  Events pin most variables: a
2187-cell fit has 1404 events, and a dense A would take 24.6 MB and a
dense C (468 x 1404, 1.8% nonzero) 5.3 MB.  The ``EventMap`` holds A's
(event, cell) pairs, for A pi by ``np.bincount``, and a d x K table of
each cell's event ids (d = 2 there, 1 on the 288-cell fits, at most 4 on
a 128-cell search's systems).  The ``CoefficientMap`` holds C's (row,
event, value) entries; C log(A pi), like P log(A pi), is one
``np.bincount``.  The Jacobian C diag(1/m) A is scattered from C's
entries into a zero-filled R x K array, each cell's terms added in
ascending event id as a dense product adds them.  Cells in the same
events share their Jacobian column, so J's rank is taken on one column
per such group (1054 of the 2187 cells).

The map is read through the cache: each parameter index's event ids and
signs, one id per distinct (margin, levels) event, and each event's cells
as flat cell positions.  A search's candidates share most of their
parameters (on a 108-fit search over 128 cells, 111 distinct indices of
5934 compiled and 279 distinct events of 15480), so each of
``model_search``'s worker processes makes one cache and passes it to every
fit it runs, and the final refit in the calling process makes its own.
A compile orders its events by first appearance among its own indices'
terms, as a fresh cache would number them, so A, C and P are the same
bit for bit through any cache.  A cache lives for one search, neither
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
J diag(1/s) are scaled to unit norm and its transpose is factored once
per step by a thin QR, Q T.  The R x R inverse of T^T then gives the
correction, the multipliers and one refinement step that restores
J dx = -h where a collapsing cell makes the gradient and its correction
cancel; no K x R pseudo-inverse is formed.  When T's diagonal shows it
rank-deficient, pinv(T^T) with the cutoff lstsq uses takes the inverse's
place; that equals lstsq's minimum-norm answer whenever the diagonal test
agrees with the SVD rank.  An lstsq with the identity as R extra
right-hand sides costs more than twice as much per step.

Two simpler forms fail near the boundary.  The R x R normal equations
B diag(pi) B^T lam = B g + h square the conditioning and leave fits with
many zero cells unconverged far from the optimum; without the 1e-12 term
some near-boundary fits stall.

Each iterate is evaluated once, by ``_point``, into a frozen record of the
logits, pi, the event masses A pi, the log-likelihood and h.  The line
search builds its trial points the same way, and the accepted trial is
the next iterate.  The loop top adds B and the two KKT norms for the
current multipliers; the best iterate seen is kept as its point and
multipliers.  The reported ``kkt_residual``, df and ``pi_hat`` come from
the chosen point without evaluating it again: the last point of a
converged run, whose loop-top B gives the rank of J = B diag(pi), or the
best point of an unconverged one, the only case that rebuilds its
Jacobian.

A fit holds the two maps, P as its (row, event, sign) entries, and one
R x K array that the solver loop owns and the step consumes.  Each loop
top writes B into it, and the stationarity reads B only through
B^T lam; the step then scales it in place into Jt and Jt's unit-norm
rows.  A converged run stops at a loop top, with B still in the array
for the rank; an unconverged one writes B again for its best point
first.  The R x K arrays left per iteration are the row norms' Jt * Jt
and the thin QR's own copies and Q, so a fit at R = 468, K = 2187 peaks
near 3.4 R x K arrays (28 MB under tracemalloc).

Model search follows a three step procedure: test each single missing
link, remove everything individually removable and reintroduce links one
at a time, then try context-specific relaxations of the independencies
that were rejected.  Selection filters candidates by p-value and ranks by
an information criterion; both directions of the criterion are supported.
Every graph the search fits becomes one ``Candidate`` record: the graph,
its fit summary or the error that stopped the fit, and its statements,
rendered in table order on first read.  Selection, ``trace_to_json`` and
the CLI's text trace all read these records.  A record keeps the summary,
not the ``FitResult``, whose estimates would stay in memory for every
candidate, so the final graph is fitted once more, with the same result
bit for bit.

Within a step the candidate graphs do not depend on each other, so each
step's batch (step one's removals, step two's restorations, each step-three
link's strata) is fitted in a process pool, one pool per search with a
worker per core up to the number of skeleton links.  ``pool.map`` returns
the candidates in submission order, which is the serial evaluation order,
and every candidate runs the same code on the same inputs, so the trace is
the same byte for byte.  Selection, the stratum enumeration and the final
refit stay in the calling process, and the pool's workers have all exited
when ``model_search`` returns or raises.  Workers are forked where the
platform can: a forked worker starts in milliseconds with the table,
options and module state of its parent, where a spawned one would start an
interpreter and import numpy and the package, about 0.3 s per worker and
search on a 2-vCPU Xeon.  Fork is unsafe while another thread holds a
lock; the package starts no threads of its own.  ``multiprocessing`` and
``concurrent.futures`` are imported inside ``model_search``: they take
10-25 ms to import, against about 0.23 s to import the package and load
a table, and only a search needs them.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .constraints import ConstraintSystem, render_statement
from .errors import (
    InadmissibleGraphError,
    InfeasibleSystemError,
    OptionError,
    ScgmError,
    StatementError,
    ZeroMassSliceError,
)
from .graphs import (
    Stratum,
    StratifiedChainGraph,
    render_graph,
    render_stratum,
    stratified_markov,
    stratum_scope,
    validate,
)
# param_value is re-exported: callers wrap it under this module's name
from .params import EventCache, index_to_json, param_value  # noqa: F401
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
    """Iteration controls; all fields must be positive and finite, and
    ``max_iterations`` an integer (a numpy integer will do, a bool will not)."""

    max_iterations: int = 500
    constraint_tolerance: float = 1e-8
    gradient_tolerance: float = 1e-6
    smoothing: float = 0.5

    def __post_init__(self):
        m = self.max_iterations
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
            raise OptionError(f"max_iterations must be an integer, got {m!r}")
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
    norms at the returned iterate.  ``converged`` means that max |h| <
    ``constraint_tolerance`` and the unscaled max |p_obs - pi - J^T lam| <
    ``gradient_tolerance``, J the logit Jacobian of h; it states no
    accuracy of G2.
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


class EventMap:
    """The 0/1 event matrix A (events x cells), kept as its nonzeros.

    ``rows`` and ``cols`` list the (event, cell) pairs, event by event and
    each event's cells in ascending order.  ``ids`` is a d x K table of
    each cell's event ids in ascending order, d the most events any cell
    lies in (at least 1); a shorter column is padded with ``shape[0]``,
    and a cell in no event has only padding.  ``shape`` and ``nbytes``
    read as a dense A's would, with ``nbytes`` counting these three
    arrays.
    """

    def __init__(self, rows, cols, shape):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.shape = shape
        n_events, n_cells = shape
        depth = np.bincount(self.cols, minlength=n_cells)
        order = np.argsort(self.cols, kind="stable")
        cells = self.cols[order]
        # a cell's k-th pair goes to row k of its column
        slot = np.arange(cells.size) - (np.cumsum(depth) - depth)[cells]
        self.ids = np.full((max(int(depth.max(initial=0)), 1), n_cells), n_events)
        self.ids[slot, cells] = self.rows[order]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.ids.nbytes

    def sums(self, v):
        """A v: v summed over each event's cells."""
        return np.bincount(self.rows, weights=v[self.cols], minlength=self.shape[0])

    def groups(self):
        """The cells grouped by the events they lie in: each cell's group
        and the first cell of each group.  The cells in no event are one
        group."""
        n_cells = self.shape[1]
        order = np.lexsort(self.ids[::-1])
        ids = self.ids[:, order]
        first = np.ones(n_cells, dtype=bool)
        first[1:] = (ids[:, 1:] != ids[:, :-1]).any(axis=0)
        labels = np.empty(n_cells, dtype=np.intp)
        labels[order] = np.cumsum(first) - 1
        return labels, order[first]


def _ranges(starts, counts):
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, one after another."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _entry_product(entries, v, n_rows):
    """X v for a matrix X kept as its (rows, cols, values) entries: each
    row's value * v[col] summed in entry order."""
    rows, cols, values = entries
    return np.bincount(rows, weights=values * v[cols], minlength=n_rows)


class CoefficientMap:
    """The coefficient matrix C (rows x events), kept as its nonzeros.

    ``rows``, ``events`` and ``values`` list the nonzero entries row by
    row, each row's events in ascending order.  For the Jacobian, each
    entry is listed again once per cell of its event, ordered by event id:
    ``targets`` is the flat position row * K + cell of each copy in a
    C-ordered rows x cells array, and ``sources`` the entry it copies.
    ``shape`` and ``nbytes`` read as a dense C's would, with ``nbytes``
    counting these five arrays.
    """

    def __init__(self, rows, events, values, n_rows, event_map: EventMap):
        self.rows, self.events, self.values = rows, events, values
        n_events, n_cells = event_map.shape
        self.shape = (n_rows, n_events)
        size = np.bincount(event_map.rows, minlength=n_events)
        by_event = np.argsort(events, kind="stable")
        copies = size[events[by_event]]
        self.sources = np.repeat(by_event, copies)
        # the event's (event, cell) pairs are consecutive from its first
        pairs = _ranges((np.cumsum(size) - size)[events[by_event]], copies)
        self.targets = rows[self.sources] * n_cells + event_map.cols[pairs]

    @property
    def nbytes(self) -> int:
        arrays = (self.rows, self.events, self.values, self.sources, self.targets)
        return sum(a.nbytes for a in arrays)

    def dot(self, v):
        """C v, each row's terms added in ascending event order."""
        return _entry_product((self.rows, self.events, self.values), v, self.shape[0])

    def scatter(self, w, out):
        """C diag(w) A, written into ``out``, a C-ordered rows x cells array.

        ``out`` is zero-filled and each entry's c * w[event] is added at
        its event's cells.  The copies are added in the order of
        ``targets``, so each cell receives its events' terms in ascending
        event id, the order in which a dense product adds them.
        """
        out.fill(0.0)
        np.add.at(out.reshape(-1), self.targets, (self.values * w[self.events])[self.sources])
        return out


@dataclass(frozen=True)
class CompiledSystem:
    """Constraint rows as h(pi) = C log(A pi); A is the ``EventMap`` of
    the events' cells and C the ``CoefficientMap`` of the rows' nonzero
    coefficients, neither a dense matrix.  ``A.shape`` is (events, cells),
    ``C.shape`` is (rows, events), and each ``nbytes`` counts the map's own
    arrays.

    The parameters referenced by the system are P log(A pi), P holding one
    signed event row per entry of ``indices``; C = C_idx P for the rows'
    coefficients C_idx on those parameters.  P is kept as its nonzero
    entries ``P_entries`` = (rows, events, signs), index by index and each
    index's events in signed-event order.
    """

    variables: tuple
    indices: tuple
    A: EventMap
    C: CoefficientMap
    P_entries: tuple

    @property
    def n_rows(self) -> int:
        return self.C.shape[0]

    def param_values(self, pi):
        """Every parameter in ``indices`` at pi, in that order: each index's
        signed log masses added in entry order."""
        masses = self.A.sums(pi)
        rows, events, signs = self.P_entries
        if np.any(masses <= 0.0):
            idx = self.indices[rows[(masses <= 0.0)[events]].min()]
            raise ZeroMassSliceError(
                f"zero-probability event for parameter {idx.margin}/{idx.effect}"
            )
        return _entry_product(self.P_entries, np.log(masses), len(self.indices))


def compile_system(variables, system: ConstraintSystem, cache=None) -> CompiledSystem:
    """The system as h(pi) = C log(A pi), read through ``cache``.

    Without a cache a fresh one is made; a cache built with a context is
    refused.  Events keep their first-seen order among the terms of
    ``system.indices``, as a fresh cache numbers them: it fixes the
    summation order of C log(A pi).

    C's entries are summed from coef * sign for each row term and each of
    its index's signed events, with no C_idx matrix or product: the addends
    are sorted by (row, event) and each run added up.  Every addend is an
    integer, so each entry is exact whatever the order; entries that sum
    to zero are dropped.
    """
    variables = tuple(variables)
    if cache is None:
        cache = EventCache(variables)
    elif cache.variables != variables:
        raise ValueError("event cache was built for other variables")
    elif cache.context:
        raise ValueError("event cache was built with a context")
    n_cells = math.prod(s.cardinality for s in variables)
    indices = system.indices
    terms = [cache.terms(idx) for idx in indices]
    ids = [eid for row_ids, _ in terms for eid in row_ids]
    # event id -> row of A, in first-seen order among the terms
    pos = {eid: row for row, eid in enumerate(dict.fromkeys(ids))}
    A = EventMap(
        [row for row, eid in enumerate(pos) for _ in cache.cells(eid)],
        [cell for eid in pos for cell in cache.cells(eid)],
        (len(pos), n_cells),
    )
    # an index's events are distinct, so no entry of P repeats
    counts = np.array([len(row_ids) for row_ids, _ in terms], dtype=np.intp)
    P_rows = np.repeat(np.arange(len(indices)), counts)
    P_events = np.array([pos[eid] for eid in ids], dtype=np.intp)
    P_signs = np.array([sign for _, signs in terms for sign in signs], dtype=float)

    index_pos = {idx: i for i, idx in enumerate(indices)}
    term_rows, term_index, term_coefs = np.array(
        [(r, index_pos[t.index], t.coef) for r, row in enumerate(system.rows) for t in row.terms],
        dtype=np.intp,
    ).reshape(-1, 3).T
    # each row term repeated over its index's entries of P
    n = counts[term_index]
    entry = _ranges((np.cumsum(counts) - counts)[term_index], n)
    rows, events = np.repeat(term_rows, n), P_events[entry]
    values = np.repeat(term_coefs, n) * P_signs[entry]
    order = np.lexsort((events, rows))
    rows, events, values = rows[order], events[order], values[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (events[1:] != events[:-1])
    starts = np.flatnonzero(first)
    values = np.add.reduceat(values, starts)
    keep = values != 0.0
    C = CoefficientMap(rows[starts][keep], events[starts][keep], values[keep], len(system.rows), A)
    return CompiledSystem(variables, indices, A, C, (P_rows, P_events, P_signs))


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
    masses = compiled.A.sums(pi)
    if np.any(masses <= 0.0):
        return None
    loglik = float(p_obs @ z) - math.log(total)
    return _Point(x, pi, masses, loglik, compiled.C.dot(np.log(masses)))


def _centred_jacobian(compiled, point, out):
    """B = M - (M pi) 1^T for M = dh/dpi; the logit Jacobian is B diag(pi).

    M = C diag(1/m) A for the event masses m is scattered by
    ``CoefficientMap.scatter`` into ``out``, the fit's one R x K array:
    each cell's terms are added in ascending event id, the same sums as
    the dense product, and ``out`` is C-ordered so that M pi and the QR of
    the step see the dense product's layout.  M is then centred in place.
    """
    M = compiled.C.scatter(1.0 / point.masses, out)
    M -= (M @ point.pi)[:, None]
    return M


def _kkt(compiled, p_obs, point, lam, out):
    """B, max |stationarity| and max |h| at a point and lam.

    B is written into ``out``, the fit's one R x K array.  The stationarity
    (p_obs - pi) - J^T lam, J = B diag(pi), is read as pi * (B^T lam): one
    matrix-vector product on B, with no R x K product formed.
    """
    B = _centred_jacobian(compiled, point, out=out)
    stationarity = (p_obs - point.pi) - point.pi * (B.T @ lam)
    return B, float(np.abs(stationarity).max()), float(np.abs(point.h).max())


def _projection_step(B, pi, g, h):
    """Newton step (dx, lam) on the logits, from a thin QR of the R x K Jt.

    Solves (diag(pi) + RIDGE I) dx + J^T lam = g, J dx = -h for
    J = B diag(pi): in the coordinates u = s dx, s = sqrt(pi + RIDGE), the
    step is q = g / s plus the minimum-norm w with Jt w = -h - Jt q, where
    Jt = J diag(1/s), and lam solves Jt^T lam = -w.  Rows of Jt and the
    right-hand side are scaled to unit norm.  The step consumes B: it is
    scaled in place into Jt and then into Jt's unit-norm rows, and nothing
    reads B after that.  The row norms are numpy's 2-norm as
    ``np.linalg.norm`` computes it for real arrays, without its conjugate
    copy.

    The reduced QR Jt^T = Q T (Q of K x R with orthonormal columns, T upper
    triangular) gives pinv(Jt) = Q T^-T, so w = Q y for y = T^-T rhs and,
    as Q^T w = y, lam = -T^-1 y; T^-T applied to the residual of J dx = -h
    refines dx.  With Jt's rows at unit norm, that residual over the norms
    is -h / norms - Jt (s dx).  T^-T is formed once, as a general R x R
    inverse (numpy has no triangular solver); no K x R pseudo-inverse is
    formed.  T is taken as rank-deficient when R > K or
    min |t_ii| <= eps max(R, K) max |t_ii|;
    T^-T is then replaced by pinv(T^T) with the cutoff lstsq uses, singular
    values at or below eps max(R, K) times the largest.  Jt and T^T share
    their singular values, so the step equals lstsq's minimum-norm answer
    whenever the diagonal test agrees with the SVD rank.  The diagonal of
    an unpivoted QR does not bound the smallest singular value, so a T that
    passes the test can still be below lstsq's cutoff; the inverse then
    keeps a direction lstsq would drop.
    """
    s = np.sqrt(pi + RIDGE)
    Jt = np.multiply(B, (pi / s)[None, :], out=B)
    q = g / s
    rhs = -h - Jt @ q
    norms = np.sqrt(np.add.reduce(Jt * Jt, axis=1))
    norms[norms == 0.0] = 1.0
    Jt /= norms[:, None]
    rhs /= norms
    Q, T = np.linalg.qr(Jt.T)
    diag = np.abs(np.diagonal(T))
    rtol = np.finfo(float).eps * max(Jt.shape)
    if T.shape[0] == T.shape[1] and diag.min() > rtol * diag.max():
        Tt_inv = np.linalg.inv(T.T)
    else:  # the cutoff goes by position: it is rcond on numpy 1.x, rtol on 2.x
        Tt_inv = np.linalg.pinv(T.T, rtol)
    y = Tt_inv @ rhs
    lam = -(Tt_inv.T @ y) / norms
    dx = (q + Q @ y) / s
    # one step of refinement on J dx = -h: where a cell's mass nears zero, q
    # and w are large and cancel in q + w, leaving J dx off by far more than h
    residual = -h / norms - Jt @ (s * dx)
    dx += (Q @ (Tt_inv @ residual)) / s
    return dx, lam


def _rank(compiled, B, pi) -> int:
    """Numerical rank of J = B diag(pi), from one column per group of
    cells that lie in the same events.

    Such cells share their column b of B, so J J^T sums b b^T times the
    group's sum of pi^2 over the groups: the columns b sqrt(sum pi^2) have
    J's singular values in exact arithmetic.  B is only read.
    """
    rows = compiled.n_rows
    if B.size == 0 or rows == 0:
        return 0
    labels, cells = compiled.A.groups()
    J = B[:, cells]
    J *= np.sqrt(np.bincount(labels, weights=pi * pi))
    sv = np.linalg.svd(J, compute_uv=False)
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
    if system.rows and [(s.name, s.cardinality, s.coding) for s in variables] != [
        (s.name, s.cardinality, s.coding) for s in system.variables
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
    # the one R x K array of every iteration: B, which the step turns into Jt
    work = np.empty((compiled.n_rows, n_cells))
    converged = stalled = False
    best = None  # (feasibility, -loglik, point, lam)
    stalls = 0

    for iterations in range(1, options.max_iterations + 1):
        B, stationarity, feas = _kkt(compiled, p_obs, point, lam, work)
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
        B, stationarity, feas = _kkt(compiled, p_obs, point, lam, work)
    kkt_residual = max(stationarity, feas)
    df = _rank(compiled, B, point.pi)

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
        "eta_hat": [{**index_to_json(idx), "value": val} for idx, val in result.eta_hat.items()],
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
        """The graph's independencies, rendered in table order."""
        return tuple(
            render_statement(s) for s in stratified_markov(self.graph, self.variables)
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


# a search worker's table, options and its own EventCache; set by
# _start_worker in each worker process, never in the calling process
_worker_state = None


def _start_worker(table, options):
    global _worker_state
    _worker_state = (table, options, EventCache(table.variables))


def _evaluate_in_worker(graph) -> Candidate:
    return _evaluate(graph, *_worker_state)


def _evaluate_all(pool, graphs) -> list:
    """One candidate per graph, fitted in the pool's workers, in the graphs' order."""
    return list(pool.map(_evaluate_in_worker, graphs))


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

    The context variables are the pair's scope in the graph without the
    link, as ``graphs.stratum_scope`` gives it.  A link with no stratified
    form there (the sole arc between two components), or with an empty
    scope, has no candidates.
    Single-row patterns with up to three pinned context variables, plus
    one-variable threshold regions in both directions; none covers every
    context cell (that would equal the plain absence).
    """
    kind, u, v = link
    spec_by = {s.name: s for s in variables}
    pair = (u, v) if kind == "edge" else (v, u)
    stripped = _without_link(graph, link)
    _, _, scope, problem = stratum_scope(stripped, pair)
    if problem is not None or not scope:
        return []

    # no two strata coincide: single rows differ in their given set or row;
    # a threshold region holds two or more rows, and the region at or above
    # k holds the top level but never level 1, unlike the one at or below k
    out = []
    for r in range(1, min(3, len(scope)) + 1):
        for given in itertools.combinations(scope, r):
            ranges = [range(1, spec_by[g].cardinality + 1) for g in given]
            for row in itertools.product(*ranges):
                out.append(Stratum(pair, given, (row,)))

    for g in scope:
        card = spec_by[g].cardinality
        for k in range(2, card):
            # at or above k, then at or below k
            for levels in (range(k, card + 1), range(1, k + 1)):
                out.append(Stratum(pair, (g,), tuple((j,) for j in levels)))

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

    Each step's candidates are fitted in a pool of worker processes, forked
    where the platform allows, one per core up to the number of skeleton
    links; each worker compiles through its own ``EventCache``.  Results
    come back in submission order, so the trace is the one a serial search
    writes.  The pool lives for this call only: every worker has exited
    before it returns or raises.

    Before any pool exists, a bad ``criterion`` or ``alpha`` raises
    OptionError, a skeleton that ``validate`` finds problems in, read
    against the table's variables, InadmissibleGraphError, and a skeleton
    with strata StatementError.
    """
    if criterion not in ("max-aic", "min-aic"):
        raise OptionError(f"unknown selection criterion {criterion!r}")
    if not 0.0 < alpha < 1.0:
        raise OptionError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    variables = table.variables
    problems = validate(skeleton, variables)
    if problems:
        raise InadmissibleGraphError(*problems)
    if skeleton.strata:
        raise StatementError("model search starts from a stratum-free skeleton")
    options = options or FitOptions()

    # imported here so that `import scgm` does not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    links = _links(skeleton)
    fork = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1  # None when the count is unknown
    # a skeleton without links still fits its joint removal
    with ProcessPoolExecutor(
        max_workers=max(1, min(cpus, len(links))),
        mp_context=multiprocessing.get_context(fork),
        initializer=_start_worker,
        initargs=(table, options),
    ) as pool:
        step1 = tuple(zip(links, _evaluate_all(pool, (_without_link(skeleton, l) for l in links))))
        removable = [link for link, c in step1 if c.passes(alpha)]

        # the joint removal (nothing restored), then each removable link restored
        restorations = [None] + removable
        graphs = [
            reduce(_without_link, [l for l in removable if l != restored], skeleton)
            for restored in restorations
        ]
        step2 = list(zip(restorations, _evaluate_all(pool, graphs)))
        selected = _pick([c for _, c in step2], criterion, alpha)
        if selected is None:
            # nothing fits acceptably; fall back to the skeleton itself, which
            # the joint removal already fitted when no link was removable
            skeleton_fit = step2[0][1] if not removable else _evaluate_all(pool, [skeleton])[0]
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
            strata = _stratum_candidates(base.graph, link, variables)
            fitted = _evaluate_all(pool, [g for _, g in strata])
            tried = tuple(zip([st for st, _ in strata], fitted))
            chosen = _pick([c for _, c in tried], criterion, alpha)
            if chosen is not None:
                base = tried[chosen][1]
            step3.append((link, source, tried, chosen))

    # the final graph is fitted again rather than kept from its candidate
    # fit: the search holds only summaries, so memory stays flat
    final_fit = fit_constrained(table, scgm_constraint_system(base.graph, variables), options)
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

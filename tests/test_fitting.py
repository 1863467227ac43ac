"""Tests for constrained fitting, the chi-square tail, and model search."""

import itertools
import json
import math
import multiprocessing
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from scgm.cli import RunConfig, _search_text
from scgm.constraints import ConstraintSystem, Row, Term, generate_constraints, parse_statement
import scgm.fitting
import scgm.params
from scgm.errors import (
    InadmissibleGraphError,
    InfeasibleSystemError,
    OptionError,
    StatementError,
    ZeroMassSliceError,
)
from scgm.fitting import (
    AIC_FORMULA,
    BIC_FORMULA,
    EventCache,
    FitOptions,
    FitResult,
    chisq_sf,
    _centred_jacobian,
    _evaluate,
    _point,
    _projection_step,
    compile_system,
    fit_constrained,
    fit_to_json,
    information_criteria,
    model_search,
    trace_to_json,
)
from scgm.graphs import Stratum, load_graph, parse_graph, render_graph, stratified_markov
from scgm.oracle import random_positive
from scgm.params import param_index, param_value, signed_events
from scgm.regression import scgm_constraint_system
from scgm.tables import ContingencyTable, VariableSpec, load_table

TIGHT = FitOptions(constraint_tolerance=1e-12, gradient_tolerance=1e-11)


def variables(cards, names=None):
    names = names or tuple(str(i + 1) for i in range(len(cards)))
    return tuple(VariableSpec(n, c) for n, c in zip(names, cards))


def empty_system(vs):
    return ConstraintSystem(tuple(vs), (), 0)


# ---------------------------------------------------------------------------
# chi-square survival function


def test_chisq_closed_forms():
    assert chisq_sf(0.0, 5) == 1.0
    for x in (0.5, 2 * math.log(2), 3.7, 10.0):
        assert chisq_sf(x, 2) == pytest.approx(math.exp(-x / 2), abs=1e-12)
    for x in (0.3, 1.0, 4.2):
        assert chisq_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), abs=1e-12)
    for x in (1.5, 6.0):
        z = x / 2
        assert chisq_sf(x, 4) == pytest.approx((1 + z) * math.exp(-z), abs=1e-12)


def test_chisq_frozen_value_at_df_120():
    # 0.09 to the printed precision
    p = chisq_sf(141.34, 120)
    assert 0.085 <= p <= 0.095


def test_chisq_matches_reference_implementation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        df = int(rng.integers(1, 300))
        x = float(rng.uniform(0, 500))
        want = scipy.special.gammaincc(df / 2, x / 2)
        assert chisq_sf(x, df) == pytest.approx(want, abs=1e-10), (x, df)


def test_chisq_zero_df_warns_and_negative_raises():
    with pytest.warns(UserWarning):
        assert chisq_sf(3.0, 0) == 1.0
    with pytest.raises(ValueError):
        chisq_sf(-1.0, 4)


# ---------------------------------------------------------------------------
# information criteria


def test_information_criteria_frozen_values():
    # 288-cell table, four (G2, df) pairs with pinned AIC
    for g2, df, want in (
        (139.74, 108, -220.26),
        (141.34, 120, -194.66),
        (168.57, 120, -167.42),
        (180.97, 132, -131.03),
    ):
        aic, _ = information_criteria(g2, df, 288, 18697)
        # closed +-0.01 interval; the epsilon absorbs decimal float noise
        # at the boundary case 168.57 - 336 = -167.43 vs the printed -167.42
        assert aic == pytest.approx(want, abs=0.01 + 1e-9)


def test_information_criteria_saturated_and_bic_convention():
    aic, bic = information_criteria(0.0, 0, 288, 1000.0)
    assert aic == -576.0
    assert bic == pytest.approx(-math.log(1000.0) * 288, abs=1e-9)


# ---------------------------------------------------------------------------
# fitting


def test_saturated_fit_returns_observed_exactly():
    vs = variables((2, 2, 2))
    counts = np.array([5.0, 0.0, 7.0, 3.0, 2.0, 9.0, 0.0, 4.0])
    table = ContingencyTable(vs, counts)
    res = fit_constrained(table, empty_system(vs))
    assert res.converged and res.iterations == 0
    assert res.G2 == 0.0 and res.df == 0 and res.p_value == 1.0
    assert np.array_equal(res.pi_hat.as_array().ravel(), counts / counts.sum())
    assert res.AIC == -2.0 * 8


def test_two_by_two_independence_matches_closed_form():
    vs = variables((2, 2))
    counts = np.array([10.0, 20.0, 30.0, 40.0])
    system = generate_constraints(parse_statement("CI: {1} _||_ {2}"), vs)
    res = fit_constrained(ContingencyTable(vs, counts), system, TIGHT)
    assert res.converged
    want = np.outer([0.3, 0.7], [0.4, 0.6]).ravel()
    assert np.max(np.abs(res.pi_hat.as_array().ravel() - want)) < 1e-9
    expected = 100.0 * want
    g2 = 2 * float(np.sum(counts * np.log(counts / expected)))
    assert res.G2 == pytest.approx(g2, abs=1e-9)
    assert res.df == 1


def test_three_by_three_independence_matches_ipf():
    vs = variables((3, 3))
    rng = np.random.default_rng(5)
    counts = rng.integers(5, 80, size=9).astype(float)
    system = generate_constraints(parse_statement("CI: {1} _||_ {2}"), vs)
    res = fit_constrained(ContingencyTable(vs, counts), system, TIGHT)
    assert res.converged and res.df == 4

    # literal IPF on the two one-way margins
    grid = counts.reshape(3, 3)
    N = grid.sum()
    fit = np.full((3, 3), N / 9)
    for _ in range(200):
        fit *= (grid.sum(1) / fit.sum(1))[:, None]
        fit *= grid.sum(0) / fit.sum(0)
    assert np.max(np.abs(res.pi_hat.as_array().ravel() - fit.ravel() / N)) < 1e-8


V5 = variables((2, 2, 2, 2, 2))
FIG_A = parse_graph(
    "component T1 = {1,2}\ncomponent T2 = {3,4,5}\n"
    "edge 1 -- 2\nedge 3 -- 5\nedge 4 -- 5\n"
    "arc 1 -> 3\narc 1 -> 4\narc 2 -> 4\n"
)


def planted_fig_a(seed):
    rng = np.random.default_rng(seed)
    p12 = rng.dirichlet(np.ones(4)).reshape(2, 2)
    p3 = {i1: rng.dirichlet(np.ones(2)) for i1 in (1, 2)}
    p4 = {k: rng.dirichlet(np.ones(2)) for k in itertools.product((1, 2), repeat=2)}
    p5 = rng.dirichlet(np.ones(2))
    probs = []
    for i1, i2, i3, i4, i5 in itertools.product((1, 2), repeat=5):
        probs.append(
            p12[i1 - 1, i2 - 1] * p3[i1][i3 - 1] * p4[(i1, i2)][i4 - 1] * p5[i5 - 1]
        )
    return np.array(probs)


def test_plant_and_fit_reaches_zero_deviance():
    system = scgm_constraint_system(FIG_A, V5)
    for seed in (61, 62):
        counts = 10000.0 * planted_fig_a(seed)
        res = fit_constrained(ContingencyTable(V5, counts), system)
        assert res.converged
        assert res.G2 < 1e-6
        assert all(abs(v) < 1e-6 for v in res.eta_hat.values())


def reference_compile(variables, system):
    """Dense A, C_idx and P built event by event from ``signed_events``, without a cache.

    C_idx holds the rows' coefficients on ``system.indices``, so C = C_idx P.
    """
    shape = tuple(s.cardinality for s in variables)
    names = [s.name for s in variables]
    events = {}  # (margin, levels) -> position, in first-seen order
    terms = []
    for idx in system.indices:
        mspecs = [s for s in variables if s.name in idx.margin]
        margin = tuple(s.name for s in mspecs)
        cell = dict(zip(idx.effect, idx.cell))
        terms.append([
            (events.setdefault((margin, tuple(event[n] for n in margin)), len(events)), sign)
            for sign, event in signed_events(mspecs, idx.effect, cell)
        ])
    A = np.empty((len(events), int(np.prod(shape))))
    for pos, (margin, levels) in enumerate(events):
        pinned = dict(zip(margin, levels))
        indicator = np.zeros(shape)
        indicator[np.ix_(*(
            np.array(pinned[n]) - 1 if n in pinned else np.arange(k)
            for n, k in zip(names, shape)
        ))] = 1.0
        A[pos] = indicator.ravel()
    P = np.zeros((len(system.indices), len(events)))
    for i, row in enumerate(terms):
        for pos, sign in row:
            P[i, pos] = sign
    index_pos = {idx: i for i, idx in enumerate(system.indices)}
    C_idx = np.zeros((len(system.rows), len(system.indices)))
    for r, row in enumerate(system.rows):
        for term in row.terms:
            C_idx[r, index_pos[term.index]] += term.coef
    return A, C_idx, P


def dense_matrix(event_map):
    """The 0/1 event matrix an ``EventMap`` stands for, as a dense array."""
    A = np.zeros(event_map.shape)
    A[event_map.rows, event_map.cols] = 1.0
    return A


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def dense_P(compiled):
    """The dense P that a compiled system keeps as its entries."""
    rows, events, signs = compiled.P_entries
    P = np.zeros((len(compiled.indices), compiled.A.shape[0]))
    P[rows, events] = signs
    return P


def test_compile_system_rejects_a_cache_for_other_variables():
    # the fit compiles through the cache that numbers every parameter's events
    assert EventCache is scgm.params.EventCache
    system = scgm_constraint_system(FIG_A, V5)
    other = (VariableSpec("1", 3),) + V5[1:]
    with pytest.raises(ValueError, match="other variables"):
        compile_system(V5, system, EventCache(other))
    table = ContingencyTable(V5, 10000.0 * planted_fig_a(0))
    with pytest.raises(ValueError, match="other variables"):
        fit_constrained(table, system, cache=EventCache(V5[::-1]))
    with pytest.raises(ValueError, match="with a context"):
        compile_system(V5, system, EventCache(V5, {"1": 1}))


def test_compiled_parameters_match_param_value():
    system = scgm_constraint_system(FIG_A, V5)
    compiled = compile_system(V5, system)
    assert compiled.indices == system.indices
    pv = random_positive(V5, seed=67)
    got = compiled.param_values(pv.as_array().ravel())
    for idx, value in zip(compiled.indices, got):
        assert value == pytest.approx(
            param_value(pv, idx.margin, idx.effect, idx.cell), abs=1e-12
        ), idx
    # no mass where variable 1 is at level 1
    probs = pv.as_array().copy()
    probs[0] = 0.0
    with pytest.raises(ZeroMassSliceError):
        compiled.param_values(probs.ravel() / probs.sum())


def test_fitted_parameters_satisfy_the_rows():
    system = scgm_constraint_system(FIG_A, V5)
    counts = (2000.0 * random_positive(V5, seed=63).as_array()).round() + 1.0
    res = fit_constrained(ContingencyTable(V5, counts), system)
    assert res.converged
    assert set(res.eta_hat) == set(system.indices)
    # all rows here are single-parameter zeroes
    assert max(abs(v) for v in res.eta_hat.values()) < 1e-6
    assert res.df == 9


def test_nested_systems_fit_monotonically():
    counts = (3000.0 * random_positive(V5, seed=64).as_array()).round() + 1.0
    table = ContingencyTable(V5, counts)
    small = generate_constraints(parse_statement("CI: {5} _||_ {1,2}"), V5)
    full = scgm_constraint_system(FIG_A, V5)
    r_small = fit_constrained(table, small, TIGHT)
    r_full = fit_constrained(table, full, TIGHT)
    assert r_small.df == 3
    assert r_full.G2 >= r_small.G2 - 1e-6


def test_fit_is_deterministic():
    system = scgm_constraint_system(FIG_A, V5)
    counts = (2000.0 * random_positive(V5, seed=65).as_array()).round() + 1.0
    a = fit_constrained(ContingencyTable(V5, counts), system)
    b = fit_constrained(ContingencyTable(V5, counts), system)
    assert a.G2 == b.G2
    assert np.array_equal(a.pi_hat.as_array().ravel(), b.pi_hat.as_array().ravel())


def test_unreachable_tolerance_flags_nonconvergence():
    system = scgm_constraint_system(FIG_A, V5)
    counts = (2000.0 * random_positive(V5, seed=66).as_array()).round() + 1.0
    opts = FitOptions(max_iterations=60, gradient_tolerance=1e-16)
    res = fit_constrained(ContingencyTable(V5, counts), system, opts)
    assert not res.converged
    assert math.isfinite(res.G2)
    assert res.kkt_residual > 0


def test_variable_mismatch_is_rejected():
    system = scgm_constraint_system(FIG_A, V5)
    other = variables((2, 2))
    with pytest.raises(StatementError):
        fit_constrained(ContingencyTable(other, np.ones(4)), system)


def test_a_system_stated_on_other_codings_is_rejected():
    # the rows read 3's parameters under the table's coding, so a system
    # generated with 3 local would fit a pooled-margin model in silence
    def coded(coding):
        return (VariableSpec("1", 2), VariableSpec("2", 2), VariableSpec("3", 3, coding))

    system = generate_constraints(parse_statement("CI: {1} _||_ {2} | {3}"), coded("local"))
    counts = np.arange(1.0, 13.0)
    assert fit_constrained(ContingencyTable(coded("local"), counts), system).converged
    with pytest.raises(StatementError, match="different variables"):
        fit_constrained(ContingencyTable(coded("continuation"), counts), system)


def test_fit_json_round():
    vs = variables((2, 2))
    system = generate_constraints(parse_statement("CI: {1} _||_ {2}"), vs)
    res = fit_constrained(ContingencyTable(vs, np.array([10.0, 20.0, 30.0, 40.0])), system)
    doc = fit_to_json(res, system)
    assert doc["schema"] == "scgm-fit/1"
    assert doc["aic_formula"] == AIC_FORMULA and doc["bic_formula"] == BIC_FORMULA
    assert sum(doc["pi_hat"]) == pytest.approx(1.0, abs=1e-12)
    assert len(doc["eta_hat"]) == len(system.indices)
    assert doc["n_constraint_rows"] == len(system.rows)


# ---------------------------------------------------------------------------
# model search

CHAIN3 = parse_graph(
    "component T1 = {1}\ncomponent T2 = {2}\ncomponent T3 = {3}\n"
    "arc 1 -> 2\narc 1 -> 3\narc 2 -> 3\n"
)
V3 = variables((2, 2, 2))


def table_first_source_irrelevant():
    # pi(1) x pi(2|1) x pi(3|2): removal of 1 -> 3 is the only truth
    p1 = [0.6, 0.4]
    p2 = {1: [0.8, 0.2], 2: [0.2, 0.8]}
    p3 = {1: [0.75, 0.25], 2: [0.25, 0.75]}
    probs = []
    for i1, i2, i3 in itertools.product((1, 2), repeat=3):
        probs.append(p1[i1 - 1] * p2[i1][i2 - 1] * p3[i2][i3 - 1])
    return ContingencyTable(V3, 5000.0 * np.array(probs))


def test_search_recovers_a_plain_missing_arc():
    trace = model_search(table_first_source_irrelevant(), CHAIN3)
    assert trace_to_json(trace)["step2"]["removable"] == [["arc", "1", "3"]]
    assert trace.final_graph.arcs == (("1", "2"), ("2", "3"))
    assert trace.final_graph.strata == ()
    assert trace.final_fit.converged
    assert trace.final_fit.p_value > 0.05


def test_min_aic_criterion_changes_the_selection():
    # with min-aic the saturated add-back (AIC -2K) beats the reduced model
    trace = model_search(table_first_source_irrelevant(), CHAIN3, criterion="min-aic")
    step2 = trace_to_json(trace)["step2"]
    assert step2["selected"] == step2["candidates"][1]["graph"]
    assert trace.final_graph.arcs == CHAIN3.arcs


SKEL4 = parse_graph(
    "component T1 = {1}\ncomponent T2 = {2,4}\ncomponent T3 = {3}\n"
    "edge 2 -- 4\narc 1 -> 2\narc 1 -> 4\narc 1 -> 3\narc 2 -> 3\narc 4 -> 3\n"
)
V4 = variables((2, 2, 2, 2))
PLANTED4 = parse_graph(
    "component T1 = {1}\ncomponent T2 = {2,4}\ncomponent T3 = {3}\n"
    "edge 2 -- 4\narc 1 -> 2\narc 1 -> 4\narc 1 -> 3\narc 4 -> 3\n"
    "stratum (3,2) | {1} = {(1)}\n"
)


def table_with_context_specific_absence():
    # 3 ignores 2 when 1 = 1, follows it strongly when 1 = 2; all other
    # links carry strong dependence
    p1 = [0.55, 0.45]
    p24 = {  # joint of (2,4) given 1, correlated within the component
        1: np.array([[0.40, 0.15], [0.15, 0.30]]),
        2: np.array([[0.12, 0.28], [0.33, 0.27]]),
    }
    def p3(i1, i2, i4):
        if i1 == 1:
            base = 0.7 if i4 == 1 else 0.3  # depends on 4 alone
        else:
            base = {(1, 1): 0.85, (1, 2): 0.55, (2, 1): 0.35, (2, 2): 0.10}[(i2, i4)]
        return [base, 1 - base]

    probs = []
    for i1, i2, i3, i4 in itertools.product((1, 2), repeat=4):
        probs.append(
            p1[i1 - 1] * p24[i1][i2 - 1, i4 - 1] * p3(i1, i2, i4)[i3 - 1]
        )
    return ContingencyTable(V4, 20000.0 * np.array(probs))


def statement_keys(graph, vs):
    out = set()
    for s in stratified_markov(graph, vs):
        ctx = None
        if s.context is not None:
            by = dict(zip(s.given, s.context.pattern))
            ctx = frozenset((k, v) for k, v in by.items() if v is not None)
        out.add(
            (
                frozenset({frozenset(s.lhs), frozenset(s.rhs)}),
                frozenset(s.given),
                ctx,
            )
        )
    return out


def test_search_recovers_a_context_specific_absence():
    trace = model_search(table_with_context_specific_absence(), SKEL4)
    doc = trace_to_json(trace)
    assert doc["step2"]["removable"] == []
    assert statement_keys(trace.final_graph, V4) == statement_keys(PLANTED4, V4)
    entry = next(e for e in doc["step3"] if e["link"] == ["arc", "2", "3"])
    assert entry["chosen"] == "stratum (3,2) | {1} = {(1)}"


def table_with_saturated_interactions():
    # strong interactions of every order
    x = {1: 1.0, 2: -1.0}
    probs = []
    for i1, i2, i3 in itertools.product((1, 2), repeat=3):
        s = 1.2 * (x[i1] * x[i2] + x[i1] * x[i3] + x[i2] * x[i3])
        s += 0.9 * x[i1] * x[i2] * x[i3]
        probs.append(math.exp(s))
    return ContingencyTable(V3, 8000.0 * np.array(probs) / sum(probs))


def test_search_keeps_a_saturated_skeleton_intact():
    # nothing is removable, no context turns any dependence off
    table = table_with_saturated_interactions()
    trace = model_search(table, CHAIN3)
    doc = trace_to_json(trace)
    assert doc["step2"]["removable"] == []
    assert trace.final_graph == CHAIN3
    assert all(e["chosen"] is None for e in doc["step3"])


def recorder(path):
    """A function that appends its arguments, after the caller's pid, to ``path``.

    A search fits its candidates in forked worker processes, which inherit
    a wrapper installed before the search; the file carries their calls
    back to the test.
    """
    def record(*fields):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps([os.getpid(), *fields]) + "\n")

    return record


def recorded(path):
    """The records ``recorder(path)`` wrote, in the order they were written."""
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def searched_candidates(trace):
    """Each candidate a search fitted once, in evaluation order."""
    candidates = [c for _, c in trace.step1] + [c for _, c in trace.step2]
    candidates += [c for _, _, tried, _ in trace.step3 for _, c in tried]
    # the skeleton fallback may reuse the joint removal's record
    return list({id(c): c for c in candidates}.values())


def searched_systems(trace):
    """The systems a search compiled: its candidates' in evaluation order, then the final graph's.

    A graph whose system has no rows is fitted without a compile.
    """
    graphs = [c.graph for c in searched_candidates(trace)] + [trace.final_graph]
    systems = [scgm_constraint_system(g, trace.variables) for g in graphs]
    return [system for system in systems if system.rows]


def test_search_falls_back_to_the_skeleton_when_no_candidate_passes(monkeypatch, tmp_path):
    # without arc 1 -> 3 the skeleton misses a strong dependence: the joint
    # removal (the skeleton itself) fails the p-filter, so does the fallback
    skeleton = replace(CHAIN3, arcs=(("1", "2"), ("2", "3")))
    record = recorder(tmp_path / "fits.jsonl")

    def counting_fit(*args, **kwargs):
        record()
        return fit_constrained(*args, **kwargs)

    monkeypatch.setattr("scgm.fitting.fit_constrained", counting_fit)
    trace = model_search(table_with_saturated_interactions(), skeleton)
    # two single removals, the joint removal reused as the fallback, and
    # the final refit: the skeleton is not fitted a third time
    assert len(recorded(tmp_path / "fits.jsonl")) == 4
    assert len(searched_candidates(trace)) == 3
    step2 = trace_to_json(trace)["step2"]
    assert [c["restored"] for c in step2["candidates"]] == [None, "all"]
    assert trace.step2[1][1] is trace.step2[0][1]
    assert all(c["fit"]["p_value"] < 1e-100 for c in step2["candidates"])
    assert step2["selected"] == render_graph(skeleton)
    assert trace.final_graph == skeleton
    text = _search_text(trace, RunConfig(command="search").run_block())
    assert "\nskeleton kept (no candidate passed)  " in text


def golden_skel4_text():
    """The search trace pinned by golden/search_skel4.json, as written there."""
    trace = model_search(table_with_context_specific_absence(), SKEL4)
    return json.dumps(trace_to_json(trace), indent=2, sort_keys=True) + "\n"


def test_search_json_matches_the_golden_trace():
    assert golden_skel4_text() == (GOLDEN / "search_skel4.json").read_text(encoding="utf-8")


def test_search_trace_is_deterministic_and_refits():
    table = table_with_context_specific_absence()
    t1 = model_search(table, SKEL4)
    t2 = model_search(table, SKEL4)
    assert trace_to_json(t1) == trace_to_json(t2)
    system = scgm_constraint_system(t1.final_graph, V4)
    refit = fit_constrained(table, system)
    assert refit.G2 == t1.final_fit.G2
    doc = trace_to_json(t1)
    assert doc["schema"] == "scgm-trace/1"
    assert doc["final_fit"]["schema"] == "scgm-fit/1"


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every process pool opened during the test."""
    import concurrent.futures

    executor = concurrent.futures.ProcessPoolExecutor
    sizes = []

    def recording_executor(*args, max_workers=None, **kwargs):
        sizes.append(max_workers)
        return executor(*args, max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_executor)
    return sizes


def test_search_trace_does_not_depend_on_the_worker_count(monkeypatch, pools):
    table = table_with_context_specific_absence()
    traces = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        traces.append(trace_to_json(model_search(table, SKEL4)))
    assert pools == [1, 2]
    assert traces[0] == traces[1]


def test_search_runs_one_worker_when_the_core_count_is_unknown(monkeypatch, pools):
    table = table_with_context_specific_absence()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    two = trace_to_json(model_search(table, SKEL4))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    one = trace_to_json(model_search(table, SKEL4))
    assert pools == [2, 1]
    assert one == two


def test_search_compiles_through_one_cache_with_unchanged_arrays(monkeypatch, tmp_path):
    compile_cached = scgm.fitting.compile_system
    record = recorder(tmp_path / "compiles.jsonl")

    def capture(variables, system, cache=None):
        record(None if cache is None else id(cache))
        return compile_cached(variables, system, cache)

    monkeypatch.setattr(scgm.fitting, "compile_system", capture)
    trace = model_search(table_with_context_specific_absence(), SKEL4)
    calls = recorded(tmp_path / "compiles.jsonl")
    # each worker compiles through its one cache; the refit in the parent
    # makes its own
    in_workers = [(pid, cache) for pid, cache in calls if pid != os.getpid()]
    assert len(in_workers) > 10
    assert all(cache is not None for _, cache in in_workers)
    for worker in {pid for pid, _ in in_workers}:
        assert len({cache for pid, cache in in_workers if pid == worker}) == 1
    assert len(calls) == len(in_workers) + 1
    # the same compiles, through one cache in this process
    systems = searched_systems(trace)
    assert len(systems) == len(calls)
    cache = EventCache(V4)
    for system in systems:
        compiled = compile_cached(V4, system, cache)
        fresh = compile_cached(V4, system)
        event_map = (compiled.A.rows, compiled.A.cols, compiled.A.ids)
        assert_same_arrays(event_map, (fresh.A.rows, fresh.A.cols, fresh.A.ids))
        assert_same_arrays(compiled.P_entries, fresh.P_entries)
        got = (dense_matrix(compiled.A), compiled.C, dense_P(compiled))
        assert_same_arrays(got[:2], (dense_matrix(fresh.A), fresh.C))
        A, C_idx, P = reference_compile(V4, system)
        assert_same_arrays(got, (A, C_idx @ P, P))


def test_each_search_starts_an_empty_cache(monkeypatch, tmp_path):
    walks_log, reads_log = tmp_path / "walks.jsonl", tmp_path / "reads.jsonl"
    record_walk, record_read = recorder(walks_log), recorder(reads_log)
    terms = EventCache.terms

    def counting(margin_specs, effect, cell, context=None):
        record_walk(repr(([s.name for s in margin_specs], effect, cell)))
        return signed_events(margin_specs, effect, cell, context)

    def sized_terms(self, idx):
        record_read(id(self), len(self._terms))
        return terms(self, idx)

    monkeypatch.setattr(scgm.params, "signed_events", counting)
    monkeypatch.setattr(EventCache, "terms", sized_terms)
    table = table_with_context_specific_absence()
    searches = []
    for _ in range(2):
        walks_log.unlink(missing_ok=True)
        reads_log.unlink(missing_ok=True)
        model_search(table, SKEL4)
        searches.append((recorded(walks_log), recorded(reads_log)))
    for walks, reads in searches:
        for pid in {pid for pid, _, _ in reads}:
            sizes = [(cache, size) for p, cache, size in reads if p == pid]
            # one cache per process and search, empty when first read
            assert len({cache for cache, _ in sizes}) == 1
            assert sizes[0][1] == 0
            # one walk per distinct parameter index the process compiled
            own = [idx for p, idx in walks if p == pid]
            assert len(own) == len(set(own)) > 0
    parent = os.getpid()
    (walks1, _), (walks2, _) = searches
    workers1, workers2 = ({p for p, _ in w} - {parent} for w in (walks1, walks2))
    # new workers per search, and no walk saved by the first search
    assert workers1 and workers2 and not workers1 & workers2
    assert sorted(i for p, i in walks1 if p == parent) == sorted(i for p, i in walks2 if p == parent)
    assert {i for p, i in walks1 if p != parent} == {i for p, i in walks2 if p != parent}


def test_a_candidate_that_fails_in_a_worker_is_recorded_as_in_process(monkeypatch):
    broken = replace(CHAIN3, arcs=(("1", "3"), ("2", "3")))
    build = scgm.fitting.scgm_constraint_system

    def failing_build(graph, variables):
        if graph == broken:
            raise StatementError("no system for this graph")
        return build(graph, variables)

    monkeypatch.setattr(scgm.fitting, "scgm_constraint_system", failing_build)
    table = table_first_source_irrelevant()
    trace = model_search(table, CHAIN3)
    step1 = dict(trace.step1)
    failed = step1[("arc", "1", "2")]
    assert failed.graph == broken
    assert failed.fit is None
    assert failed.error == "StatementError: no system for this graph"
    assert trace_to_json(trace)["step1"][0]["error"] == failed.error
    for link, candidate in trace.step1:
        assert candidate == _evaluate(candidate.graph, table, FitOptions(), EventCache(V3))
    others = [c for c in searched_candidates(trace) if c is not failed]
    assert others and all(c.fit is not None and c.error is None for c in others)
    assert trace.final_graph.arcs == (("1", "2"), ("2", "3"))


def test_search_of_a_skeleton_without_links():
    skeleton = parse_graph("component T1 = {1}\ncomponent T2 = {2}\n")
    table = ContingencyTable(variables((2, 2)), np.array([3.0, 5.0, 4.0, 4.0]))
    trace = model_search(table, skeleton)
    assert trace.step1 == () and trace.step3 == ()
    assert [r for r, _ in trace.step2] == [None]
    assert trace.step2[0][1].fit is not None
    assert trace.final_graph == skeleton
    assert multiprocessing.active_children() == []


def test_no_process_outlives_a_search(monkeypatch):
    table = table_first_source_irrelevant()
    model_search(table, CHAIN3)
    assert multiprocessing.active_children() == []

    # a failing refit of the final graph, in this process
    parent = os.getpid()
    fit = scgm.fitting.fit_constrained

    def failing_refit(*args, **kwargs):
        if os.getpid() == parent:
            raise InfeasibleSystemError("refit failed")
        return fit(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(scgm.fitting, "fit_constrained", failing_refit)
        with pytest.raises(InfeasibleSystemError, match="refit failed"):
            model_search(table, CHAIN3)
    assert multiprocessing.active_children() == []

    # an error the candidate record does not catch, raised in a worker
    build = scgm.fitting.scgm_constraint_system

    def crashing_build(graph, variables):
        if os.getpid() != parent:
            raise RuntimeError("worker crashed")
        return build(graph, variables)

    monkeypatch.setattr(scgm.fitting, "scgm_constraint_system", crashing_build)
    with pytest.raises(RuntimeError, match="worker crashed"):
        model_search(table, CHAIN3)
    assert multiprocessing.active_children() == []


def test_fit_options_reject_values_that_are_not_positive_and_finite():
    for field in ("constraint_tolerance", "gradient_tolerance", "smoothing"):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(OptionError, match=field):
                FitOptions(**{field: value})
    with pytest.raises(ValueError, match="max_iterations"):
        FitOptions(max_iterations=0)


def test_fit_options_reject_a_max_iterations_that_is_not_an_integer():
    # range() in the solver loop would raise TypeError, which the search
    # does not catch
    for value in (2.5, 3.0, True, np.float64(4.0)):
        with pytest.raises(OptionError, match="max_iterations must be an integer"):
            FitOptions(max_iterations=value)
    assert FitOptions(max_iterations=np.int64(7)).max_iterations == 7
    table = table_with_context_specific_absence()
    fit = fit_constrained(table, scgm_constraint_system(SKEL4, V4), FitOptions(np.int32(3)))
    assert fit.iterations <= 3


def test_search_input_validation():
    # options are OptionErrors, as FitOptions' are; a graph the table refuses
    # is inadmissible before it is stratified (PLANTED4 has a fourth vertex)
    table = table_first_source_irrelevant()
    with pytest.raises(OptionError, match="criterion"):
        model_search(table, CHAIN3, criterion="best")
    for alpha in (0.0, 1.0, 1.5, -0.1, math.nan):
        with pytest.raises(OptionError, match="alpha"):
            model_search(table, CHAIN3, alpha=alpha)
    with pytest.raises(InadmissibleGraphError, match="do not match the table variables"):
        model_search(table, PLANTED4)
    with pytest.raises(StatementError, match="stratum-free"):
        model_search(table_with_context_specific_absence(), PLANTED4)


def test_search_refuses_a_mismatched_table_before_any_pool(monkeypatch):
    # the skeleton used to pass validate, so every candidate was fitted
    # in a pool before the final refit failed on the vertex mismatch
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    table = table_first_source_irrelevant()
    other = tuple(VariableSpec(f"x{s.name}", s.cardinality) for s in table.variables)
    with pytest.raises(InadmissibleGraphError, match="do not match the table variables"):
        model_search(ContingencyTable(other, table.counts), CHAIN3)


# ---------------------------------------------------------------------------
# solver regressions on sparse and near-boundary tables

GOLDEN = Path(__file__).parent / "golden"
FIG4 = load_graph(GOLDEN / "fig4.graph")

# fig4 at 288 cells, N = 300 drawn from Dirichlet(0.3) cell probabilities:
# 60-69% zero cells, so the estimates sit on the boundary (min pi ~ 1e-12).
# G2 of each default-option fit, converged with df 66.
SPARSE_G2 = (
    104.31827968221195,
    104.39620792120364,
    126.63124264714052,
    93.9408172657423,
    89.55291503394226,
    113.50023453934557,
)


def golden_table(name):
    with open(GOLDEN / name, encoding="utf-8") as fh:
        return load_table(fh, format="csv")


# fig4 at 3^7 cells under the dense fit benchmark's codings: R = 468 rows
# over 1404 events and 648 parameter indices, and cells in two events
DENSE_VARIABLES = tuple(
    VariableSpec(str(i + 1), 3, coding)
    for i, coding in enumerate(
        ("continuation", "local", "local", "local", "baseline", "baseline", "baseline")
    )
)


def dense_table(seed):
    """A fig4 3^7 table of N = 20000 drawn from Dirichlet(3) cell probabilities."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(3**7, 3.0))
    return ContingencyTable(DENSE_VARIABLES, rng.multinomial(20000, probs).astype(float))


@pytest.mark.parametrize("index", range(len(SPARSE_G2)))
def test_sparse_tables_converge_to_their_deviance(index):
    table = golden_table(f"fig4_sparse288_{index}.csv")
    assert np.mean(table.counts == 0) > 0.6
    res = fit_constrained(table, scgm_constraint_system(FIG4, table.variables))
    assert res.converged
    assert res.df == 66
    assert res.G2 == pytest.approx(SPARSE_G2[index], abs=1e-6)


def search_candidate(removed_arcs=(), strata=()):
    """The complete 21-link skeleton without edge 2 -- 3, and more."""
    skeleton = load_graph(GOLDEN / "skeleton21.graph")
    return replace(
        skeleton,
        edges=tuple(e for e in skeleton.edges if e != ("2", "3")),
        arcs=tuple(a for a in skeleton.arcs if a not in removed_arcs),
        strata=strata,
    )


def planted128_0_candidate():
    """The search candidate on planted128_0 that creeps for 384 iterations."""
    return search_candidate(
        removed_arcs=(("2", "1"), ("4", "1"), ("6", "1")),
        strata=(Stratum(("2", "3"), ("6",), ((2,),)),),
    )


def test_search_candidates_near_the_boundary_converge():
    # candidates of the three-step search on two planted 128-cell tables
    # (fig4's components, N = 5000), with cells whose mass goes to zero.
    # Without the 1e-12 ridge on the Fisher information the first fit stops
    # unconverged at G2 149.2142; without the refinement of the projection
    # step the second stalls after 229 iterations at G2 618.4648.
    table = golden_table("planted128_2.csv")
    res = fit_constrained(table, scgm_constraint_system(search_candidate(), table.variables))
    assert res.converged
    assert res.G2 == pytest.approx(149.2141, abs=1e-4)

    table = golden_table("planted128_0.csv")
    graph = planted128_0_candidate()
    res = fit_constrained(table, scgm_constraint_system(graph, table.variables))
    assert res.converged
    assert res.iterations == 384
    assert res.G2 == pytest.approx(618.46454, abs=1e-5)


def golden_fit_text(name):
    """The fit pinned by golden/fit_<name>.json, as written there."""
    table = golden_table(f"{name}.csv")
    graph = FIG4 if name.startswith("fig4") else planted128_0_candidate()
    system = scgm_constraint_system(graph, table.variables)
    doc = fit_to_json(fit_constrained(table, system), system)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["fig4_sparse288_0", "planted128_0"])
def test_fit_json_matches_the_golden_fit(name):
    # pins every number of the fit (pi_hat, eta_hat, kkt_residual, ...)
    # bit for bit: a 10-iteration boundary fit and a 384-iteration creep
    assert golden_fit_text(name) == (GOLDEN / f"fit_{name}.json").read_text(encoding="utf-8")


def dense_kkt_step(J, pi, g, h):
    """Reference Newton step: least squares on the full (K+R)-order KKT system."""
    K, R = pi.size, h.size
    kkt = np.zeros((K + R, K + R))
    kkt[:K, :K] = np.diag(pi) - np.outer(pi, pi) + 1e-12 * np.eye(K)
    kkt[:K, K:] = J.T
    kkt[K:, :K] = J
    sol, *_ = np.linalg.lstsq(kkt, np.concatenate([g, -h]), rcond=None)
    return sol[:K], sol[K:]


@pytest.mark.parametrize("case", ["sparse288", "planted128", "sparse288-repeated-row"])
def test_projection_step_matches_the_dense_kkt_step(case, monkeypatch):
    if case == "planted128":
        table, graph = golden_table("planted128_2.csv"), search_candidate()
    else:
        table, graph = golden_table("fig4_sparse288_0.csv"), FIG4
    repeated = case.endswith("repeated-row")
    compiled = compile_system(table.variables, scgm_constraint_system(graph, table.variables))
    counts = np.asarray(table.counts, dtype=float)
    N = counts.sum()
    pinv_calls = []
    pinv = np.linalg.pinv

    def counting_pinv(*args, **kwargs):
        pinv_calls.append(args[0].shape)
        return pinv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    # the solver's starting point, then full reference steps
    x = np.log((counts + 0.5) / (N + 0.5 * counts.size))
    for _ in range(3):
        point = _point(compiled, counts / N, x)
        pi, h = point.pi, point.h
        B = _centred_jacobian(compiled, point, out=np.empty((compiled.n_rows, counts.size)))
        if repeated:
            # the first row once more: J has rank R - 1
            B, h = np.vstack([B, B[:1]]), np.append(h, h[0])
        g = counts / N - pi
        dx_ref, lam_ref = dense_kkt_step(B * pi, pi, g, h)
        dx, lam = _projection_step(B, pi, g, h, out=np.empty_like(B))
        # steps that differ along the all-ones direction move pi alike
        centred = np.abs((dx - pi @ dx) - (dx_ref - pi @ dx_ref))
        assert centred.max() < 1e-7
        if repeated:
            # lam is not unique there, J^T lam is
            J = B * pi
            assert np.abs(J.T @ lam - J.T @ lam_ref).max() < 1e-10
        else:
            assert np.abs(lam - lam_ref).max() < 1e-10
        x = x + dx_ref
    # only the rank-deficient steps go through pinv(T^T)
    R = h.size
    assert pinv_calls == ([(R, R)] * 3 if repeated else [])


def dense_centred_jacobian(compiled, point):
    """B formed through a dense A, the reference for the event map's gathers."""
    M = compiled.C @ (dense_matrix(compiled.A) / point.masses[:, None])
    return M - (M @ point.pi)[:, None]


def start_point(compiled, table):
    """The solver's starting point on a table."""
    counts = np.asarray(table.counts, dtype=float)
    N = counts.sum()
    return _point(compiled, counts / N, np.log((counts + 0.5) / (N + 0.5 * counts.size)))


@pytest.fixture(scope="module")
def planted128_search_systems():
    """Every system a search from the 21-link skeleton on planted128_0 compiles."""
    table = golden_table("planted128_0.csv")
    trace = model_search(table, load_graph(GOLDEN / "skeleton21.graph"))
    return table, searched_systems(trace)


@pytest.mark.parametrize("case", ["fig_a", "fig4-288", "fig4-3^7", "planted128-search"])
def test_centred_jacobian_equals_the_dense_product(case, request):
    if case == "fig_a":
        table = ContingencyTable(V5, 10000.0 * planted_fig_a(0))
        systems = [scgm_constraint_system(FIG_A, V5)]
    elif case == "fig4-288":
        table = golden_table("fig4_sparse288_0.csv")
        systems = [scgm_constraint_system(FIG4, table.variables)]
    elif case == "fig4-3^7":
        table = dense_table(0)
        systems = [scgm_constraint_system(FIG4, table.variables)]
    else:
        table, systems = request.getfixturevalue("planted128_search_systems")
        assert len(systems) > 100
    depths = set()
    for system in systems:
        compiled = compile_system(table.variables, system)
        point = start_point(compiled, table)
        # written into a buffer, as the solver does, that holds no Jacobian yet
        out = np.full((compiled.n_rows, table.counts.size), np.nan)
        B = _centred_jacobian(compiled, point, out=out)
        assert B is out
        assert np.array_equal(B, dense_centred_jacobian(compiled, point))
        assert np.allclose(point.masses, dense_matrix(compiled.A) @ point.pi, rtol=1e-14, atol=0)
        depths.add(compiled.A.ids.shape[0])
    if case in ("fig4-3^7", "planted128-search"):
        # cells in several events: the gathers are added, not only copied,
        # and on 2187 cells in several column blocks
        assert max(depths) > 1


def test_event_map_gives_uncovered_cells_zero_columns():
    vs = variables((3, 2))
    # a contrast of p(1 = 2) and p(1 = 3): no event holds the cells where 1 = 1
    idx = param_index(vs, ("1",), ("1",), (2,))
    compiled = compile_system(vs, ConstraintSystem(vs, (Row((Term(idx, 1),)),), 1))
    A = dense_matrix(compiled.A)
    uncovered = A.sum(axis=0) == 0
    assert uncovered.tolist() == [True] * 2 + [False] * 4
    table = ContingencyTable(vs, np.arange(1.0, 7.0))
    point = start_point(compiled, table)
    M = compiled.A.spread(compiled.C, 1.0 / point.masses, out=np.empty((1, 6)))
    assert np.array_equal(M, compiled.C @ (A / point.masses[:, None]))
    assert not M[:, uncovered].any()
    B = _centred_jacobian(compiled, point, out=np.empty((1, 6)))
    assert np.array_equal(B, dense_centred_jacobian(compiled, point))


def test_event_map_of_a_system_without_events():
    vs = variables((2, 3))
    compiled = compile_system(vs, empty_system(vs))
    assert compiled.A.shape == (0, 6)
    point = start_point(compiled, ContingencyTable(vs, np.arange(1.0, 7.0)))
    assert point.masses.shape == point.h.shape == (0,)
    assert _centred_jacobian(compiled, point, out=np.empty((0, 6))).shape == (0, 6)
    assert compiled.param_values(point.pi).shape == (0,)


@pytest.mark.parametrize("case", ["fig4-3^7", "fig4-288", "planted128-candidate"])
def test_compile_matches_the_coefficient_product_and_the_dense_p(case):
    # C is accumulated from the rows' terms and P kept as its entries; the
    # reference forms C_idx and P densely and takes their product
    table, graph = {
        "fig4-3^7": lambda: (dense_table(0), FIG4),
        "fig4-288": lambda: (golden_table("fig4_sparse288_0.csv"), FIG4),
        "planted128-candidate": lambda: (golden_table("planted128_0.csv"), planted128_0_candidate()),
    }[case]()
    system = scgm_constraint_system(graph, table.variables)
    compiled = compile_system(table.variables, system)
    A, C_idx, P = reference_compile(table.variables, system)
    assert np.array_equal(dense_matrix(compiled.A), A)
    assert np.array_equal(compiled.C, C_idx @ P)
    assert np.array_equal(dense_P(compiled), P)
    pi = start_point(compiled, table).pi
    assert np.array_equal(compiled.param_values(pi), P @ np.log(compiled.A.sums(pi)))


def test_a_dense_fit_holds_about_five_jacobian_sized_arrays():
    # the fit's working set in units of one R x K array of floats: the two
    # buffers B and Jt, and the thin QR's copies of Jt and its Q, at its peak
    table = dense_table(1)
    system = scgm_constraint_system(FIG4, table.variables)
    unit = len(system.rows) * table.counts.size * 8
    tracemalloc.start()
    try:
        result = fit_constrained(table, system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak <= 5.25 * unit, peak / unit

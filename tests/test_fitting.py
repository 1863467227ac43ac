"""Tests for constrained fitting, the chi-square tail, and model search."""

import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from scgm.cli import RunConfig, _search_text
from scgm.constraints import generate_constraints, parse_statement
import scgm.fitting
from scgm.errors import OptionError, StatementError, ZeroMassSliceError
from scgm.fitting import (
    AIC_FORMULA,
    BIC_FORMULA,
    EventCache,
    FitOptions,
    FitResult,
    chisq_sf,
    _centred_jacobian,
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
from scgm.params import event_table, param_value
from scgm.regression import scgm_constraint_system
from scgm.tables import ContingencyTable, VariableSpec, load_table

TIGHT = FitOptions(constraint_tolerance=1e-12, gradient_tolerance=1e-11)


def variables(cards, names=None):
    names = names or tuple(str(i + 1) for i in range(len(cards)))
    return tuple(VariableSpec(n, c) for n, c in zip(names, cards))


def empty_system(vs):
    from scgm.constraints import ConstraintSystem

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
    """A, C and P built event by event from ``event_table``, without a cache."""
    shape = tuple(s.cardinality for s in variables)
    names = [s.name for s in variables]
    events, terms = event_table(variables, system.indices)
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
    return A, C_idx @ P, P


def assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_compile_system_rejects_a_cache_for_other_variables():
    system = scgm_constraint_system(FIG_A, V5)
    other = (VariableSpec("1", 3),) + V5[1:]
    with pytest.raises(ValueError, match="other variables"):
        compile_system(V5, system, EventCache(other))
    table = ContingencyTable(V5, 10000.0 * planted_fig_a(0))
    with pytest.raises(ValueError, match="other variables"):
        fit_constrained(table, system, cache=EventCache(V5[::-1]))


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


def test_search_falls_back_to_the_skeleton_when_no_candidate_passes(monkeypatch):
    # without arc 1 -> 3 the skeleton misses a strong dependence: the joint
    # removal (the skeleton itself) fails the p-filter, so does the fallback
    skeleton = replace(CHAIN3, arcs=(("1", "2"), ("2", "3")))
    fits = []

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return fit_constrained(*args, **kwargs)

    monkeypatch.setattr("scgm.fitting.fit_constrained", counting_fit)
    trace = model_search(table_with_saturated_interactions(), skeleton)
    # two single removals, the joint removal reused as the fallback, and
    # the final refit: the skeleton is not fitted a third time
    assert len(fits) == 4
    step2 = trace_to_json(trace)["step2"]
    assert [c["restored"] for c in step2["candidates"]] == [None, "all"]
    assert trace.step2[1][1] is trace.step2[0][1]
    assert all(c["fit"]["p_value"] < 1e-100 for c in step2["candidates"])
    assert step2["selected"] == render_graph(skeleton)
    assert trace.final_graph == skeleton
    text = _search_text(trace, RunConfig(command="search").run_block())
    assert "\nskeleton kept (no candidate passed)  " in text


def test_search_json_matches_the_golden_trace():
    trace = model_search(table_with_context_specific_absence(), SKEL4)
    text = json.dumps(trace_to_json(trace), indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / "search_skel4.json").read_text(encoding="utf-8")


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


def test_search_compiles_through_one_cache_with_unchanged_arrays(monkeypatch):
    compile_cached = scgm.fitting.compile_system
    calls = []

    def capture(variables, system, cache=None):
        compiled = compile_cached(variables, system, cache)
        calls.append((variables, system, cache, compiled))
        return compiled

    monkeypatch.setattr(scgm.fitting, "compile_system", capture)
    model_search(table_with_context_specific_absence(), SKEL4)
    assert len(calls) > 10
    assert len({id(cache) for _, _, cache, _ in calls}) == 1
    assert calls[0][2] is not None
    for variables, system, _, compiled in calls:
        fresh = compile_cached(variables, system)
        got = (compiled.A, compiled.C, compiled.P)
        assert_same_arrays(got, (fresh.A, fresh.C, fresh.P))
        assert_same_arrays(got, reference_compile(variables, system))


def test_each_search_starts_an_empty_cache(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return event_table(*args, **kwargs)

    monkeypatch.setattr(scgm.fitting, "event_table", counting)
    table = table_with_context_specific_absence()
    model_search(table, SKEL4)
    first = len(calls)
    model_search(table, SKEL4)
    assert first > 0
    assert len(calls) == 2 * first
    # one walk per distinct parameter index of the search
    assert len({idx for (idx,) in calls[:first]}) == first


def test_fit_options_reject_values_that_are_not_positive_and_finite():
    for field in ("constraint_tolerance", "gradient_tolerance", "smoothing"):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(OptionError, match=field):
                FitOptions(**{field: value})
    with pytest.raises(ValueError, match="max_iterations"):
        FitOptions(max_iterations=0)


def test_search_input_validation():
    table = table_first_source_irrelevant()
    with pytest.raises(StatementError):
        model_search(table, CHAIN3, criterion="best")
    for alpha in (0.0, 1.0, 1.5, -0.1, math.nan):
        with pytest.raises(StatementError, match="alpha"):
            model_search(table, CHAIN3, alpha=alpha)
    with pytest.raises(StatementError):
        model_search(table, PLANTED4)

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


@pytest.mark.parametrize("name", ["fig4_sparse288_0", "planted128_0"])
def test_fit_json_matches_the_golden_fit(name):
    # pins every number of the fit (pi_hat, eta_hat, kkt_residual, ...)
    # bit for bit: a 10-iteration boundary fit and a 384-iteration creep
    table = golden_table(f"{name}.csv")
    graph = FIG4 if name.startswith("fig4") else planted128_0_candidate()
    system = scgm_constraint_system(graph, table.variables)
    doc = fit_to_json(fit_constrained(table, system), system)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert text == (GOLDEN / f"fit_{name}.json").read_text(encoding="utf-8")


def dense_kkt_step(J, pi, g, h):
    """Reference Newton step: least squares on the full (K+R)-order KKT system."""
    K, R = pi.size, h.size
    kkt = np.zeros((K + R, K + R))
    kkt[:K, :K] = np.diag(pi) - np.outer(pi, pi) + 1e-12 * np.eye(K)
    kkt[:K, K:] = J.T
    kkt[K:, :K] = J
    sol, *_ = np.linalg.lstsq(kkt, np.concatenate([g, -h]), rcond=None)
    return sol[:K], sol[K:]


@pytest.mark.parametrize("case", ["sparse288", "planted128"])
def test_projection_step_matches_the_dense_kkt_step(case):
    if case == "sparse288":
        table, graph = golden_table("fig4_sparse288_0.csv"), FIG4
    else:
        table, graph = golden_table("planted128_2.csv"), search_candidate()
    compiled = compile_system(table.variables, scgm_constraint_system(graph, table.variables))
    counts = np.asarray(table.counts, dtype=float)
    N = counts.sum()
    # the solver's starting point, then full reference steps
    x = np.log((counts + 0.5) / (N + 0.5 * counts.size))
    for _ in range(3):
        point = _point(compiled, counts / N, x)
        pi, h = point.pi, point.h
        B = _centred_jacobian(compiled, point)
        g = counts / N - pi
        dx_ref, lam_ref = dense_kkt_step(B * pi, pi, g, h)
        dx, lam = _projection_step(B, pi, g, h)
        # steps that differ along the all-ones direction move pi alike
        centred = np.abs((dx - pi @ dx) - (dx_ref - pi @ dx_ref))
        assert centred.max() < 1e-7
        assert np.abs(lam - lam_ref).max() < 1e-10
        x = x + dx_ref

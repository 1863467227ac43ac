"""Tests for the regression view: coefficients, inversion, graph constraints."""

import itertools
import json
import math
import pathlib
import pickle

import numpy as np
import pytest

from scgm.constraints import evaluate_system, generate_constraints, render_statement
from scgm.errors import (
    AllocationCoverageError,
    GraphFormatError,
    InadmissibleGraphError,
    StatementError,
    UnsupportedCodingError,
)
from scgm.graphs import (
    load_graph,
    marginal_sets,
    parse_graph,
    stratified_markov,
    validate,
)
from scgm.oracle import random_positive
from scgm.params import (
    ParamVector,
    allocate_effects,
    effect_cells,
    param_index,
    param_value,
    param_vector,
)
from scgm.regression import (
    RegressionSystem,
    _coefficient_families,
    _subsets,
    conditional_logit,
    conditional_table,
    graph_allocation,
    mixed_param_indices,
    regression_from_params,
    regression_report,
    report_csv_rows,
    scgm_constraint_system,
)
from scgm.tables import VariableSpec, probability_vector, variable_names
from test_constraints import reverse_variable_levels

GOLDEN = pathlib.Path(__file__).parent / "golden"


def load(name):
    return load_graph(GOLDEN / name)


def variables(cards, codings=None, names=None):
    names = names or tuple(str(i + 1) for i in range(len(cards)))
    codings = codings or ("baseline",) * len(cards)
    return tuple(VariableSpec(n, c, k) for n, c, k in zip(names, cards, codings))


V5 = variables((2, 2, 2, 2, 2))


def params_from_regression(system: RegressionSystem) -> ParamVector:
    """Invert the coefficient map back to the allocated parameter vector.

    Baseline covariate coordinates invert by the sign alone; local
    coordinates difference the lattice sums, with coefficients beyond the
    top parameter cell reading as zero.
    """
    variables = system.variables
    names = variable_names(variables)
    spec_by = {s.name: s for s in variables}
    card = {s.name: s.cardinality for s in variables}
    values = dict(system.mixed)

    for comp in system.components:
        families = _coefficient_families(names, comp.members, comp.covariates)
        for A, t, margin, effect, sign in families:
            locals_ = tuple(v for v in t if spec_by[v].coding == "local")
            for i_t in effect_cells(card, t):
                base = dict(zip(t, i_t))
                for i_A in effect_cells(card, A):
                    total = 0.0
                    for s in _subsets(locals_):
                        shifted = dict(base)
                        for v in s:
                            shifted[v] += 1
                        if any(shifted[v] >= card[v] for v in t):
                            continue
                        term = system.table[(A, i_A, t, tuple(shifted[v] for v in t))]
                        total += (-1.0 if len(s) % 2 else 1.0) * term
                    idx = param_index(
                        variables, margin, effect, {**base, **dict(zip(A, i_A))}
                    )
                    values[idx] = sign * total

    missing = [i for i in system.allocation.indices() if i not in values]
    if missing:
        raise AllocationCoverageError(
            f"{len(missing)} allocated parameters have no regression slot, "
            f"first: {missing[0]}"
        )
    return ParamVector(system.allocation, values)


def system_for(pv, graph):
    alloc = graph_allocation(graph, pv.variables)
    return param_vector(pv, alloc), regression_from_params(param_vector(pv, alloc), graph)


# ---------------------------------------------------------------------------
# coefficient construction


def test_worked_example_signs_alternate_over_covariate_subsets():
    # two binary covariates, response 4: the four coefficients are the
    # allocated parameters at margin (1,2,4) with signs +, -, -, +
    g = load("fig_a.graph")
    pv = random_positive(V5, seed=11)
    vec, system = system_for(pv, g)
    at = lambda eff: vec.values[param_index(V5, ("1", "2", "4"), eff, {v: 1 for v in eff})]
    assert system.coefficient({"4": 1}) == pytest.approx(at(("4",)), abs=1e-14)
    assert system.coefficient({"4": 1}, {"1": 1}) == pytest.approx(-at(("1", "4")), abs=1e-14)
    assert system.coefficient({"4": 1}, {"2": 1}) == pytest.approx(-at(("2", "4")), abs=1e-14)
    assert system.coefficient({"4": 1}, {"1": 1, "2": 1}) == pytest.approx(
        at(("1", "2", "4")), abs=1e-14
    )


def test_component_without_parents_keeps_plain_parameters():
    g = load("fig_a.graph")
    pv = random_positive(V5, seed=12)
    vec, system = system_for(pv, g)
    comp = system.component_for({"1", "2"})
    assert comp.covariates == ()
    assert system.coefficient({"1": 1}) == pytest.approx(
        vec.values[param_index(V5, ("1", "2"), ("1",), (1,))], abs=1e-14
    )
    assert system.coefficient({"1": 1, "2": 1}) == pytest.approx(
        vec.values[param_index(V5, ("1", "2"), ("1", "2"), (1, 1))], abs=1e-14
    )


def test_local_covariate_coefficient_sums_the_lattice():
    # covariate 2 has three local-coded levels; the subset coefficient at
    # i2 aggregates the parameters at the lattice cells i2..2
    vs = variables((2, 3, 2, 3, 2), codings=("baseline", "local", "baseline", "baseline", "baseline"))
    g = load("fig_a.graph")
    pv = random_positive(vs, seed=13)
    vec, system = system_for(pv, g)
    for i2 in (1, 2):
        for i4 in (1, 2):
            want = -sum(
                vec.values[param_index(vs, ("1", "2", "4"), ("2", "4"), (j, i4))]
                for j in range(i2, 3)
            )
            got = system.coefficient({"4": i4}, {"2": i2})
            assert got == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# conditional logits


def check_subset_sums_match_direct_conditionals(vs, seed):
    g = load("fig_a.graph")
    pv = random_positive(vs, seed=seed)
    vec, system = system_for(pv, g)
    spec_by = {s.name: s for s in vs}
    for comp in system.components:
        pa = comp.covariates
        ctx_ranges = [range(1, spec_by[v].cardinality + 1) for v in pa]
        for r in range(1, len(comp.members) + 1):
            for A in itertools.combinations(comp.members, r):
                if pa:
                    margin = tuple(n for n in (s.name for s in vs) if n in set(pa) | set(A))
                else:
                    margin = comp.members
                cells = itertools.product(*[range(1, spec_by[v].cardinality) for v in A])
                for i_A in cells:
                    for ctx in itertools.product(*ctx_ranges):
                        cmap = dict(zip(pa, ctx))
                        direct = param_value(
                            pv, margin, A, dict(zip(A, i_A)), context=cmap or None
                        )
                        summed = conditional_logit(system, dict(zip(A, i_A)), cmap)
                        assert summed == pytest.approx(direct, abs=1e-10), (A, i_A, cmap)


def test_subset_sums_reproduce_conditionals_baseline():
    check_subset_sums_match_direct_conditionals(V5, seed=21)


def test_subset_sums_reproduce_conditionals_local():
    vs = variables((2, 3, 2, 3, 2), codings=("local",) * 5)
    check_subset_sums_match_direct_conditionals(vs, seed=22)


def test_subset_sums_reproduce_conditionals_mixed_codings():
    vs = variables(
        (2, 3, 2, 3, 2),
        codings=("baseline", "local", "local", "baseline", "local"),
    )
    check_subset_sums_match_direct_conditionals(vs, seed=23)


def test_top_context_recovers_the_plain_parameter():
    g = load("fig_a.graph")
    pv = random_positive(V5, seed=24)
    vec, system = system_for(pv, g)
    top = {"1": 2, "2": 2}
    got = conditional_logit(system, {"4": 1}, top)
    assert got == pytest.approx(
        vec.values[param_index(V5, ("1", "2", "4"), ("4",), (1,))], abs=1e-12
    )


def test_conditional_logit_validates_context_and_response():
    g = load("fig_a.graph")
    pv = random_positive(V5, seed=25)
    _, system = system_for(pv, g)
    with pytest.raises(StatementError):
        conditional_logit(system, {"4": 1}, {"1": 1})  # misses covariate 2
    with pytest.raises(StatementError):
        conditional_logit(system, {"4": 1}, {"1": 1, "2": 1, "3": 1})
    with pytest.raises(StatementError):
        conditional_logit(system, {"4": 1}, {"1": 1, "2": 3})  # out of range
    with pytest.raises(StatementError):
        conditional_logit(system, {"1": 1, "4": 1}, {"1": 1, "2": 2})  # spans components


# ---------------------------------------------------------------------------
# inversion and structure


def test_round_trip_recovers_every_parameter():
    g = load("fig_a.graph")
    vs = variables(
        (2, 3, 2, 3, 2),
        codings=("baseline", "local", "baseline", "local", "baseline"),
    )
    for seed in range(10):
        pv = random_positive(vs, seed=100 + seed)
        vec, system = system_for(pv, g)
        back = params_from_regression(system)
        for idx, val in vec.values.items():
            assert back.values[idx] == pytest.approx(val, abs=1e-12), idx


def test_coefficient_map_is_linear():
    g = load("fig_a.graph")
    alloc = graph_allocation(g, V5)
    va = param_vector(random_positive(V5, seed=31), alloc)
    vb = param_vector(random_positive(V5, seed=32), alloc)
    vc = type(va)(alloc, {k: va.values[k] + vb.values[k] for k in va.values})
    sa = regression_from_params(va, g)
    sb = regression_from_params(vb, g)
    sc = regression_from_params(vc, g)
    for key, val in sc.table.items():
        assert val == pytest.approx(sa.table[key] + sb.table[key], abs=1e-12)


def test_slot_counts_exhaust_the_allocation():
    for name, cards in (("fig_a.graph", (2, 2, 2, 2, 2)), ("fig_b.graph", (2, 2, 2, 2, 2))):
        g = load(name)
        vs = variables(cards)
        pv = random_positive(vs, seed=41)
        vec, system = system_for(pv, g)
        assert system.dimension == vec.allocation.dimension
        assert len(system.mixed) == 0  # parents cover all non-descendants here

    chain = parse_graph(
        "component T1 = {1}\ncomponent T2 = {2}\ncomponent T3 = {3}\n"
        "arc 1 -> 2\narc 2 -> 3\n"
    )
    vs = variables((2, 2, 2))
    pv = random_positive(vs, seed=42)
    alloc = graph_allocation(chain, vs)
    system = regression_from_params(param_vector(pv, alloc), chain)
    n_beta = sum(len(c.coefficients) for c in system.components)
    assert (n_beta, len(system.mixed)) == (5, 2)
    assert system.dimension == alloc.dimension == 7


def test_mixed_block_of_the_chain_is_the_two_long_range_effects():
    chain = parse_graph(
        "component T1 = {1}\ncomponent T2 = {2}\ncomponent T3 = {3}\n"
        "arc 1 -> 2\narc 2 -> 3\n"
    )
    vs = variables((2, 2, 2))
    alloc = graph_allocation(chain, vs)
    got = mixed_param_indices(chain, alloc)
    assert [(i.margin, i.effect, i.cell) for i in got] == [
        (("1", "2", "3"), ("1", "3"), (1, 1)),
        (("1", "2", "3"), ("1", "2", "3"), (1, 1, 1)),
    ]


def test_mixed_block_vanishes_when_parents_cover_everything():
    full = parse_graph(
        "component T1 = {1}\ncomponent T2 = {2}\ncomponent T3 = {3}\n"
        "arc 1 -> 2\narc 1 -> 3\narc 2 -> 3\n"
    )
    vs = variables((2, 2, 2))
    assert mixed_param_indices(full, graph_allocation(full, vs)) == ()


def test_mixed_block_of_parallel_components_lists_the_shared_effect_once():
    g = parse_graph("component T1 = {1}\ncomponent T2 = {2}\n")
    vs = variables((2, 2))
    got = mixed_param_indices(g, graph_allocation(g, vs))
    assert [(i.margin, i.effect) for i in got] == [(("1", "2"), ("1", "2"))]


def test_allocation_not_following_the_graph_is_rejected():
    g = load("fig_a.graph")
    alloc = allocate_effects(V5, [("1", "2", "3", "4", "5")])
    vec = param_vector(random_positive(V5, seed=43), alloc)
    with pytest.raises(AllocationCoverageError):
        regression_from_params(vec, g)


def test_vertex_and_variable_names_must_agree():
    g = load("fig_a.graph")
    vs = variables((2, 2, 2, 2))
    with pytest.raises(GraphFormatError):
        graph_allocation(g, vs)


def test_each_check_raises_one_error_carrying_validates_problems():
    # one error type carries validate's list, whichever function checks
    bad = parse_graph("component T1 = {1}\ncomponent T2 = {2,3}\nedge 1 -- 2\narc 2 -> 3\n")
    vs = variables((2, 2, 2))
    problems = ["edge 1 -- 2 crosses components T1 and T2", "arc 2 -> 3 stays inside component T2"]
    assert validate(bad, vs) == problems
    vec = param_vector(random_positive(vs, seed=45), allocate_effects(vs, [("1", "2", "3")]))
    calls = [
        lambda: stratified_markov(bad, vs),
        lambda: marginal_sets(bad),
        lambda: graph_allocation(bad, vs),
        lambda: scgm_constraint_system(bad, vs),
        lambda: regression_from_params(vec, bad),
    ]
    for call in calls:
        with pytest.raises(InadmissibleGraphError) as info:
            call()
        assert isinstance(info.value, GraphFormatError)
        assert info.value.problems == tuple(problems)
        assert str(info.value) == "; ".join(problems)
    # a worker process can send it back whole
    again = pickle.loads(pickle.dumps(info.value))
    assert (type(again), again.problems) == (InadmissibleGraphError, tuple(problems))


def test_continuation_coded_covariate_is_rejected():
    g = load("fig_a.graph")
    vs = variables((2, 2, 2, 2, 2), codings=("continuation",) + ("baseline",) * 4)
    pv = random_positive(vs, seed=44)
    vec = param_vector(pv, graph_allocation(g, vs))
    with pytest.raises(UnsupportedCodingError):
        regression_from_params(vec, g)


def test_aggregated_response_coding_clears_the_standard_flag():
    g = load("fig_a.graph")
    vs = variables((2, 2, 2, 3, 2), codings=("baseline",) * 3 + ("continuation", "baseline"))
    pv = random_positive(vs, seed=45)
    _, system = system_for(pv, g)
    assert not system.standard_response_codings
    assert regression_report(system)["standard_response_codings"] is False
    _, plain = system_for(random_positive(V5, seed=46), g)
    assert plain.standard_response_codings


def test_binary_covariate_reversal_flips_its_subset_coefficients():
    g = load("fig_a.graph")
    pv = random_positive(V5, seed=47)
    _, before = system_for(pv, g)
    _, after = system_for(reverse_variable_levels(pv, ("1",)), g)
    for i4 in (1,):
        flip1 = after.coefficient({"4": i4}, {"1": 1})
        assert flip1 == pytest.approx(-before.coefficient({"4": i4}, {"1": 1}), abs=1e-12)
        flip12 = after.coefficient({"4": i4}, {"1": 1, "2": 1})
        assert flip12 == pytest.approx(
            -before.coefficient({"4": i4}, {"1": 1, "2": 1}), abs=1e-12
        )


# ---------------------------------------------------------------------------
# graph constraint systems


def planted_fig_a(seed):
    # pi(1,2) x pi(3|1) x pi(4|1,2) x pi(5): satisfies 3_||_4|12, 3_||_2|1,
    # 5_||_{1,2}
    rng = np.random.default_rng(seed)
    p12 = rng.dirichlet(np.ones(4)).reshape(2, 2)
    p3 = {i1: rng.dirichlet(np.ones(2)) for i1 in (1, 2)}
    p4 = {k: rng.dirichlet(np.ones(2)) for k in itertools.product((1, 2), repeat=2)}
    p5 = rng.dirichlet(np.ones(2))
    probs = []
    for i1, i2, i3, i4, i5 in itertools.product((1, 2), repeat=5):
        probs.append(
            p12[i1 - 1, i2 - 1]
            * p3[i1][i3 - 1]
            * p4[(i1, i2)][i4 - 1]
            * p5[i5 - 1]
        )
    return probability_vector(V5, probs)


def planted_fig_b(seed):
    # product over (3,4) only in the slices (1,*); one fixed dependent joint
    # in the slices (2,*) keeps 3_||_2|1 while breaking plain 3_||_4|12
    rng = np.random.default_rng(seed)
    p12 = rng.dirichlet(np.ones(4)).reshape(2, 2)
    a3 = rng.dirichlet(np.ones(2))
    a4 = {i2: rng.dirichlet(np.ones(2)) for i2 in (1, 2)}
    dependent = np.array([[0.4, 0.1], [0.1, 0.4]])
    p34 = {(1, i2): np.outer(a3, a4[i2]) for i2 in (1, 2)}
    p34[(2, 1)] = p34[(2, 2)] = dependent
    p5 = rng.dirichlet(np.ones(2))
    probs = []
    for i1, i2, i3, i4, i5 in itertools.product((1, 2), repeat=5):
        probs.append(p12[i1 - 1, i2 - 1] * p34[(i1, i2)][i3 - 1, i4 - 1] * p5[i5 - 1])
    return probability_vector(V5, probs)


def test_fig_a_system_zeroes_the_nine_cross_effects():
    g = load("fig_a.graph")
    system = scgm_constraint_system(g, V5)
    assert all(len(row.terms) == 1 for row in system.rows)
    got = {(r.terms[0].index.margin, r.terms[0].index.effect) for r in system.rows}
    assert got == {
        (("1", "2", "3", "4"), ("3", "4")),
        (("1", "2", "3", "4"), ("1", "3", "4")),
        (("1", "2", "3", "4"), ("2", "3", "4")),
        (("1", "2", "3", "4"), ("1", "2", "3", "4")),
        (("1", "2", "3"), ("2", "3")),
        (("1", "2", "3"), ("1", "2", "3")),
        (("1", "2", "5"), ("1", "5")),
        (("1", "2", "5"), ("2", "5")),
        (("1", "2", "5"), ("1", "2", "5")),
    }
    assert len(system.rows) == 9


def test_fig_a_system_vanishes_on_planted_distributions():
    g = load("fig_a.graph")
    system = scgm_constraint_system(g, V5)
    for seed in range(5):
        vals = evaluate_system(planted_fig_a(200 + seed), system)
        assert np.max(np.abs(vals)) < 1e-10
    generic = evaluate_system(random_positive(V5, seed=201), system)
    assert np.max(np.abs(generic)) > 1e-3


def test_fig_b_system_swaps_plain_rows_for_context_rows():
    ga, gb = load("fig_a.graph"), load("fig_b.graph")
    sa = scgm_constraint_system(ga, V5)
    sb = scgm_constraint_system(gb, V5)
    plain34 = {r for r in sa.rows if set(r.terms[0].index.effect) >= {"3", "4"}}
    context_rows = [r for r in sb.rows if len(r.terms) > 1]
    assert len(plain34) == 4 and len(context_rows) == 2
    assert len(sb.rows) == len(sa.rows) - 4 + 2
    origins = {r.origin for r in context_rows}
    assert origins == {"CS: {3} _||_ {4} | {1,2} = (1,*)"}


def test_fig_b_system_separates_planted_from_plain():
    ga, gb = load("fig_a.graph"), load("fig_b.graph")
    sa = scgm_constraint_system(ga, V5)
    sb = scgm_constraint_system(gb, V5)
    for seed in range(5):
        pv = planted_fig_b(300 + seed)
        assert np.max(np.abs(evaluate_system(pv, sb))) < 1e-10
        assert np.max(np.abs(evaluate_system(pv, sa))) > 1e-3


def test_fig_b_context_rows_need_expandable_covariate_codings():
    gb = load("fig_b.graph")
    vs = variables((2, 2, 2, 2, 2), codings=("continuation",) + ("baseline",) * 4)
    with pytest.raises(UnsupportedCodingError):
        scgm_constraint_system(gb, vs)


def test_three_layer_system_covers_every_markov_statement():
    g = load("fig4.graph")
    vs = variables((2, 2, 2, 2, 3, 3, 2))
    system = scgm_constraint_system(g, vs)
    want = {render_statement(s) for s in stratified_markov(g, vs)}
    got = {r.origin for r in system.rows}
    assert got == want
    assert any(o.startswith("CS:") for o in got)
    # every term lives at a margin of the graph's sequence
    margins = set(marginal_sets(g))
    for row in system.rows:
        for term in row.terms:
            assert frozenset(term.index.margin) in {frozenset(m) for m in margins}


@pytest.mark.parametrize(
    "name, cards",
    [
        ("fig_a", (2, 2, 2, 2, 2)),
        ("fig_b", (2, 2, 2, 2, 2)),
        pytest.param(
            "fig4",
            (2, 2, 2, 2, 3, 3, 2),
            # {1} _||_ {4,6} | {3,5,7} sits on the whole table
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"),
        ),
    ],
    ids=["fig_a", "fig_b", "fig4"],
)
def test_each_statement_has_rows_on_its_own_variables(name, cards):
    g = load(f"{name}.graph")
    vs = variables(cards)
    alloc = allocate_effects(vs, marginal_sets(g))
    for stmt in stratified_markov(g, vs):
        own = frozenset(stmt.lhs + stmt.rhs + stmt.given)
        rows = generate_constraints(stmt, vs, alloc).rows
        margins = {frozenset(t.index.margin) for row in rows for t in row.terms}
        assert margins == {own}, render_statement(stmt)


def test_fig4_report_keys_covariates_in_table_order():
    # fig4 declares its parent components as {5,6,7} before {2,3,4}; the
    # coefficients must still be keyed, reported and inverted in table order
    g = load("fig4.graph")
    vs = variables((2, 2, 2, 2, 3, 3, 2), codings=("baseline",) * 4 + ("local",) * 3)
    pv = probability_vector(vs, np.random.default_rng(53).dirichlet(np.ones(288)))
    vec, system = system_for(pv, g)
    assert system.component("T3").covariates == ("2", "3", "4", "5", "6", "7")
    report = regression_report(system)
    assert report["components"][2]["covariates"] == ["2", "3", "4", "5", "6", "7"]
    assert system.coefficient({"1": 1}, {"2": 1, "5": 1}) == system.table[
        (("1",), (1,), ("2", "5"), (1, 1))
    ]
    back = params_from_regression(system)
    for idx, val in vec.values.items():
        assert back.values[idx] == pytest.approx(val, abs=1e-12), idx


def test_component_declared_out_of_table_order_reports_and_inverts():
    g = parse_graph(
        "component T1 = {1}\ncomponent T2 = {4,2,3}\n"
        "edge 2 -- 3\nedge 3 -- 4\nedge 2 -- 4\narc 1 -> 2\narc 1 -> 3\narc 1 -> 4\n"
    )
    vs = variables((2, 2, 2, 2))
    pv = probability_vector(vs, np.random.default_rng(54).dirichlet(np.ones(16)))
    vec, system = system_for(pv, g)
    assert system.component("T2").members == ("2", "3", "4")
    assert regression_report(system)["components"][1]["responses"] == ["2", "3", "4"]
    back = params_from_regression(system)
    for idx, val in vec.values.items():
        assert back.values[idx] == pytest.approx(val, abs=1e-12), idx


# ---------------------------------------------------------------------------
# report tables


def test_report_layout_and_csv_shapes():
    g = load("fig_a.graph")
    pv = random_positive(V5, seed=51)
    _, system = system_for(pv, g)
    report = regression_report(system)
    assert report["schema"] == "scgm-report/1"
    assert [c["name"] for c in report["components"]] == ["T1", "T2"]
    assert report["mixed"] == []

    t2 = report["components"][1]
    assert t2["covariates"] == ["1", "2"]
    assert len(t2["conditional"]["contexts"]) == 4
    assert len(t2["conditional"]["columns"]) == 7  # nonempty response sets, binary
    assert all(len(vals) == 7 for vals in t2["conditional"]["values"])

    beta, tables = report_csv_rows(system)
    n_coeffs = sum(len(c.coefficients) for c in system.components)
    assert len(beta) == 1 + n_coeffs
    assert beta[0][0] == "component"
    assert set(tables) == {"T1", "T2"}
    head = tables["T2"][0]
    assert head[:2] == ["context:1", "context:2"]
    assert len(tables["T2"]) == 1 + 4


# fig4 at 288 cells: continuation-coded response 1, 3-level local covariate
# 5 and 3-level baseline covariate 6, so that the conditional tables cover
# both lattice sums and top-level drops; every other variable is baseline
FIG4_288 = variables(
    (2, 2, 2, 2, 3, 3, 2),
    codings=("continuation", "baseline", "baseline", "baseline", "local", "baseline", "baseline"),
)
REPORT_SEED = 57


def fig4_288_system():
    """Regression system of a seeded Dirichlet(1) probability vector on fig4.

    It reads no fitted table, so the report it gives does not depend on
    the solver.
    """
    probs = np.random.default_rng(REPORT_SEED).dirichlet(np.ones(288))
    return system_for(probability_vector(FIG4_288, probs), load("fig4.graph"))[1]


def golden_report_text():
    """The report pinned by golden/report_fig4_288.json, as written there:
    ``regression_report`` plus the rows of ``report_csv_rows``."""
    system = fig4_288_system()
    beta, tables = report_csv_rows(system)
    doc = {"report": regression_report(system), "beta_csv": beta, "conditional_csv": tables}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_report_matches_the_golden_report():
    assert golden_report_text() == (GOLDEN / "report_fig4_288.json").read_text(encoding="utf-8")


def test_conditional_table_matches_logits():
    # every entry equals the single-context subset sum bit for bit, on
    # every component of fig_a and of fig4 at 288 cells
    _, fig_a = system_for(random_positive(V5, seed=52), load("fig_a.graph"))
    for system, comp in [(s, c) for s in (fig_a, fig4_288_system()) for c in s.components]:
        contexts, columns, values = conditional_table(system, comp.name)
        assert len(values) == len(contexts)
        for ctx, row in zip(contexts, values):
            assert len(row) == len(columns)
            for (A, i_A), val in zip(columns, row):
                assert val == conditional_logit(system, dict(zip(A, i_A)), ctx), (A, i_A, ctx)

"""Property tests: every parameter evaluator against the oracle and each other,
a lower threshold against its flipped reference, the Markov reading of a
chain graph against a distribution planted on it, and the text and JSON
round trips of statements, graphs and tables.

Tables of 2-4 variables with cardinalities 2-4 (at most 256 cells) and
random codings, under the saturated allocation; plain chain graphs on 2-4
variables of 2-3 levels.  Round trips draw names from a safe alphabet,
one that no format reserves.  Runs are derandomized so the suite stays
deterministic.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgm.constraints import (
    CellListContext,
    ConstraintSystem,
    PatternContext,
    Row,
    Statement,
    Term,
    ThresholdContext,
    evaluate_system,
    generate_constraints,
    parse_statement,
    render_statement,
    statement_from_json,
    statement_to_json,
    validate_statement,
)
from scgm.fitting import compile_system
from scgm.graphs import (
    StratifiedChainGraph,
    Stratum,
    graph_from_json,
    graph_to_json,
    parse_graph,
    render_graph,
    stratified_markov,
    validate,
)
from scgm.oracle import direct_param_value, plant_graph_distribution, verify_cs_direct
from scgm.params import allocate_effects, param_vector
from scgm.tables import (
    CODINGS,
    ContingencyTable,
    VariableSpec,
    dump_table,
    load_table,
    probability_vector,
    variable_names,
)
from test_constraints import reverse_variable_levels

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def positive_tables(draw):
    n = draw(st.integers(2, 4))
    cards = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    codings = draw(st.lists(st.sampled_from(CODINGS), min_size=n, max_size=n))
    variables = tuple(
        VariableSpec(str(k + 1), card, coding)
        for k, (card, coding) in enumerate(zip(cards, codings))
    )
    weights = draw(
        st.lists(st.floats(0.01, 1.0), min_size=math.prod(cards), max_size=math.prod(cards))
    )
    return probability_vector(variables, weights)


def saturated_vector(pv):
    return param_vector(pv, allocate_effects(pv.variables, [variable_names(pv.variables)]))


@PROPERTY_SETTINGS
@given(positive_tables())
def test_param_vector_matches_the_oracle(pv):
    vec = saturated_vector(pv)
    for idx, value in vec.values.items():
        cell = dict(zip(idx.effect, idx.cell))
        assert value == pytest.approx(
            direct_param_value(pv, idx.margin, idx.effect, cell), abs=1e-12
        ), idx


@PROPERTY_SETTINGS
@given(positive_tables())
def test_compiled_parameters_match_param_vector(pv):
    vec = saturated_vector(pv)
    indices = tuple(vec.allocation.indices())
    rows = tuple(Row((Term(idx, 1),)) for idx in indices)
    compiled = compile_system(pv.variables, ConstraintSystem(pv.variables, rows, len(rows)))
    assert compiled.indices == indices
    got = compiled.param_values(pv.probs)
    for idx, value in zip(indices, got):
        assert value == pytest.approx(vec.values[idx], abs=1e-12), idx


@PROPERTY_SETTINGS
@given(positive_tables(), st.data())
def test_evaluate_system_is_the_row_sums(pv, data):
    vec = saturated_vector(pv)
    indices = tuple(vec.allocation.indices())
    coefs = st.sampled_from((-2, -1, 1, 2))
    rows = []
    for _ in range(data.draw(st.integers(1, 6))):
        picked = data.draw(st.lists(st.sampled_from(indices), min_size=1, max_size=4))
        rows.append(Row(tuple(Term(idx, data.draw(coefs)) for idx in picked)))
    system = ConstraintSystem(pv.variables, tuple(rows), len(rows))
    want = []
    for row in rows:
        total = 0.0
        for t in row.terms:
            total += t.coef * vec.values[t.index]
        want.append(total)
    assert evaluate_system(pv, system).tolist() == want


@st.composite
def plain_chain_graphs(draw):
    """A plain chain graph, its table's variables and a plant seed.

    The vertices take the variables in a drawn order and are cut into
    components in that order, which is then a topological one; each
    within-component edge and each arc from an earlier component to a
    later one is present with probability 1/2.
    """
    n = draw(st.integers(2, 4))
    cards = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    variables = tuple(VariableSpec(str(k + 1), card) for k, card in enumerate(cards))
    order = draw(st.permutations([s.name for s in variables]))
    members = [[order[0]]]
    for name in order[1:]:
        if draw(st.booleans()):
            members.append([])
        members[-1].append(name)
    components = tuple((f"T{k + 1}", tuple(m)) for k, m in enumerate(members))
    edges = tuple(
        e for _, m in components for e in itertools.combinations(m, 2) if draw(st.booleans())
    )
    arcs = tuple(
        (u, v)
        for i, (_, tails) in enumerate(components)
        for _, heads in components[i + 1 :]
        for u in tails
        for v in heads
        if draw(st.booleans())
    )
    graph = StratifiedChainGraph(tuple(order), components, edges, arcs, ())
    return graph, variables, draw(st.integers(0, 2**16))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(plain_chain_graphs())
def test_every_markov_statement_holds_on_a_planted_distribution(case):
    graph, variables, seed = case
    assert validate(graph, variables) == []
    pv = plant_graph_distribution(
        variables, [m for _, m in graph.components], graph.edges, graph.arcs, seed
    )
    card = {s.name: s.cardinality for s in variables}
    for stmt in stratified_markov(graph, variables):
        cells = list(itertools.product(*(range(1, card[g] + 1) for g in stmt.given)))
        assert verify_cs_direct(pv, stmt.lhs, stmt.rhs, stmt.given, cells) < 1e-12, stmt


@st.composite
def lower_threshold_cases(draw):
    """A positive table of 3-4 variables and a lower threshold on it: the
    sides, the conditioning set (reverse-continuation coded, the coding a
    lower threshold admits) and a bound per conditioning variable."""
    n = draw(st.integers(3, 4))
    names = draw(st.permutations([str(k + 1) for k in range(n)]))
    n_lhs = draw(st.integers(1, n - 2))
    n_rhs = draw(st.integers(1, n - 1 - n_lhs))
    lhs, rhs, cond = names[:n_lhs], names[n_lhs : n_lhs + n_rhs], names[n_lhs + n_rhs :]
    variables = tuple(
        VariableSpec(
            str(k + 1),
            draw(st.integers(2, 4)),
            "reverse-continuation" if str(k + 1) in cond else draw(st.sampled_from(CODINGS)),
        )
        for k in range(n)
    )
    size = math.prod(s.cardinality for s in variables)
    pv = probability_vector(
        variables, draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    )
    card = {s.name: s.cardinality for s in variables}
    bound = tuple(draw(st.integers(1, card[g])) for g in cond)
    return pv, tuple(lhs), tuple(rhs), tuple(cond), bound


@PROPERTY_SETTINGS
@given(lower_threshold_cases())
def test_a_lower_threshold_is_the_upper_one_on_the_flipped_table(case):
    pv, lhs, rhs, cond, bound = case
    leq = generate_constraints(
        Statement(lhs, rhs, cond, ThresholdContext(bound, "leq")), pv.variables
    )
    assert leq.variables == pv.variables
    card = {s.name: s.cardinality for s in pv.variables}
    flipped = reverse_variable_levels(pv, set(cond))
    upper = tuple(card[g] + 1 - b for g, b in zip(cond, bound))
    geq = generate_constraints(
        Statement(lhs, rhs, cond, ThresholdContext(upper, "geq")), flipped.variables
    )
    assert np.max(
        np.abs(evaluate_system(pv, leq) - evaluate_system(flipped, geq)), initial=0.0
    ) <= 1e-12


# ---------------------------------------------------------------------------
# round trips

NAMES = st.text(alphabet="abxyzAB019_", min_size=1, max_size=3)
ROUND_TRIP_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def canonical_statements(draw):
    """A statement in canonical form, of any of the five context forms, and
    the variables it is stated on."""
    form = draw(st.sampled_from(("plain", "pattern", "cells", "geq", "leq")))
    n_lhs, n_rhs = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n_given = draw(st.integers(0 if form == "plain" else 1, 3))
    size = n_lhs + n_rhs + n_given
    names = draw(st.lists(NAMES, min_size=size, max_size=size, unique=True))
    variables = tuple(VariableSpec(n, draw(st.integers(2, 4))) for n in names)
    card = {s.name: s.cardinality for s in variables}
    order = draw(st.permutations(names))
    lhs, rhs, cond = order[:n_lhs], order[n_lhs : n_lhs + n_rhs], order[n_lhs + n_rhs :]

    def levels(name):
        return st.integers(1, card[name])

    if form == "plain":
        ctx = None
    elif form == "pattern":
        ctx = PatternContext(tuple(draw(st.none() | levels(g)) for g in cond))
    elif form == "cells":
        cell = st.tuples(*(levels(g) for g in cond))
        ctx = CellListContext(tuple(draw(st.lists(cell, min_size=1, max_size=4))))
    else:
        ctx = ThresholdContext(tuple(draw(levels(g)) for g in cond), form)
    stmt = Statement(tuple(lhs), tuple(rhs), tuple(cond), ctx)
    return validate_statement(stmt, variables), variables


@ROUND_TRIP_SETTINGS
@given(canonical_statements())
def test_a_statement_survives_its_text_and_json_forms(case):
    stmt, variables = case
    assert validate_statement(parse_statement(render_statement(stmt)), variables) == stmt
    assert statement_from_json(json.loads(json.dumps(statement_to_json(stmt)))) == stmt


@st.composite
def stratified_graphs(draw):
    """A chain graph with named components and vertices, and strata on
    some of its missing edges and arcs.  A stratum's conditioning set and
    levels are drawn freely: the formats hold inadmissible strata too."""
    names = draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))
    members = [[names[0]]]
    for name in names[1:]:
        if draw(st.booleans()):
            members.append([])
        members[-1].append(name)
    labels = draw(st.lists(NAMES, min_size=len(members), max_size=len(members), unique=True))
    components = tuple((label, tuple(m)) for label, m in zip(labels, members))
    edges, arcs, missing = [], [], []
    for i, (_, tails) in enumerate(components):
        for pair in itertools.combinations(tails, 2):
            (edges if draw(st.booleans()) else missing).append(pair)
        for _, heads in components[i + 1 :]:
            for pair in itertools.product(tails, heads):
                (arcs if draw(st.booleans()) else missing).append(pair)
    strata = []
    for pair in missing:
        if draw(st.booleans()):
            others = [v for v in names if v not in pair]
            cond = draw(st.lists(st.sampled_from(others), max_size=2, unique=True)) if others else []
            row = st.tuples(*(st.none() | st.integers(1, 3) for _ in cond))
            patterns = draw(st.lists(row, min_size=1, max_size=3))
            strata.append(Stratum(pair, tuple(cond), tuple(patterns)))
    return StratifiedChainGraph(
        tuple(names), components, tuple(edges), tuple(arcs), tuple(strata)
    )


@ROUND_TRIP_SETTINGS
@given(stratified_graphs())
def test_a_graph_survives_its_text_and_json_forms(graph):
    assert parse_graph(render_graph(graph)) == graph
    assert graph_from_json(json.loads(json.dumps(graph_to_json(graph)))) == graph


@st.composite
def tables(draw, labelled):
    """A table of 1-3 named variables with any codings and finite
    nonnegative counts; with ``labelled`` some variables carry level labels."""
    names = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    variables = []
    for name in names:
        card = draw(st.integers(2, 4))
        labels = st.lists(st.text(max_size=4), min_size=card, max_size=card)
        variables.append(
            VariableSpec(
                name,
                card,
                draw(st.sampled_from(CODINGS)),
                tuple(draw(labels)) if labelled and draw(st.booleans()) else None,
            )
        )
    size = math.prod(s.cardinality for s in variables)
    count = st.floats(0.0, 1e12) | st.integers(0, 10**6).map(float)
    return ContingencyTable(tuple(variables), draw(st.lists(count, min_size=size, max_size=size)))


def _specs(table):
    return [(s.name, s.cardinality, s.coding) for s in table.variables]


@ROUND_TRIP_SETTINGS
@given(tables(labelled=False))
def test_a_table_survives_its_csv_form(table):
    again = load_table(dump_table(table, "csv"), "csv")
    assert again.counts.tobytes() == table.counts.tobytes()
    assert _specs(again) == _specs(table)


@ROUND_TRIP_SETTINGS
@given(tables(labelled=True))
def test_a_table_survives_its_json_form(table):
    again = load_table(dump_table(table, "json"), "json")
    assert again.counts.tobytes() == table.counts.tobytes()
    assert _specs(again) == _specs(table)
    assert [s.level_labels for s in again.variables] == [s.level_labels for s in table.variables]

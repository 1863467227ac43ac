"""Property tests: every parameter evaluator against the oracle and each other,
and the Markov reading of a chain graph against a distribution planted on it.

Tables of 2-4 variables with cardinalities 2-4 (at most 256 cells) and
random codings, under the saturated allocation; plain chain graphs on 2-4
variables of 2-3 levels.  Runs are derandomized so the suite stays
deterministic.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgm.constraints import ConstraintSystem, Row, Term, evaluate_system
from scgm.fitting import compile_system
from scgm.graphs import StratifiedChainGraph, stratified_markov, validate
from scgm.oracle import direct_param_value, plant_graph_distribution, verify_cs_direct
from scgm.params import allocate_effects, param_vector
from scgm.tables import CODINGS, VariableSpec, probability_vector, variable_names

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

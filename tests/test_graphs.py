"""Chain graph parsing, validation, Markov reading, marginal sets."""

import itertools
import json
import random
from pathlib import Path

import pytest

from scgm.constraints import PatternContext, Statement, statement_kind
from scgm.errors import GraphFormatError
from scgm.graphs import (
    StratifiedChainGraph,
    Stratum,
    chain_components,
    graph_from_json,
    graph_parents,
    graph_to_json,
    marginal_sets,
    markov_type_iv,
    neighbourhood,
    non_descendants,
    parents_of_component,
    parse_graph,
    render_graph,
    statements_text,
    stratified_markov,
    validate,
)
from scgm.tables import VariableSpec

GOLDEN = Path(__file__).parent / "golden"


def load(name):
    return parse_graph((GOLDEN / name).read_text())


def stmt_keys(stmts):
    """Order-free comparable form; context patterns are realigned by name."""
    out = set()
    for s in stmts:
        if s.context is None:
            ctx = None
        else:
            ctx = frozenset(
                (n, lvl)
                for n, lvl in zip(s.given, s.context.pattern)
                if lvl is not None
            )
        out.add(
            (
                frozenset((frozenset(s.lhs), frozenset(s.rhs))),
                frozenset(s.given),
                ctx,
            )
        )
    return out


def K(lhs, rhs, given=(), ctx=None):
    pair = frozenset((frozenset(lhs), frozenset(rhs)))
    c = None if ctx is None else frozenset(ctx.items())
    return (pair, frozenset(given), c)


# ---------------------------------------------------------------------------
# figure 1(a): plain reading

def test_fig_a_valid():
    assert validate(load("fig_a.graph")) == []


def test_fig_a_markov_exact():
    got = stmt_keys(markov_type_iv(load("fig_a.graph")))
    assert got == {
        K("3", "4", "12"),
        K("3", "2", "1"),
        K("5", "12"),
    }


def test_fig_a_markov_rendered():
    text = statements_text(markov_type_iv(load("fig_a.graph")))
    assert text == (GOLDEN / "fig_a_markov.txt").read_text()


def test_fig_a_marginals():
    got = marginal_sets(load("fig_a.graph"))
    assert got == (
        ("1", "2"),
        ("1", "2", "3"),
        ("1", "2", "4"),
        ("1", "2", "5"),
        ("1", "2", "3", "4"),
        ("1", "2", "3", "5"),
        ("1", "2", "4", "5"),
        ("1", "2", "3", "4", "5"),
    )


def test_fig_a_accessors():
    g = load("fig_a.graph")
    order = [name for name, _ in chain_components(g)]
    assert order == ["T1", "T2"]
    assert parents_of_component(g, "T2") == ("1", "2")
    assert parents_of_component(g, "T1") == ()
    assert non_descendants(g, "T2") == ("1", "2")
    assert non_descendants(g, "T1") == ()
    assert graph_parents(g, "4") == ("1", "2")
    assert graph_parents(g, "3") == ("1",)
    assert neighbourhood(g, "5") == ("3", "4", "5")
    assert neighbourhood(g, "3") == ("3", "5")


# ---------------------------------------------------------------------------
# figure 1(b): one stratum

def test_fig_b_stratified_exact():
    got = stmt_keys(stratified_markov(load("fig_b.graph")))
    assert got == {
        K("3", "4", "12", {"1": 1}),
        K("3", "2", "1"),
        K("5", "12"),
    }


def test_fig_b_rendered():
    text = statements_text(stratified_markov(load("fig_b.graph")))
    assert text == (GOLDEN / "fig_b_markov.txt").read_text()


def test_fig_b_statement_kinds():
    kinds = sorted(statement_kind(s) for s in stratified_markov(load("fig_b.graph")))
    assert kinds == ["conditional", "context-specific", "marginal"]


def test_degenerate_stratum_all_asterisks():
    g = load("fig_a.graph")
    gb = StratifiedChainGraph(
        g.vertices,
        g.components,
        g.edges,
        g.arcs,
        (Stratum(("3", "4"), ("1", "2"), ((None, None),)),),
    )
    assert stmt_keys(stratified_markov(gb)) == stmt_keys(markov_type_iv(g))


def test_degenerate_stratum_by_level_coverage():
    # two rows that jointly cover a binary covariate
    g = load("fig_a.graph")
    gb = StratifiedChainGraph(
        g.vertices,
        g.components,
        g.edges,
        g.arcs,
        (Stratum(("3", "4"), ("1",), ((1,), (2,))),),
    )
    variables = tuple(VariableSpec(str(k), 2, "baseline") for k in range(1, 6))
    assert stmt_keys(stratified_markov(gb, variables)) == stmt_keys(markov_type_iv(g))
    # without cardinalities the coverage is unknowable, the stratum stays
    assert stmt_keys(stratified_markov(gb)) != stmt_keys(markov_type_iv(g))


# ---------------------------------------------------------------------------
# the three-layer graph

def test_three_layer_valid():
    g = load("fig4.graph")
    variables = tuple(
        VariableSpec(str(k + 1), c, "baseline")
        for k, c in enumerate((2, 2, 2, 2, 3, 3, 2))
    )
    assert validate(g, variables) == []


def test_three_layer_components_topological():
    g = load("fig4.graph")
    assert [name for name, _ in chain_components(g)] == ["T1", "T2", "T3"]
    assert set(parents_of_component(g, "T3")) == {"2", "3", "4", "5", "6", "7"}


def test_three_layer_stratified_statements():
    got = stmt_keys(stratified_markov(load("fig4.graph")))
    assert got == {
        K("1", {"4", "6"}, {"3", "5", "7"}),
        K("1", "2", {"3", "4", "5", "6", "7"}, {"3": 1, "5": 3, "7": 1}),
    }


def test_three_layer_marginals():
    got = {frozenset(m) for m in marginal_sets(load("fig4.graph"))}
    expected = {
        frozenset(s)
        for s in (
            "567",
            "2567",
            "3567",
            "4567",
            "23567",
            "24567",
            "34567",
            "234567",
            "1234567",
        )
    }
    assert got == expected
    sizes = [len(m) for m in marginal_sets(load("fig4.graph"))]
    assert sizes == sorted(sizes)


def test_three_layer_cs_pattern_alignment():
    (cs,) = [s for s in stratified_markov(load("fig4.graph")) if s.context]
    by_name = dict(zip(cs.given, cs.context.pattern))
    assert by_name == {"3": 1, "4": None, "5": 3, "6": None, "7": 1}
    assert set(cs.given) == {"3", "4", "5", "6", "7"}
    assert (cs.lhs, cs.rhs) == (("1",), ("2",))


# ---------------------------------------------------------------------------
# rejection cases

def test_inadmissible_stratum_reported():
    problems = validate(load("fig3.graph"))
    assert any("not admissible" in p for p in problems)
    assert any("no parent relation" in p for p in problems)


def test_semi_directed_cycle():
    g = parse_graph(
        "component T1 = {1}\n"
        "component T2 = {2,3}\n"
        "edge 2 -- 3\n"
        "arc 1 -> 2\n"
        "arc 3 -> 1\n"
    )
    problems = validate(g)
    assert any("semi-directed cycle" in p for p in problems)
    with pytest.raises(GraphFormatError):
        markov_type_iv(g)


def test_duplicate_component_name_is_a_problem():
    # the second declaration used to shadow the first: vertices 1 and 2
    # dropped out of every marginal and the graph read as saturated
    g = parse_graph("component A = {1,2}\ncomponent A = {3}\n")
    assert validate(g) == ["component A declared twice"]
    with pytest.raises(GraphFormatError, match="component A declared twice"):
        stratified_markov(g)


def test_arc_to_an_undeclared_vertex_is_a_problem_not_a_crash():
    # stratum checks used to rebuild the component digraph, whose arcs on
    # undeclared vertices raised KeyError
    g = parse_graph(
        "component A = {1}\ncomponent B = {2,3}\narc 1 -> 9\nstratum (1,2) | {} = {()}\n"
    )
    problems = validate(g)
    assert "arc 1 -> 9 uses an undeclared vertex" in problems
    assert "stratum (1,2): pair spans components with no parent relation" in problems


def test_edge_across_components():
    g = parse_graph("component T1 = {1}\ncomponent T2 = {2}\nedge 1 -- 2\n")
    assert any("crosses components" in p for p in validate(g))


def test_arc_inside_component():
    g = parse_graph("component T1 = {1,2}\narc 1 -> 2\n")
    assert any("stays inside component" in p for p in validate(g))


def test_stratum_on_present_arc():
    g = parse_graph(
        "component T1 = {1}\ncomponent T2 = {2}\narc 1 -> 2\n"
        "stratum (2,1) | {} = {()}\n"
    )
    assert any("attaches to a present arc" in p for p in validate(g))


def test_stratum_context_outside_covariates():
    # 5 lives in the response component, it cannot condition the stratum
    g = load("fig_a.graph")
    gb = StratifiedChainGraph(
        g.vertices, g.components, g.edges, g.arcs,
        (Stratum(("3", "4"), ("5",), ((1,),)),),
    )
    assert any("fall outside" in p for p in validate(gb))


def test_stratum_level_out_of_range():
    g = load("fig_b.graph")
    variables = tuple(VariableSpec(str(k), 2, "baseline") for k in range(1, 6))
    gb = StratifiedChainGraph(
        g.vertices, g.components, g.edges, g.arcs,
        (Stratum(("3", "4"), ("1", "2"), ((7, None),)),),
    )
    assert any("out of range" in p for p in validate(gb, variables))


def test_markov_type_iv_rejects_strata():
    with pytest.raises(GraphFormatError, match="strat"):
        markov_type_iv(load("fig_b.graph"))


def test_vertex_in_two_components():
    g = parse_graph("component T1 = {1,2}\ncomponent T2 = {2}\n")
    assert any("belongs to components" in p for p in validate(g))


# ---------------------------------------------------------------------------
# small structural facts

def test_two_isolated_vertices_single_statement():
    g = parse_graph("component T1 = {1}\ncomponent T2 = {2}\n")
    stmts = markov_type_iv(g)
    assert stmt_keys(stmts) == {K("1", "2")}
    assert statement_kind(stmts[0]) == "marginal"


def test_isolated_vertex_grouped_against_pair():
    g = parse_graph(
        "component T1 = {1,2}\ncomponent T2 = {3}\nedge 1 -- 2\n"
    )
    assert stmt_keys(markov_type_iv(g)) == {K("3", "12")}


def test_round_trip_text_and_json():
    for name in ("fig_a.graph", "fig_b.graph", "fig4.graph"):
        g = load(name)
        assert parse_graph(render_graph(g)) == g
        assert graph_from_json(json.loads(json.dumps(graph_to_json(g)))) == g


def test_parse_errors():
    for text in (
        "",
        "component T1 = {}\n",
        "component T1 = {1}\nbogus line\n",
        "component T1 = {1}\nstratum (1,2) | {3} = {}\n",
    ):
        with pytest.raises(GraphFormatError):
            parse_graph(text)


def test_json_schema_guard():
    with pytest.raises(GraphFormatError, match="schema"):
        graph_from_json({"schema": "nope/9"})


# ---------------------------------------------------------------------------
# property tests over random graphs

def random_graph(rng, max_vertices=7):
    n = rng.randint(2, max_vertices)
    names = [str(k + 1) for k in range(n)]
    order = names[:]
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
    parts = []
    prev = 0
    for c in cuts + [n]:
        parts.append(tuple(order[prev:c]))
        prev = c
    components = tuple((f"T{k + 1}", p) for k, p in enumerate(parts))
    edges = []
    for _, members in components:
        for u, v in itertools.combinations(members, 2):
            if rng.random() < 0.5:
                edges.append((u, v))
    arcs = []
    for i, (_, src) in enumerate(components):
        for _, dst in components[i + 1 :]:
            for u in src:
                for v in dst:
                    if rng.random() < 0.4:
                        arcs.append((u, v))
    return StratifiedChainGraph(
        tuple(v for _, m in components for v in m),
        components,
        tuple(edges),
        tuple(arcs),
        (),
    )


def test_marginal_sets_ordering_invariant():
    rng = random.Random(20240817)
    for _ in range(200):
        g = random_graph(rng)
        ms = marginal_sets(g)
        assert len({frozenset(m) for m in ms}) == len(ms)
        sizes = [len(m) for m in ms]
        assert sizes == sorted(sizes)
        for i, a in enumerate(ms):
            for b in ms[i + 1 :]:
                assert not set(b) <= set(a)
        assert set(ms[-1]) <= set(g.vertices)
        assert set().union(*map(set, ms)) == set(g.vertices)


def test_markov_invariant_under_relabeling():
    rng = random.Random(7)

    def rename_key(key, mapping):
        pair, given, ctx = key
        pair = frozenset(frozenset(mapping[v] for v in side) for side in pair)
        given = frozenset(mapping[v] for v in given)
        if ctx is not None:
            ctx = frozenset((mapping[n], lvl) for n, lvl in ctx)
        return (pair, given, ctx)

    for _ in range(50):
        g = random_graph(rng)
        perm = list(g.vertices)
        rng.shuffle(perm)
        mapping = dict(zip(g.vertices, perm))
        relabeled = StratifiedChainGraph(
            tuple(mapping[v] for v in g.vertices),
            tuple(
                (name, tuple(mapping[v] for v in members))
                for name, members in g.components
            ),
            tuple((mapping[u], mapping[v]) for u, v in g.edges),
            tuple((mapping[u], mapping[v]) for u, v in g.arcs),
            (),
        )
        want = {rename_key(k, mapping) for k in stmt_keys(markov_type_iv(g))}
        assert stmt_keys(markov_type_iv(relabeled)) == want


def test_stratified_matches_plain_without_strata():
    rng = random.Random(99)
    for _ in range(50):
        g = random_graph(rng)
        assert stmt_keys(stratified_markov(g)) == stmt_keys(markov_type_iv(g))


def test_cs_outputs_pass_admissibility():
    # concrete context entries of every emitted CS statement touch both sides
    for name in ("fig_b.graph", "fig4.graph"):
        g = load(name)
        edges = {frozenset(e) for e in g.edges}
        parents = {}
        for u, v in g.arcs:
            parents.setdefault(v, set()).add(u)
        for s in stratified_markov(g):
            if s.context is None:
                continue
            (gamma,) = s.lhs
            (delta,) = s.rhs
            for n, lvl in zip(s.given, s.context.pattern):
                if lvl is None:
                    continue
                for endpoint in (gamma, delta):
                    assert (
                        frozenset((n, endpoint)) in edges
                        or n in parents.get(endpoint, set())
                    )

"""Stratified chain graphs: parsing, validation, independence extraction.

A chain graph partitions its vertices into components joined internally by
undirected edges and externally by directed arcs, with no directed or
semi-directed cycle.  A stratum decorates a missing edge or arc with the
covariate contexts under which the corresponding pair is independent, so
the graph can express context-specific structure on top of the usual
component-wise Markov reading.

All queries return vertices in declaration order and statements in a
stable order, so text renderings are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .constraints import PatternContext, Statement, render_statement
from .errors import GraphFormatError


@dataclass(frozen=True)
class Stratum:
    """Context annotation on a missing edge or arc.

    ``patterns`` holds one tuple per context row, aligned with ``given``;
    None entries are asterisks (the independence holds at every level of
    that variable).
    """

    pair: tuple
    given: tuple
    patterns: tuple


@dataclass(frozen=True)
class StratifiedChainGraph:
    vertices: tuple
    components: tuple  # tuple of (name, vertex tuple) pairs, declared order
    edges: tuple  # undirected, stored as declared (u, v)
    arcs: tuple  # directed (tail, head)
    strata: tuple

    def component_of(self, vertex):
        for name, members in self.components:
            if vertex in members:
                return name
        raise GraphFormatError(f"vertex {vertex!r} is in no component")


def _order(graph, names):
    pos = {v: k for k, v in enumerate(graph.vertices)}
    return tuple(sorted(set(names), key=pos.__getitem__))


def _edge_set(graph):
    return {frozenset(e) for e in graph.edges}


# ---------------------------------------------------------------------------
# construction and validation

def validate(graph: StratifiedChainGraph, variables=None):
    """Collect every structural violation; an empty list means the graph is valid.

    With ``variables`` (specs carrying cardinalities) stratum context levels
    are range-checked as well.
    """
    problems = []
    seen = set()
    for v in graph.vertices:
        if v in seen:
            problems.append(f"vertex {v!r} declared twice")
        seen.add(v)
    membership = {}
    out = {}  # component digraph, keys in declared order
    for name, members in graph.components:
        if name in out:
            problems.append(f"component {name} declared twice")
        out[name] = set()
        for v in members:
            if v not in seen:
                problems.append(f"component {name} lists unknown vertex {v!r}")
            if v in membership:
                problems.append(
                    f"vertex {v!r} belongs to components {membership[v]} and {name}"
                )
            membership[v] = name
    for v in graph.vertices:
        if v not in membership:
            problems.append(f"vertex {v!r} belongs to no component")

    edge_seen = set()
    for u, v in graph.edges:
        if u == v:
            problems.append(f"edge {u} -- {v} is a self loop")
            continue
        if u not in membership or v not in membership:
            problems.append(f"edge {u} -- {v} uses an undeclared vertex")
            continue
        if membership[u] != membership[v]:
            problems.append(
                f"edge {u} -- {v} crosses components {membership[u]} and {membership[v]}"
            )
        key = frozenset((u, v))
        if key in edge_seen:
            problems.append(f"edge {u} -- {v} declared twice")
        edge_seen.add(key)

    arc_seen = set()
    for u, v in graph.arcs:
        if u == v:
            problems.append(f"arc {u} -> {v} is a self loop")
            continue
        if u not in membership or v not in membership:
            problems.append(f"arc {u} -> {v} uses an undeclared vertex")
            continue
        if membership[u] == membership[v]:
            problems.append(
                f"arc {u} -> {v} stays inside component {membership[u]}"
            )
        else:
            out[membership[u]].add(membership[v])
        if (u, v) in arc_seen:
            problems.append(f"arc {u} -> {v} declared twice")
        if (v, u) in arc_seen:
            problems.append(f"arcs {u} -> {v} and {v} -> {u} are both declared")
        arc_seen.add((u, v))

    # no directed or semi-directed cycle: the component digraph must be acyclic
    order = _topological_order(out)
    if len(order) != len(out):
        cyclic = sorted(set(out) - set(order))
        problems.append(
            "semi-directed cycle through components " + ", ".join(cyclic)
        )
        return problems  # parent/descendant queries are meaningless on cycles

    spec_by = {s.name: s for s in variables} if variables else {}
    for s in graph.strata:
        problems.extend(_validate_stratum(graph, membership, out, s, spec_by))
    return problems


def _validate_stratum(graph, membership, out, s, spec_by):
    """Problems of one stratum; ``out`` is the component digraph ``validate``
    built, which leaves out arcs on undeclared vertices."""
    problems = []
    g, d = s.pair
    label = f"stratum ({g},{d})"
    for v in (g, d) + tuple(s.given):
        if v not in membership:
            problems.append(f"{label}: unknown vertex {v!r}")
            return problems
    if g == d:
        problems.append(f"{label}: pair must be two distinct vertices")
        return problems
    if g in s.given or d in s.given:
        problems.append(f"{label}: conditioning set contains a pair member")
    if not s.patterns:
        problems.append(f"{label}: no context rows")
    for p in s.patterns:
        if len(p) != len(s.given):
            problems.append(f"{label}: context row {p} does not match {s.given}")
            return problems
        for name, lvl in zip(s.given, p):
            if lvl is None:
                continue
            if lvl < 1 or (name in spec_by and lvl > spec_by[name].cardinality):
                problems.append(f"{label}: level {lvl} out of range for {name!r}")

    edge_present = frozenset((g, d)) in _edge_set(graph)
    arc_present = (g, d) in graph.arcs or (d, g) in graph.arcs
    if edge_present or arc_present:
        problems.append(
            f"{label}: attaches to a present {'edge' if edge_present else 'arc'};"
            " strata describe partially missing links"
        )

    same = membership[g] == membership[d]
    if same:
        allowed = set(_parents(graph, out, membership[g]))
        scope = "the component's covariate set"
    else:
        # orient so gamma sits downstream of delta's component
        if membership[g] in _reachable(out, membership[d]):
            down = g
        elif membership[d] in _reachable(out, membership[g]):
            down = d
        else:
            problems.append(
                f"{label}: pair spans components with no parent relation"
            )
            down = None
        if down is not None:
            other = d if down == g else g
            pa = set(_parents(graph, out, membership[down]))
            if other not in pa:
                problems.append(
                    f"{label}: {other} is not a covariate of {down}'s component"
                )
            allowed = pa - {other}
            scope = "the covariate set minus the pair"
        else:
            allowed = set(graph.vertices)
            scope = "any vertices"
    extra = [v for v in s.given if v not in allowed]
    if extra:
        problems.append(
            f"{label}: conditioning variables {extra} fall outside {scope}"
        )

    # a variable pinned to a concrete level must be adjacent to, or a
    # parent of, both pair members, or the stratum asserts contradictory
    # roles for it; all-asterisk rows are exempt
    concrete = set()
    for p in s.patterns:
        for name, lvl in zip(s.given, p):
            if lvl is not None:
                concrete.add(name)
    edges = _edge_set(graph)
    parents = {}
    for u, v in graph.arcs:
        parents.setdefault(v, set()).add(u)
    for name in _order(graph, concrete):
        for endpoint in (g, d):
            linked = frozenset((name, endpoint)) in edges or name in parents.get(
                endpoint, set()
            )
            if not linked:
                problems.append(
                    f"{label}: context variable {name} is neither adjacent to"
                    f" nor a parent of {endpoint}, so the context is not"
                    " admissible"
                )
    return problems


def require_valid(graph, variables=None):
    problems = validate(graph, variables)
    if problems:
        raise GraphFormatError("; ".join(problems))
    return graph


# ---------------------------------------------------------------------------
# component structure

def _component_digraph(graph):
    membership = {}
    for name, members in graph.components:
        for v in members:
            membership[v] = name
    out = {name: set() for name, _ in graph.components}
    for u, v in graph.arcs:
        if membership[u] != membership[v]:
            out[membership[u]].add(membership[v])
    return membership, out


def _topological_order(out):
    """Kahn's sort of a component digraph whose keys are in declared order.

    The earliest declared ready component goes first.  Components on or
    downstream of a cycle never become ready and are left out.
    """
    pos = {n: k for k, n in enumerate(out)}
    indeg = dict.fromkeys(out, 0)
    for n in out:
        for m in out[n]:
            indeg[m] += 1
    ready = [n for n in out if indeg[n] == 0]
    order = []
    while ready:
        ready.sort(key=pos.__getitem__)
        n = ready.pop(0)
        order.append(n)
        for m in sorted(out[n], key=pos.__getitem__):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return order


def chain_components(graph):
    """Component vertex sets in a topological order of the component digraph."""
    _, out = _component_digraph(graph)
    order = _topological_order(out)
    if len(order) != len(out):
        raise GraphFormatError("component digraph is cyclic")
    return tuple((n, dict(graph.components)[n]) for n in order)


def _reachable(out, name):
    """Components reachable from ``name`` in the component digraph ``out``."""
    seen = set()
    stack = [name]
    while stack:
        n = stack.pop()
        for m in out[n]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def parents_of_component(graph, name):
    """Vertices of every component sending at least one arc into ``name``."""
    return _parents(graph, _component_digraph(graph)[1], name)


def _parents(graph, out, name):
    senders = [n for n in out if name in out[n]]
    verts = []
    for n in senders:
        verts.extend(dict(graph.components)[n])
    return _order(graph, verts)


def non_descendants(graph, name):
    """Vertices of components unreachable from ``name`` by directed paths."""
    reach = _reachable(_component_digraph(graph)[1], name) | {name}
    verts = []
    for n, members in graph.components:
        if n not in reach:
            verts.extend(members)
    return _order(graph, verts)


def graph_parents(graph, vertices):
    if isinstance(vertices, str):
        vertices = (vertices,)
    targets = set(vertices)
    return _order(graph, [u for u, v in graph.arcs if v in targets])


def neighbourhood(graph, vertices):
    if isinstance(vertices, str):
        vertices = (vertices,)
    vset = set(vertices)
    out = set(vset)
    for e in graph.edges:
        u, v = tuple(e)
        if u in vset:
            out.add(v)
        if v in vset:
            out.add(u)
    return _order(graph, out)


# ---------------------------------------------------------------------------
# independence extraction

def _canonical_pair_key(graph, lhs, rhs):
    pos = {v: k for k, v in enumerate(graph.vertices)}
    a = tuple(sorted(lhs, key=pos.__getitem__))
    b = tuple(sorted(rhs, key=pos.__getitem__))
    return (b, a) if (len(a), a) > (len(b), b) else (a, b)


def _component_statements(graph, name, members, missing_partner):
    """Eq.-11 style statements for one component (plain pairs only), as
    three lists: component level, missing edges, missing arcs.

    ``missing_partner(g, v)`` filters the candidate partners of ``g`` so the
    stratified extraction can carve stratum pairs out of the plain rules.
    """
    pa = parents_of_component(graph, name)
    nd = non_descendants(graph, name)
    # whole component against its non-descendants
    c1 = []
    rhs = tuple(v for v in nd if v not in pa)
    if rhs:
        c1.append(Statement(members, rhs, pa, None))
    # within-component missing edges, one statement per vertex
    c2 = []
    seen_pairs = set()
    for g in members:
        nb = set(neighbourhood(graph, g))
        rhs = tuple(
            v for v in members if v not in nb and missing_partner(g, v)
        )
        if not rhs:
            continue
        key = _canonical_pair_key(graph, (g,), rhs)
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        c2.append(Statement((g,), rhs, pa, None))
    # missing arcs from the covariate set, grouped per vertex
    c3 = []
    for g in members:
        pag = graph_parents(graph, g)
        rhs = tuple(
            v for v in pa if v not in pag and missing_partner(g, v)
        )
        if rhs:
            c3.append(Statement((g,), rhs, pag, None))
    return c1, c2, c3


def _dedup_statements(stmts):
    # symmetric statements from two sides of the same separation collapse
    seen = set()
    out = []
    for s in stmts:
        key = (
            frozenset((frozenset(s.lhs), frozenset(s.rhs))),
            frozenset(s.given),
            s.context,
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(s)
    return tuple(out)


def markov_type_iv(graph):
    """Independence statements of a plain chain graph (every level of the
    component-wise reading: component vs non-descendants, missing edges,
    missing arcs).  Rejects graphs carrying strata."""
    if graph.strata:
        raise GraphFormatError(
            "graph has strata; use stratified_markov for the stratified reading"
        )
    return stratified_markov(graph)


def _stratum_is_degenerate(s, variables):
    """K covering the whole context space makes the stratum an ordinary
    missing link."""
    if all(lvl is None for p in s.patterns for lvl in p):
        return True
    if not variables:
        return False
    spec_by = {v.name: v for v in variables}
    if any(n not in spec_by for n in s.given):
        return False
    cells = set()
    for p in s.patterns:
        axes = [
            (lvl,) if lvl is not None else tuple(range(1, spec_by[n].cardinality + 1))
            for n, lvl in zip(s.given, p)
        ]
        cells.update(itertools.product(*axes))
    full = 1
    for n in s.given:
        full *= spec_by[n].cardinality
    return len(cells) == full


def _extend_pattern(stratum, target_given):
    """Align a stratum pattern with a larger conditioning set, padding with
    asterisks."""
    rows = []
    for p in stratum.patterns:
        by_name = dict(zip(stratum.given, p))
        rows.append(tuple(by_name.get(n) for n in target_given))
    return tuple(rows)


def stratified_markov(graph, variables=None):
    """Statements of the stratified reading: plain rules for fully missing
    links, one context-specific statement per stratum pattern.

    Strata whose context rows cover the whole context space degrade to the
    plain reading (cardinalities are needed to detect multi-row coverage,
    hence the optional ``variables``).
    """
    require_valid(graph, variables)
    membership = {v: name for name, members in graph.components for v in members}
    live = [s for s in graph.strata if not _stratum_is_degenerate(s, variables)]
    partner = {}
    for s in live:
        g, d = s.pair
        partner.setdefault(g, set()).add(d)
        partner.setdefault(d, set()).add(g)

    def plain(g, v):
        return v not in partner.get(g, set())

    stmts = []
    for name, members in chain_components(graph):
        c1, c2, c3 = _component_statements(graph, name, members, plain)
        pa = parents_of_component(graph, name)
        cs2 = []
        cs3 = []
        for s in live:
            p0, p1 = s.pair
            if membership[p0] == membership[p1] == name:
                # missing edge: condition on the component's covariates
                for row in _extend_pattern(s, pa):
                    cs2.append(Statement((p0,), (p1,), pa, PatternContext(row)))
                continue
            # missing arc: orient so gamma sits in this component and delta
            # among its covariates, condition on the covariates minus delta
            if membership[p0] == name and p1 in pa:
                g, d = p0, p1
            elif membership[p1] == name and p0 in pa:
                g, d = p1, p0
            else:
                continue
            given = tuple(v for v in pa if v != d)
            for row in _extend_pattern(s, given):
                cs3.append(Statement((g,), (d,), given, PatternContext(row)))
        stmts.extend(c1 + c2 + cs2 + c3 + cs3)
    return _dedup_statements(stmts)


def marginal_sets(graph):
    """Ordered marginal list for the component-wise parameterization.

    Per component: the covariate set joined with every nonempty response
    subset (just the component itself when it has no covariates), plus the
    component joined with its non-descendants.  Deduplicated and ordered by
    size then position, so no marginal precedes one of its subsets.
    """
    require_valid(graph)
    pos = {v: k for k, v in enumerate(graph.vertices)}
    out = set()
    for name, members in chain_components(graph):
        pa = parents_of_component(graph, name)
        if pa:
            for r in range(1, len(members) + 1):
                for sub in itertools.combinations(members, r):
                    out.add(frozenset(pa) | frozenset(sub))
        else:
            out.add(frozenset(members))
        out.add(frozenset(non_descendants(graph, name)) | frozenset(members))
    ordered = sorted(
        (tuple(sorted(m, key=pos.__getitem__)) for m in out),
        key=lambda m: (len(m), tuple(pos[v] for v in m)),
    )
    return tuple(ordered)


# ---------------------------------------------------------------------------
# text and JSON formats

_COMPONENT_RE = re.compile(r"^component\s+(\S+)\s*=\s*\{([^}]*)\}$")
_EDGE_RE = re.compile(r"^edge\s+(\S+)\s*--\s*(\S+)$")
_ARC_RE = re.compile(r"^arc\s+(\S+)\s*->\s*(\S+)$")
_STRATUM_RE = re.compile(
    r"^stratum\s*\(\s*(\S+?)\s*,\s*(\S+?)\s*\)\s*\|\s*\{([^}]*)\}\s*=\s*\{(.*)\}$"
)


def parse_graph(text: str) -> StratifiedChainGraph:
    components = []
    edges = []
    arcs = []
    strata = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _COMPONENT_RE.match(line)
        if m:
            name, body = m.groups()
            members = tuple(p.strip() for p in body.split(",") if p.strip())
            if not members:
                raise GraphFormatError(f"line {lineno}: empty component {name}")
            components.append((name, members))
            continue
        m = _EDGE_RE.match(line)
        if m:
            edges.append(m.groups())
            continue
        m = _ARC_RE.match(line)
        if m:
            arcs.append(m.groups())
            continue
        m = _STRATUM_RE.match(line)
        if m:
            g, d, given_s, rows_s = m.groups()
            given = tuple(p.strip() for p in given_s.split(",") if p.strip())
            rows = []
            for part in re.findall(r"\(([^)]*)\)", rows_s):
                row = []
                for item in part.split(","):
                    item = item.strip()
                    if not item:
                        continue
                    try:
                        row.append(None if item == "*" else int(item))
                    except ValueError:
                        raise GraphFormatError(
                            f"line {lineno}: context level {item!r} is not an integer or *"
                        ) from None
                rows.append(tuple(row))
            if not rows:
                raise GraphFormatError(f"line {lineno}: stratum with no context rows")
            strata.append(Stratum((g, d), given, tuple(rows)))
            continue
        raise GraphFormatError(f"line {lineno}: unrecognized directive {line!r}")
    if not components:
        raise GraphFormatError("no components declared")
    vertices = tuple(v for _, members in components for v in members)
    return StratifiedChainGraph(
        vertices, tuple(components), tuple(edges), tuple(arcs), tuple(strata)
    )


def render_graph(graph: StratifiedChainGraph) -> str:
    lines = []
    for name, members in graph.components:
        lines.append(f"component {name} = {{{','.join(members)}}}")
    for u, v in graph.edges:
        lines.append(f"edge {u} -- {v}")
    for u, v in graph.arcs:
        lines.append(f"arc {u} -> {v}")
    lines += [render_stratum(s) for s in graph.strata]
    return "\n".join(lines) + "\n"


def render_stratum(s: Stratum) -> str:
    """The stratum's line of a graph spec."""
    rows = ",".join(
        "(" + ",".join("*" if lvl is None else str(lvl) for lvl in p) + ")"
        for p in s.patterns
    )
    return f"stratum ({s.pair[0]},{s.pair[1]}) | {{{','.join(s.given)}}} = {{{rows}}}"


def graph_to_json(graph: StratifiedChainGraph) -> dict:
    return {
        "schema": "scgm-graph/1",
        "components": [
            {"name": name, "vertices": list(members)}
            for name, members in graph.components
        ],
        "edges": [list(e) for e in graph.edges],
        "arcs": [list(a) for a in graph.arcs],
        "strata": [
            {
                "pair": list(s.pair),
                "given": list(s.given),
                "patterns": [list(p) for p in s.patterns],
            }
            for s in graph.strata
        ],
    }


def graph_from_json(obj: dict) -> StratifiedChainGraph:
    if obj.get("schema") != "scgm-graph/1":
        raise GraphFormatError(f"unsupported graph schema {obj.get('schema')!r}")
    try:
        components = tuple(
            (c["name"], tuple(c["vertices"])) for c in obj["components"]
        )
        edges = tuple(tuple(e) for e in obj.get("edges", []))
        arcs = tuple(tuple(a) for a in obj.get("arcs", []))
        strata = tuple(
            Stratum(
                tuple(s["pair"]),
                tuple(s["given"]),
                tuple(tuple(p) for p in s["patterns"]),
            )
            for s in obj.get("strata", [])
        )
    except (KeyError, TypeError) as exc:
        raise GraphFormatError(f"malformed graph object: {exc}")
    for s in strata:
        for p in s.patterns:
            for lvl in p:
                # exact type: JSON true and false load as bool, a subclass of int
                if lvl is not None and type(lvl) is not int:
                    raise GraphFormatError(
                        f"stratum ({','.join(map(str, s.pair))}): context level {lvl!r}"
                        " is not an integer or null"
                    )
    vertices = tuple(v for _, members in components for v in members)
    return StratifiedChainGraph(vertices, components, edges, arcs, strata)


def load_graph(path) -> StratifiedChainGraph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return graph_from_json(json.loads(text))
    return parse_graph(text)


def statements_text(stmts) -> str:
    return "\n".join(render_statement(s) for s in stmts) + "\n"

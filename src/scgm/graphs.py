"""Stratified chain graphs: parsing, validation, independence extraction.

A chain graph partitions its vertices into components joined internally by
undirected edges and externally by directed arcs, with no directed or
semi-directed cycle.  A stratum decorates a missing edge or arc with the
covariate contexts under which the corresponding pair is independent, so
the graph can express context-specific structure on top of the usual
component-wise Markov reading.

Each call that needs the component structure (the component digraph, its
topological order, parents and non-descendants) builds it once, as a
``_Chain``, and asks it every question.  Adjacency comes from the chain
too: validation checks a stratum's context, and the Markov reading finds
missing edges and missing arcs, in its edge set and arc tails.  The rule
that orients a stratum pair and gives its conditioning scope lives in
``stratum_scope`` alone: validation, the stratified Markov reading and
the model search all use it.

A graph is read against a table's variables in one place, ``validate``:
it alone compares the graph's vertices with the variable names, and the
library, the command line and the model search all ask it.  The check
that refuses a graph is ``require_valid`` here, and its twins
``regression._require_admissible`` and ``fitting.model_search``'s
skeleton check: each raises ``InadmissibleGraphError`` (a
``GraphFormatError``) carrying ``validate``'s problem list, and the
command line reports that error instead of checking again.  Given the
variables, ``stratified_markov`` returns its statements in their
canonical form (table order, range-checked).

All queries return vertices in declaration order and statements in a
stable order, so text renderings are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from .constraints import PatternContext, Statement, parse_rows, validate_statement
from .errors import GraphFormatError, InadmissibleGraphError


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


def _order(graph, names):
    pos = {v: k for k, v in enumerate(graph.vertices)}
    return tuple(sorted(set(names), key=pos.__getitem__))


# ---------------------------------------------------------------------------
# construction and validation

def validate(graph: StratifiedChainGraph, variables=None):
    """Collect every structural violation; an empty list means the graph is valid.

    This is the one check of a graph against a table.  With ``variables``
    (the table's specs) a vertex set that differs from the variable names
    is the single problem returned; otherwise stratum context levels are
    range-checked against the cardinalities as well.
    """
    if variables is not None:
        table_names = {s.name for s in variables}
        if set(graph.vertices) != table_names:
            return [
                f"graph vertices {sorted(graph.vertices)} do not match the table "
                f"variables {sorted(table_names)}"
            ]
    problems = []
    seen = set()
    for v in graph.vertices:
        if v in seen:
            problems.append(f"vertex {v!r} declared twice")
        seen.add(v)
    chain = _Chain(graph)
    names = set()
    membership = {}
    for name, members in graph.components:
        if name in names:
            problems.append(f"component {name} declared twice")
        names.add(name)
        if not members:
            problems.append(f"component {name} lists no vertices")
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
        if (u, v) in arc_seen:
            problems.append(f"arc {u} -> {v} declared twice")
        if (v, u) in arc_seen:
            problems.append(f"arcs {u} -> {v} and {v} -> {u} are both declared")
        arc_seen.add((u, v))

    # no directed or semi-directed cycle: the component digraph must be acyclic
    if len(chain.order) != len(chain.out):
        cyclic = sorted(set(chain.out) - set(chain.order))
        problems.append(
            "semi-directed cycle through components " + ", ".join(cyclic)
        )
        return problems  # parent/descendant queries are meaningless on cycles

    spec_by = {s.name: s for s in variables} if variables else {}
    for s in graph.strata:
        problems.extend(_validate_stratum(chain, s, spec_by))
    return problems


def _validate_stratum(chain, s, spec_by):
    """Problems of one stratum of ``chain``'s graph.

    The pair's orientation, its two orientation problems and the scope
    its conditioning variables must fall in come from ``stratum_scope``.
    """
    problems = []
    g, d = s.pair
    label = f"stratum ({g},{d})"
    for v in (g, d) + tuple(s.given):
        if v not in chain.component:
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

    edge_present = frozenset((g, d)) in chain.edges
    arc_present = g in chain.tails.get(d, ()) or d in chain.tails.get(g, ())
    if edge_present or arc_present:
        problems.append(
            f"{label}: attaches to a present {'edge' if edge_present else 'arc'};"
            " strata describe partially missing links"
        )

    _, _, allowed, problem = chain.stratum_scope(s.pair)
    if problem is not None:
        problems.append(f"{label}: {problem}")
    if allowed is None:
        allowed, scope = chain.graph.vertices, "any vertices"
    elif chain.component[g] == chain.component[d]:
        scope = "the component's covariate set"
    else:
        scope = "the covariate set minus the pair"
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
    for name in _order(chain.graph, concrete):
        for endpoint in (g, d):
            linked = frozenset((name, endpoint)) in chain.edges or name in chain.tails.get(
                endpoint, ()
            )
            if not linked:
                problems.append(
                    f"{label}: context variable {name} is neither adjacent to"
                    f" nor a parent of {endpoint}, so the context is not"
                    " admissible"
                )
    return problems


def require_valid(graph, variables=None):
    """Raise InadmissibleGraphError if ``validate`` finds any problem."""
    problems = validate(graph, variables)
    if problems:
        raise InadmissibleGraphError(*problems)


# ---------------------------------------------------------------------------
# component structure

class _Chain:
    """The component structure of one graph, built once per call.

    ``component`` maps each listed vertex to its component (the last one,
    when two list it).  ``out`` is the component digraph, keys in declared
    order; an arc inside a component, or on a vertex that no component
    lists, adds no edge.  ``order`` is its topological order, which leaves
    out the components on or downstream of a cycle.  ``edges`` holds the
    edges as frozensets and ``tails`` each vertex's arc tails.
    """

    def __init__(self, graph):
        self.graph = graph
        self.members = dict(graph.components)
        self.component = {v: name for name, members in graph.components for v in members}
        self.out = {name: set() for name in self.members}
        self.tails = {}
        for u, v in graph.arcs:
            self.tails.setdefault(v, set()).add(u)
            cu, cv = self.component.get(u), self.component.get(v)
            if cu is not None and cv is not None and cu != cv:
                self.out[cu].add(cv)
        self.order = _topological_order(self.out)
        self.edges = {frozenset(e) for e in graph.edges}

    def components(self):
        """Component vertex sets in topological order; refuses a cycle."""
        if len(self.order) != len(self.out):
            raise GraphFormatError("component digraph is cyclic")
        return tuple((n, self.members[n]) for n in self.order)

    def reachable(self, name):
        """Components reachable from ``name`` by directed paths."""
        seen = set()
        stack = [name]
        while stack:
            for m in self.out[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return seen

    def parents(self, name):
        """Vertices of every component sending at least one arc into ``name``."""
        return _order(
            self.graph,
            [v for n in self.out if name in self.out[n] for v in self.members[n]],
        )

    def non_descendants(self, name):
        """Vertices of components unreachable from ``name`` by directed paths."""
        reach = self.reachable(name) | {name}
        return _order(
            self.graph,
            [v for n, members in self.graph.components if n not in reach for v in members],
        )

    def stratum_scope(self, pair):
        """See the module-level ``stratum_scope``."""
        g, d = pair
        cg, cd = self.component[g], self.component[d]
        if cg == cd:
            return g, d, self.parents(cg), None
        # orient so gamma sits downstream of delta's component
        if cg not in self.reachable(cd):
            if cd not in self.reachable(cg):
                return g, d, None, "pair spans components with no parent relation"
            g, d, cg = d, g, cd
        pa = self.parents(cg)
        problem = None if d in pa else f"{d} is not a covariate of {g}'s component"
        return g, d, tuple(v for v in pa if v != d), problem


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


def stratum_scope(graph, pair):
    """Orientation and conditioning scope of a stratum pair, as
    ``(gamma, delta, scope, problem)``.

    A pair inside one component is a missing edge: it keeps its order and
    conditions on the component's parents.  A pair across components is a
    missing arc: gamma is the member whose component is downstream of the
    other's, and the scope is gamma's component parents minus delta.
    ``problem`` names what makes the pair unusable, or is None: a pair
    with neither component downstream of the other has a None scope, and
    a delta outside the parents of gamma's component is not a covariate.
    Both pair members must belong to a component of an acyclic graph.
    """
    return _Chain(graph).stratum_scope(pair)


def chain_components(graph):
    """Component vertex sets in a topological order of the component digraph."""
    return _Chain(graph).components()


def parents_of_component(graph, name):
    """Vertices of every component sending at least one arc into ``name``."""
    return _Chain(graph).parents(name)


def non_descendants(graph, name):
    """Vertices of components unreachable from ``name`` by directed paths."""
    return _Chain(graph).non_descendants(name)


# ---------------------------------------------------------------------------
# independence extraction

def _component_statements(chain, name, members, missing_partner):
    """Eq.-11 style statements for one component (plain pairs only), as
    three lists: component level, missing edges, missing arcs.

    ``missing_partner(g, v)`` filters the candidate partners of ``g`` so the
    stratified extraction can carve stratum pairs out of the plain rules.
    """
    pa = chain.parents(name)
    nd = chain.non_descendants(name)
    # whole component against its non-descendants
    c1 = []
    rhs = tuple(v for v in nd if v not in pa)
    if rhs:
        c1.append(Statement(members, rhs, pa, None))
    # within-component missing edges, one statement per vertex; the mirror
    # image of an earlier one is dropped by _dedup_statements
    c2 = []
    for g in members:
        rhs = tuple(
            v for v in members
            if v != g and frozenset((g, v)) not in chain.edges and missing_partner(g, v)
        )
        if rhs:
            c2.append(Statement((g,), rhs, pa, None))
    # missing arcs from the covariate set, grouped per vertex
    c3 = []
    for g in members:
        pag = _order(chain.graph, chain.tails.get(g, ()))
        rhs = tuple(v for v in pa if v not in pag and missing_partner(g, v))
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


def _stratum_is_degenerate(s, variables):
    """K covering the whole context space makes the stratum an ordinary
    missing link."""
    if all(lvl is None for p in s.patterns for lvl in p):
        return True
    if not variables:
        return False
    spec_by = {v.name: v for v in variables}
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
    hence the optional ``variables``).  Given ``variables``, the graph must
    match them (see ``validate``) and each statement comes back canonical,
    as ``validate_statement`` leaves it.
    """
    require_valid(graph, variables)
    chain = _Chain(graph)
    live = [s for s in graph.strata if not _stratum_is_degenerate(s, variables)]
    partner = {}
    for s in live:
        g, d = s.pair
        partner.setdefault(g, set()).add(d)
        partner.setdefault(d, set()).add(g)

    def plain(g, v):
        return v not in partner.get(g, set())

    scoped = [(chain.stratum_scope(s.pair), s) for s in live]
    stmts = []
    for name, members in chain.components():
        c1, c2, c3 = _component_statements(chain, name, members, plain)
        cs2 = []  # missing edges
        cs3 = []  # missing arcs
        for (g, d, given, _), s in scoped:
            if chain.component[g] != name:
                continue
            cs = cs2 if chain.component[d] == name else cs3
            for row in _extend_pattern(s, given):
                cs.append(Statement((g,), (d,), given, PatternContext(row)))
        stmts.extend(c1 + c2 + cs2 + c3 + cs3)
    stmts = _dedup_statements(stmts)
    if variables is None:
        return stmts
    return tuple(validate_statement(s, variables) for s in stmts)


def marginal_sets(graph):
    """Ordered marginal list for the component-wise parameterization.

    Per component: the covariate set joined with every nonempty response
    subset (just the component itself when it has no covariates), plus the
    component joined with its non-descendants.  Deduplicated and ordered by
    size then position, so no marginal precedes one of its subsets.
    """
    require_valid(graph)
    chain = _Chain(graph)
    pos = {v: k for k, v in enumerate(graph.vertices)}
    out = set()
    for name, members in chain.components():
        pa = chain.parents(name)
        if pa:
            for r in range(1, len(members) + 1):
                for sub in itertools.combinations(members, r):
                    out.add(frozenset(pa) | frozenset(sub))
        else:
            out.add(frozenset(members))
        out.add(frozenset(chain.non_descendants(name)) | frozenset(members))
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
            rows = parse_rows(rows_s, lambda item, row: GraphFormatError(
                f"line {lineno}: context level {item!r} is not an integer or *"
            ))
            if rows is None:
                raise GraphFormatError(
                    f"line {lineno}: context rows {rows_s!r} are not parenthesized"
                    " tuples separated by commas"
                )
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


def _require_writable(names, what, reserved="#,}"):
    """Refuse a name that parse_graph would not read back: an empty one,
    one holding whitespace, where directives split, or a reserved
    character: '#' starts a comment anywhere, and a vertex list splits at
    ',' and ends at '}'.  A component name, read up to its '=', reserves
    only '#'."""
    for name in names:
        if not name or any(c.isspace() or c in reserved for c in name):
            raise GraphFormatError(
                f"{what} {name!r} would not read back from the graph text "
                f"format, which reserves whitespace and {' '.join(reserved)} "
                "in it; write the graph as JSON"
            )


def render_graph(graph: StratifiedChainGraph) -> str:
    """The graph's text spec, as parse_graph reads it.  A name it would not
    read back raises GraphFormatError."""
    lines = []
    for name, members in graph.components:
        _require_writable((name,), "component name", reserved="#")
        _require_writable(members, "vertex name")
        lines.append(f"component {name} = {{{','.join(members)}}}")
    for u, v in graph.edges:
        _require_writable((u, v), "vertex name")
        lines.append(f"edge {u} -- {v}")
    for u, v in graph.arcs:
        _require_writable((u, v), "vertex name")
        lines.append(f"arc {u} -> {v}")
    lines += [render_stratum(s) for s in graph.strata]
    return "\n".join(lines) + "\n"


def render_stratum(s: Stratum) -> str:
    """The stratum's line of a graph spec; refuses names as render_graph does."""
    _require_writable(s.pair + s.given, "vertex name")
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


def _json_vertices(value, what, size=None):
    """A JSON list of vertex names as a tuple, of ``size`` names if given."""
    if (
        not isinstance(value, list)
        or not all(isinstance(v, str) for v in value)
        or (size is not None and len(value) != size)
    ):
        count = "vertex names" if size is None else f"{size} vertex names"
        raise GraphFormatError(f"{what} must be a list of {count}, got {value!r}")
    return tuple(value)


def _json_name(value):
    """A JSON component name, which must be a string."""
    if not isinstance(value, str):
        raise GraphFormatError(f"a component name must be a string, got {value!r}")
    return value


def graph_from_json(obj: dict) -> StratifiedChainGraph:
    if not isinstance(obj, dict):
        raise GraphFormatError(f"a graph must be a JSON object, got {obj!r}")
    if obj.get("schema") != "scgm-graph/1":
        raise GraphFormatError(f"unsupported graph schema {obj.get('schema')!r}")
    try:
        components = tuple(
            (
                _json_name(c["name"]),
                _json_vertices(c["vertices"], f"component {c['name']} vertices"),
            )
            for c in obj["components"]
        )
        edges = tuple(_json_vertices(e, "an edge", 2) for e in obj.get("edges", []))
        arcs = tuple(_json_vertices(a, "an arc", 2) for a in obj.get("arcs", []))
        strata = tuple(
            Stratum(
                _json_vertices(s["pair"], "a stratum pair", 2),
                _json_vertices(s["given"], "a stratum's conditioning set"),
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


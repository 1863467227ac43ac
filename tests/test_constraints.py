"""Constraint generation: frozen row sets, soundness, converse, counting."""

import itertools
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scgm import oracle
from scgm.constraints import (
    CellListContext,
    PatternContext,
    Statement,
    ThresholdContext,
    context_cells,
    evaluate_system,
    generate_constraints,
    interaction_sets,
    merge_systems,
    parse_statement,
    render_statement,
    reversed_context_specs,
    statement_from_json,
    statement_to_json,
    system_to_json,
    validate_statement,
)
from scgm.errors import StatementError, UnsupportedCodingError
from scgm.graphs import load_graph
from scgm.regression import scgm_constraint_system
from scgm.tables import VariableSpec, probability_vector

GOLDEN = Path(__file__).parent / "golden"


def reverse_variable_levels(pv, names):
    """Flip the level order of the named variables and swap their codings,
    as a lower-threshold system's variables expect."""
    axes = tuple(k for k, spec in enumerate(pv.variables) if spec.name in names)
    arr = np.flip(pv.as_array(), axis=axes)
    return probability_vector(reversed_context_specs(pv.variables, names), arr.ravel())


def expected_constraint_count(stmt, variables) -> int:
    """Closed-form count of constraints for an explicit context list.

    One statement imposes (product of cardinalities over both independence
    sides, minus one) constraints per context cell.  Per context cell, the
    straddling effects that generate_constraints emits (before
    deduplication) and the effects inside one side alone together have
    exactly this many effect cells.
    """
    stmt = validate_statement(stmt, variables)
    if not isinstance(stmt.context, (CellListContext, PatternContext)):
        raise StatementError("the closed-form count applies to explicit context lists")
    spec_by = {s.name: s for s in variables}
    prod = 1
    for n in stmt.lhs + stmt.rhs:
        prod *= spec_by[n].cardinality
    return (prod - 1) * len(context_cells(stmt, variables))


def coefficient_matrix(systems):
    """Stack systems into a dense matrix over the union of their indices.

    Returns (matrix, index list); row blocks follow the input order.  Used
    for rank comparisons between generation strategies.
    """
    index_list = []
    pos = {}
    for s in systems:
        for idx in s.indices:
            if idx not in pos:
                pos[idx] = len(index_list)
                index_list.append(idx)
    total_rows = sum(len(s.rows) for s in systems)
    mat = np.zeros((total_rows, len(index_list)))
    r = 0
    for s in systems:
        for row in s.rows:
            for t in row.terms:
                mat[r, pos[t.index]] += t.coef
            r += 1
    return mat, index_list


def V(*card_coding):
    return tuple(
        VariableSpec(str(k + 1), card, coding)
        for k, (card, coding) in enumerate(card_coding)
    )


def row_set(system):
    """Comparable form: frozenset of rows, each a frozenset of signed indexes."""
    return {
        frozenset((t.index.effect, t.index.cell, t.coef) for t in row.terms)
        for row in system.rows
    }


def signed(*entries):
    return frozenset(entries)


# ---------------------------------------------------------------------------
# frozen worked examples

def test_four_binary_baseline_single_context_cell():
    # 2x2x2x2, all baseline, {1} _||_ {2} | {3,4} at context (1,1):
    # one row with the familiar +/-/-/+ pattern over context subsets.
    vs = V((2, "baseline"), (2, "baseline"), (2, "baseline"), (2, "baseline"))
    stmt = Statement(("1",), ("2",), ("3", "4"), CellListContext(((1, 1),)))
    sys_ = generate_constraints(stmt, vs)
    assert len(sys_.rows) == 1
    assert row_set(sys_) == {
        signed(
            (("1", "2"), (1, 1), 1),
            (("1", "2", "3"), (1, 1, 1), -1),
            (("1", "2", "4"), (1, 1, 1), -1),
            (("1", "2", "3", "4"), (1, 1, 1, 1), 1),
        )
    }


def test_baseline_context_with_top_coordinate_drops_terms():
    # 3x3x3x3 baseline, context (1,3) with the second context variable at its
    # top level: every term touching that variable vanishes, leaving
    # eta_12(i) - eta_123(i,1) = 0 over the four sub-top cells of {1,2}.
    vs = V((3, "baseline"), (3, "baseline"), (3, "baseline"), (3, "baseline"))
    stmt = Statement(("1",), ("2",), ("3", "4"), CellListContext(((1, 3),)))
    sys_ = generate_constraints(stmt, vs)
    assert len(sys_.rows) == 4
    expected = {
        signed(
            (("1", "2"), (i, j), 1),
            (("1", "2", "3"), (i, j, 1), -1),
        )
        for i in (1, 2)
        for j in (1, 2)
    }
    assert row_set(sys_) == expected


def test_local_context_lattice_sum_row():
    # 2x2x4 with the conditioning variable local: context cell (2) gives
    # eta_123(1,1,2) + eta_123(1,1,3) - eta_12(1,1) = 0.
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((2,),)))
    sys_ = generate_constraints(stmt, vs)
    assert len(sys_.rows) == 1
    assert row_set(sys_) == {
        signed(
            (("1", "2"), (1, 1), -1),
            (("1", "2", "3"), (1, 1, 2), 1),
            (("1", "2", "3"), (1, 1, 3), 1),
        )
    }


def test_local_context_row_value_is_slice_odds_ratio():
    # On any positive table (independent or not) the lattice row above
    # exponentiates to p122*p212/(p222*p112): the row vanishing is exactly
    # independence inside the X3=2 slice.
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    pv = oracle.random_positive(vs, seed=11)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((2,),)))
    sys_ = generate_constraints(stmt, vs)
    got = np.exp(evaluate_system(pv, sys_)[0])
    arr = pv.as_array()
    want = (arr[0, 1, 1] * arr[1, 0, 1]) / (arr[1, 1, 1] * arr[0, 0, 1])
    assert got == pytest.approx(want, rel=1e-12)


def test_local_context_at_top_reduces_to_single_term():
    # only the empty context subset survives; its sign is (-1)^{|C|}
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((4,),)))
    sys_ = generate_constraints(stmt, vs)
    assert row_set(sys_) == {signed((("1", "2"), (1, 1), -1))}


def test_threshold_on_four_levels_zeroes_upper_lattice():
    # 2x2x4 local conditioning variable, threshold >= 2: the region
    # constraints are exactly {eta_12(11), eta_123(112), eta_123(113)}.
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    sys_ = generate_constraints(stmt, vs)
    assert row_set(sys_) == {
        signed((("1", "2"), (1, 1), 1)),
        signed((("1", "2", "3"), (1, 1, 2), 1)),
        signed((("1", "2", "3"), (1, 1, 3), 1)),
    }


def test_threshold_equals_lattice_rows_in_rank():
    # Threshold >= 2 and the cell-list system over {2,3,4} cut out the same
    # linear space: equal ranks separately and stacked.
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    thr = generate_constraints(
        Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq")), vs
    )
    lst = generate_constraints(
        Statement(("1",), ("2",), ("3",), CellListContext(((2,), (3,), (4,)))), vs
    )
    m_thr, _ = coefficient_matrix([thr])
    m_lst, _ = coefficient_matrix([lst])
    m_both, _ = coefficient_matrix([thr, lst])
    r = np.linalg.matrix_rank
    assert r(m_thr) == r(m_lst) == r(m_both) == 3


def test_mixed_coding_threshold_nine_rows():
    # 2x2x4x4 with baseline/baseline/local/continuation and threshold
    # >= (2,2): nine single-term rows.
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3", "4"), ThresholdContext((2, 2), "geq"))
    sys_ = generate_constraints(stmt, vs)
    assert len(sys_.rows) == 9
    assert row_set(sys_) == {
        signed((("1", "2"), (1, 1), 1)),
        signed((("1", "2", "3"), (1, 1, 2), 1)),
        signed((("1", "2", "3"), (1, 1, 3), 1)),
        signed((("1", "2", "4"), (1, 1, 2), 1)),
        signed((("1", "2", "4"), (1, 1, 3), 1)),
        signed((("1", "2", "3", "4"), (1, 1, 2, 2), 1)),
        signed((("1", "2", "3", "4"), (1, 1, 2, 3), 1)),
        signed((("1", "2", "3", "4"), (1, 1, 3, 2), 1)),
        signed((("1", "2", "3", "4"), (1, 1, 3, 3), 1)),
    }
    # deterministic emission: context-free effect first, then by effect size
    effects = [row.terms[0].index.effect for row in sys_.rows]
    assert effects == sorted(effects, key=lambda e: (len(e), e))


@pytest.mark.parametrize(
    "stmt",
    [
        Statement(("1",), ("2",), ("3", "4")),
        Statement(("2",), ("4",), ("1", "3")),
        Statement(("1", "4"), ("3",), ("2",)),
    ],
)
def test_threshold_at_the_bottom_gives_the_plain_rows_in_order(stmt):
    # the region at bound 1 is the whole parameter space of the widened
    # effects; the last two statements declare a conditioning variable
    # before a side variable
    vs = V((3, "local"), (4, "local"), (3, "local"), (3, "local"))
    # a lower threshold takes reverse-continuation conditioning variables
    reverse = tuple(
        replace(s, coding="reverse-continuation") if s.name in stmt.given else s for s in vs
    )
    for direction, codings in (("geq", vs), ("leq", reverse)):
        plain = generate_constraints(stmt, codings)
        bound = (1,) * len(stmt.given)
        if direction == "leq":
            # the lower threshold's region at the top level is the same
            # region on reversed scales
            bound = tuple(vs[int(n) - 1].cardinality for n in stmt.given)
        ctx = ThresholdContext(bound, direction)
        cs = generate_constraints(Statement(stmt.lhs, stmt.rhs, stmt.given, ctx), codings)
        assert [r.terms for r in cs.rows] == [r.terms for r in plain.rows]
        assert cs.pre_dedup_count == plain.pre_dedup_count


def test_threshold_rows_come_in_canonical_parameter_order():
    # the conditioning variable 2 is declared before the side variable 4
    # and keeps two region levels, so its coordinate is not the fastest
    vs = V((3, "baseline"), (4, "local"), (2, "baseline"), (4, "baseline"))
    sys_ = generate_constraints(parse_statement("CS: {1} _||_ {4} | {2} >= (2)"), vs)
    got = [(r.terms[0].index.effect, r.terms[0].index.cell) for r in sys_.rows]
    want = [(("1", "4"), c) for c in itertools.product((1, 2), (1, 2, 3))]
    want += [(("1", "2", "4"), c) for c in itertools.product((1, 2), (2, 3), (1, 2, 3))]
    assert got == want
    assert all(len(r.terms) == 1 and r.terms[0].coef == 1 for r in sys_.rows)
    assert {r.terms[0].index.margin for r in sys_.rows} == {("1", "2", "4")}


def test_conditional_zero_set_binary_triple():
    vs = V((2, "baseline"), (2, "baseline"), (2, "baseline"))
    sys_ = generate_constraints(Statement(("1",), ("2",), ("3",)), vs)
    assert row_set(sys_) == {
        signed((("1", "2"), (1, 1), 1)),
        signed((("1", "2", "3"), (1, 1, 1), 1)),
    }


def test_interaction_sets_straddle_both_sides():
    straddle = interaction_sets(("1",), ("2", "3"))
    assert sorted(straddle) == [("1", "2"), ("1", "2", "3"), ("1", "3")]
    with pytest.raises(StatementError):
        interaction_sets((), ("1",))
    with pytest.raises(StatementError):
        interaction_sets(("1",), ("1", "2"))


# ---------------------------------------------------------------------------
# soundness on planted distributions, converse on dependent ones

def _assert_system_zero(pv, system, tol=1e-10):
    vals = evaluate_system(pv, system)
    assert np.max(np.abs(vals)) < tol, f"max residual {np.max(np.abs(vals))}"


def test_baseline_rows_vanish_on_planted_context():
    vs = V((3, "baseline"), (3, "baseline"), (3, "baseline"))
    cells = ((2,),)
    pv = oracle.plant_distribution(vs, ("1",), ("2",), ("3",), cells, seed=3)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(cells))
    _assert_system_zero(pv, generate_constraints(stmt, vs))


def test_baseline_rows_detect_dependence():
    vs = V((3, "baseline"), (3, "baseline"), (3, "baseline"))
    cells = ((2,),)
    pv = oracle.sample_dependent(vs, ("1",), ("2",), ("3",), cells, seed=3)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(cells))
    vals = evaluate_system(pv, generate_constraints(stmt, vs))
    assert np.max(np.abs(vals)) > 1e-3


def test_local_rows_vanish_on_planted_context():
    vs = V((2, "baseline"), (3, "baseline"), (4, "local"))
    cells = ((2,), (3,))
    pv = oracle.plant_distribution(vs, ("1",), ("2",), ("3",), cells, seed=7)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(cells))
    _assert_system_zero(pv, generate_constraints(stmt, vs))


def test_local_rows_detect_dependence():
    vs = V((2, "baseline"), (3, "baseline"), (4, "local"))
    cells = ((2,), (3,))
    pv = oracle.sample_dependent(vs, ("1",), ("2",), ("3",), cells, seed=7)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(cells))
    vals = evaluate_system(pv, generate_constraints(stmt, vs))
    assert np.max(np.abs(vals)) > 1e-3


def test_mixed_context_codings_vanish_on_planted_context():
    # baseline and local conditioning variables in one statement
    vs = V((2, "baseline"), (2, "baseline"), (3, "baseline"), (3, "local"))
    cells = ((1, 2), (1, 3))
    pv = oracle.plant_distribution(vs, ("1",), ("2",), ("3", "4"), cells, seed=19)
    stmt = Statement(("1",), ("2",), ("3", "4"), CellListContext(cells))
    _assert_system_zero(pv, generate_constraints(stmt, vs))


def test_threshold_rows_vanish_on_planted_region():
    # the mixed shape: local and continuation conditioning, bound (2,2)
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3", "4"), ThresholdContext((2, 2), "geq"))
    region = context_cells(stmt, vs)
    pv = oracle.plant_distribution(
        vs, ("1",), ("2",), ("3", "4"), region, seed=2, homogeneous=True
    )
    _assert_system_zero(pv, generate_constraints(stmt, vs))


def test_continuation_threshold_needs_common_margins():
    # A reference event of the continuation coding aggregates several
    # context slices.  Per-slice products with differing margins mix into a
    # dependent block, so those rows stay away from zero; pooling the
    # margins over the region makes every row vanish.
    vs = V((2, "baseline"), (2, "baseline"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    region = context_cells(stmt, vs)
    per_slice = oracle.plant_distribution(vs, ("1",), ("2",), ("3",), region, seed=8)
    assert oracle.verify_cs_direct(per_slice, ("1",), ("2",), ("3",), region) < 1e-12
    vals = evaluate_system(per_slice, generate_constraints(stmt, vs))
    assert np.max(np.abs(vals)) > 1e-3

    pooled = oracle.plant_distribution(
        vs, ("1",), ("2",), ("3",), region, seed=8, homogeneous=True
    )
    assert oracle.verify_cs_direct(pooled, ("1",), ("2",), ("3",), region) < 1e-12
    _assert_system_zero(pooled, generate_constraints(stmt, vs))


def test_threshold_rows_detect_dependence():
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3", "4"), ThresholdContext((2, 2), "geq"))
    region = context_cells(stmt, vs)
    pv = oracle.sample_dependent(vs, ("1",), ("2",), ("3", "4"), region, seed=2)
    vals = evaluate_system(pv, generate_constraints(stmt, vs))
    assert np.max(np.abs(vals)) > 1e-3


def test_lower_threshold_normalizes_by_reversal():
    # <= 3 on a 4-level reverse-continuation variable becomes >= 2 on the
    # reversed (continuation) scale; rows agree and vanish on a table with
    # independence planted in the lower region of the original scale.
    vs = V((2, "baseline"), (2, "baseline"), (4, "reverse-continuation"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((3,), "leq"))
    sys_ = generate_constraints(stmt, vs)
    assert sys_.variables[2].coding == "continuation"

    flipped = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    direct = generate_constraints(flipped, sys_.variables)
    assert row_set(sys_) == row_set(direct)

    region = ((1,), (2,), (3,))  # original-scale cells at or below 3
    pv = oracle.plant_distribution(
        vs, ("1",), ("2",), ("3",), region, seed=4, homogeneous=True
    )
    rev = reverse_variable_levels(pv, {"3"})
    assert tuple(s.coding for s in rev.variables) == tuple(s.coding for s in sys_.variables)
    _assert_system_zero(rev, sys_)


def test_conditional_rows_vanish_iff_fully_independent():
    vs = V((2, "baseline"), (3, "baseline"), (3, "baseline"))
    all_cells = tuple((k,) for k in (1, 2, 3))
    pv = oracle.plant_distribution(vs, ("1",), ("2",), ("3",), all_cells, seed=9)
    sys_ = generate_constraints(Statement(("1",), ("2",), ("3",)), vs)
    _assert_system_zero(pv, sys_)
    dep = oracle.sample_dependent(vs, ("1",), ("2",), ("3",), all_cells, seed=9)
    assert np.max(np.abs(evaluate_system(dep, sys_))) > 1e-3


def test_marginal_independence_conditional_rows():
    vs = V((2, "baseline"), (3, "baseline"))
    sys_ = generate_constraints(Statement(("1",), ("2",), ()), vs)
    assert row_set(sys_) == {
        signed((("1", "2"), (1, 1), 1)),
        signed((("1", "2"), (1, 2), 1)),
    }
    marg = probability_vector(
        vs, np.outer([0.3, 0.7], [0.2, 0.3, 0.5]).ravel()
    )
    _assert_system_zero(marg, sys_)


def test_full_context_list_matches_conditional_rank():
    # K covering every context cell is the conditional independence model.
    vs = V((2, "baseline"), (3, "baseline"), (3, "baseline"))
    all_cells = tuple((k,) for k in (1, 2, 3))
    cs = generate_constraints(
        Statement(("1",), ("2",), ("3",), CellListContext(all_cells)), vs
    )
    ci = generate_constraints(Statement(("1",), ("2",), ("3",)), vs)
    m_cs, _ = coefficient_matrix([cs])
    m_ci, _ = coefficient_matrix([ci])
    m_all, _ = coefficient_matrix([cs, ci])
    r = np.linalg.matrix_rank
    assert r(m_cs) == r(m_ci) == r(m_all)


# ---------------------------------------------------------------------------
# counting

def test_pre_dedup_counts_sum_to_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        cards = [int(rng.integers(2, 5)) for _ in range(n)]
        vs = tuple(
            VariableSpec(str(k + 1), cards[k], "baseline") for k in range(n)
        )
        names = [s.name for s in vs]
        rng.shuffle(names)
        na = int(rng.integers(1, n))
        nb = int(rng.integers(1, n - na + 1))
        A, B = tuple(names[:na]), tuple(names[na : na + nb])
        C = tuple(names[na + nb :])
        spec_by = {s.name: s for s in vs}
        if C:
            cells = set()
            for _ in range(int(rng.integers(1, 4))):
                cells.add(tuple(int(rng.integers(1, spec_by[c].cardinality + 1)) for c in C))
            ctx = CellListContext(tuple(sorted(cells)))
        else:
            continue
        stmt = Statement(A, B, C, ctx)
        straddle = generate_constraints(stmt, vs)
        # effect cells of the effects inside one side alone, per context cell
        sided = sum(
            np.prod([spec_by[n].cardinality - 1 for n in effect])
            for side in (A, B)
            for r in range(1, len(side) + 1)
            for effect in itertools.combinations(side, r)
        ) * len(ctx.cells)
        want = expected_constraint_count(stmt, vs)
        assert straddle.pre_dedup_count + sided == want


def test_expected_count_formula_values():
    vs = V((3, "baseline"), (3, "baseline"), (3, "baseline"), (3, "baseline"))
    stmt = Statement(("1",), ("2",), ("3", "4"), CellListContext(((1, 1), (1, 3))))
    # (3*3 - 1) * 2 context cells
    assert expected_constraint_count(stmt, vs) == 16
    with pytest.raises(StatementError):
        expected_constraint_count(
            Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq")), vs
        )


def test_pattern_context_expands_to_cells():
    vs = V((2, "baseline"), (2, "baseline"), (3, "baseline"), (2, "baseline"))
    stmt = Statement(("1",), ("2",), ("3", "4"), PatternContext((None, 1)))
    assert context_cells(stmt, vs) == ((1, 1), (2, 1), (3, 1))
    listed = Statement(
        ("1",), ("2",), ("3", "4"), CellListContext(((1, 1), (2, 1), (3, 1)))
    )
    assert row_set(generate_constraints(stmt, vs)) == row_set(generate_constraints(listed, vs))


# ---------------------------------------------------------------------------
# validation and unsupported codings

def test_continuation_conditioning_with_cells_rejected():
    vs = V((2, "baseline"), (2, "baseline"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((2,),)))
    with pytest.raises(UnsupportedCodingError):
        generate_constraints(stmt, vs)


def test_baseline_conditioning_under_threshold_rejected():
    vs = V((2, "baseline"), (2, "baseline"), (4, "baseline"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    with pytest.raises(UnsupportedCodingError):
        generate_constraints(stmt, vs)


def test_reverse_continuation_under_upper_threshold_rejected():
    vs = V((2, "baseline"), (2, "baseline"), (4, "reverse-continuation"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    with pytest.raises(UnsupportedCodingError):
        generate_constraints(stmt, vs)


def test_continuation_under_lower_threshold_rejected():
    vs = V((2, "baseline"), (2, "baseline"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((3,), "leq"))
    with pytest.raises(UnsupportedCodingError):
        generate_constraints(stmt, vs)


def test_a_lower_threshold_names_its_own_rule_and_the_given_coding():
    # the coding used to be checked after the reversal, so this named the
    # upper-threshold rule and '3' as reverse-continuation
    vs = V((2, "baseline"), (2, "baseline"), (3, "continuation"))
    message = (
        "lower-threshold contexts need reverse-continuation coding on the "
        "conditioning set; '3' is continuation"
    )
    with pytest.raises(UnsupportedCodingError, match=re.escape(message)):
        generate_constraints(parse_statement("CS: {1} _||_ {2} | {3} <= (2)"), vs)


def test_a_lower_threshold_refuses_local_coding_and_holds_on_its_plant():
    # 1 and 2 share one product block at levels 1-2 of 3 and are dependent
    # at levels 3-4; local coding, before it was refused, gave rows on the
    # reversed scale that read max |h| 2.5 on this plant, and a fit of its
    # expected counts at N = 10000 G2 = 158 on df 2
    rng = np.random.default_rng(11)
    shared = np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
    blocks = [shared, shared] + [rng.dirichlet(np.ones(4)).reshape(2, 2) for _ in range(2)]
    weights = np.stack(blocks, axis=-1) * rng.dirichlet(np.ones(4))  # axes 1, 2, 3
    stmt = parse_statement("CS: {1} _||_ {2} | {3} <= (2)")
    message = (
        "lower-threshold contexts need reverse-continuation coding on the "
        "conditioning set; '3' is local"
    )
    with pytest.raises(UnsupportedCodingError, match=re.escape(message)):
        generate_constraints(stmt, V((2, "baseline"), (2, "baseline"), (4, "local")))

    vs = V((2, "baseline"), (2, "baseline"), (4, "reverse-continuation"))
    pv = probability_vector(vs, weights)
    assert oracle.verify_cs_direct(pv, ("1",), ("2",), ("3",), ((1,), (2,))) < 1e-15
    # the rows hold on the table as given, not only on a flipped one
    assert np.max(np.abs(evaluate_system(pv, generate_constraints(stmt, vs)))) <= 1e-12
    wider = parse_statement("CS: {1} _||_ {2} | {3} <= (3)")
    assert np.max(np.abs(evaluate_system(pv, generate_constraints(wider, vs)))) > 1e-3


def test_statement_validation_errors():
    vs = V((2, "baseline"), (2, "baseline"), (3, "baseline"))
    with pytest.raises(StatementError):
        validate_statement(Statement((), ("2",), ("3",)), vs)
    with pytest.raises(StatementError):
        validate_statement(Statement(("1",), ("1", "2"), ()), vs)
    with pytest.raises(StatementError):
        validate_statement(Statement(("1",), ("9",), ()), vs)
    with pytest.raises(StatementError):
        validate_statement(
            Statement(("1",), ("2",), ("3",), CellListContext(((4,),))), vs
        )
    with pytest.raises(StatementError):
        validate_statement(
            Statement(("1",), ("2",), (), CellListContext(((1,),))), vs
        )
    with pytest.raises(StatementError):
        validate_statement(
            Statement(("1",), ("2",), ("3",), PatternContext((1, 2))), vs
        )
    # a name repeated inside one set, whose context levels could disagree
    with pytest.raises(StatementError):
        validate_statement(Statement(("1", "1"), ("2",), ()), vs)
    with pytest.raises(StatementError):
        validate_statement(
            Statement(("1",), ("2",), ("3", "3"), PatternContext((1, 2))), vs
        )


@pytest.mark.parametrize(
    "context",
    [
        PatternContext((1,)),
        PatternContext((1, None, 2)),
        PatternContext((None, 4)),
        PatternContext((0, None)),
        CellListContext(((1, 2), (1,))),
        CellListContext(((1, 2), (1, 3))),
        CellListContext(((1, None),)),
        ThresholdContext((2,), "geq"),
        ThresholdContext((2, 2, 2), "leq"),
        ThresholdContext((1, 4), "geq"),
        ThresholdContext((0, 1), "leq"),
    ],
)
def test_each_context_kind_checks_length_and_levels(context):
    # conditioning set {3,4}: 3 has 3 levels, 4 has 2
    vs = V((2, "local"), (2, "local"), (3, "local"), (2, "local"))
    with pytest.raises(StatementError):
        validate_statement(Statement(("1",), ("2",), ("3", "4"), context), vs)


def test_statement_canonicalizes_variable_order():
    vs = V((2, "baseline"), (2, "baseline"), (3, "baseline"), (2, "baseline"))
    stmt = validate_statement(
        Statement(("4", "1"), ("2",), ("3",), CellListContext(((2,),))), vs
    )
    assert stmt.lhs == ("1", "4")
    # context cells stay aligned after reordering of the conditioning set
    stmt2 = validate_statement(
        Statement(("1",), ("2",), ("4", "3"), CellListContext(((1, 2),))), vs
    )
    assert stmt2.given == ("3", "4")
    assert stmt2.context.cells == ((2, 1),)


def test_allocation_margin_selection():
    from scgm.params import allocate_effects

    vs = V((2, "baseline"), (2, "baseline"), (2, "baseline"), (2, "baseline"))
    alloc = allocate_effects(vs, (("1", "2", "3"), ("1", "2", "3", "4")))
    stmt = Statement(("2",), ("3",), (), None)
    sys_ = generate_constraints(stmt, vs, alloc=alloc)
    assert all(t.index.margin == ("1", "2", "3") for r in sys_.rows for t in r.terms)
    stmt2 = Statement(("3",), ("4",), (), None)
    sys2 = generate_constraints(stmt2, vs, alloc=alloc)
    assert all(t.index.margin == ("1", "2", "3", "4") for r in sys2.rows for t in r.terms)
    bad = allocate_effects(vs, (("1", "2"),))
    with pytest.raises(StatementError):
        generate_constraints(stmt2, vs, alloc=bad)


def test_generation_validates_each_statement_once(monkeypatch):
    vs = V((2, "baseline"), (2, "baseline"), (3, "local"), (3, "reverse-continuation"))
    calls = []

    def counting(stmt, variables):
        calls.append(stmt)
        return validate_statement(stmt, variables)

    monkeypatch.setattr("scgm.constraints.validate_statement", counting)
    for text in [
        "CI: {1} _||_ {2} | {3}",
        "CS: {1} _||_ {2} | {3} = (2)",
        "CS: {1} _||_ {2} | {3} = {(1),(3)}",
        "CS: {1} _||_ {2} | {3} >= (2)",
        "CS: {1} _||_ {2} | {4} <= (2)",
    ]:
        calls.clear()
        generate_constraints(parse_statement(text), vs)
        assert len(calls) == 1, text


def test_dedup_collapses_sign_flips_and_merge():
    vs = V((2, "baseline"), (2, "baseline"), (2, "baseline"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((1,),)))
    a = generate_constraints(stmt, vs)
    merged = merge_systems(vs, [a, a])
    assert len(merged.rows) == len(a.rows)
    assert merged.pre_dedup_count == 2 * a.pre_dedup_count


# ---------------------------------------------------------------------------
# text and JSON forms

def test_parse_render_round_trips():
    texts = [
        "CI: {1} _||_ {2}",
        "CI: {1} _||_ {2,3} | {4}",
        "CS: {1} _||_ {2} | {3} = (2)",
        "CS: {1} _||_ {2} | {3,4} = (1,*)",
        "CS: {1} _||_ {2} | {3,4} = {(1,1),(2,1)}",
        "CS: {1} _||_ {2} | {3,4} >= (2,2)",
        "CS: {1} _||_ {2} | {3,4} <= (2,3)",
    ]
    for text in texts:
        stmt = parse_statement(text)
        assert render_statement(stmt) == text
        again = statement_from_json(statement_to_json(stmt))
        assert again == stmt


GOOD_JSON = {"lhs": ["1"], "rhs": ["2"], "given": ["3"], "context": None}


@pytest.mark.parametrize(
    "obj, message",
    [
        ([GOOD_JSON], "a statement must be a JSON object"),
        ({**GOOD_JSON, "context": [1]}, "a context must be a JSON object or null, got [1]"),
        ({**GOOD_JSON, "context": {"kind": "cells"}}, "missing 'cells'"),
        ({**GOOD_JSON, "lhs": "12"}, "bad lhs '12'"),
        ({**GOOD_JSON, "context": {"kind": "pattern", "pattern": 5}}, "bad pattern 5"),
        ({**GOOD_JSON, "context": {"kind": "pattern", "pattern": [True]}}, "bad pattern [True]"),
        ({**GOOD_JSON, "context": {"kind": "cells", "cells": [[1, "2"]]}}, "bad cell [1, '2']"),
        ({**GOOD_JSON, "given": [3]}, "bad given [3]"),
    ],
    ids=["list", "context-list", "cells-missing", "lhs-string", "pattern-int", "pattern-bool",
         "cell-string", "given-int"],
)
def test_statement_from_json_refuses_malformed_objects(obj, message):
    # these used to raise AttributeError, KeyError or TypeError, or load a
    # string lhs "12" as the names ('1', '2')
    with pytest.raises(StatementError, match=re.escape(message)):
        statement_from_json(obj)


def test_parse_statement_errors():
    for bad in [
        "XX: {1} _||_ {2}",
        "CI: {1} {2}",
        "CS: {1} _||_ {2} | {3}",
        "CS: {1} _||_ {2} | {3} = (1,*",
        "CS: {1} _||_ {2} | {3} >= (*)",
        "CS: {1} _||_ {2} = (1)",
        "CI: {1} _||_ {2} | {3} = (1)",
    ]:
        with pytest.raises(StatementError):
            parse_statement(bad)


@pytest.mark.parametrize(
    "cells", ["{(1),(2}", "{junk(1)}"], ids=["unclosed-row", "text-before-row"]
)
def test_a_malformed_cell_list_is_refused(cells):
    # the reader used to keep whatever parenthesized rows it found, and
    # loaded both as the cells ((1,),)
    with pytest.raises(StatementError, match="malformed cell list"):
        parse_statement(f"CS: {{1}} _||_ {{2}} | {{3}} = {cells}")


def test_system_json_shape():
    vs = V((2, "baseline"), (2, "baseline"), (2, "baseline"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((1,),)))
    sys_ = generate_constraints(stmt, vs)
    obj = system_to_json(sys_)
    assert obj["schema"] == "scgm-constraints/1"
    assert obj["pre_dedup_count"] == sys_.pre_dedup_count
    row = obj["rows"][0]
    assert set(row.keys()) == {"origin", "terms"}
    term = row["terms"][0]
    assert set(term.keys()) == {"eta", "coef"}
    assert set(term["eta"].keys()) == {"margin", "effect", "cell"}
    assert term["coef"] in (1, -1)


def test_origin_strings_carry_statement_text():
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    stmt = parse_statement("CS: {1} _||_ {2} | {3} >= (2)")
    sys_ = generate_constraints(stmt, vs)
    assert sys_.origin == "CS: {1} _||_ {2} | {3} >= (2)"
    assert all(r.origin == sys_.origin for r in sys_.rows)


# ---------------------------------------------------------------------------
# golden systems: every row shape on mixed codings, byte for byte; rewrite
# the files only for a deliberate output change recorded in CHANGES.md

FIG_B_VARS = V(
    (3, "local"), (2, "baseline"), (3, "continuation"),
    (3, "reverse-continuation"), (3, "baseline"),
)
MIXED_VARS = V(
    (3, "baseline"), (3, "local"), (4, "continuation"),
    (3, "reverse-continuation"), (3, "local"), (3, "baseline"),
)
GOLDEN_STATEMENTS = {
    "ci": "CI: {2} _||_ {4} | {3}",
    "cells": "CS: {1} _||_ {4} | {2,6} = {(1,2),(3,1)}",
    "geq": "CS: {1} _||_ {2} | {3,5} >= (2,2)",
    "leq": "CS: {1} _||_ {6} | {4} <= (2)",
}


def golden_constraints_text(name):
    """The system pinned by golden/constraints_<name>.json, as written there:
    fig_b on its own allocation (plain and pattern-context statements), or
    one of GOLDEN_STATEMENTS on MIXED_VARS."""
    if name == "fig_b":
        system = scgm_constraint_system(load_graph(GOLDEN / "fig_b.graph"), FIG_B_VARS)
    else:
        system = generate_constraints(parse_statement(GOLDEN_STATEMENTS[name]), MIXED_VARS)
    return json.dumps(system_to_json(system), indent=1, sort_keys=True) + "\n"


def test_graph_system_matches_golden():
    want = (GOLDEN / "constraints_fig_b.json").read_text(encoding="utf-8")
    assert golden_constraints_text("fig_b") == want


@pytest.mark.parametrize("name", sorted(GOLDEN_STATEMENTS))
def test_statement_system_matches_golden(name):
    want = (GOLDEN / f"constraints_{name}.json").read_text(encoding="utf-8")
    assert golden_constraints_text(name) == want

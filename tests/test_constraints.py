"""Constraint generation: frozen row sets, soundness, converse, counting."""

import itertools

import numpy as np
import pytest

from scgm import oracle
from scgm.constraints import (
    CellListContext,
    PatternContext,
    Statement,
    ThresholdContext,
    constraints_baseline,
    constraints_conditional,
    constraints_local,
    context_cell_rows,
    context_cells,
    evaluate_system,
    expected_constraint_count,
    generate_constraints,
    interaction_sets,
    merge_systems,
    parse_statement,
    render_statement,
    reverse_variable_levels,
    statement_from_json,
    statement_to_json,
    system_to_json,
    threshold_rows,
    validate_statement,
)
from scgm.errors import StatementError, UnsupportedCodingError
from scgm.tables import VariableSpec, probability_vector


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
    sys_ = constraints_baseline(stmt, vs)
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
    sys_ = constraints_baseline(stmt, vs)
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
    sys_ = constraints_local(stmt, vs)
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
    sys_ = constraints_local(stmt, vs)
    got = np.exp(evaluate_system(pv, sys_)[0])
    arr = pv.as_array()
    want = (arr[0, 1, 1] * arr[1, 0, 1]) / (arr[1, 1, 1] * arr[0, 0, 1])
    assert got == pytest.approx(want, rel=1e-12)


def test_local_context_at_top_reduces_to_single_term():
    # only the empty context subset survives; its sign is (-1)^{|C|}
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((4,),)))
    sys_ = constraints_local(stmt, vs)
    assert row_set(sys_) == {signed((("1", "2"), (1, 1), -1))}


def test_threshold_on_four_levels_zeroes_upper_lattice():
    # 2x2x4 local conditioning variable, threshold >= 2: the region
    # constraints are exactly {eta_12(11), eta_123(112), eta_123(113)}.
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    sys_ = threshold_rows(stmt, vs)
    assert row_set(sys_) == {
        signed((("1", "2"), (1, 1), 1)),
        signed((("1", "2", "3"), (1, 1, 2), 1)),
        signed((("1", "2", "3"), (1, 1, 3), 1)),
    }


def test_threshold_equals_lattice_rows_in_rank():
    # Threshold >= 2 and the cell-list system over {2,3,4} cut out the same
    # linear space: equal ranks separately and stacked.
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"))
    thr = threshold_rows(
        Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq")), vs
    )
    lst = constraints_local(
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
    sys_ = threshold_rows(stmt, vs)
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


def test_conditional_zero_set_binary_triple():
    vs = V((2, "baseline"), (2, "baseline"), (2, "baseline"))
    sys_ = constraints_conditional(("1",), ("2",), ("3",), vs)
    assert row_set(sys_) == {
        signed((("1", "2"), (1, 1), 1)),
        signed((("1", "2", "3"), (1, 1, 1), 1)),
    }


def test_interaction_sets_versions():
    straddle = interaction_sets(("1",), ("2", "3"))
    assert sorted(straddle) == [("1", "2"), ("1", "2", "3"), ("1", "3")]
    sided = interaction_sets(("1",), ("2", "3"), version="sided")
    assert sorted(sided) == [("1",), ("2",), ("2", "3"), ("3",)]
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
    _assert_system_zero(pv, constraints_baseline(stmt, vs))


def test_baseline_rows_detect_dependence():
    vs = V((3, "baseline"), (3, "baseline"), (3, "baseline"))
    cells = ((2,),)
    pv = oracle.sample_dependent(vs, ("1",), ("2",), ("3",), cells, seed=3)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(cells))
    vals = evaluate_system(pv, constraints_baseline(stmt, vs))
    assert np.max(np.abs(vals)) > 1e-3


def test_local_rows_vanish_on_planted_context():
    vs = V((2, "baseline"), (3, "baseline"), (4, "local"))
    cells = ((2,), (3,))
    pv = oracle.plant_distribution(vs, ("1",), ("2",), ("3",), cells, seed=7)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(cells))
    _assert_system_zero(pv, constraints_local(stmt, vs))


def test_local_rows_detect_dependence():
    vs = V((2, "baseline"), (3, "baseline"), (4, "local"))
    cells = ((2,), (3,))
    pv = oracle.sample_dependent(vs, ("1",), ("2",), ("3",), cells, seed=7)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(cells))
    vals = evaluate_system(pv, constraints_local(stmt, vs))
    assert np.max(np.abs(vals)) > 1e-3


def test_mixed_context_codings_vanish_on_planted_context():
    # baseline and local conditioning variables in one statement
    vs = V((2, "baseline"), (2, "baseline"), (3, "baseline"), (3, "local"))
    cells = ((1, 2), (1, 3))
    pv = oracle.plant_distribution(vs, ("1",), ("2",), ("3", "4"), cells, seed=19)
    stmt = Statement(("1",), ("2",), ("3", "4"), CellListContext(cells))
    _assert_system_zero(pv, context_cell_rows(stmt, vs))


def test_threshold_rows_vanish_on_planted_region():
    # the mixed shape: local and continuation conditioning, bound (2,2)
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3", "4"), ThresholdContext((2, 2), "geq"))
    region = context_cells(stmt, vs)
    pv = oracle.plant_distribution(
        vs, ("1",), ("2",), ("3", "4"), region, seed=2, homogeneous=True
    )
    _assert_system_zero(pv, threshold_rows(stmt, vs))


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
    vals = evaluate_system(per_slice, threshold_rows(stmt, vs))
    assert np.max(np.abs(vals)) > 1e-3

    pooled = oracle.plant_distribution(
        vs, ("1",), ("2",), ("3",), region, seed=8, homogeneous=True
    )
    assert oracle.verify_cs_direct(pooled, ("1",), ("2",), ("3",), region) < 1e-12
    _assert_system_zero(pooled, threshold_rows(stmt, vs))


def test_threshold_rows_detect_dependence():
    vs = V((2, "baseline"), (2, "baseline"), (4, "local"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3", "4"), ThresholdContext((2, 2), "geq"))
    region = context_cells(stmt, vs)
    pv = oracle.sample_dependent(vs, ("1",), ("2",), ("3", "4"), region, seed=2)
    vals = evaluate_system(pv, threshold_rows(stmt, vs))
    assert np.max(np.abs(vals)) > 1e-3


def test_lower_threshold_normalizes_by_reversal():
    # <= 3 on a 4-level reverse-continuation variable becomes >= 2 on the
    # reversed (continuation) scale; rows agree and vanish on a table with
    # independence planted in the lower region of the original scale.
    vs = V((2, "baseline"), (2, "baseline"), (4, "reverse-continuation"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((3,), "leq"))
    sys_ = threshold_rows(stmt, vs)
    assert sys_.variables[2].coding == "continuation"

    flipped = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    direct = threshold_rows(flipped, sys_.variables)
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
    sys_ = constraints_conditional(("1",), ("2",), ("3",), vs)
    _assert_system_zero(pv, sys_)
    dep = oracle.sample_dependent(vs, ("1",), ("2",), ("3",), all_cells, seed=9)
    assert np.max(np.abs(evaluate_system(dep, sys_))) > 1e-3


def test_marginal_independence_conditional_rows():
    vs = V((2, "baseline"), (3, "baseline"))
    sys_ = constraints_conditional(("1",), ("2",), (), vs)
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
    cs = constraints_baseline(
        Statement(("1",), ("2",), ("3",), CellListContext(all_cells)), vs
    )
    ci = constraints_conditional(("1",), ("2",), ("3",), vs)
    m_cs, _ = coefficient_matrix([cs])
    m_ci, _ = coefficient_matrix([ci])
    m_all, _ = coefficient_matrix([cs, ci])
    r = np.linalg.matrix_rank
    assert r(m_cs) == r(m_ci) == r(m_all)


def test_sided_rows_not_implied_by_independence():
    # The sided family is a parameterization-completion device: its rows are
    # generally nonzero on tables where the planted independence holds, which
    # is why straddling is the default generation strategy.
    vs = V((3, "baseline"), (3, "baseline"), (3, "baseline"))
    cells = ((2,),)
    pv = oracle.plant_distribution(vs, ("1",), ("2",), ("3",), cells, seed=21)
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(cells))
    sided = context_cell_rows(stmt, vs, version="sided")
    vals = evaluate_system(pv, sided)
    assert np.max(np.abs(vals)) > 1e-3


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
        straddle = context_cell_rows(stmt, vs, version="straddling")
        sided = context_cell_rows(stmt, vs, version="sided")
        want = expected_constraint_count(stmt, vs)
        assert straddle.pre_dedup_count + sided.pre_dedup_count == want


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
    assert row_set(context_cell_rows(stmt, vs)) == row_set(context_cell_rows(listed, vs))


# ---------------------------------------------------------------------------
# validation and unsupported codings

def test_continuation_conditioning_with_cells_rejected():
    vs = V((2, "baseline"), (2, "baseline"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((2,),)))
    with pytest.raises(UnsupportedCodingError):
        context_cell_rows(stmt, vs)


def test_baseline_conditioning_under_threshold_rejected():
    vs = V((2, "baseline"), (2, "baseline"), (4, "baseline"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    with pytest.raises(UnsupportedCodingError):
        threshold_rows(stmt, vs)


def test_reverse_continuation_under_upper_threshold_rejected():
    vs = V((2, "baseline"), (2, "baseline"), (4, "reverse-continuation"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((2,), "geq"))
    with pytest.raises(UnsupportedCodingError):
        threshold_rows(stmt, vs)


def test_continuation_under_lower_threshold_rejected():
    vs = V((2, "baseline"), (2, "baseline"), (4, "continuation"))
    stmt = Statement(("1",), ("2",), ("3",), ThresholdContext((3,), "leq"))
    with pytest.raises(UnsupportedCodingError):
        threshold_rows(stmt, vs)


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


def test_dedup_collapses_sign_flips_and_merge():
    vs = V((2, "baseline"), (2, "baseline"), (2, "baseline"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((1,),)))
    a = context_cell_rows(stmt, vs)
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


def test_system_json_shape():
    vs = V((2, "baseline"), (2, "baseline"), (2, "baseline"))
    stmt = Statement(("1",), ("2",), ("3",), CellListContext(((1,),)))
    sys_ = context_cell_rows(stmt, vs)
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
    sys_ = threshold_rows(stmt, vs)
    assert sys_.origin == "CS: {1} _||_ {2} | {3} >= (2)"
    assert all(r.origin == sys_.origin for r in sys_.rows)

"""Tests for the parameter layer: closed forms, identities, allocation."""

import itertools
import math

import numpy as np
import pytest

from scgm.errors import (
    AllocationCoverageError,
    AllocationOrderError,
    StatementError,
    UnsupportedCodingError,
    ZeroMassSliceError,
)
from scgm.oracle import direct_param_value, random_positive
from scgm.params import (
    EffectAllocation,
    ParamIndex,
    allocate_effects,
    baseline_from_local,
    conditional_param,
    observed_and_reference,
    param_index,
    param_value,
    param_vector,
    signed_events,
)
from scgm.tables import (
    VariableSpec,
    all_cells,
    probability_vector,
    subset_in_order,
    variable_names,
)


def product_table_3x3():
    r = [0.2, 0.3, 0.5]
    c = [0.1, 0.4, 0.5]
    vs = (VariableSpec("x", 3), VariableSpec("y", 3))
    return probability_vector(vs, [ri * cj for ri in r for cj in c])


# ---------------------------------------------------------------------------
# convention and closed forms


def test_sign_convention_first_order_is_reference_over_observed():
    pv = product_table_3x3()
    # pi_33 = 0.25, pi_13 = 0.10
    got = param_value(pv, ("x", "y"), ("x",), {"x": 1})
    assert got == pytest.approx(math.log(0.25 / 0.10), abs=1e-12)


def test_interaction_vanishes_on_product_table():
    pv = product_table_3x3()
    for i, j in itertools.product((1, 2), repeat=2):
        v = param_value(pv, ("x", "y"), ("x", "y"), {"x": i, "y": j})
        assert abs(v) < 1e-12


def test_two_by_two_vector_is_logits_and_log_odds():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2))
    pv = probability_vector(vs, [0.1, 0.2, 0.3, 0.4])
    alloc = allocate_effects(vs, [("a",), ("b",), ("a", "b")])
    vec = param_vector(pv, alloc)
    vals = {
        (i.margin, i.effect): v for i, v in vec.values.items()
    }
    assert vals[(("a",), ("a",))] == pytest.approx(math.log(0.7 / 0.3), abs=1e-12)
    assert vals[(("b",), ("b",))] == pytest.approx(math.log(0.6 / 0.4), abs=1e-12)
    want_or = math.log(0.1 * 0.4 / (0.2 * 0.3))
    assert vals[(("a", "b"), ("a", "b"))] == pytest.approx(want_or, abs=1e-12)


def test_uniform_gives_all_zero():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3, coding="local"))
    pv = probability_vector(vs, [1.0] * 6)
    alloc = allocate_effects(vs, [("a", "b")])
    vec = param_vector(pv, alloc)
    assert max(abs(v) for v in vec.values.values()) < 1e-12


def test_signed_events_match_printed_baseline_pattern():
    vs = (VariableSpec("x", 3), VariableSpec("y", 3))
    ev = signed_events(vs, ("x", "y"), {"x": 1, "y": 1})
    table = {
        (tuple(e["x"]), tuple(e["y"])): s for s, e in ev
    }
    assert table[((1,), (1,))] == 1.0
    assert table[((3,), (1,))] == -1.0
    assert table[((1,), (3,))] == -1.0
    assert table[((3,), (3,))] == 1.0


def test_signed_events_continuation_aggregates():
    vs = (VariableSpec("x", 4, coding="continuation"),)
    ev = signed_events(vs, ("x",), {"x": 2})
    by_sign = {s: tuple(e["x"]) for s, e in ev}
    assert by_sign[-1.0] == (2,)
    assert by_sign[1.0] == (3, 4)


def test_observed_and_reference_reverse_continuation():
    spec = VariableSpec("z", 4, coding="reverse-continuation")
    assert observed_and_reference(spec, 1) == ((4,), (1, 2, 3))
    assert observed_and_reference(spec, 3) == ((2,), (1,))


# ---------------------------------------------------------------------------
# agreement with the brute-force path


def test_param_value_agrees_with_oracle_on_mixed_codings():
    vs = (
        VariableSpec("a", 2),
        VariableSpec("b", 3, coding="local"),
        VariableSpec("c", 3, coding="continuation"),
        VariableSpec("d", 2, coding="reverse-continuation"),
    )
    rng = np.random.default_rng(42)
    checked = 0
    for draw in range(25):
        pv = random_positive(vs, int(rng.integers(1 << 30)))
        for margin in (("a", "b"), ("b", "c"), ("a", "c", "d"), ("a", "b", "c", "d")):
            specs = [s for s in vs if s.name in margin]
            for r in range(1, len(margin) + 1):
                for effect in itertools.combinations(margin, r):
                    espec = [s for s in specs if s.name in effect]
                    grids = [range(1, s.cardinality) for s in espec]
                    for combo in itertools.product(*grids):
                        cell = {s.name: c for s, c in zip(espec, combo)}
                        slow = direct_param_value(pv, margin, effect, cell)
                        fast = param_value(pv, margin, effect, cell)
                        assert abs(slow - fast) < 1e-12
                        checked += 1
    assert checked >= 1000


# ---------------------------------------------------------------------------
# conditional parameters and decomposition identities


def test_conditional_with_top_context_equals_default():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 3))
    pv = random_positive(vs, 7)
    base = param_value(pv, ("a", "b", "c"), ("a", "b"), {"a": 1, "b": 1})
    cond = conditional_param(
        pv, ("a", "b", "c"), ("a", "b"), {"a": 1, "b": 1}, {"c": 3}
    )
    assert cond == pytest.approx(base, abs=1e-12)


def test_conditional_vanishes_on_planted_slice():
    # plant a product structure in the c = 1 slice only
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 2))
    from scgm.oracle import plant_distribution

    pv = plant_distribution(vs, ("a",), ("b",), ("c",), [(1,)], 9)
    got = conditional_param(pv, ("a", "b", "c"), ("a", "b"), {"a": 1, "b": 1}, {"c": 1})
    assert abs(got) < 1e-12


def test_four_variable_decomposition_identity_baseline():
    vs = tuple(VariableSpec(n, 3) for n in ("p", "q", "r", "s"))
    pv = random_positive(vs, 11)
    m = ("p", "q", "r", "s")
    lhs = param_value(pv, m, m, {"p": 1, "q": 1, "r": 1, "s": 1})
    rhs = (
        param_value(pv, m, ("p", "q", "r"), {"p": 1, "q": 1, "r": 1})
        + param_value(pv, m, ("p", "q", "s"), {"p": 1, "q": 1, "s": 1})
        - param_value(pv, m, ("p", "q"), {"p": 1, "q": 1})
        + conditional_param(pv, m, ("p", "q"), {"p": 1, "q": 1}, {"r": 1, "s": 1})
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


def _reference_context(variables, names, cmap):
    """Reference events i* for ``names`` at the coordinates in ``cmap``."""
    ctx = {}
    for spec in subset_in_order(variables, tuple(names)):
        _, ref = observed_and_reference(spec, cmap[spec.name])
        ctx[spec.name] = ref
    return ctx


def expand_conditional_split(pv, margin, effect, split, cell):
    """Decompose a parameter over effect ∪ split into conditional pieces.

    Returns (lhs, rhs) where lhs is the plain parameter of effect ∪ split
    and rhs = sum over nonempty J ⊆ split of (-1)^{|J|+1} times the
    parameter of effect ∪ (split\\J) conditioned on J at its reference
    events, plus (-1)^{|split|} times the parameter of the effect
    conditioned on the split at its observed cell.  The two agree on every
    positive table; callers assert the residual.
    """
    effect = tuple(effect)
    split = tuple(split)
    if set(effect) & set(split):
        raise StatementError("effect and split must be disjoint")
    cmap = cell if isinstance(cell, dict) else dict(zip(effect + split, cell))
    lhs = param_value(pv, margin, effect + split, {n: cmap[n] for n in effect + split})

    rhs = 0.0
    for r in range(1, len(split) + 1):
        for j_vars in itertools.combinations(split, r):
            # (-1)^{|J|+1}: plus for odd |J|, minus for even
            sign = 1.0 if r % 2 else -1.0
            keep = tuple(n for n in split if n not in j_vars)
            ctx = _reference_context(pv.variables, j_vars, cmap)
            rhs += sign * param_value(
                pv, margin, effect + keep, {n: cmap[n] for n in effect + keep}, context=ctx
            )
    last_sign = 1.0 if len(split) % 2 == 0 else -1.0
    # condition on the observed EVENT of each split coordinate; for
    # reverse-continuation that event is not the coordinate itself
    obs_ctx = {}
    for spec in subset_in_order(pv.variables, split):
        obs, _ = observed_and_reference(spec, cmap[spec.name])
        obs_ctx[spec.name] = obs
    rhs += last_sign * param_value(
        pv,
        margin,
        effect,
        {n: cmap[n] for n in effect},
        context=obs_ctx,
    )
    return lhs, rhs


def conditional_param_via_contrasts(pv, margin, effect, cell, context_cell) -> float:
    """Conditional parameter rebuilt from default-conditioned parameters.

    eta(effect | split = observed) equals the alternating sum over J of the
    split of (-1)^{|J|} times the parameter of effect ∪ J with split\\J
    pinned at its reference events.  For baseline-coded split variables the
    reference is the top, so those terms are plain parameters.
    """
    effect = tuple(effect)
    split = tuple(sorted(context_cell, key=variable_names(pv.variables).index))
    cmap = dict(cell) if isinstance(cell, dict) else dict(zip(effect, cell))
    cmap.update(context_cell)
    total = 0.0
    for r in range(len(split) + 1):
        for j_vars in itertools.combinations(split, r):
            sign = -1.0 if r % 2 else 1.0
            rest = tuple(n for n in split if n not in j_vars)
            ctx = _reference_context(pv.variables, rest, cmap)
            total += sign * param_value(
                pv, margin, effect + j_vars, {n: cmap[n] for n in effect + j_vars},
                context=ctx,
            )
    return total


def split_residual(pv, margin, effect, split, cell):
    lhs, rhs = expand_conditional_split(pv, margin, effect, split, cell)
    return abs(lhs - rhs)


def test_split_decomposition_single_variable():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3, coding="local"))
    pv = random_positive(vs, 13)
    assert split_residual(pv, ("a", "b"), ("a",), ("b",), {"a": 1, "b": 2}) < 1e-12


def test_split_decomposition_all_splits_mixed_codings():
    vs = (
        VariableSpec("a", 2),
        VariableSpec("b", 3, coding="local"),
        VariableSpec("c", 3, coding="continuation"),
        VariableSpec("d", 2, coding="reverse-continuation"),
    )
    for seed in range(5):
        pv = random_positive(vs, (17, seed))
        names = ("a", "b", "c", "d")
        spec_by = {s.name: s for s in vs}
        for k in range(2, 5):
            for group in itertools.combinations(names, k):
                for r in range(1, k):
                    for effect in itertools.combinations(group, r):
                        split = tuple(n for n in group if n not in effect)
                        cell = {n: 1 for n in group}
                        assert (
                            split_residual(pv, group, effect, split, cell) < 1e-10
                        ), (group, effect, split)
                        # also probe an off-corner cell when available
                        wide = [n for n in group if spec_by[n].cardinality > 2]
                        if wide:
                            cell2 = dict(cell)
                            cell2[wide[0]] = 2
                            assert (
                                split_residual(pv, group, effect, split, cell2) < 1e-10
                            )


def test_conditional_rebuilt_from_contrasts():
    vs = (
        VariableSpec("a", 2),
        VariableSpec("b", 3, coding="local"),
        VariableSpec("c", 4, coding="continuation"),
    )
    for seed in range(5):
        pv = random_positive(vs, (19, seed))
        for ctx in ({"c": 1}, {"c": 2}, {"c": 3}, {"b": 1, "c": 2}):
            eff = tuple(n for n in ("a", "b") if n not in ctx)
            cell = {n: 1 for n in eff}
            direct = conditional_param(pv, ("a", "b", "c"), eff, cell, ctx)
            rebuilt = conditional_param_via_contrasts(pv, ("a", "b", "c"), eff, cell, ctx)
            assert direct == pytest.approx(rebuilt, abs=1e-10), ctx


def test_subset_expansion_with_mixed_observed_and_reference_context():
    # eta over effect+split equals the alternating sum of conditionals where
    # part of the split is observed and the rest sits at its reference event
    vs = (VariableSpec("a", 2), VariableSpec("b", 3, coding="continuation"),
          VariableSpec("c", 3, coding="local"))
    pv = random_positive(vs, 23)
    m = ("a", "b", "c")
    cell = {"a": 1, "b": 2, "c": 1}
    lhs = param_value(pv, m, m, cell)
    total = 0.0
    for j in range(3):
        for ref_part in itertools.combinations(("b", "c"), j):
            obs_part = tuple(n for n in ("b", "c") if n not in ref_part)
            sign = -1.0 if len(obs_part) % 2 else 1.0
            ctx = {}
            for n in obs_part:
                ctx[n] = cell[n]
            for n in ref_part:
                spec = next(s for s in vs if s.name == n)
                ctx[n] = observed_and_reference(spec, cell[n])[1]
            total += sign * conditional_param(pv, m, ("a",), {"a": 1}, ctx)
    assert lhs == pytest.approx(total, abs=1e-10)


# ---------------------------------------------------------------------------
# coding transform


def test_baseline_from_local_three_level_margin():
    vs = (VariableSpec("x", 3, coding="local"),)
    pv = random_positive(vs, 29)
    alloc = allocate_effects(vs, [("x",)])
    local = param_vector(pv, alloc)
    base = baseline_from_local(local)
    i1 = ParamIndex(("x",), ("x",), (1,))
    i2 = ParamIndex(("x",), ("x",), (2,))
    assert base.values[i1] == pytest.approx(local.values[i1] + local.values[i2], abs=1e-12)
    assert base.values[i2] == pytest.approx(local.values[i2], abs=1e-12)


def test_baseline_from_local_matches_direct_baseline():
    vs_local = (VariableSpec("x", 3, coding="local"), VariableSpec("y", 3, coding="local"))
    vs_base = (VariableSpec("x", 3), VariableSpec("y", 3))
    w = random_positive(vs_local, 31).probs
    pl = probability_vector(vs_local, w)
    pb = probability_vector(vs_base, w)
    alloc_l = allocate_effects(vs_local, [("x", "y")])
    alloc_b = allocate_effects(vs_base, [("x", "y")])
    got = baseline_from_local(param_vector(pl, alloc_l))
    want = param_vector(pb, alloc_b)
    for idx, v in want.values.items():
        assert got.values[idx] == pytest.approx(v, abs=1e-12), idx


def test_baseline_from_local_binary_is_identity():
    vs = (VariableSpec("x", 2, coding="local"),)
    pv = probability_vector(vs, [0.3, 0.7])
    alloc = allocate_effects(vs, [("x",)])
    local = param_vector(pv, alloc)
    base = baseline_from_local(local)
    assert base.values == pytest.approx(local.values)


def test_baseline_from_local_rejects_other_codings():
    vs = (VariableSpec("x", 3),)
    pv = random_positive(vs, 37)
    alloc = allocate_effects(vs, [("x",)])
    vec = param_vector(pv, alloc)
    with pytest.raises(UnsupportedCodingError):
        baseline_from_local(vec)


# ---------------------------------------------------------------------------
# allocation


def test_single_joint_marginal_is_classical_allocation():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3), VariableSpec("c", 4))
    alloc = allocate_effects(vs, [("a", "b", "c")])
    assert alloc.dimension == 2 * 3 * 4 - 1
    assert all(m == ("a", "b", "c") for m in alloc.assignment.values())


def test_graph_style_marginal_list_assignment():
    vs = tuple(VariableSpec(str(k), 2) for k in range(1, 6))
    H = [
        ("1", "2"),
        ("1", "2", "3"),
        ("1", "2", "4"),
        ("1", "2", "5"),
        ("1", "2", "3", "4"),
        ("1", "2", "3", "5"),
        ("1", "2", "4", "5"),
        ("1", "2", "3", "4", "5"),
    ]
    alloc = allocate_effects(vs, H)
    assert alloc.assignment[("3", "4")] == ("1", "2", "3", "4")
    assert alloc.assignment[("1", "2")] == ("1", "2")
    assert alloc.assignment[("3",)] == ("1", "2", "3")
    assert alloc.dimension == 2 ** 5 - 1


def test_subset_after_superset_rejected():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 2))
    with pytest.raises(AllocationOrderError):
        allocate_effects(vs, [("a", "b", "c"), ("a", "b")])


def test_straddling_effect_coverage_failure():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 2))
    with pytest.raises(AllocationCoverageError):
        allocate_effects(vs, [("a", "b"), ("a", "c")])


def test_dimension_counts_nonreference_cells():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3), VariableSpec("c", 4))
    alloc = allocate_effects(vs, [("a", "b", "c")])
    # 1 + 2 + 3 + 2 + 3 + 6 + 6 = 23
    assert alloc.dimension == 23


def test_indices_order_is_deterministic():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3))
    alloc = allocate_effects(vs, [("a",), ("a", "b")])
    seq = list(alloc.indices())
    assert seq[0] == ParamIndex(("a",), ("a",), (1,))
    assert seq[1] == ParamIndex(("a", "b"), ("b",), (1,))
    assert seq[2] == ParamIndex(("a", "b"), ("b",), (2,))
    assert seq[3] == ParamIndex(("a", "b"), ("a", "b"), (1, 1))
    assert len(seq) == 1 + 2 + 2


# ---------------------------------------------------------------------------
# validation and smoothness


def test_param_index_validation():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3))
    with pytest.raises(StatementError):
        param_index(vs, ("a",), ("b",), {"b": 1})
    with pytest.raises(StatementError):
        param_index(vs, ("a", "b"), (), {})
    with pytest.raises(StatementError):
        param_index(vs, ("a", "b"), ("b",), {"b": 3})
    idx = param_index(vs, ("b", "a"), ("b", "a"), {"a": 1, "b": 2})
    assert idx.margin == ("a", "b") and idx.effect == ("a", "b") and idx.cell == (1, 2)


def test_zero_event_raises():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2))
    pv = probability_vector(vs, [0.0, 0.3, 0.3, 0.4])
    with pytest.raises(ZeroMassSliceError):
        param_value(pv, ("a", "b"), ("a", "b"), {"a": 1, "b": 1})


def test_param_vector_raises_on_zero_mass_margin_slice():
    # no mass where a = 1 and c = 3, so the first parameter, eta_a on the
    # margin {a, c} (pinned at c = 3), has an empty event
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 3))
    probs = np.ones((2, 2, 3))
    probs[0, :, 2] = 0.0
    pv = probability_vector(vs, probs.ravel())
    alloc = allocate_effects(vs, [("a", "c"), ("a", "b", "c")])
    with pytest.raises(ZeroMassSliceError, match=r"\('a', 'c'\)/\('a',\)"):
        param_vector(pv, alloc)


def test_injectivity_smoke_on_saturated_allocation():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 2))
    alloc = allocate_effects(vs, [("a", "b", "c")])
    rng = np.random.default_rng(99)
    for _ in range(50):
        p1 = random_positive(vs, int(rng.integers(1 << 30)))
        p2 = random_positive(vs, int(rng.integers(1 << 30)))
        if float(np.max(np.abs(p1.probs - p2.probs))) < 1e-6:
            continue
        v1 = param_vector(p1, alloc).as_array()
        v2 = param_vector(p2, alloc).as_array()
        assert float(np.max(np.abs(v1 - v2))) > 1e-8


def test_values_finite_under_perturbation():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3, coding="continuation"))
    alloc = allocate_effects(vs, [("a", "b")])
    pv = random_positive(vs, 41)
    rng = np.random.default_rng(43)
    for _ in range(10):
        noise = np.exp(0.01 * rng.standard_normal(pv.probs.shape))
        bumped = probability_vector(vs, pv.probs * noise)
        arr = param_vector(bumped, alloc).as_array()
        assert np.all(np.isfinite(arr))

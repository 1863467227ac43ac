"""Anchors for the brute-force reference machinery.

The closed-form values here are worked out by hand from the definition of
the log contrasts, so these tests certify the oracle itself; everything
else in the package is later certified against the oracle.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scgm.errors import StatementError
from scgm.tables import VariableSpec, all_cells, probability_vector
from scgm.oracle import (
    direct_param_value,
    ipf_two_way,
    max_log_odds_ratio,
    plant_distribution,
    plant_graph_distribution,
    random_positive,
    sample_dependent,
    verify_cs_direct,
)


def cells_of(pv):
    return {c: float(p) for c, p in zip(all_cells(pv.variables), pv.probs)}


# ---------------------------------------------------------------------------
# closed-form parameter values


def test_baseline_first_order_on_product_table():
    # independent table p_ij = r_i c_j, so the logit only sees the row margin
    r = [0.5, 0.3, 0.2]
    c = [0.2, 0.3, 0.5]
    vs = (VariableSpec("x", 3), VariableSpec("y", 3))
    pv = probability_vector(vs, [ri * cj for ri in r for cj in c])
    got = direct_param_value(pv, ("x", "y"), ("x",), {"x": 1})
    assert got == pytest.approx(math.log(r[2] / r[0]), abs=1e-12)
    # second order vanishes on a product table
    got2 = direct_param_value(pv, ("x", "y"), ("x", "y"), {"x": 1, "y": 1})
    assert abs(got2) < 1e-12


def test_baseline_two_way_log_odds():
    vs = (VariableSpec("x", 3), VariableSpec("y", 3))
    pv = random_positive(vs, 101)
    p = cells_of(pv)
    for i in (1, 2):
        for j in (1, 2):
            want = math.log(p[(i, j)] * p[(3, 3)] / (p[(i, 3)] * p[(3, j)]))
            got = direct_param_value(pv, ("x", "y"), ("x", "y"), {"x": i, "y": j})
            assert got == pytest.approx(want, abs=1e-12)


def test_local_first_and_second_order():
    vs = (VariableSpec("x", 3, coding="local"), VariableSpec("y", 3, coding="local"))
    pv = random_positive(vs, 102)
    p = cells_of(pv)
    got = direct_param_value(pv, ("x", "y"), ("x",), {"x": 1})
    assert got == pytest.approx(math.log(p[(2, 3)] / p[(1, 3)]), abs=1e-12)
    got2 = direct_param_value(pv, ("x", "y"), ("x", "y"), {"x": 1, "y": 1})
    want2 = math.log(p[(1, 1)] * p[(2, 2)] / (p[(2, 1)] * p[(1, 2)]))
    assert got2 == pytest.approx(want2, abs=1e-12)


def test_continuation_aggregates_upper_levels():
    vs = (VariableSpec("x", 3, coding="continuation"), VariableSpec("y", 3))
    pv = random_positive(vs, 103)
    p = cells_of(pv)
    got = direct_param_value(pv, ("x", "y"), ("x",), {"x": 1})
    want = math.log((p[(2, 3)] + p[(3, 3)]) / p[(1, 3)])
    assert got == pytest.approx(want, abs=1e-12)


def test_continuation_conditioning_pins_top_level():
    vs = (
        VariableSpec("a", 2),
        VariableSpec("b", 2),
        VariableSpec("c", 4, coding="continuation"),
    )
    pv = random_positive(vs, 104)
    p = cells_of(pv)
    got = direct_param_value(pv, ("a", "b", "c"), ("a", "b"), {"a": 1, "b": 1})
    want = math.log(p[(1, 1, 4)] * p[(2, 2, 4)] / (p[(1, 2, 4)] * p[(2, 1, 4)]))
    assert got == pytest.approx(want, abs=1e-12)


def test_reverse_continuation_counts_down_from_top():
    vs = (VariableSpec("z", 3, coding="reverse-continuation"),)
    p = [0.2, 0.3, 0.5]
    pv = probability_vector(vs, p)
    got1 = direct_param_value(pv, ("z",), ("z",), {"z": 1})
    got2 = direct_param_value(pv, ("z",), ("z",), {"z": 2})
    assert got1 == pytest.approx(math.log((p[0] + p[1]) / p[2]), abs=1e-12)
    assert got2 == pytest.approx(math.log(p[0] / p[1]), abs=1e-12)


def test_reverse_continuation_equals_continuation_on_reversed_scale():
    vs = (
        VariableSpec("z", 4, coding="reverse-continuation"),
        VariableSpec("w", 2),
    )
    pv = random_positive(vs, 105)
    p = cells_of(pv)
    # reversing z's levels turns the coding into plain continuation
    rs = (VariableSpec("z", 4, coding="continuation"), VariableSpec("w", 2))
    rev = probability_vector(rs, [p[(5 - i, j)] for i, j in all_cells(rs)])
    for c in (1, 2, 3):
        a = direct_param_value(pv, ("z", "w"), ("z", "w"), {"z": c, "w": 1})
        b = direct_param_value(rev, ("z", "w"), ("z", "w"), {"z": c, "w": 1})
        assert a == pytest.approx(b, abs=1e-12)


def test_local_equals_baseline_for_binary():
    vs_l = (VariableSpec("a", 2, coding="local"), VariableSpec("b", 2, coding="local"))
    vs_b = (VariableSpec("a", 2), VariableSpec("b", 2))
    w = [0.1, 0.2, 0.3, 0.4]
    pl = probability_vector(vs_l, w)
    pb = probability_vector(vs_b, w)
    for eff, cell in [(("a",), {"a": 1}), (("a", "b"), {"a": 1, "b": 1})]:
        assert direct_param_value(pl, ("a", "b"), eff, cell) == pytest.approx(
            direct_param_value(pb, ("a", "b"), eff, cell), abs=1e-14
        )


def test_mixed_coding_sum_identity_holds_on_arbitrary_table():
    # for any positive table with the third variable local coded:
    # exp(sum of the two upper-cell third-order terms minus the pairwise term)
    # telescopes to a single cross ratio in the i3 = 2 slice
    vs = (
        VariableSpec("a", 2),
        VariableSpec("b", 2),
        VariableSpec("c", 4, coding="local"),
    )
    pv = random_positive(vs, 106)
    p = cells_of(pv)
    s = (
        direct_param_value(pv, ("a", "b", "c"), ("a", "b", "c"), {"a": 1, "b": 1, "c": 2})
        + direct_param_value(pv, ("a", "b", "c"), ("a", "b", "c"), {"a": 1, "b": 1, "c": 3})
        - direct_param_value(pv, ("a", "b", "c"), ("a", "b"), {"a": 1, "b": 1})
    )
    want = (p[(1, 2, 2)] * p[(2, 1, 2)]) / (p[(2, 2, 2)] * p[(1, 1, 2)])
    assert math.exp(s) == pytest.approx(want, rel=1e-12)


def test_margin_consistency_ignores_marginalized_variables():
    vs = (
        VariableSpec("a", 2),
        VariableSpec("b", 3, coding="local"),
        VariableSpec("c", 2),
    )
    pv = random_positive(vs, 107)
    from scgm.tables import marginalize

    sub = marginalize(pv, ("a", "b"))
    full = direct_param_value(pv, ("a", "b"), ("a", "b"), {"a": 1, "b": 2})
    small = direct_param_value(sub, ("a", "b"), ("a", "b"), {"a": 1, "b": 2})
    assert full == pytest.approx(small, abs=1e-12)


def test_parameter_evaluation_caps_at_four_variables():
    vs = tuple(VariableSpec(str(k), 2) for k in range(5))
    pv = probability_vector(vs, [1.0] * 32)
    with pytest.raises(StatementError):
        direct_param_value(pv, ("0", "1"), ("0",), {"0": 1})


def test_out_of_range_coordinate_rejected():
    vs = (VariableSpec("x", 3), VariableSpec("y", 3))
    pv = random_positive(vs, 108)
    with pytest.raises(StatementError):
        direct_param_value(pv, ("x", "y"), ("x",), {"x": 3})


# ---------------------------------------------------------------------------
# planting and direct verification


def test_plant_then_verify_holds_exactly():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3), VariableSpec("c", 2))
    pv = plant_distribution(vs, ("a",), ("b",), ("c",), [(1,)], 11)
    assert verify_cs_direct(pv, ("a",), ("b",), ("c",), [(1,)]) < 1e-14
    # the slice outside the context stays visibly dependent
    assert max_log_odds_ratio(pv, ("a",), ("b",), ("c",), (2,)) > 0.1


def test_plant_threshold_style_context():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 4))
    ctx = [(2,), (3,), (4,)]
    pv = plant_distribution(vs, ("a",), ("b",), ("c",), ctx, 12)
    for c in ctx:
        assert verify_cs_direct(pv, ("a",), ("b",), ("c",), [c]) < 1e-14
    assert max_log_odds_ratio(pv, ("a",), ("b",), ("c",), (1,)) > 0.1


def test_plant_marginal_independence():
    vs = (VariableSpec("a", 3), VariableSpec("b", 3))
    pv = plant_distribution(vs, ("a",), ("b",), (), [], 13)
    assert verify_cs_direct(pv, ("a",), ("b",), (), []) < 1e-14


def test_uniform_satisfies_every_statement():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 3))
    pv = probability_vector(vs, [1.0] * 12)
    for ctx in [(1,), (2,), (3,)]:
        assert verify_cs_direct(pv, ("a",), ("b",), ("c",), [ctx]) < 1e-15


def test_perturbed_plant_is_detected():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 2))
    pv = plant_distribution(vs, ("a",), ("b",), ("c",), [(1,)], 14)
    w = [float(x) for x in pv.probs]
    w[0] *= 1.5
    bad = probability_vector(vs, w)
    assert verify_cs_direct(bad, ("a",), ("b",), ("c",), [(1,)]) > 1e-3


def test_sample_dependent_makes_context_slices_dependent():
    vs = (VariableSpec("a", 2), VariableSpec("b", 3), VariableSpec("c", 2))
    ctx = [(1,), (2,)]
    pv = sample_dependent(vs, ("a",), ("b",), ("c",), ctx, 15)
    for c in ctx:
        assert max_log_odds_ratio(pv, ("a",), ("b",), ("c",), c) > 0.1


def test_plant_requires_full_cover():
    vs = (VariableSpec("a", 2), VariableSpec("b", 2), VariableSpec("c", 2))
    with pytest.raises(StatementError):
        plant_distribution(vs, ("a",), ("b",), (), [], 16)


def test_plant_cell_budget():
    vs = tuple(VariableSpec(str(k), 4) for k in range(5))
    with pytest.raises(StatementError):
        plant_distribution(vs, ("0", "1"), ("2", "3"), ("4",), [(1,)], 17)


def test_ipf_two_way_closed_form():
    vs = (VariableSpec("r", 2), VariableSpec("s", 2))
    pv = probability_vector(vs, [10, 20, 30, 40])
    fitted = ipf_two_way(pv)
    assert [round(float(x), 10) for x in fitted.probs] == [0.12, 0.18, 0.28, 0.42]


# ---------------------------------------------------------------------------
# latent-coupling construction for chain graphs


FIVE = tuple(VariableSpec(str(k), 2) for k in range(1, 6))
COMPS = (("1", "2"), ("3", "4", "5"))
EDGES = (("1", "2"), ("3", "5"), ("4", "5"))
ARCS = (("1", "3"), ("1", "4"), ("2", "4"))
SQUARE = [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_graph_plant_satisfies_chain_graph_independencies():
    pv = plant_graph_distribution(FIVE, COMPS, EDGES, ARCS, 0)
    assert verify_cs_direct(pv, ("3",), ("4",), ("1", "2"), SQUARE) < 1e-12
    assert verify_cs_direct(pv, ("3",), ("2",), ("1",), [(1,), (2,)]) < 1e-12
    assert verify_cs_direct(pv, ("5",), ("1", "2"), (), []) < 1e-12


def test_graph_plant_keeps_present_couplings_dependent():
    pv = plant_graph_distribution(FIVE, COMPS, EDGES, ARCS, 0)
    for ctx in SQUARE:
        assert max_log_odds_ratio(pv, ("3",), ("5",), ("1", "2"), ctx) > 0.05
    assert max_log_odds_ratio(pv, ("3",), ("1",), (), ()) > 0.05


def test_graph_plant_with_edge_stratum():
    # independence of 3 and 4 planted only where the first parent is 1
    strata = [("3", "4", ("1", "2"), ((1, None),))]
    pv = plant_graph_distribution(FIVE, COMPS, EDGES, ARCS, 3, strata=strata)
    assert verify_cs_direct(pv, ("3",), ("4",), ("1", "2"), [(1, 1), (1, 2)]) < 1e-12
    for ctx in [(2, 1), (2, 2)]:
        assert max_log_odds_ratio(pv, ("3",), ("4",), ("1", "2"), ctx) > 0.05


def test_graph_plant_with_arc_stratum():
    W = tuple(VariableSpec(str(k), 2) for k in range(1, 4))
    strata = [("3", "2", ("1",), ((1,),))]
    pv = plant_graph_distribution(
        W, (("1", "2"), ("3",)), (("1", "2"),), (("1", "3"),), 0, strata=strata
    )
    assert verify_cs_direct(pv, ("3",), ("2",), ("1",), [(1,)]) < 1e-12
    assert max_log_odds_ratio(pv, ("3",), ("2",), ("1",), (2,)) > 0.05


def test_graph_plant_does_not_depend_on_string_hashing():
    code = (
        "import sys\n"
        "from scgm.oracle import plant_graph_distribution\n"
        "from scgm.tables import VariableSpec\n"
        "five = tuple(VariableSpec(str(k), 2) for k in range(1, 6))\n"
        f"pv = plant_graph_distribution(five, {COMPS!r}, {EDGES!r}, {ARCS!r}, 0)\n"
        "sys.stdout.buffer.write(pv.probs.tobytes())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=60
        )
        outputs.append(done.stdout)
    assert len(outputs[0]) == 32 * 8
    assert outputs[0] == outputs[1]

import json
import re

import numpy as np
import pytest

from scgm import (
    ContingencyTable,
    DuplicateCellError,
    ProbabilityVector,
    TableFormatError,
    VariableSpec,
    dump_table,
    load_table,
    marginalize,
    probability_vector,
)

V2 = VariableSpec("X1", 2)
W2 = VariableSpec("X2", 2)


def two_by_two(counts):
    return ContingencyTable((V2, W2), np.array(counts, dtype=float))


CSV_2X2 = """\
variable,cardinality,coding
X1,2,baseline
X2,2,baseline
cell:1,1,10
cell:1,2,20
cell:2,1,30
cell:2,2,40
"""


def test_load_csv_totals():
    table = load_table(CSV_2X2, "csv")
    assert table.total == 100
    assert list(table.counts) == [10, 20, 30, 40]


def test_load_table_reads_a_path_text_bytes_and_streams(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(CSV_2X2, encoding="utf-8")
    with open(path, encoding="utf-8") as text_stream, open(path, "rb") as byte_stream:
        sources = [path, CSV_2X2, CSV_2X2.encode("utf-8"), text_stream, byte_stream]
        tables = [load_table(source, "csv") for source in sources]
    for table in tables:
        assert list(table.counts) == [10, 20, 30, 40]
    # a str is the table's text, never a file name
    with pytest.raises(TableFormatError, match="header"):
        load_table(str(path), "csv")
    for source in (None, 42, [CSV_2X2]):
        with pytest.raises(TableFormatError, match="cannot read a table"):
            load_table(source, "csv")


def test_duplicate_cell_rejected():
    bad = CSV_2X2 + "cell:1,1,5\n"
    with pytest.raises(DuplicateCellError):
        load_table(bad, "csv")


def test_missing_cell_defaults_to_zero():
    partial = "\n".join(CSV_2X2.splitlines()[:-1]) + "\n"
    table = load_table(partial, "csv")
    assert table.counts[-1] == 0
    assert table.total == 60


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("cell:2,2,40", "cell:2,3,40"),   # level out of range
        lambda t: t.replace("cell:2,2,40", "cell:2,2,-4"),   # negative count
        lambda t: t.replace("X2,2,baseline", "X2,2,sideways"),  # unknown coding
        lambda t: t.replace("variable,cardinality,coding", "var,card,code"),
    ],
)
def test_malformed_csv_rejected(mangle):
    with pytest.raises(TableFormatError):
        load_table(mangle(CSV_2X2), "csv")


def test_csv_round_trip_bit_exact():
    table = load_table(CSV_2X2, "csv")
    again = load_table(dump_table(table, "csv"), "csv")
    assert np.array_equal(table.counts, again.counts)
    assert table.variables == again.variables


def test_json_round_trip():
    table = load_table(CSV_2X2, "csv")
    text = dump_table(table, "json")
    assert '"scgm-table/1"' in text
    again = load_table(text, "json")
    assert np.array_equal(table.counts, again.counts)
    assert table.variables == again.variables


def test_csv_writer_refuses_level_labels_json_keeps_them():
    labelled = VariableSpec("X2", 2, level_labels=("low", "high"))
    table = ContingencyTable((V2, labelled), np.array([10.0, 20.0, 30.0, 40.0]))
    with pytest.raises(TableFormatError, match="'X2'.*JSON"):
        dump_table(table, "csv")
    again = load_table(dump_table(table, "json"), "json")
    assert again.variables == table.variables


@pytest.mark.parametrize("name", ["a,b", " x", "#x", "cell:x", "a\x0bb"])
def test_csv_writer_refuses_a_name_its_reader_cannot_read_back(name):
    # the reader splits fields at commas, strips whitespace, reads rows
    # starting '#' or 'cell:' as comments and cells, and splits at line
    # breaks; 'a,b' was refused on reading and ' x' read back as 'x'
    table = ContingencyTable((VariableSpec(name, 2), W2), np.array([10.0, 20.0, 30.0, 40.0]))
    with pytest.raises(TableFormatError, match=re.escape(repr(name))):
        dump_table(table, "csv")
    again = load_table(dump_table(table, "json"), "json")
    assert again.variables == table.variables


def test_json_schema_required():
    with pytest.raises(TableFormatError):
        load_table('{"variables": [], "cells": []}', "json")


@pytest.mark.parametrize(
    "variables, cell, message",
    [
        ([2.7, 2], [1, 1], "cardinality 2.7 is not an integer"),
        ([True, 2], [1, 1], "cardinality True is not an integer"),
        ([2, 2], [1.5, True], "cell row 1: level 1.5 is not an integer"),
        ([2, 2], [1, True], "cell row 1: level True is not an integer"),
    ],
)
def test_json_reader_refuses_non_integers(variables, cell, message):
    # these used to load truncated: a cardinality of 2.7 as 2, [1.5, true] as (1, 1)
    payload = {
        "schema": "scgm-table/1",
        "variables": [{"name": f"X{k}", "cardinality": c} for k, c in enumerate(variables)],
        "cells": [{"cell": cell, "count": 3}],
    }
    with pytest.raises(TableFormatError, match=re.escape(message)):
        load_table(json.dumps(payload), "json")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"name": ["x"]}, "variable name ['x'] is not a string"),
        ({"name": 7}, "variable name 7 is not a string"),
        ({"level_labels": "lh"}, "level_labels 'lh' is not a list"),
        ({"level_labels": ["l", None]}, "level label None is not a string"),
        ({"level_labels": ["l", 2]}, "level label 2 is not a string"),
    ],
    ids=["name-list", "name-int", "labels-string", "label-null", "label-int"],
)
def test_json_reader_refuses_non_strings(fields, message):
    # these used to load: "lh" as the labels ('l', 'h'), [1, null] as given,
    # and a list name as its text "['x']"
    spec = {"name": "x", "cardinality": 2, **fields}
    payload = {"schema": "scgm-table/1", "variables": [spec], "cells": []}
    with pytest.raises(TableFormatError, match=re.escape(message)):
        load_table(json.dumps(payload), "json")


@pytest.mark.parametrize("count", [True, "3", None, [3]], ids=["bool", "string", "null", "list"])
def test_json_reader_refuses_a_count_that_is_not_a_number(count):
    # true used to load as the count 1.0 and "3" as 3.0
    payload = {
        "schema": "scgm-table/1",
        "variables": [{"name": "x", "cardinality": 2}],
        "cells": [{"cell": [1], "count": count}],
    }
    with pytest.raises(TableFormatError, match=re.escape(f"count {count!r} is not a number")):
        load_table(json.dumps(payload), "json")


def test_json_reader_keeps_integer_and_fractional_counts():
    payload = {
        "schema": "scgm-table/1",
        "variables": [{"name": "x", "cardinality": 2}],
        "cells": [{"cell": [1], "count": 3}, {"cell": [2], "count": 0.5}],
    }
    assert load_table(json.dumps(payload), "json").counts.tolist() == [3.0, 0.5]


def test_marginalize_product_structure():
    pv = probability_vector((V2, W2), np.outer([0.3, 0.7], [0.4, 0.6]).ravel())
    m = marginalize(pv, ("X1",))
    assert np.allclose(m.probs, [0.3, 0.7])


def test_marginalize_all_is_identity():
    pv = probability_vector((V2, W2), [0.1, 0.2, 0.3, 0.4])
    m = marginalize(pv, ("X1", "X2"))
    assert np.allclose(m.probs, pv.probs)


def test_marginalize_canonical_order():
    pv = probability_vector((V2, W2), [0.1, 0.2, 0.3, 0.4])
    m = marginalize(pv, ("X2", "X1"))
    assert tuple(v.name for v in m.variables) == ("X1", "X2")


def test_marginalize_uniform_cube():
    vs = (V2, W2, VariableSpec("X3", 2))
    pv = probability_vector(vs, np.full(8, 0.125))
    m = marginalize(pv, ("X1", "X3"))
    assert np.allclose(m.probs, 0.25)


def test_marginalize_tower_property():
    rng = np.random.default_rng(7)
    vs = (VariableSpec("A", 2), VariableSpec("B", 3), VariableSpec("C", 2))
    pv = probability_vector(vs, rng.gamma(1.0, size=12))
    big = marginalize(pv, ("A", "B"))
    small_direct = marginalize(pv, ("A",))
    small_via = marginalize(big, ("A",))
    assert np.max(np.abs(small_direct.probs - small_via.probs)) < 1e-14


def test_probability_vector_must_sum_to_one():
    with pytest.raises(ValueError):
        ProbabilityVector((V2,), np.array([0.5, 0.6]))


def test_counts_are_immutable():
    table = two_by_two([1, 2, 3, 4])
    with pytest.raises(ValueError):
        table.counts[0] = 9.0

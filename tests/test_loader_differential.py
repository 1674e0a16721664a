"""The array-based catalog and assignment loaders against the per-row
reference loaders in `reference_loaders.py`.

On a valid file both give the same ids, a bit-equal matrix and the same
optional columns; on a corrupted one both raise DataError with the same
text, so among several bad rows the first in file order is reported.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit.catalog import SidStructure, load_item_catalog
from sidkit.collision import load_assignment
from sidkit.errors import DataError

from reference_loaders import load_assignment_rows, load_item_catalog_rows

D_IN = 3
STRUCTURE = SidStructure((3, 4), code_dim=2)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


def outcome(load, path):
    try:
        return "loaded", load(path)
    except DataError as exc:
        return "error", str(exc)


def catalog_columns(catalog):
    records = list(catalog.records())
    return (list(catalog.item_ids), catalog.embedding_matrix(),
            [rec.sid and rec.sid.codes for rec in records],
            [rec.related_item for rec in records],
            [rec.style_group for rec in records],
            [rec.origin_group for rec in records])


def assert_same_columns(got, want):
    (ids, matrix, *rest), (ref_ids, ref_matrix, *ref_rest) = got, want
    assert ids == ref_ids
    assert matrix.dtype == ref_matrix.dtype == np.float64
    assert matrix.shape == ref_matrix.shape
    assert matrix.tobytes() == ref_matrix.tobytes()
    assert rest == ref_rest


FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr)
# a row is valid unless a defect is drawn; the first choice of each is the
# valid one, and some defects ("1_0", " 1.5", " r1 ") still parse
VALUE_DEFECTS = [None] * 6 + ["x", "nan", "-inf", "1e999", "", "1_0", " 1.5", "drop", "add"]
ID_CHOICES = [None] * 6 + ["r0", " r1 ", ""]  # None: this row's own id
TAILS = [(), (), ("",), ("", "r0"), ("[1,2]",), ("[0]", "r1", "s1", "o1"), ("", "", "s1"),
         ("r2", "s1"), ("ghost",), ("[x]",), ("[",), ("", "r0", "s", "o", "extra")]
CATALOG_ROWS = st.lists(
    st.tuples(
        st.sampled_from(ID_CHOICES),
        st.lists(FLOATS, min_size=D_IN, max_size=D_IN),
        st.sampled_from(VALUE_DEFECTS),
        st.integers(min_value=0, max_value=D_IN - 1),  # where the defect goes
        st.sampled_from(TAILS),
        st.booleans(),  # a blank line before the row
    ),
    max_size=8,
)


def catalog_text(rows) -> str:
    lines = []
    for k, (item_id, values, defect, at, tail, blank) in enumerate(rows):
        values = list(values)
        if defect == "drop":
            del values[at]
        elif defect == "add":
            values.insert(at, "0.0")
        elif defect is not None:
            values[at] = defect
        if blank:
            lines.append("  ")
        lines.append("\t".join([f"r{k}" if item_id is None else item_id, ",".join(values), *tail]))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400, deadline=None)
@given(rows=CATALOG_ROWS)
def test_catalog_loader_matches_the_per_row_reference(workdir, rows):
    path = workdir / "catalog.tsv"
    path.write_text(catalog_text(rows), encoding="utf-8")
    got = outcome(lambda p: catalog_columns(load_item_catalog(p, D_IN)), path)
    want = outcome(lambda p: load_item_catalog_rows(p, D_IN), path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_columns(got[1], want[1])


CODE_DEFECTS = [None] * 8 + ["-1", "3", "4", "x", "", " 2", "99999999999999999999",
                            "9223372036854775807", "drop", "add"]
SHAPES = ["[{}]"] * 10 + [" [{}] ", "{}", "[{}", "[[{}]]"]
ASSIGNMENT_ROWS = st.lists(
    st.tuples(
        st.sampled_from(ID_CHOICES),
        st.tuples(st.integers(0, 2), st.integers(0, 3)).map(lambda c: [str(c[0]), str(c[1])]),
        st.sampled_from(CODE_DEFECTS),
        st.integers(min_value=0, max_value=1),  # where the defect goes
        st.sampled_from(SHAPES),
        st.sampled_from([2] * 8 + [1, 3]),  # fields in the row
    ),
    max_size=8,
)


def assignment_text(rows) -> str:
    lines = []
    for k, (item_id, codes, defect, at, shape, n_fields) in enumerate(rows):
        codes = list(codes)
        if defect == "drop":
            del codes[at]
        elif defect == "add":
            codes.insert(at, "0")
        elif defect is not None:
            codes[at] = defect
        fields = [f"r{k}" if item_id is None else item_id, shape.format(",".join(codes)), "x"]
        lines.append("\t".join(fields[:n_fields]))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400, deadline=None)
@given(rows=ASSIGNMENT_ROWS)
def test_assignment_loader_matches_the_per_row_reference(workdir, rows):
    path = workdir / "assignment.tsv"
    path.write_text(assignment_text(rows), encoding="utf-8")

    def columns(p):
        table = load_assignment(p, STRUCTURE)
        return list(table), table.codes_of(list(table))

    got = outcome(columns, path)
    want = outcome(lambda p: load_assignment_rows(p, STRUCTURE), path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1][0] == want[1][0]
        np.testing.assert_array_equal(got[1][1], want[1][1])


@pytest.mark.parametrize("text, line", [
    ("a\t1,2,3\nb\t1,nan,3\nb\t1,2\n", 2),        # non-finite before a repeat and a short row
    ("a\t1,2,3\nb\t1,2\nc\tx,2,3\n", 2),          # a short row before an unparsable one
    ("a\t1,2,3\na\t1,2,3\n\nonly-an-id\n", 2),    # a repeat before a row with no values
    ("a\t1,2,3\nb\t1,2,3\t[x]\nc\t1,x,3\n", 2),   # a malformed SID before a bad value
    ("a\t1,x\t[x]\n", 1),                         # in one row the value error comes first
])
def test_catalog_reports_the_first_bad_row(tmp_path, text, line):
    path = tmp_path / "catalog.tsv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: ") as got:
        load_item_catalog(path, D_IN)
    with pytest.raises(DataError) as want:
        load_item_catalog_rows(path, D_IN)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text, line", [
    ("a\t[0,0]\nb\t[0,9]\nb\t[x]\n", 2),          # out of band before a repeat
    ("a\t[0,0]\na\t[x]\nc\t[0]\n", 2),            # a repeat wins over its malformed SID
    ("a\t[0,0,0]\nb\t[0,0]\tz\n", 1),             # a level count before a wide row
    ("a\t[0,0]\nb\t[99999999999999999999,0]\n", 2),
])
def test_assignment_reports_the_first_bad_row(tmp_path, text, line):
    path = tmp_path / "assignment.tsv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: ") as got:
        load_assignment(path, STRUCTURE)
    with pytest.raises(DataError) as want:
        load_assignment_rows(path, STRUCTURE)
    assert str(got.value) == str(want.value)

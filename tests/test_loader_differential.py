"""The array-based catalog, assignment and scorer loaders, and the sequence
loader, against the per-row reference loaders in `reference_loaders.py`.

On a valid file both give the same ids, a bit-equal matrix and the same
optional columns (the same count table, for a scorer; the same sequences and
warning, for a sequence file); on a corrupted one both raise DataError with
the same text, so among several bad rows the first in file order is
reported.  The exceptions: a scorer integer spelt other than in ASCII
digits, which only the array-based loader rejects, and a sequence row of the
wrong field count, whose error names the same line in other words.  The
catalog loader is held to the reference also with its fold taking a few
rows at a time, and to a traced memory peak.
"""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit import catalog, retrieval
from sidkit.catalog import MAX_HISTORY, SidStructure, load_item_catalog, load_sequences
from sidkit.collision import load_assignment
from sidkit.errors import DataError
from sidkit.retrieval import load_markov_scorer, save_markov_scorer, train_markov_scorer

from reference_loaders import (
    load_assignment_rows,
    load_item_catalog_rows,
    load_markov_scorer_rows,
    load_sequence_rows,
)

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


@settings(max_examples=300, deadline=None)
@given(rows=CATALOG_ROWS, block=st.integers(1, 3))
def test_catalog_loader_in_blocks_matches_the_per_row_reference(workdir, rows, block):
    """The same rows folded `block` rows at a time, so a file spans several
    blocks: the same columns, or the same error."""
    path = workdir / "catalog.tsv"
    path.write_text(catalog_text(rows), encoding="utf-8")
    with mock.patch.object(catalog, "_BLOCK_ROWS", block):
        got = outcome(lambda p: catalog_columns(load_item_catalog(p, D_IN)), path)
    want = outcome(lambda p: load_item_catalog_rows(p, D_IN), path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_columns(got[1], want[1])


def numbered_catalog_lines(n):
    """n valid rows, `i00000`, .., each item related to the one before."""
    return [f"i{k:05d}\t{k}.5,-{k},0.25\t\t{f'i{k - 1:05d}' if k else ''}" for k in range(n)]


@pytest.mark.parametrize("row, line", [
    ("i02100\t1.5,2", 2101),                    # a wrong width
    ("i02100\t1.5,inf,3", 2101),                # a non-finite value
    ("i02100\t1.5,2,3\t[1,x]", 2101),           # a bad SID slot
    ("i00005\t1.5,2,3", 2101),                  # an id first seen in the first block
    ("i02100\t1.5,2,3\t\tghost", None),         # a dangling related item: no line
])
def test_catalog_of_several_blocks_reports_a_bad_row_in_a_later_one(tmp_path, row, line):
    """A 2500-row catalog spans three blocks of the fold; a bad row in the
    third gives the per-row reference's error, at the same line."""
    lines = numbered_catalog_lines(2500)
    lines[2100] = row
    path = tmp_path / "catalog.tsv"
    path.write_text("".join(text + "\n" for text in lines))
    assert 2500 > 2 * catalog._BLOCK_ROWS
    where = re.escape(str(path)) + ("" if line is None else f":{line}")
    with pytest.raises(DataError, match=f"^{where}: ") as got:
        load_item_catalog(path, D_IN)
    with pytest.raises(DataError) as want:
        load_item_catalog_rows(path, D_IN)
    assert str(got.value) == str(want.value)


def test_catalog_load_peaks_below_twice_the_catalog(tmp_path):
    """On a 10k x 32 catalog only one block's texts are alive at once: the
    load's traced peak stays below twice what the catalog it returns holds."""
    rng = np.random.default_rng(0)
    path = tmp_path / "catalog.tsv"
    path.write_text("".join(f"item{k:05d}\t{','.join(map(repr, row))}\n"
                            for k, row in enumerate(rng.standard_normal((10_000, 32)).tolist())))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = load_item_catalog(path, 32)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 10_000
    assert peak - before < 2 * (held - before), (peak - before, held - before)


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


# an id list: short ones with doubled, leading and trailing commas and spaces
# inside, or one of about MAX_HISTORY ids, maybe framed by commas
SHORT_IDS = st.lists(st.sampled_from(["", "a", "b7", " c", "d ", "e f"]), max_size=6).map(",".join)
SOME_IDS = st.tuples(SHORT_IDS, st.sampled_from(["a", "g"]), SHORT_IDS).map(",".join)
LONG_IDS = st.tuples(st.integers(MAX_HISTORY - 2, MAX_HISTORY + 20),
                     st.sampled_from(["", ",", ",,"])).map(
    lambda n_frame: n_frame[1] + ",".join(f"h{j}" for j in range(n_frame[0])) + n_frame[1])
PADS = st.lists(st.sampled_from(["", "", " ", "  "]), min_size=8, max_size=8)
SEQUENCE_ROWS = st.lists(
    st.tuples(
        st.sampled_from([None] * 20 + [" ", ""]),  # pv_id; None: this row's own
        st.one_of(SOME_IDS, SOME_IDS, SHORT_IDS, LONG_IDS),  # targets, maybe none
        st.sampled_from(["", " ", "   ", "dried leaves", " tea "]),  # query
        st.one_of(SHORT_IDS, LONG_IDS),  # history
        PADS,  # spaces before and after each field
        st.sampled_from([4] * 20 + [3, 5]),  # fields in the row
        st.booleans(),  # a blank line before the row
    ),
    max_size=6,
)


def sequence_text(rows) -> str:
    lines = []
    for k, (pv_id, targets, query, history, pads, n_fields, blank) in enumerate(rows):
        fields = [f"pv{k}" if pv_id is None else pv_id, targets, query, history]
        fields = [pads[2 * i] + field + pads[2 * i + 1] for i, field in enumerate(fields)]
        if blank:
            lines.append("")
        lines.append("\t".join((fields + ["x"])[:n_fields]))
    return "".join(line + "\n" for line in lines)


def sequences_with_warnings(path):
    with mock.patch("sidkit.catalog.logger.warning") as warn:
        sequences = load_sequences(path)
    return sequences, [call.args[0] % call.args[1:] for call in warn.call_args_list]


@settings(max_examples=300, deadline=None)
@given(rows=SEQUENCE_ROWS)
def test_sequence_loader_matches_the_per_row_reference(workdir, rows):
    """Spaces around fields, doubled, leading and trailing commas, an empty
    or whitespace-only query, histories over MAX_HISTORY, empty ids or
    targets, rows of 3 or 5 fields: the same sequences and warning, or a
    DataError at the same line and, unless the field count is wrong, with
    the same text."""
    path = workdir / "sequences.tsv"
    path.write_text(sequence_text(rows), encoding="utf-8")
    got = outcome(sequences_with_warnings, path)
    want = outcome(load_sequence_rows, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "loaded":
        assert got[1] == want[1]
    elif want[1].endswith(" fields, not 4"):
        line = re.match(f"^{re.escape(str(path))}:\\d+: ", want[1]).group()
        assert got[1].startswith(line) and "values to unpack" in got[1], (got, want)
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("row", ["pv2\ta\t", "pv2\ta\t\tb\tc"], ids=["3 fields", "5 fields"])
def test_sequence_row_of_wrong_field_count_names_its_line(tmp_path, row):
    path = tmp_path / "sequences.tsv"
    path.write_text(f"pv1\ta\t\tb\n\n{row}\npv3\ta\t\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: .*values to unpack"):
        load_sequences(path)


SCORER_STRUCTURE = SidStructure((3, 4, 2), code_dim=2)
SCORER_HEADER = ["#order\t{order}", "#alpha\t0.5", "#levels\t3\t4\t2", "#code_dim\t2"]
# what a count row's field may become: "lead0" writes a leading zero and
# "big count" a count of 19 digits, both valid; the rest are refused by int()
# or by the table checks ("0" as a count, "999" as a token, a context too
# long), or spell an integer too big for int64
VALID_SPELLINGS = [None, "lead0", "big count"]
FIELD_DEFECTS = VALID_SPELLINGS + ["x", "", "0", "999", "4,5", "1.5", "0,,3", "3,",
                                   "0,3,7,8,1", "9223372036854775808", "drop", "add"]
# a line put before a row: blank and whitespace-only ones are skipped, a
# header row or a repeated row among the count rows is an error
VALID_LINES = [None, "", "  ", "\t\t", "\t"]
LINE_DEFECTS = VALID_LINES + ["#order\t2", "repeat"]
SID = st.tuples(*(st.integers(o, o + n - 1) for o, n in zip(SCORER_STRUCTURE.offsets,
                                                         SCORER_STRUCTURE.level_sizes)))


@st.composite
def scorer_texts(draw, field_choices, line_choices):
    """A scorer file: the count rows of a trained scorer, maybe shuffled, a
    few of them edited (a field and the line before the row drawn from the
    choices), maybe blank lines at the end, with "\n" or "\r\n" line ends
    and maybe no final one."""
    order = draw(st.integers(1, 4), label="order")
    streams = draw(st.lists(st.lists(SID, max_size=4), min_size=1, max_size=6), label="streams")
    scorer = train_markov_scorer([[t for sid in s for t in sid] for s in streams],
                                 SCORER_STRUCTURE, order=order, alpha=0.5)
    rows = [[",".join(str(t) for t in row[:order] if t >= 0), str(row[order]), str(count)]
            for row, count in zip(scorer._rows.tolist(), scorer._counts.tolist())]
    if draw(st.booleans(), label="shuffle"):
        rows = draw(st.permutations(rows), label="row order")
    edits = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 2),
                                    st.sampled_from(field_choices), st.sampled_from(line_choices)),
                          max_size=3) if rows else st.just([]), label="edits")
    texts, before = ["\t".join(fields) for fields in rows], {}
    for row, at, defect, line in edits:
        fields = texts[row].split("\t")
        at = min(at, len(fields) - 1)
        if defect == "drop":
            del fields[at]
        elif defect == "add":
            fields.insert(at, "1")
        elif defect == "lead0":
            fields[at] = "0" + fields[at] if fields[at] else ""
        elif defect == "big count":
            fields[-1] = str(10**18)
        elif defect is not None:
            fields[at] = defect
        texts[row] = "\t".join(fields)
        if line == "repeat":
            line = texts[draw(st.integers(0, len(texts) - 1), label="repeated row")]
        if line is not None:
            before[row] = line
    lines = [line.format(order=order) for line in SCORER_HEADER]
    for row, text in enumerate(texts):
        lines += [before[row], text] if row in before else [text]
    lines += draw(st.lists(st.sampled_from(["", "", "  "]), max_size=2), label="last lines")
    end = draw(st.sampled_from(["\n", "\r\n"]), label="line end")
    return end.join(lines) + draw(st.sampled_from([end, ""]), label="last line end")


def scorer_outcome(load, path):
    got = outcome(load, path)
    if got[0] == "error":
        return got
    scorer = got[1]
    return ("loaded", scorer.order, scorer.alpha, scorer.structure, scorer._rows.tolist(),
            scorer._counts.tolist())


def load_in_blocks_of(block):
    def load(path):
        with mock.patch.object(retrieval, "_BLOCK_BYTES", block):
            return load_markov_scorer(path)
    return load


@settings(max_examples=300, deadline=None)
@given(text=scorer_texts(VALID_SPELLINGS, VALID_LINES), block=st.integers(1, 64))
def test_scorer_loader_matches_the_per_row_reference(workdir, text, block):
    """Shuffled rows, blank and whitespace-only lines, leading zeros, counts
    of 19 digits, CRLF line ends, the byte parse in blocks of any size: the
    same table as the per-row reference."""
    path = workdir / "scorer.tsv"
    path.write_bytes(text.encode())
    got = scorer_outcome(load_in_blocks_of(block), path)
    assert got[0] == "loaded", got
    assert got == scorer_outcome(load_markov_scorer_rows, path)


@settings(max_examples=400, deadline=None)
@given(text=scorer_texts(FIELD_DEFECTS, LINE_DEFECTS), block=st.integers(1, 64))
def test_corrupted_scorer_gives_the_reference_error(workdir, text, block):
    """Fields int() refuses, a field too few or too many, rows the table
    checks refuse, a header row or a repeated row among the count rows: the
    same DataError text, naming the same line, as the per-row reference."""
    path = workdir / "scorer.tsv"
    path.write_bytes(text.encode())
    assert scorer_outcome(load_in_blocks_of(block), path) == (
        scorer_outcome(load_markov_scorer_rows, path))


@pytest.mark.parametrize("rows, line", [
    ("3,\t0\t1\n0\t3\t1\n", 5),     # a context that ends in a comma, first in the file
    ("\t0\t5\n0,\t3\t1\n", 6),      # ... and after a good row
    ("\t0\t5\n\n,0\t3\t1\n", 7),   # one that starts with a comma, after a blank line
    ("\t0\t5\n0\t3\t\n", 6),        # an empty count
    ("\t0\t5\n0\t\t1\n", 6),        # an empty token
])
@pytest.mark.parametrize("block", [1, 1 << 18])
def test_scorer_reports_the_first_bad_row(tmp_path, rows, line, block):
    """An empty number is allowed only as a whole context, whatever row of
    a block it is in."""
    path = tmp_path / "scorer.tsv"
    path.write_text("\n".join(SCORER_HEADER).format(order=2) + "\n" + rows, encoding="utf-8")
    got = scorer_outcome(load_in_blocks_of(block), path)
    assert got[0] == "error" and got[1].startswith(f"{path}:{line}: "), got
    assert got == scorer_outcome(load_markov_scorer_rows, path)


@pytest.mark.parametrize("spelling", ["+4", " 4", "4 ", "0_4", "\u0664", "-0", "\uff14"])
@pytest.mark.parametrize("field", [0, 1, 2])
def test_integer_not_in_ascii_digits_is_named(tmp_path, spelling, field):
    """int() reads each of these as an integer, the reference loader too;
    a scorer row must spell it in ASCII digits, as the saver does."""
    rows = [["", "0", "5"], ["0", "4", "2"], ["0,4", "8", "1"]]
    rows[1][field] = spelling
    path = tmp_path / "scorer.tsv"
    path.write_text("\n".join(SCORER_HEADER + ["\t".join(row) for row in rows]).format(order=2)
                    + "\n", encoding="utf-8")
    with pytest.raises(DataError) as got:
        load_markov_scorer(path)
    assert str(got.value) == (
        f"{path}:6: {spelling!r} is not an integer written in ASCII digits")


def test_a_saved_scorer_is_parsed_from_its_bytes(tmp_path):
    """Blank lines, whitespace-only lines and a count of 10**18, which the
    saver writes, all load through the byte parse: no row is walked."""
    corpus = [[0, 3, 7, 1, 4, 8], [2, 6, 7], [0, 3, 8]]
    scorer = train_markov_scorer(corpus, SCORER_STRUCTURE, order=2)
    counts = scorer._counts.copy()
    counts[1] = 10**18
    scorer._set_table(scorer._rows, counts)
    path = tmp_path / "scorer.tsv"
    save_markov_scorer(scorer, path)
    text = path.read_text().replace("\n", "\n\n", 6).replace("\n\n", "\n \t\n", 2)
    path.write_text(text + "  \n")
    assert f"\t{10**18}\n" in text and "\n \t\n" in text and "\n\n" in text

    def walk(i, row):
        raise AssertionError("walked")

    with mock.patch.object(retrieval, "_row_check", return_value=walk):
        loaded = load_markov_scorer(path)
        assert loaded._rows.tolist() == scorer._rows.tolist()
        assert loaded._counts.tolist() == scorer._counts.tolist()
        path.write_text(text + "x\t0\t1\n")
        with pytest.raises(AssertionError, match="walked"):
            load_markov_scorer(path)

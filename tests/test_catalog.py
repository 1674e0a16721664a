"""Data model, token encoding, and file round-trips."""

import os
import re
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit.catalog import (
    MAX_HISTORY,
    InteractionSequence,
    ItemCatalog,
    ItemRecord,
    SemanticId,
    SequenceColumns,
    SidStructure,
    as_embedding,
    flat_tokens_to_sid,
    format_sid_brackets,
    load_item_catalog,
    load_sequences,
    parse_sid_brackets,
    parse_sid_string,
    read_rows,
    render_sid_string,
    save_item_catalog,
    save_sequences,
    sid_to_flat_tokens,
    write_artifact,
)
from sidkit import catalog as catalog_module
from sidkit.errors import DataError


def structures() -> st.SearchStrategy[SidStructure]:
    return st.lists(st.integers(min_value=2, max_value=50), min_size=1, max_size=4).map(
        lambda sizes: SidStructure(tuple(sizes), code_dim=4)
    )


def sid_for(structure: SidStructure, data) -> SemanticId:
    codes = tuple(
        data.draw(st.integers(min_value=0, max_value=n - 1)) for n in structure.level_sizes
    )
    return SemanticId(codes)


class TestSidStructure:
    def test_offsets_partition_the_token_space(self):
        """Level bands tile [0, total_tokens) without gaps or overlap."""
        s = SidStructure((3, 5, 2), code_dim=4)
        assert s.offsets == (0, 3, 8)
        assert s.total_tokens == 10
        covered = []
        for j, n in enumerate(s.level_sizes):
            covered.extend(range(s.offsets[j], s.offsets[j] + n))
        assert covered == list(range(10))

    def test_total_sids_is_product(self):
        assert SidStructure((3, 5, 2), code_dim=4).total_sids == 30

    def test_rejects_degenerate_levels(self):
        with pytest.raises(ValueError):
            SidStructure((), code_dim=4)
        with pytest.raises(ValueError):
            SidStructure((4, 1), code_dim=4)
        with pytest.raises(ValueError):
            SidStructure((4,), code_dim=0)

    @pytest.mark.parametrize("sizes, value, at", [((2.9, 3.5), "2.9", 0), ((4, 4.0), "4.0", 1),
                                                  ((4, "3"), "3", 1)])
    def test_a_level_size_that_is_no_integer_is_refused(self, sizes, value, at):
        """(2.9, 3.5) once read as (2, 3)."""
        message = f"^level size {value} at position {at} is not an integer$"
        with pytest.raises(DataError, match=message):
            SidStructure(sizes, code_dim=4)

class TestSemanticId:
    def test_validate_checks_ranges(self):
        s = SidStructure((4, 4), code_dim=4)
        SemanticId((3, 0)).validate(s)
        with pytest.raises(DataError):
            SemanticId((4, 0)).validate(s)
        with pytest.raises(DataError):
            SemanticId((0,)).validate(s)

    def test_prefix_drops_last_level(self):
        assert SemanticId((1, 2, 3)).prefix == (1, 2)

    @pytest.mark.parametrize("codes, at, value", [
        ((1.5, 0.7), 0, "1.5"), ((1, 0.0), 1, "0.0"), ((np.float64(2.0), 1), 0, "2.0"),
        ((0, "1"), 1, "1"), ((np.True_, 0), 0, "True"),
    ])
    def test_a_code_that_is_no_integer_is_refused(self, codes, at, value):
        with pytest.raises(DataError, match=rf"^code {value} at position {at} is not an integer$"):
            SemanticId(codes)

    def test_integer_codes_of_any_type_read_as_ints(self):
        sid = SemanticId([np.int64(3), np.uint8(1), True, 2**70])
        assert sid.codes == (3, 1, 1, 2**70)
        assert all(type(c) is int for c in sid.codes)


class TestFlatTokens:
    def test_published_example_encoding(self):
        """codes (1220,130,4068) under [8192]^3 occupy bands at offsets 0/8192/16384."""
        s = SidStructure((8192, 8192, 8192), code_dim=64)
        sid = SemanticId((1220, 130, 4068))
        assert sid_to_flat_tokens(sid, s) == [1220, 8322, 20452]
        assert render_sid_string(sid, s) == "C1220C8322C20452"
        assert parse_sid_string("C1220C8322C20452", s).codes == (1220, 130, 4068)

    def test_second_published_example(self):
        s = SidStructure((8192, 8192, 8192), code_dim=64)
        sid = SemanticId((3626, 566, 6333))
        assert render_sid_string(sid, s) == "C3626C8758C22717"

    def test_zero_codes(self):
        s = SidStructure((8192, 8192, 8192), code_dim=64)
        assert sid_to_flat_tokens(SemanticId((0, 0, 0)), s) == [0, 8192, 16384]
        assert parse_sid_string("C0C8192C16384", s).codes == (0, 0, 0)

    def test_band_membership_enforced_on_decode(self):
        s = SidStructure((4, 4), code_dim=4)
        with pytest.raises(DataError):
            flat_tokens_to_sid([0, 0], s)  # second token is in level 0's band
        with pytest.raises(DataError):
            flat_tokens_to_sid([0], s)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_token_round_trip(self, data):
        """flat encoding and decoding are mutual inverses for any valid SID."""
        structure = data.draw(structures())
        sid = sid_for(structure, data)
        tokens = sid_to_flat_tokens(sid, structure)
        assert flat_tokens_to_sid(tokens, structure).codes == sid.codes
        for j, t in enumerate(tokens):
            assert structure.offsets[j] <= t < structure.offsets[j] + structure.level_sizes[j]

    @settings(max_examples=200)
    @given(data=st.data())
    def test_string_round_trip(self, data):
        structure = data.draw(structures())
        sid = sid_for(structure, data)
        assert parse_sid_string(render_sid_string(sid, structure), structure).codes == sid.codes

    def test_malformed_strings_rejected(self):
        s = SidStructure((4, 4), code_dim=4)
        for bad in ["", "C", "1C2", "C1 C5", "C1C5C9", "Cx"]:
            with pytest.raises(DataError):
                parse_sid_string(bad, s)

    @pytest.mark.parametrize("bad", ["C1C5C9\n", "C\u0661C5C9", "C1C\uff15C9", "C1C5C\u0669"])
    def test_only_ascii_digit_tokens_parse(self, bad):
        """int() reads each spelling's tokens as 1, 5, 9, but render_sid_string
        never writes one, so its inverse refuses them."""
        s = SidStructure((4, 4, 4), code_dim=4)
        assert parse_sid_string("C1C5C9", s).codes == (1, 1, 1)
        with pytest.raises(DataError, match="malformed SID string"):
            parse_sid_string(bad, s)

    def test_bracket_form_round_trip(self):
        sid = SemanticId((1203, 2315, 3576))
        assert format_sid_brackets(sid) == "[1203,2315,3576]"
        assert parse_sid_brackets("[1203,2315,3576]").codes == (1203, 2315, 3576)
        with pytest.raises(DataError):
            parse_sid_brackets("1203,2315")

    @pytest.mark.parametrize("bad", ["[+1,2]", "[1, 2]", "[\u0661,2]", "[1_0,2]", "[-1,2]"])
    def test_bracket_codes_are_ascii_digits_and_commas(self, bad):
        """Inside the brackets, only the comma-list grammar; around them,
        whitespace as before."""
        assert parse_sid_brackets(" [1,2]\t").codes == (1, 2)
        with pytest.raises(DataError, match="malformed bracketed SID"):
            parse_sid_brackets(bad)


class TestAsEmbedding:
    def test_validates_dimension_and_finiteness(self):
        vec = as_embedding([0.5, -1.0], d_in=2)
        assert vec.dtype == np.float64
        with pytest.raises(DataError):
            as_embedding([0.5], d_in=2)
        with pytest.raises(DataError):
            as_embedding([np.nan, 0.0], d_in=2)


class TestCatalog:
    @pytest.mark.parametrize("d_in", [0, -1])
    def test_d_in_below_one_rejected(self, d_in):
        """A zero-width catalog would save rows its own loader refuses."""
        with pytest.raises(ValueError, match="d_in must be at least 1"):
            ItemCatalog([], d_in=d_in)
        with pytest.raises(ValueError, match="d_in must be at least 1"):
            ItemCatalog([ItemRecord(item_id="a", embedding=np.zeros(0))], d_in=d_in)

    def test_duplicate_ids_rejected(self):
        rec = lambda i: ItemRecord(item_id=i, embedding=np.zeros(2))
        with pytest.raises(DataError):
            ItemCatalog([rec("a"), rec("a")], d_in=2)

    def test_dangling_related_item_rejected(self):
        records = [ItemRecord(item_id="a", embedding=np.zeros(2), related_item="ghost")]
        with pytest.raises(DataError):
            ItemCatalog(records, d_in=2)

    def test_unknown_id_rejected(self):
        catalog = ItemCatalog([ItemRecord(item_id="a", embedding=np.zeros(2))], d_in=2)
        with pytest.raises(DataError, match="^unknown item_id 'ghost'$"):
            catalog["ghost"]

    def test_insertion_order_preserved(self):
        records = [ItemRecord(item_id=i, embedding=np.zeros(2)) for i in ("c", "a", "b")]
        catalog = ItemCatalog(records, d_in=2)
        assert catalog.item_ids == ("c", "a", "b")

    def test_catalog_file_round_trip(self, tmp_path):
        """Save then load reproduces ids, embeddings, SIDs, and links exactly."""
        records = [
            ItemRecord(
                item_id="835905354006",
                embedding=np.array([0.12, 0.56, 0.03]),
                sid=SemanticId((1203, 2315, 3576)),
                related_item="787551011877",
                style_group="s1",
                origin_group="o1",
            ),
            ItemRecord(item_id="787551011877", embedding=np.array([1.5, -2.25, 0.0])),
        ]
        catalog = ItemCatalog(records, d_in=3)
        path = tmp_path / "catalog.tsv"
        save_item_catalog(catalog, path)
        loaded = load_item_catalog(path, d_in=3)
        assert loaded.item_ids == catalog.item_ids
        rec = loaded["835905354006"]
        assert rec.sid.codes == (1203, 2315, 3576)
        assert rec.related_item == "787551011877"
        assert rec.style_group == "s1" and rec.origin_group == "o1"
        np.testing.assert_array_equal(rec.embedding, records[0].embedding)
        assert loaded["787551011877"].sid is None

    def test_row_with_sid_and_related(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("835905354006\t0.12,0.56,0.03\t[1203,2315,3576]\t787551011877\n"
                        "787551011877\t0.1,0.2,0.3\n")
        catalog = load_item_catalog(path, d_in=3)
        rec = catalog["835905354006"]
        assert rec.sid.codes == (1203, 2315, 3576)
        assert rec.related_item == "787551011877"

    def test_sid_column_names_a_code_not_in_ascii_digits(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("a\t0.1,0.2,0.3\t[1,2]\nb\t0.1,0.2,0.3\t[+1, 2]\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: malformed bracketed SID"):
            load_item_catalog(path, d_in=3)

    def test_empty_file_gives_empty_catalog(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("")
        assert len(load_item_catalog(path, d_in=3)) == 0

    def test_dimension_mismatch_names_the_line(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("a\t0.1,0.2,0.3\nb\t0.1,0.2\n")
        with pytest.raises(DataError, match="2"):
            load_item_catalog(path, d_in=3)

    @pytest.mark.parametrize(
        "row", ["c\t0.1,nan", "c\t0.1", "c\t0.1,x", "a\t0.1,0.2", "\t0.1,0.2", "c\t0.1,0.2\t\tb\ts\to\tx"]
    )
    def test_bad_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "catalog.tsv"
        path.write_text("a\t0.1,0.2\n\nb\t0.3,0.4\n" + row + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: "):
            load_item_catalog(path, d_in=2)

    def test_dangling_related_item_names_the_file(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("a\t0.1,0.2\t\tghost\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*ghost"):
            load_item_catalog(path, d_in=2)

    def test_each_embedding_validated_once(self, tmp_path, monkeypatch):
        """A valid file's embeddings are checked in one pass over all rows,
        and never again row by row."""
        checked, per_row = [], []
        whole, row = catalog_module.comma_matrix, catalog_module.as_embedding
        monkeypatch.setattr(catalog_module, "comma_matrix",
                            lambda texts, *args: checked.append(len(texts)) or whole(texts, *args))
        monkeypatch.setattr(catalog_module, "as_embedding",
                            lambda *args, **kw: per_row.append(1) or row(*args, **kw))
        path = tmp_path / "catalog.tsv"
        path.write_text("a\t0.1,0.2\nb\t0.3,0.4\t[1,2]\ta\nc\t0.5,0.6\n")
        assert len(load_item_catalog(path, d_in=2)) == 3
        assert checked == [3]
        assert per_row == []

    def test_identical_bytes_identical_catalog(self, tmp_path):
        path = tmp_path / "catalog.tsv"
        path.write_text("a\t0.125,-3.5\tb\nb\t1.0,2.0\n".replace(" ", ""))
        first = load_item_catalog(path, d_in=2)
        second = load_item_catalog(path, d_in=2)
        assert first.item_ids == second.item_ids
        np.testing.assert_array_equal(first.embedding_matrix(), second.embedding_matrix())


class TestSequences:
    def test_requires_targets(self):
        with pytest.raises(DataError):
            InteractionSequence(pv_id="pv1", history=("a",), targets=())

    @pytest.mark.parametrize("pv_id, history, message", [
        ("", (), "pv_id must be non-empty"),
        ("pv1", ("a",) * (MAX_HISTORY + 1), f"sequence 'pv1' history exceeds {MAX_HISTORY}"),
    ], ids=["empty-id", "long-history"])
    def test_refuses_an_empty_id_or_a_long_history(self, pv_id, history, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            InteractionSequence(pv_id=pv_id, history=history, targets=("b",))

    def test_sequence_file_round_trip(self, tmp_path):
        seqs = [
            InteractionSequence("pv1", ("a", "b"), ("c",), query=None),
            InteractionSequence("pv2", (), ("d", "e"), query="dried leaves"),
        ]
        path = tmp_path / "seqs.tsv"
        save_sequences(seqs, path)
        loaded = load_sequences(path)
        assert [s.pv_id for s in loaded] == ["pv1", "pv2"]
        assert loaded[0].history == ("a", "b")
        assert loaded[0].query is None
        assert loaded[1].targets == ("d", "e")
        assert loaded[1].query == "dried leaves"

    def test_history_truncates_to_most_recent_100(self, tmp_path, caplog):
        ids = [f"i{k}" for k in range(120)]
        path = tmp_path / "seqs.tsv"
        path.write_text("pv1\tt1\t\t" + ",".join(ids) + "\n")
        with caplog.at_level("WARNING"):
            loaded = load_sequences(path)
        assert len(loaded[0].history) == 100
        assert loaded[0].history == tuple(ids[-100:])
        assert any("truncated" in rec.message for rec in caplog.records)

    def test_empty_targets_is_an_error(self, tmp_path):
        path = tmp_path / "seqs.tsv"
        path.write_text("pv1\t\t\ta,b\n")
        with pytest.raises(DataError):
            load_sequences(path)


@st.composite
def sequence_lists(draw):
    """Interaction sequences: empty and repeating histories, ids with a
    space inside, one or more targets, and an optional query."""
    item = st.sampled_from(["a", "b", "c7", "d d"])
    return [InteractionSequence(f"pv{n}", tuple(draw(st.lists(item, max_size=4))),
                                tuple(draw(st.lists(item, min_size=1, max_size=3))),
                                draw(st.sampled_from([None, "dried leaves"])))
            for n in range(draw(st.integers(0, 6)))]


class TestSequenceColumns:
    @settings(max_examples=100, deadline=None)
    @given(sequences=sequence_lists(), window=st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
    def test_reads_as_the_list_it_replaces(self, tmp_path_factory, sequences, window):
        """Built from the objects or loaded from their file: len, ==,
        iteration, indexing from either end, slices, and the distinct ids in
        the order first named, each history before its targets."""
        path = tmp_path_factory.mktemp("sequences") / "sequences.tsv"
        save_sequences(sequences, path)
        named = [i for seq in sequences for i in (*seq.history, *seq.targets)]
        for view in (SequenceColumns.of(sequences), load_sequences(path)):
            assert isinstance(view, SequenceColumns)
            assert len(view) == len(sequences) and view == sequences and list(view) == sequences
            assert [view[i] for i in range(-len(view), len(view))] == sequences * 2
            assert view[slice(*window)] == sequences[slice(*window)]
            assert view.item_ids == tuple(dict.fromkeys(named))
            assert [view.item_ids[i] for i in view.items.tolist()] == named

    def test_columns_are_read_only(self, tmp_path):
        path = tmp_path / "seqs.tsv"
        path.write_text("pv1\tb\t\ta,b\n")
        view = load_sequences(path)
        for column in (view.items, view.starts, view.target_starts):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1


class TestReadRows:
    def test_skips_blank_lines_but_counts_them(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("a\tb\n\n  \n\tc \n")
        assert read_rows(path, tuple) == [("a", "b"), ("", "c ")]
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: .*'boom'"):
            read_rows(path, lambda fields: fields[0] or int("boom"))

    @pytest.mark.parametrize("error", [ValueError, IndexError, KeyError, DataError])
    def test_row_errors_become_data_errors(self, tmp_path, error):
        path = tmp_path / "rows.tsv"
        path.write_text("x\ny\n")

        def parse(fields):
            if fields == ["y"]:
                raise error("bad row")
            return fields

        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "):
            read_rows(path, parse)

    def test_undecodable_byte_names_the_file_but_no_line(self, tmp_path):
        path = tmp_path / "rows.tsv"
        lines = [f"i{k}\t[0,0]\n".encode() for k in range(2000)]
        lines[1500] = b"i1500\xff\t[0,0]\n"  # read-ahead decodes it while line ~1457 is parsed
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            read_rows(path, tuple)

    def test_finish_errors_name_the_file(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("x\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*'too few'"):
            read_rows(path, tuple, lambda rows: int("too few"))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            read_rows(path, tuple, lambda rows: rows[5])

    def test_whole_file_form_reports_a_row_at_its_line(self, tmp_path):
        """finish gets the text; on an error, check_row walks its non-blank
        lines split on tabs and numbered as the per-line form reads them, so
        CRLF, blank and whitespace-only lines are counted but not walked."""
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"a\r\n\r\n \t\nb\tx\n\nc\nd")
        assert read_rows(path, None, str.splitlines) == ["a", "", " \t", "b\tx", "", "c", "d"]
        for parse_row in (None, list):
            walked = []

            def check_row(i, row):
                walked.append((i, row))
                self.refuse("c")(i, row)

            with pytest.raises(DataError, match=f"^{re.escape(str(path))}:6: row 2 is c$"):
                read_rows(path, parse_row, lambda rows: int("bulk"), check_row)
            assert walked == [(0, ["a"]), (1, ["b", "x"]), (2, ["c"])]
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*'too few'$"):
            read_rows(path, None, lambda text: int("too few"), self.refuse())

    @staticmethod
    def refuse(*bad):
        """A check_row that refuses the rows whose first field is in `bad`."""
        def check_row(i, row):
            if row[0] in bad:
                raise DataError(f"row {i} is {row[0]}")
        return check_row

    def test_refused_row_outranks_a_later_parse_error(self, tmp_path):
        """Blank lines are skipped but counted: row 2 was read from line 6."""
        path = tmp_path / "rows.tsv"
        path.write_text("a\n\nb\n\n \nbad\n\nboom\n")

        def parse(fields):
            return fields if fields[0] != "boom" else int("boom")

        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:6: row 2 is bad$"):
            read_rows(path, parse, list, self.refuse("bad"))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:8: .*'boom'$"):
            read_rows(path, parse, list, self.refuse())

    def test_finish_error_with_every_row_accepted_names_the_file(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("a\nb\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*'bulk'$"):
            read_rows(path, list, lambda rows: int("bulk"), self.refuse("c"))

    def test_finish_error_with_a_refused_row_names_its_line(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("a\n\nb\nc\nd\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:4: row 2 is c$"):
            read_rows(path, list, lambda rows: int("bulk"), self.refuse("d", "c"))

    def test_undecodable_byte_after_a_refused_row_names_that_row(self, tmp_path):
        """The rows read before the read-ahead failed all precede the bad byte."""
        path = tmp_path / "rows.tsv"
        lines = [f"i{k}\n".encode() for k in range(5000)]
        lines[4000] = b"i4000\xff\n"  # beyond the first read-ahead chunk
        path.write_bytes(b"".join(lines))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            read_rows(path, list, list, self.refuse())
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:11: row 10 is i10$"):
            read_rows(path, list, list, self.refuse("i10"))

    def test_a_file_that_loads_is_never_walked(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("a\nb\n")
        walked = []

        def spy(i, row):
            walked.append(i)

        assert read_rows(path, list, list, spy) == [["a"], ["b"]]
        assert read_rows(path, None, str.splitlines, spy) == ["a", "b"]
        assert walked == []

    def test_overflow_becomes_a_data_error(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("1\n99999999999999999999\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "):
            read_rows(path, lambda fields: np.int64(int(fields[0])))


class TestWriteArtifact:
    @staticmethod
    def failing_rows():
        yield "new\t1\n"
        raise DataError("the row source failed")

    def test_a_failing_source_leaves_the_old_file_or_none(self, tmp_path):
        path = tmp_path / "rows.tsv"
        with pytest.raises(DataError, match="row source"):
            write_artifact(path, self.failing_rows())
        assert os.listdir(tmp_path) == []
        path.write_text("old\t0\n")
        with pytest.raises(DataError, match="row source"):
            write_artifact(path, self.failing_rows())
        assert path.read_text() == "old\t0\n"
        assert os.listdir(tmp_path) == ["rows.tsv"]

    def test_a_symlink_stays_and_its_target_gets_the_bytes(self, tmp_path):
        target = tmp_path / "target.tsv"
        target.write_text("old\n")
        link = tmp_path / "link.tsv"
        link.symlink_to(target)
        write_artifact(link, ["new\r\n", "ünï\n"])
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == "new\r\nünï\n".encode()  # UTF-8, no newline translation
        assert sorted(os.listdir(tmp_path)) == ["link.tsv", "target.tsv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_artifact(fifo, ["a\t1\n", "b\t2\n"])
            assert os.read(reader, 1024) == b"a\t1\nb\t2\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

"""Data model, token encoding, and file round-trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit.catalog import (
    InteractionSequence,
    ItemCatalog,
    ItemRecord,
    SemanticId,
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
)
from sidkit import catalog as catalog_module
from sidkit.errors import DataError, RowError


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

    def test_finish_error_naming_a_row_reports_that_rows_line(self, tmp_path):
        """Blank lines are skipped but counted, so row 2 was read from line 5."""
        path = tmp_path / "rows.tsv"
        path.write_text("a\n\nb\n\nc\nd\n")

        def finish(rows):
            raise RowError(rows.index(["c"]), "bad c")

        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:5: bad c$"):
            read_rows(path, list, finish)

    def test_whole_file_form_reports_a_row_at_its_line(self, tmp_path):
        """finish gets the text; blank, whitespace-only and CRLF lines read
        as the per-line form reads them, so row i is the i-th other line."""
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"a\r\n\r\n \t\nb\n\nc\nd")
        assert read_rows(path, None, str.splitlines) == ["a", "", " \t", "b", "", "c", "d"]

        def finish(text):
            rows = [line for line in text.split("\n") if line.strip()]
            raise RowError(rows.index("c"), "bad c")

        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:6: bad c$"):
            read_rows(path, None, finish)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*'too few'$"):
            read_rows(path, None, lambda text: int("too few"))

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
        assert walked == []

        def finish(rows):  # a RowError names its row; no walk runs
            raise RowError(1, "bad b")

        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: bad b$"):
            read_rows(path, list, finish, spy)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            read_rows(path, None, lambda text: int("whole"), spy)  # no rows to walk
        assert walked == []

    def test_overflow_becomes_a_data_error(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("1\n99999999999999999999\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "):
            read_rows(path, lambda fields: np.int64(int(fields[0])))

"""Collision-repair policies and the assignment table they operate on."""

import dataclasses
import functools
import itertools
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit import collision, quantizer
from sidkit.catalog import ItemCatalog, ItemRecord, SemanticId, SidStructure
from sidkit.collision import (
    AssignmentTable,
    apply_knn_policy,
    apply_merge_policy,
    apply_noco_policy,
    apply_random_policy,
    load_assignment,
    occupancy_stats,
    raw_assignment,
    save_assignment,
)
from sidkit.errors import DataError
from sidkit.quantizer import (
    CodebookStack,
    QuantizerModel,
    RqkmeansConfig,
    RqvaeConfig,
    nearest_codewords,
    train_multivq,
    train_rqkmeans,
    train_rqvae,
)
from sidkit.sidmetrics import OccupancyVector, gini_coefficient

from conftest import assignment_tables, clustered_catalog
from reference_knn import full_ranking_knn


def identical_catalog(n, embedding):
    """n items sharing one embedding; ids sort in insertion order."""
    embedding = np.asarray(embedding, dtype=np.float64)
    records = [
        ItemRecord(item_id=f"item{i:04d}", embedding=embedding.copy()) for i in range(n)
    ]
    return ItemCatalog(records, d_in=embedding.shape[0])


def hand_model(level_sizes, levels):
    """rqkmeans-kind model with fixed codebooks; assignment is pure geometry."""
    structure = SidStructure(level_sizes, code_dim=levels[0].shape[1])
    return QuantizerModel(
        kind="rqkmeans",
        codebooks=CodebookStack(structure, [np.asarray(t, dtype=np.float64) for t in levels]),
        seed=0,
    )


def two_prefix_model(n_last=4):
    """Prefix splits on the first coordinate; last-level codes are spaced on
    the second so the nearest-code ranking is 0, 1, 2, .. for items near 0."""
    level1 = np.array([[0.0, 0.0], [50.0, 0.0]])
    level2 = np.array([[0.0, float(i)] for i in range(n_last)])
    return hand_model((2, n_last), [level1, level2])


def closed_form_merge(table, codebooks, merge_threshold):
    """Where every item ends under merge, read off each prefix's starting
    counts without simulating any move."""
    if merge_threshold <= 0:
        return dict(table.items())
    last_table = codebooks.levels[-1]
    by_prefix = {}
    for codes, count in table.occupancy.items():
        by_prefix.setdefault(codes[:-1], {})[codes[-1]] = count
    dest = {}
    for prefix, counts in by_prefix.items():
        big = [c for c, count in counts.items() if count >= merge_threshold]
        for code, count in counts.items():
            if count >= merge_threshold:
                dest[prefix + (code,)] = code
            elif big:
                dest[prefix + (code,)] = min(big, key=lambda b: (
                    float(((last_table[b] - last_table[code]) ** 2).sum()), b))
            else:  # the last small SID in (occupancy, codes) order
                dest[prefix + (code,)] = max(counts, key=lambda c: (counts[c], c))
    return {
        item_id: SemanticId(sid.codes[:-1] + (dest[sid.codes],))
        for item_id, sid in table.items()
    }


def draw_merge_case(data):
    """A random table, codebooks and threshold.  Codewords are small integers
    and per-SID counts small, so equal distances and equal occupancies are
    common."""
    m = data.draw(st.integers(1, 3), label="m")
    sizes = tuple(data.draw(st.lists(st.integers(2, 4), min_size=m, max_size=m)))
    dim = data.draw(st.integers(1, 2), label="dim")
    structure = SidStructure(sizes, code_dim=dim)
    coords = st.integers(-2, 2)
    levels = [
        np.array(data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                                    min_size=n, max_size=n)), dtype=np.float64)
        for n in sizes
    ]
    books = CodebookStack(structure, levels)
    # a dense count per SID over two codes per prefix level, so most
    # SIDs have several siblings
    grid = list(itertools.product(*(range(min(n, 2)) for n in sizes[:-1]), range(sizes[-1])))
    counts = data.draw(st.lists(st.integers(0, 5), min_size=len(grid), max_size=len(grid)))
    order = data.draw(st.permutations([c for c, n in zip(grid, counts) for _ in range(n)]))
    table = AssignmentTable(structure)
    for i, codes in enumerate(order):
        table.assign(f"i{i:03d}", SemanticId(codes))
    threshold = data.draw(st.integers(0, 5), label="threshold")
    return table, books, threshold


def streaming_knn(catalog, model, sigma):
    """Reference knn over the same ranking: a count dict, a scan of the
    ranked codes for the first with headroom, else min((load, code))."""
    prefixes, orders = model.rank_last_level_batch(catalog.embedding_matrix())
    counts = Counter()
    out = {}
    for i, item_id in enumerate(catalog.item_ids):
        prefix = tuple(int(c) for c in prefixes[i])
        candidates = [int(c) for c in orders[i]]
        free = [c for c in candidates if counts[prefix + (c,)] < sigma]
        code = free[0] if free else min((counts[prefix + (c,)], c) for c in candidates)[1]
        counts[prefix + (code,)] += 1
        out[item_id] = prefix + (code,)
    return out


@functools.lru_cache(maxsize=None)
def trained_model(kind):
    """A clustered catalog and a (3, 6) model of `kind` trained on it."""
    catalog, _ = clustered_catalog(n_items=80, n_clusters=5, d_in=5, seed=6)
    X = catalog.embedding_matrix()
    structure = SidStructure((3, 6), code_dim=3)
    if kind == "rqkmeans":
        return catalog, train_rqkmeans(X, structure, RqkmeansConfig(seed=0))
    train = train_rqvae if kind == "rqvae" else train_multivq
    return catalog, train(X, structure, RqvaeConfig(epochs=3, warmup_epochs=1, batch_size=32,
                                                    learning_rate=1e-3, hidden_dims=(8,)))


def quadratic_merge(table, codebooks, merge_threshold):
    """Reference merge: for every small SID, scan all occupied SIDs of the
    table for its siblings."""
    result = table.copy()
    if merge_threshold <= 0:
        return result
    last_table = codebooks.levels[-1]
    snapshot = table.occupancy
    small = sorted(
        (codes for codes, count in snapshot.items() if 0 < count < merge_threshold),
        key=lambda codes: (snapshot[codes], codes),
    )
    for codes in small:
        if result.occupancy_of(codes) == 0:
            continue
        prefix = codes[:-1]
        siblings = [
            other
            for other, count in result.occupancy.items()
            if other[:-1] == prefix and other != codes and count > 0
        ]
        if not siblings:
            continue
        big = [s for s in siblings if result.occupancy_of(s) >= merge_threshold]
        if big:
            d2 = {s: float(((last_table[s[-1]] - last_table[codes[-1]]) ** 2).sum()) for s in big}
            target = min(big, key=lambda s: (d2[s], s))
        else:
            target = min(siblings, key=lambda s: (-result.occupancy_of(s), s))
        for item_id in result.items_for_sid(codes):
            result.assign(item_id, SemanticId(target))
    return result


class TestAssignmentTable:
    def test_assign_and_move_keep_occupancy_consistent(self):
        structure = SidStructure((4, 4), code_dim=2)
        table = AssignmentTable(structure)
        table.assign("a", SemanticId((0, 0)))
        table.assign("b", SemanticId((0, 0)))
        assert table.occupancy_of((0, 0)) == 2
        table.assign("a", SemanticId((1, 2)))  # move
        assert table.occupancy_of((0, 0)) == 1
        assert table.occupancy_of((1, 2)) == 1
        assert table.occupancy == {(0, 0): 1, (1, 2): 1}
        assert len(table) == 2

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 3),
        moves=st.lists(
            st.tuples(st.integers(0, 7), st.tuples(*(st.integers(0, 2) for _ in range(3)))),
            max_size=60,
        ),
    )
    def test_prefix_index_matches_recount(self, m, moves):
        """Assigns and moves in any order leave what the table derives from
        its code matrix, occupancy, occupancy_of and items_for_sid, equal to
        a recount of items() after every step."""
        structure = SidStructure((3,) * m, code_dim=2)
        table = AssignmentTable(structure)
        for item, codes in moves:
            table.assign(f"it{item}", SemanticId(codes[:m]))
            members: dict[tuple[int, ...], list[str]] = {}
            for item_id, sid in table.items():
                members.setdefault(sid.codes, []).append(item_id)
            assert table.occupancy == {codes: len(ids) for codes, ids in members.items()}
            for codes in itertools.product(range(3), repeat=m):
                assert table.occupancy_of(codes) == len(members.get(codes, []))
                assert table.items_for_sid(SemanticId(codes)) == sorted(members.get(codes, []))

    @settings(max_examples=200, deadline=None)
    @given(table=assignment_tables())
    def test_occupied_is_a_recount_of_items(self, table):
        """occupied() is a Counter over items() in ascending codes, as int64."""
        sids, counts = table.occupied()
        recount = sorted(Counter(sid.codes for _, sid in table.items()).items())
        assert sids.dtype == counts.dtype == np.int64
        assert sids.shape == (len(recount), table.structure.num_levels)
        assert list(zip(map(tuple, sids.tolist()), counts.tolist())) == recount
        assert table.occupancy == dict(recount)

    def test_members_listing_is_sorted(self):
        structure = SidStructure((2, 2), code_dim=2)
        table = AssignmentTable(structure)
        for item_id in ("zeta", "alpha", "mid"):
            table.assign(item_id, SemanticId((1, 1)))
        assert table.items_for_sid((1, 1)) == ["alpha", "mid", "zeta"]
        assert table.items_for_sid((0, 0)) == []

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.lists(st.integers(0, 2), min_size=2, max_size=2), max_size=12),
        limit=st.none() | st.integers(0, 12),
    )
    def test_items_for_codes_concatenates_members_up_to_limit(self, rows, limit):
        """Each row's ascending members in row order, cut at the limit, on
        a table where (2, 2) and every code-2 SID hold nobody."""
        structure = SidStructure((3, 3), code_dim=2)
        ids = ["k", "b", "x", "a", "q", "c"]
        codes = [[0, 0], [1, 1], [0, 0], [0, 1], [1, 1], [0, 0]]
        table = AssignmentTable(structure, ids, codes)
        want = [i for row in rows for i in sorted(i for i, c in zip(ids, codes) if c == row)]
        want = want if limit is None else want[:limit]
        assert table.items_for_codes(np.array(rows, dtype=np.int64).reshape(-1, 2), limit) == want
        assert table.items_for_codes(rows, limit) == want

    def test_items_for_codes_cuts_at_the_limit_inside_a_sid(self):
        """A limit inside a SID keeps that SID's smallest ids, rows after the
        one that reaches it add nothing, and the members are unchanged."""
        table = AssignmentTable(SidStructure((2, 2), code_dim=2), ["b", "a", "c"],
                                [[0, 0], [0, 0], [1, 1]])
        assert table.items_for_codes([(1, 0), (0, 0), (1, 1)], limit=1) == ["a"]
        assert table.items_for_codes(np.array([[0, 0], [1, 1]]), limit=2) == ["a", "b"]
        assert table.items_for_codes([(1, 1), (0, 0)], limit=3) == ["c", "a", "b"]
        assert table.items_for_sid((0, 0)) == ["a", "b"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_items_for_codes_equals_the_dict_walk(self, data):
        """The index lookup gives what a walk of the rows through the SID ->
        members dict gives: absent SIDs, out-of-band codes, repeated rows,
        limits inside a SID, no rows at all, and (256,) * 8, which no int64
        key holds."""
        structure = data.draw(st.sampled_from([
            SidStructure((2, 3), code_dim=2), SidStructure((3, 2, 4), code_dim=2),
            SidStructure((256,) * 8, code_dim=2)]), label="structure")
        sizes = structure.level_sizes
        code = st.tuples(*(st.sampled_from([0, 1, n - 1]) for n in sizes))
        n_items = data.draw(st.integers(0, 10), label="items")
        codes = [data.draw(code) for _ in range(n_items)]
        ids = data.draw(st.permutations([f"i{n}" for n in range(n_items)]), label="id order")
        table = AssignmentTable(structure, ids, np.array(codes).reshape(n_items, len(sizes)))
        # far out of band, a code's flat token would carry into another column
        far = 3 * structure.total_tokens
        row = code | st.tuples(*(st.integers(-far, far) for _ in sizes))
        rows = data.draw(st.lists(row, max_size=12), label="rows")
        limit = data.draw(st.none() | st.integers(0, 12), label="limit")
        groups, want = {}, []
        for item_id, sid in sorted(table.items()):
            groups.setdefault(sid.codes, []).append(item_id)
        for codes_ in rows:  # the walk items_for_codes used to make
            want.extend(groups.get(tuple(codes_), ()))
            if limit is not None and len(want) >= limit:
                want = want[:limit]
                break
        matrix = np.array(rows, dtype=np.int64).reshape(len(rows), len(sizes))
        assert table.items_for_codes(matrix, limit) == want
        assert table.items_for_codes(rows, limit) == want

    def test_items_for_codes_out_of_band_row_holds_nobody(self):
        """(-1, 6) on (2, 3) packs to the key of (0, 0): its level-1 token
        carries into the level-0 column.  It still holds nobody."""
        table = AssignmentTable(SidStructure((2, 3), code_dim=2), ["a"], [[0, 0]])
        assert table.items_for_codes([(-1, 6), (0, 0)]) == ["a"]

    def test_items_for_codes_beyond_int64_holds_nobody(self):
        table = AssignmentTable(SidStructure((2, 3), code_dim=2), ["a", "b"], [[1, 2], [0, 0]])
        assert table.items_for_codes([(1, 2), (-2**70, 1)]) == ["a"]
        assert table.items_for_sid((2**70, 0)) == []
        assert table.occupancy_of((2**70, 0)) == 0
        with pytest.raises(DataError, match=r"expected an \(n, 2\) code matrix"):
            table.items_for_codes([(2**70,)])

    def test_items_for_codes_reads_every_form_alike(self):
        """A list of lists or tuples and an int64, int32 or uint64 array
        holding the same rows find the same members; a uint64 code beyond
        int64 is out of band, as in a list."""
        table = AssignmentTable(SidStructure((2, 3), code_dim=2), ["b", "a", "c"],
                                [[1, 2], [1, 2], [0, 0]])
        rows = [[1, 2], [0, 0], [1, 1], [0, 0]]
        for form in (rows, [tuple(row) for row in rows], np.array(rows),
                     np.array(rows, dtype=np.int32), np.array(rows, dtype=np.uint64)):
            assert table.items_for_codes(form) == ["a", "b", "c", "c"]
        far = [[2**64 - 1, 0], [0, 0]]
        assert table.items_for_codes(far) == table.items_for_codes(
            np.array(far, dtype=np.uint64)) == ["c"]

    @pytest.mark.parametrize("code", [0.5, 2.0], ids=["0.5", "2.0"])
    def test_items_for_codes_refuses_a_float_code(self, code):
        table = AssignmentTable(SidStructure((2, 3), code_dim=2), ["a"], [[1, 2]])
        with pytest.raises(DataError, match=rf"^code {code} at position \(1, 1\) is not an integer$"):
            table.items_for_codes([(1, 2), (0, code)])
        with pytest.raises(DataError, match=r"^code 1.0 at position \(0, 0\) is not an integer$"):
            table.items_for_codes(np.array([(1, 2), (0, code)]))
        with pytest.raises(DataError, match=rf"^code {code} at position \(0, 0\) is not an integer$"):
            table.items_for_sid((code, 2))

    @pytest.mark.parametrize("sid, value, at", [
        ((1.5, 0.7), "1.5", "0"), ((1, 0.0), "0.0", "1"), ((1.0, 0), "1.0", "0"),
    ])
    def test_a_sid_with_a_float_code_is_refused(self, sid, value, at):
        """(1.5, 0.7) once read as (1, 0): it found the members of (1, 0),
        and occupancy_of counted none.  As a tuple or as a SemanticId, each
        read now refuses it."""
        table = AssignmentTable(SidStructure((2, 3), code_dim=2), ["a", "b"], [[1, 0], [0, 0]])
        refused = rf"^code {re.escape(value)} at position {{}} is not an integer$"
        with pytest.raises(DataError, match=refused.format(at)):
            table.occupancy_of(sid)
        with pytest.raises(DataError, match=refused.format(rf"\(0, {at}\)")):
            table.items_for_sid(sid)
        with pytest.raises(DataError, match=refused.format(at)):
            table.items_for_sid(SemanticId(sid))
        assert table.items_for_sid((1, 0)) == ["a"] and table.occupancy_of((1, 0)) == 1

    def test_items_for_codes_rejects_rows_of_another_length(self):
        table = AssignmentTable(SidStructure((2, 2), code_dim=2), ["a"], [[0, 1]])
        with pytest.raises(DataError, match=r"expected an \(n, 2\) code matrix"):
            table.items_for_codes([(0, 1, 0)])

    def test_codes_of_gathers_rows_in_the_order_given(self):
        table = AssignmentTable(SidStructure((2, 3), code_dim=2), ["a", "b", "c"],
                                [[0, 2], [1, 0], [1, 1]])
        np.testing.assert_array_equal(table.codes_of(["c", "a", "c"]),
                                      [[1, 1], [0, 2], [1, 1]])
        assert table.codes_of([]).shape == (0, 2)
        with pytest.raises(DataError, match="item 'ghost' has no assigned SID"):
            table.codes_of(["a", "ghost"])
        with pytest.raises(DataError, match="^item 'ghost' has no assigned SID$"):
            table["ghost"]

    def test_copy_is_independent(self):
        structure = SidStructure((2, 2), code_dim=2)
        table = AssignmentTable(structure)
        table.assign("a", SemanticId((0, 1)))
        dup = table.copy()
        dup.assign("a", SemanticId((1, 0)))
        assert table["a"].codes == (0, 1)
        assert dup["a"].codes == (1, 0)

    def test_missing_item_raises(self):
        table = AssignmentTable(SidStructure((2, 2), code_dim=2))
        with pytest.raises(DataError):
            table["ghost"]

    def test_out_of_band_sid_rejected(self):
        table = AssignmentTable(SidStructure((2, 2), code_dim=2))
        with pytest.raises(DataError):
            table.assign("a", SemanticId((0, 5)))

    def test_constructor_rejects_duplicate_id(self):
        with pytest.raises(DataError, match="duplicate item_id 'a'"):
            AssignmentTable(SidStructure((2, 2), code_dim=2), ["a", "b", "a"],
                            [[0, 0], [0, 1], [1, 1]])

    @pytest.mark.parametrize("bad", [2, -1, 2**70, -(2**70)])
    def test_constructor_rejects_out_of_band_code(self, bad):
        with pytest.raises(DataError, match=f"item 'b': code {bad} out of range"):
            AssignmentTable(SidStructure((2, 2), code_dim=2), ["a", "b"], [[0, 0], [1, bad]])

    @pytest.mark.parametrize("codes, message", [
        ([[0.5, 1.7], [1, 0]], r"code 0.5 at position \(0, 0\)"),
        (np.array([[0, 1], [1.0, 0]]), r"code 0.0 at position \(0, 0\)"),
        ([[0, 1], [1, "0"]], r"code 0 at position \(1, 1\)"),
    ])
    def test_constructor_rejects_a_code_that_is_no_integer(self, codes, message):
        """[[0.5, 1.7], [1, 0]] once held (0, 1) for 'a'.  A float is refused,
        even an integral one, as items_for_codes and SemanticId refuse it."""
        with pytest.raises(DataError, match=f"^{message} is not an integer$"):
            AssignmentTable(SidStructure((2, 2), code_dim=2), ["a", "b"], codes)

    def test_constructor_copies_the_codes(self):
        """The table holds its own matrix: a later write to the caller's
        array does not reach it."""
        codes = np.array([[0, 1], [1, 0]])
        table = AssignmentTable(SidStructure((2, 2), code_dim=2), ["a", "b"], codes)
        codes[0] = [1, 1]
        assert table["a"].codes == (0, 1)

    def test_constructor_rejects_wrong_shape(self):
        with pytest.raises(DataError, match="code matrix"):
            AssignmentTable(SidStructure((2, 2), code_dim=2), ["a", "b"], [[0, 0, 0], [1, 1, 1]])

    def test_wide_structure_groups_without_packing(self):
        """(256,) * 8 spans 2**64 SIDs, more than one int64 key can hold."""
        structure = SidStructure((256,) * 8, code_dim=2)
        table = AssignmentTable(structure, ["b", "a", "c"], [[255] * 8, [255] * 8, [0] * 8])
        assert table.occupancy_of((255,) * 8) == 2
        assert table.items_for_sid((255,) * 8) == ["a", "b"]
        assert table.occupancy == {(0,) * 8: 1, (255,) * 8: 2}

    @pytest.mark.parametrize("read", ["occupancy_of", "items_for_sid"])
    @pytest.mark.parametrize("sid", [(0, 0, 0), (0,), (), SemanticId((1, 1, 1))])
    def test_sid_of_another_length_is_refused(self, read, sid):
        """A SID of the wrong length is an error, not an empty SID; one of
        the right length with an out-of-band code holds nobody."""
        table = AssignmentTable(SidStructure((2, 2), code_dim=2), ["a"], [[0, 0]])
        with pytest.raises(DataError, match=r"expected an \(n, 2\) code matrix"):
            getattr(table, read)(sid)
        assert not getattr(table, read)((0, 7))

    def test_structure_beyond_a_packed_key_column_is_refused(self):
        """A flat token must fit one column of a packed key (sidkit.rows):
        the largest structure allowed still finds its members."""
        with pytest.raises(ValueError, match=r"at most 2\*\*31 - 1 fit"):
            SidStructure((2**62, 2))
        table = AssignmentTable(SidStructure((2**31 - 3, 2)), ["a", "b"],
                                [[2**31 - 4, 0], [5, 1]])
        assert table.items_for_codes([[2**31 - 4, 0]]) == ["a"]
        assert table.occupancy == {(5, 1): 1, (2**31 - 4, 0): 1}


class TestKnnPolicy:
    def test_sigma_one_spreads_duplicates_to_distinct_sids(self):
        catalog = identical_catalog(4, [0.1, 0.0])
        table = apply_knn_policy(catalog, two_prefix_model(4), sigma=1)
        sids = {table[i].codes for i in catalog.item_ids}
        assert len(sids) == 4
        assert all(count == 1 for count in table.occupancy.values())

    def test_twenty_sixth_item_diverts_to_second_nearest(self):
        """Default capacity 25 per SID: items 1..25 take the nearest code and
        item 26 lands on the next code in the distance ranking."""
        catalog = identical_catalog(26, [0.1, 0.0])
        table = apply_knn_policy(catalog, two_prefix_model(4), sigma=25)
        assert table.occupancy_of((0, 0)) == 25
        assert table.occupancy_of((0, 1)) == 1
        assert table["item0025"].codes == (0, 1)

    def test_occupancy_bounded_by_sigma_within_capacity(self):
        catalog = identical_catalog(11, [0.1, 0.0])
        table = apply_knn_policy(catalog, two_prefix_model(4), sigma=3)
        assert max(table.occupancy.values()) <= 3

    def test_fallback_balances_when_capacity_exceeded(self):
        """10 identical items, 3 codes, sigma 2: capacity 6 fills nearest
        first, then the least-occupied fallback levels the rest at ceil(N/n)."""
        catalog = identical_catalog(10, [0.1, 0.0])
        model = two_prefix_model(3)
        table = apply_knn_policy(catalog, model, sigma=2)
        counts = sorted(table.occupancy.values())
        assert counts == [3, 3, 4]

    def test_prefix_levels_are_never_touched(self):
        catalog, _ = clustered_catalog(n_items=60, n_clusters=4, d_in=6, seed=1)
        model = train_rqkmeans(
            catalog.embedding_matrix(), SidStructure((4, 4), code_dim=6), RqkmeansConfig(seed=0)
        )
        raw = raw_assignment(catalog, model)
        repaired = apply_knn_policy(catalog, model, sigma=2)
        assert set(raw) == set(repaired)
        for item_id in catalog.item_ids:
            assert repaired[item_id].prefix == raw[item_id].prefix

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_streaming_reference(self, data):
        """Small worlds on an integer grid with sigma <= 3, so many items
        share a prefix, every code fills up, and the fallback's load ties
        are common."""
        m = data.draw(st.integers(1, 2), label="m")
        sizes = tuple(data.draw(st.lists(st.integers(2, 5), min_size=m, max_size=m)))
        dim = data.draw(st.integers(1, 2), label="dim")
        point = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
        levels = [np.array(data.draw(st.lists(point, min_size=n, max_size=n)), dtype=np.float64)
                  for n in sizes]
        model = hand_model(sizes, levels)
        points = data.draw(st.lists(point, min_size=1, max_size=30), label="points")
        catalog = ItemCatalog(
            [ItemRecord(f"i{i:02d}", np.array(p, dtype=np.float64)) for i, p in enumerate(points)],
            d_in=dim,
        )
        sigma = data.draw(st.integers(1, 3), label="sigma")
        table = apply_knn_policy(catalog, model, sigma=sigma)
        expected = streaming_knn(catalog, model, sigma)
        assert [(i, sid.codes) for i, sid in table.items()] == list(expected.items())

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_full_ranking_walk(self, data):
        """Byte-equal tables to the walk over every item's full ranking, on
        trained models of every content-based kind: items drawn with
        repeats, so many share a SID and divert, a last level with copied
        codewords (distance ties), and ranking blocks of a few rows, so a
        catalog spans several."""
        kind = data.draw(st.sampled_from(["rqkmeans", "rqvae", "multivq"]), label="kind")
        pool, model = trained_model(kind)
        n_m = model.structure.level_sizes[-1]
        copies = data.draw(st.lists(st.tuples(st.integers(0, n_m - 1), st.integers(0, n_m - 1)),
                                    max_size=3), label="codeword copies")
        last = model.codebooks.levels[-1].copy()
        for source, target in copies:
            last[target] = last[source]
        model = dataclasses.replace(model, codebooks=CodebookStack(
            model.structure, [*model.codebooks.levels[:-1], last]))
        rows = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=60),
                         label="rows")
        catalog = ItemCatalog([ItemRecord(f"i{j:02d}", pool.embedding_matrix()[row])
                               for j, row in enumerate(rows)], d_in=pool.d_in)
        sigma = data.draw(st.sampled_from([1, 2, 3, 10]), label="sigma")
        block = data.draw(st.sampled_from([1, 2, 3, 7, None]), label="rows per block")
        floats = quantizer._BLOCK_FLOATS if block is None else block * n_m
        with mock.patch.object(quantizer, "_BLOCK_FLOATS", floats):
            got = apply_knn_policy(catalog, model, sigma=sigma)
        want = full_ranking_knn(catalog, model, sigma)
        assert list(got) == list(want)
        assert got.codes_of(got).tobytes() == want.codes_of(want).tobytes()

    def test_ranks_each_block_of_a_diverting_item_once(self):
        """No item diverts at sigma = N, so no block is ranked; at sigma 1
        each block of 4 rows is ranked at most once."""
        catalog, model = trained_model("rqkmeans")
        starts = []  # the address of each ranked block's first row

        def spy(A, B, ranked=False):
            if ranked:
                starts.append(A.__array_interface__["data"][0])
            return nearest_codewords(A, B, ranked)

        n_m = model.structure.level_sizes[-1]
        with mock.patch.object(collision, "nearest_codewords", spy), \
                mock.patch.object(quantizer, "_BLOCK_FLOATS", 4 * n_m):
            table = apply_knn_policy(catalog, model, sigma=len(catalog))
            assert starts == []
            assert dict(table.items()) == dict(raw_assignment(catalog, model).items())
            apply_knn_policy(catalog, model, sigma=1)
        assert 0 < len(starts) == len(set(starts)) <= math.ceil(len(catalog) / 4)

    def test_invalid_sigma_rejected(self):
        catalog = identical_catalog(2, [0.1, 0.0])
        with pytest.raises(ValueError):
            apply_knn_policy(catalog, two_prefix_model(), sigma=0)

    def test_a_sigma_that_is_no_integer_is_refused(self):
        """sigma=1.5 once acted as sigma=2."""
        catalog = identical_catalog(2, [0.1, 0.0])
        with pytest.raises(DataError, match="^sigma 1.5 at position 0 is not an integer$"):
            apply_knn_policy(catalog, two_prefix_model(), sigma=1.5)


class TestRandomPolicy:
    def test_cycles_last_code_per_prefix(self):
        catalog = identical_catalog(4, [0.1, 0.0])
        table = apply_random_policy(catalog, two_prefix_model(3))
        last = [table[f"item{i:04d}"].codes[-1] for i in range(4)]
        assert last == [0, 1, 2, 0]

    def test_prefixes_cycle_independently(self):
        records = []
        for i in range(3):
            records.append(ItemRecord(item_id=f"a{i}", embedding=np.array([0.1, 0.0])))
            records.append(ItemRecord(item_id=f"b{i}", embedding=np.array([50.0, 0.0])))
        catalog = ItemCatalog(records, d_in=2)
        table = apply_random_policy(catalog, two_prefix_model(4))
        assert [table[f"a{i}"].codes[-1] for i in range(3)] == [0, 1, 2]
        assert [table[f"b{i}"].codes[-1] for i in range(3)] == [0, 1, 2]
        assert table["a0"].prefix != table["b0"].prefix

    def test_spread_within_prefix_is_at_most_one(self):
        catalog = identical_catalog(29, [0.1, 0.0])
        table = apply_random_policy(catalog, two_prefix_model(4))
        counts = [table.occupancy_of((0, c)) for c in range(4)]
        assert sum(counts) == 29
        assert max(counts) - min(counts) <= 1
        assert max(counts) == math.ceil(29 / 4)

    def test_single_level_structure_rejected(self):
        catalog = identical_catalog(3, [0.1, 0.0])
        model = hand_model((4,), [np.zeros((4, 2))])
        with pytest.raises(DataError):
            apply_random_policy(catalog, model)

    @pytest.mark.parametrize("kind", ["rqkmeans", "rqvae", "multivq"])
    def test_prefixes_equal_the_ranking_prefixes(self, kind):
        """The policy keeps the prefixes assign_batch gives, which are the
        ones rank_last_level_batch gives, for every content-based kind."""
        catalog, _ = clustered_catalog(n_items=120, n_clusters=6, d_in=5, seed=4)
        X = catalog.embedding_matrix()
        structure = SidStructure((4, 3, 5), code_dim=3)
        if kind == "rqkmeans":
            model = train_rqkmeans(X, structure, RqkmeansConfig(seed=0))
        else:
            train = train_rqvae if kind == "rqvae" else train_multivq
            model = train(X, structure, RqvaeConfig(epochs=3, warmup_epochs=1, batch_size=32,
                                                    learning_rate=1e-3, hidden_dims=(8,)))
        ranked, _ = model.rank_last_level_batch(X)
        np.testing.assert_array_equal(model.assign_batch(X)[:, :-1], ranked)
        table = apply_random_policy(catalog, model)
        kept = np.array([table[item_id].codes[:-1] for item_id in catalog.item_ids])
        np.testing.assert_array_equal(kept, ranked)


class TestMergePolicy:
    def small_table(self, counts, structure=None):
        """Build a table with the given occupancy per SID code tuple."""
        structure = structure or SidStructure((2, 4), code_dim=2)
        table = AssignmentTable(structure)
        serial = 0
        for codes, count in counts.items():
            for _ in range(count):
                table.assign(f"x{serial:05d}", SemanticId(codes))
                serial += 1
        return table

    def books(self, n_last=4):
        level1 = np.array([[0.0, 0.0], [50.0, 0.0]])
        level2 = np.array([[0.0, float(i)] for i in range(n_last)])
        return CodebookStack(SidStructure((2, n_last), code_dim=2), [level1, level2])

    def test_zero_threshold_is_identity(self):
        """No SID holds fewer than a threshold of 0 or below, so none moves;
        an empty table stays empty."""
        for counts in ({(0, 0): 1, (0, 1): 7}, {}):
            table = self.small_table(counts)
            for threshold in (0, -1):
                merged = apply_merge_policy(table, self.books(), merge_threshold=threshold)
                assert dict(merged.items()) == dict(table.items())

    def test_lone_small_sid_folds_into_big_sibling(self):
        table = self.small_table({(0, 0): 100, (0, 3): 1})
        merged = apply_merge_policy(table, self.books(), merge_threshold=5)
        assert merged.occupancy == {(0, 0): 101}
        assert len(merged) == 101

    def test_target_is_nearest_big_sibling(self):
        """Big SIDs at codes 0 and 3; the small SID at code 2 sits nearer to
        3 in last-level codeword space."""
        table = self.small_table({(0, 0): 10, (0, 3): 10, (0, 2): 2})
        merged = apply_merge_policy(table, self.books(), merge_threshold=5)
        assert merged.occupancy_of((0, 3)) == 12
        assert merged.occupancy_of((0, 2)) == 0

    def test_distance_tie_goes_to_lowest_code(self):
        # codes 0 and 2 are equidistant from code 1
        table = self.small_table({(0, 0): 10, (0, 2): 10, (0, 1): 2})
        merged = apply_merge_policy(table, self.books(), merge_threshold=5)
        assert merged.occupancy_of((0, 0)) == 12

    def test_no_big_sibling_uses_largest(self):
        table = self.small_table({(0, 0): 3, (0, 1): 2})
        merged = apply_merge_policy(table, self.books(), merge_threshold=10)
        # both below threshold: the smaller one (0,1) folds first into the
        # largest sibling (0,0); the combined SID then has no siblings left
        assert merged.occupancy_of((0, 0)) == 5
        assert merged.occupancy_of((0, 1)) == 0

    def test_isolated_small_sid_keeps_items(self):
        table = self.small_table({(1, 2): 2})
        merged = apply_merge_policy(table, self.books(), merge_threshold=5)
        assert merged.occupancy == {(1, 2): 2}

    def test_items_and_prefixes_preserved(self):
        table = self.small_table({(0, 0): 9, (0, 1): 1, (1, 0): 4, (1, 2): 2})
        merged = apply_merge_policy(table, self.books(), merge_threshold=5)
        assert set(merged) == set(table)
        for item_id in table:
            assert merged[item_id].prefix == table[item_id].prefix

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_quadratic_reference(self, data):
        """Random tables against the sibling scan over the whole occupancy.
        The distance tie-break shows in the result; the occupancy tie-break
        runs but cannot (see test_end_state_closed_form)."""
        table, books, threshold = draw_merge_case(data)
        merged = apply_merge_policy(table, books, merge_threshold=threshold)
        expected = quadratic_merge(table, books, threshold)
        assert list(merged.items()) == list(expected.items())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_end_state_closed_form(self, data):
        """A prefix with a SID at the threshold sends each small SID to its
        nearest such SID; a prefix without one ends whole in its last small
        SID in (occupancy, codes) order, whatever the fallback picks."""
        table, books, threshold = draw_merge_case(data)
        merged = apply_merge_policy(table, books, merge_threshold=threshold)
        assert dict(merged.items()) == closed_form_merge(table, books, threshold)

    def test_distinct_occupied_never_increases_and_gini_never_drops(self):
        rng = np.random.default_rng(3)
        structure = SidStructure((2, 4), code_dim=2)
        table = AssignmentTable(structure)
        for i in range(200):
            codes = (int(rng.integers(2)), int(rng.integers(4)))
            table.assign(f"r{i:04d}", SemanticId(codes))
        for threshold in (2, 5, 10):
            merged = apply_merge_policy(table, self.books(), merge_threshold=threshold)
            assert len(merged.occupancy) <= len(table.occupancy)
            g_before = gini_coefficient(OccupancyVector.from_table(table))
            g_after = gini_coefficient(OccupancyVector.from_table(merged))
            assert g_after >= g_before - 1e-12


class TestNocoPolicy:
    def test_identity_copy(self):
        catalog = identical_catalog(5, [0.1, 0.0])
        raw = raw_assignment(catalog, two_prefix_model())
        out = apply_noco_policy(raw)
        assert dict(out.items()) == dict(raw.items())
        out.assign("item0000", SemanticId((1, 0)))
        assert raw["item0000"].codes != (1, 0)


class TestOccupancyStats:
    def test_hand_counts(self):
        table = AssignmentTable(SidStructure((2, 2), code_dim=2))
        for i in range(3):
            table.assign(f"a{i}", SemanticId((0, 0)))
        table.assign("b", SemanticId((0, 1)))
        stats = occupancy_stats(table)
        assert stats.max_occupancy == 3
        assert stats.mean_occupancy == 2.0
        assert stats.distinct_occupied == 2
        assert stats.histogram == {1: 1, 3: 1}

    @settings(max_examples=200, deadline=None)
    @given(table=assignment_tables())
    def test_matches_a_counter(self, table):
        counts = list(Counter(sid.codes for _, sid in table.items()).values())
        stats = occupancy_stats(table)
        assert stats.histogram == dict(sorted(Counter(counts).items()))
        assert all(type(size) is int and type(n) is int for size, n in stats.histogram.items())
        assert stats.distinct_occupied == len(counts)
        assert stats.max_occupancy == max(counts, default=0)
        assert stats.mean_occupancy == (sum(counts) / len(counts) if counts else 0.0)

    def test_empty_table(self):
        stats = occupancy_stats(AssignmentTable(SidStructure((2, 2), code_dim=2)))
        assert stats.max_occupancy == 0
        assert stats.histogram == {}


class TestAssignmentSerialization:
    def test_round_trip_preserves_order_and_sids(self, tmp_path):
        structure = SidStructure((8, 8), code_dim=2)
        table = AssignmentTable(structure)
        rng = np.random.default_rng(4)
        for i in range(50):
            table.assign(f"it{i:03d}", SemanticId((int(rng.integers(8)), int(rng.integers(8)))))
        path = tmp_path / "assignment.tsv"
        save_assignment(table, path)
        loaded = load_assignment(path, structure)
        assert list(loaded.items()) == list(table.items())

    def test_duplicate_item_reports_line(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("a\t[0,0]\na\t[1,1]\n")
        with pytest.raises(DataError, match="2"):
            load_assignment(path, SidStructure((2, 2), code_dim=2))

    def test_band_violation_reports_line(self, tmp_path):
        path = tmp_path / "band.tsv"
        path.write_text("a\t[0,0]\nb\t[0,9]\n")
        with pytest.raises(DataError, match="2"):
            load_assignment(path, SidStructure((2, 2), code_dim=2))

    @pytest.mark.parametrize("sid", ["[+1, 2]", "[0,\uff13]", "[1_0,0]", "[0,-0]"])
    def test_codes_only_in_ascii_digits_and_commas(self, tmp_path, sid):
        """int() reads the first two as (1, 2) and (0, 3), but the saver
        writes only ASCII digits and commas, so the loader refuses the rest,
        at their line; whitespace around the brackets stays legal."""
        path = tmp_path / "codes.tsv"
        path.write_text(f"a\t [1,2] \nb\t{sid}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: malformed bracketed SID"):
            load_assignment(path, SidStructure((4, 4), code_dim=2))
        path.write_text("a\t [1,2] \n")
        assert load_assignment(path, SidStructure((4, 4), code_dim=2))["a"].codes == (1, 2)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "fields.tsv"
        path.write_text("a\t[0,0]\tspare\n")
        with pytest.raises(DataError, match="1"):
            load_assignment(path, SidStructure((2, 2), code_dim=2))

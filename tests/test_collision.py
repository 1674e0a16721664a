"""Collision-repair policies and the assignment table they operate on."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from sidkit.quantizer import CodebookStack, QuantizerModel, RqkmeansConfig, train_rqkmeans
from sidkit.sidmetrics import OccupancyVector, gini_coefficient

from conftest import clustered_catalog


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


def streaming_knn(catalog, model, sigma, k):
    """Reference knn over the same ranking: a count dict, a scan of the k
    nearest codes for the first with headroom, else min((load, code))."""
    prefixes, orders = model.rank_last_level_batch(catalog.embedding_matrix())
    counts = Counter()
    out = {}
    for i, item_id in enumerate(catalog.item_ids):
        prefix = tuple(int(c) for c in prefixes[i])
        candidates = [int(c) for c in orders[i, :k]]
        free = [c for c in candidates if counts[prefix + (c,)] < sigma]
        code = free[0] if free else min((counts[prefix + (c,)], c) for c in candidates)[1]
        counts[prefix + (code,)] += 1
        out[item_id] = prefix + (code,)
    return out


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

    def test_members_listing_is_sorted(self):
        structure = SidStructure((2, 2), code_dim=2)
        table = AssignmentTable(structure)
        for item_id in ("zeta", "alpha", "mid"):
            table.assign(item_id, SemanticId((1, 1)))
        assert table.items_for_sid((1, 1)) == ["alpha", "mid", "zeta"]
        assert table.items_for_sid((0, 0)) == []

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

    @pytest.mark.parametrize("bad", [2, -1])
    def test_constructor_rejects_out_of_band_code(self, bad):
        with pytest.raises(DataError, match=f"item 'b': code {bad} out of range"):
            AssignmentTable(SidStructure((2, 2), code_dim=2), ["a", "b"], [[0, 0], [1, bad]])

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

    def test_single_candidate_reduces_to_raw(self):
        catalog, _ = clustered_catalog(n_items=40, n_clusters=4, d_in=6, seed=2)
        model = train_rqkmeans(
            catalog.embedding_matrix(), SidStructure((4, 4), code_dim=6), RqkmeansConfig(seed=0)
        )
        raw = raw_assignment(catalog, model)
        knn = apply_knn_policy(catalog, model, sigma=1, k_candidates=1)
        for item_id in catalog.item_ids:
            assert knn[item_id] == raw[item_id]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_streaming_reference(self, data):
        """Small worlds on an integer grid with k < n_m and sigma <= 3, so
        many items share a prefix, every candidate fills up, and the
        fallback's load ties are common."""
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
        k = data.draw(st.integers(1, sizes[-1] - 1), label="k")
        sigma = data.draw(st.integers(1, 3), label="sigma")
        table = apply_knn_policy(catalog, model, sigma=sigma, k_candidates=k)
        expected = streaming_knn(catalog, model, sigma, k)
        assert [(i, sid.codes) for i, sid in table.items()] == list(expected.items())

    def test_invalid_sigma_rejected(self):
        catalog = identical_catalog(2, [0.1, 0.0])
        with pytest.raises(DataError):
            apply_knn_policy(catalog, two_prefix_model(), sigma=0)


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
        table = self.small_table({(0, 0): 1, (0, 1): 7})
        merged = apply_merge_policy(table, self.books(), merge_threshold=0)
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

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "fields.tsv"
        path.write_text("a\t[0,0]\tspare\n")
        with pytest.raises(DataError, match="1"):
            load_assignment(path, SidStructure((2, 2), code_dim=2))

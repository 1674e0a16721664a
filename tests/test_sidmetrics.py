"""SID quality metrics: fairness, utilization, hitrate, pair consistency."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit.catalog import ItemCatalog, ItemRecord, SemanticId, SidStructure
from sidkit.collision import AssignmentTable
from sidkit.errors import DataError
from sidkit.sidmetrics import (
    OccupancyVector,
    PairLabels,
    codebook_utilization,
    consistency,
    embedding_hitrate,
    gini_coefficient,
    load_pair_labels,
    pairs_from_sequences,
    save_pair_labels,
)

from conftest import assignment_tables


def dense_gini(counts):
    """Independent oracle: textbook formula on the dense vector, zeros
    included.  G = 2 * sum_i i*x_(i) / (n * sum x) - (n + 1) / n with the
    counts sorted ascending and i running 1..n."""
    x = np.sort(np.asarray(counts, dtype=np.float64))
    n = x.size
    i = np.arange(1, n + 1)
    return float(2.0 * (i * x).sum() / (n * x.sum()) - (n + 1) / n)


class TestGiniHandValues:
    def test_single_hot_of_four(self):
        got = gini_coefficient(OccupancyVector.from_counts([0, 0, 0, 8]))
        assert got == pytest.approx(0.75, abs=1e-15)

    def test_perfectly_even(self):
        got = gini_coefficient(OccupancyVector.from_counts([1, 1, 1, 1]))
        assert got == 0.0

    def test_three_bucket_mix(self):
        got = gini_coefficient(OccupancyVector.from_counts([0, 1, 3]))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            gini_coefficient(OccupancyVector.from_counts([0, 0, 0]))

    @pytest.mark.parametrize("make, message", [
        (lambda: OccupancyVector(np.zeros((0, 1), np.int64), np.zeros(0, np.int64), 0),
         "total_sids must be positive"),
        (lambda: OccupancyVector.from_counts([2, -1]), "counts must be non-negative"),
        (lambda: OccupancyVector.from_counts([1, 2**70]),
         "count 1180591620717411303424 is beyond int64"),
        (lambda: OccupancyVector.from_counts(np.array([0, 2**64 - 1], np.uint64)),
         "count 18446744073709551615 is beyond int64"),
    ], ids=["empty-space", "negative-count", "count-beyond-int64", "uint64-count-beyond-int64"])
    def test_malformed_occupancy_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("counts, value, at", [(["3", 1.9], "3", 0), ([3, 1.9], "1.9", 1),
                                                   ([0, 2.0], "2.0", 1)])
    def test_a_count_that_is_no_integer_is_refused(self, counts, value, at):
        """["3", 1.9] once read as [3, 1]."""
        with pytest.raises(DataError, match=f"^count {value} at position {at} is not an integer$"):
            OccupancyVector.from_counts(counts)

    def test_a_total_that_is_no_integer_is_refused(self):
        """total_sids=2.9 once read as a space of 2 SIDs."""
        with pytest.raises(DataError, match="^total_sids 2.9 at position 0 is not an integer$"):
            OccupancyVector.from_counts([1, 2], total_sids=2.9)


class TestGiniProperties:
    def test_matches_dense_oracle_on_200_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            counts = rng.integers(0, 20, size=n)
            if counts.sum() == 0:
                counts[0] = 1
            sparse = gini_coefficient(OccupancyVector.from_counts(counts.tolist()))
            assert sparse == pytest.approx(dense_gini(counts), abs=1e-12)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=30).filter(lambda c: sum(c) > 0))
    @settings(max_examples=80, deadline=None)
    def test_scale_and_permutation_invariance(self, counts):
        base = gini_coefficient(OccupancyVector.from_counts(counts))
        scaled = gini_coefficient(OccupancyVector.from_counts([7 * c for c in counts]))
        shuffled = gini_coefficient(OccupancyVector.from_counts(list(reversed(counts))))
        assert scaled == pytest.approx(base, abs=1e-12)
        assert shuffled == pytest.approx(base, abs=1e-12)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=30).filter(lambda c: sum(c) > 0))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_equality_condition(self, counts):
        g = gini_coefficient(OccupancyVector.from_counts(counts))
        assert 0.0 <= g < 1.0
        if len(set(counts)) == 1:  # all equal and positive
            assert g == pytest.approx(0.0, abs=1e-12)

    @given(table=assignment_tables())
    @settings(max_examples=200, deadline=None)
    def test_bits_match_the_integer_loop(self, table):
        """The sorted running sums, taken in exact integers one count at a
        time, give the same float."""
        counts = sorted(Counter(sid.codes for _, sid in table.items()).values())
        vec = OccupancyVector.from_table(table)
        if not counts:
            with pytest.raises(DataError):
                gini_coefficient(vec)
            return
        n_d, cumulative, cumulative_sum = table.structure.total_sids, 0, 0
        for count in counts:
            cumulative += count
            cumulative_sum += cumulative
        assert gini_coefficient(vec) == (n_d + 1) / n_d - 2 * cumulative_sum / (n_d * cumulative)

    def test_implicit_zeros_match_explicit(self):
        """A sparse vector over a bigger space equals the dense padding."""
        sparse = OccupancyVector.from_counts([5, 3], total_sids=10)
        dense = OccupancyVector.from_counts([5, 3, 0, 0, 0, 0, 0, 0, 0, 0])
        assert gini_coefficient(sparse) == pytest.approx(gini_coefficient(dense), abs=1e-15)

    def test_from_table(self):
        structure = SidStructure((2, 2), code_dim=2)
        table = AssignmentTable(structure)
        for i in range(8):
            table.assign(f"i{i}", SemanticId((0, 0)))
        vec = OccupancyVector.from_table(table)
        assert vec.total_sids == 4
        assert vec.counts.tolist() == [8]
        assert gini_coefficient(vec) == pytest.approx(0.75, abs=1e-15)


class TestUtilization:
    def test_overall_fraction_of_space(self):
        vec = OccupancyVector.from_counts([3, 0, 1, 0])
        assert codebook_utilization(vec) == 50.0

    def test_full_space(self):
        vec = OccupancyVector.from_counts([1, 1, 1, 1])
        assert codebook_utilization(vec) == 100.0

    def test_per_level_counts_distinct_codes(self):
        structure = SidStructure((2, 4), code_dim=2)
        table = AssignmentTable(structure)
        table.assign("a", SemanticId((0, 0)))
        table.assign("b", SemanticId((0, 1)))
        table.assign("c", SemanticId((0, 2)))
        vec = OccupancyVector.from_table(table)
        per_level = codebook_utilization(vec, per_level=True)
        assert per_level == [50.0, 75.0]

    @given(table=assignment_tables())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_set_reference(self, table):
        sids = {sid.codes for _, sid in table.items()}
        structure = table.structure
        vec = OccupancyVector.from_table(table)
        assert codebook_utilization(vec) == 100.0 * len(sids) / structure.total_sids
        assert codebook_utilization(vec, per_level=True) == [
            100.0 * len({codes[j] for codes in sids}) / n_j
            for j, n_j in enumerate(structure.level_sizes)]

    def test_per_level_needs_structure(self):
        with pytest.raises(DataError):
            codebook_utilization(OccupancyVector.from_counts([1, 1]), per_level=True)

    def test_saturates_under_heavy_random_load(self):
        """With far more items than SIDs, random assignment touches nearly
        every cell (coupon collector: 16 cells, 400 draws)."""
        rng = np.random.default_rng(1)
        structure = SidStructure((4, 4), code_dim=2)
        table = AssignmentTable(structure)
        for i in range(400):
            table.assign(f"i{i}", SemanticId((int(rng.integers(4)), int(rng.integers(4)))))
        assert codebook_utilization(OccupancyVector.from_table(table)) == 100.0


def tiny_catalog(vectors, prefix="q"):
    records = [
        ItemRecord(item_id=f"{prefix}{i}", embedding=np.asarray(v, dtype=np.float64))
        for i, v in enumerate(vectors)
    ]
    return ItemCatalog(records, d_in=len(vectors[0]))


class TestEmbeddingHitrate:
    def test_perfect_when_clicked_is_nearest(self):
        catalog = tiny_catalog([[1.0, 0.0], [0.99, 0.1], [-1.0, 0.0], [0.0, 1.0]])
        assert embedding_hitrate(catalog, [("q0", ("q1",))], k=1) == 1.0

    def test_zero_when_clicked_is_farthest(self):
        catalog = tiny_catalog([[1.0, 0.0], [0.99, 0.1], [-1.0, 0.0], [0.0, 1.0]])
        assert embedding_hitrate(catalog, [("q0", ("q2",))], k=1) == 0.0

    def test_partial_credit_over_clicked_set(self):
        catalog = tiny_catalog([[1.0, 0.0], [0.99, 0.1], [-1.0, 0.0], [0.0, 1.0]])
        got = embedding_hitrate(catalog, [("q0", ("q1", "q2"))], k=1)
        assert got == 0.5

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 6))
        catalog = tiny_catalog(X.tolist())
        pairs = []
        for q in range(0, 40, 5):
            clicked = tuple(f"q{(q + j) % 40}" for j in range(1, 4))
            pairs.append((f"q{q}", clicked))
        for k in (1, 3, 10):
            got = embedding_hitrate(catalog, pairs, k=k)
            scores = []
            unit = X / np.linalg.norm(X, axis=1, keepdims=True)
            for query_id, clicked in pairs:
                q = int(query_id[1:])
                sims = [
                    (-float(unit[q] @ unit[i]), i) for i in range(40) if i != q
                ]
                top = {i for _, i in sorted(sims)[:k]}
                clicked_idx = {int(c[1:]) for c in clicked}
                scores.append(len(top & clicked_idx) / len(clicked_idx))
            assert got == pytest.approx(float(np.mean(scores)), abs=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 5))
        catalog = tiny_catalog(X.tolist())
        pairs = [(f"q{i}", (f"q{(i + 7) % 30}",)) for i in range(30)]
        rates = [embedding_hitrate(catalog, pairs, k=k) for k in (1, 5, 10, 29)]
        assert rates == sorted(rates)
        assert rates[-1] == 1.0  # K covers every other item

    def test_query_is_never_its_own_hit(self):
        catalog = tiny_catalog([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1]])
        # nearest non-self neighbour of q0 is q2; q0 itself is masked out
        assert embedding_hitrate(catalog, [("q0", ("q2",))], k=1) == 1.0

    def test_k_bounds_and_bad_inputs(self):
        catalog = tiny_catalog([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            embedding_hitrate(catalog, [("q0", ("q1",))], k=0)
        with pytest.raises(DataError):
            embedding_hitrate(catalog, [("q0", ("q1",))], k=2)
        with pytest.raises(DataError):
            embedding_hitrate(catalog, [], k=1)
        with pytest.raises(DataError):
            embedding_hitrate(catalog, [("ghost", ("q1",))], k=1)
        with pytest.raises(DataError, match="^empty clicked set for query 'q0'$"):
            embedding_hitrate(catalog, [("q0", ())], k=1)
        with pytest.raises(DataError, match="^unknown clicked item 'ghost'$"):
            embedding_hitrate(catalog, [("q0", ("ghost",))], k=1)

    def test_zero_norm_embedding_named(self):
        catalog = tiny_catalog([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DataError, match="q1"):
            embedding_hitrate(catalog, [("q0", ("q2",))], k=1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_full_stable_argsort_with_ties_at_the_cut(self, data):
        """Items share a few embeddings, so whole groups tie and K cuts
        through them; the partitioned top K must pick the same items as a
        full stable argsort, which keeps the earlier catalog items."""
        distinct = data.draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any),
            min_size=1, max_size=4))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=12))
        catalog = tiny_catalog([distinct[p] for p in picks])
        n = len(picks)
        k = data.draw(st.integers(1, n - 1))
        item = st.integers(0, n - 1).map(lambda i: f"q{i}")
        pairs = data.draw(st.lists(st.tuples(item, st.lists(item, min_size=1, max_size=3)
                                             .map(tuple)), min_size=1, max_size=5))

        X = catalog.embedding_matrix()
        unit = X / np.linalg.norm(X, axis=1)[:, None]
        scores = []
        for query_id, clicked in pairs:
            q = int(query_id[1:])
            sims = unit @ unit[q]
            sims[q] = -np.inf
            top = set(np.argsort(-sims, kind="stable")[:k].tolist())
            clicked_idx = {int(c[1:]) for c in clicked}
            scores.append(len(top & clicked_idx) / len(clicked_idx))
        assert embedding_hitrate(catalog, pairs, k) == float(np.mean(scores))


class TestPairsFromSequences:
    def test_uses_last_history_item(self):
        from sidkit.catalog import InteractionSequence

        seqs = [
            InteractionSequence(
                pv_id="p1", history=("a", "b", "c"), targets=("x", "y"), query=""
            )
        ]
        assert pairs_from_sequences(seqs) == [("c", ("x", "y"))]

    def test_skips_empty_history(self):
        from sidkit.catalog import InteractionSequence

        seqs = [InteractionSequence(pv_id="p1", history=(), targets=("x",), query="")]
        assert pairs_from_sequences(seqs) == []


class TestConsistency:
    def build_table(self, mapping):
        structure = SidStructure((4, 4), code_dim=2)
        table = AssignmentTable(structure)
        for item_id, codes in mapping.items():
            table.assign(item_id, SemanticId(codes))
        return table

    def test_all_pairs_share_sid(self):
        table = self.build_table({"a": (0, 0), "b": (0, 0), "c": (1, 1), "d": (1, 1)})
        labels = PairLabels((("a", "b", "style"), ("c", "d", "style")))
        assert consistency(table, labels, "style") == 100.0

    def test_no_pair_shares_sid(self):
        table = self.build_table({"a": (0, 0), "b": (0, 1)})
        labels = PairLabels((("a", "b", "origin"),))
        assert consistency(table, labels, "origin") == 0.0

    def test_prefix_match_does_not_count(self):
        """Sharing levels 1..m-1 but not the last level is not consistent;
        the comparison is on the full SID."""
        table = self.build_table({"a": (2, 0), "b": (2, 1), "c": (2, 2), "d": (2, 2)})
        labels = PairLabels((("a", "b", "style"), ("c", "d", "style")))
        assert consistency(table, labels, "style") == 50.0

    def test_relations_filtered(self):
        table = self.build_table({"a": (0, 0), "b": (0, 0)})
        labels = PairLabels((("a", "b", "style"), ("a", "b", "origin")))
        assert consistency(table, labels, "style") == 100.0
        with pytest.raises(DataError):
            consistency(table, labels, "brand")

    def test_no_pairs_for_relation_rejected(self):
        table = self.build_table({"a": (0, 0), "b": (0, 0)})
        labels = PairLabels((("a", "b", "style"),))
        with pytest.raises(DataError):
            consistency(table, labels, "origin")

    def test_unknown_item_named_in_pair_order(self):
        table = self.build_table({"a": (0, 0), "b": (0, 0)})
        labels = PairLabels((("a", "ghost1", "style"), ("ghost2", "b", "style")))
        with pytest.raises(DataError, match="^item 'ghost1' has no assigned SID$"):
            consistency(table, labels, "style")

    def test_unknown_relation_in_labels_rejected(self):
        with pytest.raises(ValueError):
            PairLabels((("a", "b", "colour"),))


class TestPairLabelIo:
    def test_round_trip(self, tmp_path):
        labels = PairLabels(
            (("a", "b", "style"), ("b", "c", "origin"), ("a", "c", "style"))
        )
        path = tmp_path / "labels.tsv"
        save_pair_labels(labels, path)
        assert load_pair_labels(path) == labels

    def test_bad_relation_reports_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("a\tb\tstyle\na\tc\tshape\n")
        with pytest.raises(DataError, match="2"):
            load_pair_labels(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(DataError, match="1"):
            load_pair_labels(path)

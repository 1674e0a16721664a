"""Contrastive alignment loss and the trainable projection head."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit.alignment import (
    AlignmentBatch,
    AlignmentConfig,
    collect_pairs,
    info_nce_loss,
    projection_loss,
    train_projection,
)
from sidkit.autodiff import Tensor, wrap
from sidkit.errors import DataError

from conftest import clustered_catalog


class TestInfoNceValues:
    def test_orthogonal_pairs_closed_form(self):
        """B=2 with orthogonal unit pairs at temperature 1: the matched logit
        is 1, the mismatched 0, so the loss is log(1 + e^-1) exactly."""
        batch = AlignmentBatch(np.eye(2), np.eye(2))
        got = info_nce_loss(batch, temperature=1.0)
        np.testing.assert_allclose(got, np.log1p(np.exp(-1.0)), rtol=1e-12)

    def test_indistinguishable_batch_is_log_b(self):
        """All similarities equal -> softmax is uniform -> loss = log B."""
        anchors = np.tile([1.0, 0.0, 0.0], (5, 1))
        positives = np.tile([0.0, 1.0, 0.0], (5, 1))
        got = info_nce_loss(AlignmentBatch(anchors, positives), temperature=0.07)
        np.testing.assert_allclose(got, np.log(5.0), rtol=1e-12)

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = int(rng.integers(2, 9))
            batch = AlignmentBatch(rng.standard_normal((b, 6)), rng.standard_normal((b, 6)))
            assert info_nce_loss(batch) >= 0.0

    def test_sharp_positive_drives_loss_to_zero(self):
        """A matched pair far more similar than any negative dominates the
        softmax at low temperature."""
        anchors = np.eye(3)
        batch = AlignmentBatch(anchors, anchors)
        assert info_nce_loss(batch, temperature=0.01) < 1e-6

    def test_zero_norm_row_is_named(self):
        anchors = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DataError, match="row 1"):
            info_nce_loss(AlignmentBatch(anchors, np.eye(2)))

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            info_nce_loss(AlignmentBatch(np.eye(2), np.eye(2)), temperature=0.0)

    def test_batch_needs_two_rows(self):
        with pytest.raises(ValueError):
            AlignmentBatch(np.ones((1, 4)), np.ones((1, 4)))

    def test_batch_shapes_must_match(self):
        with pytest.raises(ValueError, match="^anchors and positives must have identical shape$"):
            AlignmentBatch(np.ones((3, 4)), np.ones((2, 4)))


class TestProjectionLossGradient:
    def test_matches_finite_differences(self):
        """Autodiff gradient of the projected InfoNCE agrees with a central
        finite-difference evaluation, parameter by parameter."""
        rng = np.random.default_rng(3)
        batch = AlignmentBatch(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))
        w0 = np.eye(5) + 0.01 * rng.standard_normal((5, 5))
        b0 = 0.01 * rng.standard_normal(5)

        weight, bias = Tensor(w0.copy()), Tensor(b0.copy())
        projection_loss(weight, bias, batch, temperature=0.5).backward()

        def value(w, b):
            return projection_loss(Tensor(w), Tensor(b), batch, temperature=0.5).item()

        h = 1e-5
        for param, tensor in ((w0, weight), (b0, bias)):
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + h
                up = value(w0, b0)
                param[idx] = orig - h
                down = value(w0, b0)
                param[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            rel = np.abs(tensor.grad - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() < 1e-3

    def test_plain_numpy_and_graph_paths_agree(self):
        """projection_loss with an identity head equals info_nce_loss."""
        rng = np.random.default_rng(4)
        batch = AlignmentBatch(rng.standard_normal((6, 4)), rng.standard_normal((6, 4)))
        graph = projection_loss(
            Tensor(np.eye(4)), Tensor(np.zeros(4)), batch, temperature=0.07
        ).item()
        np.testing.assert_allclose(graph, info_nce_loss(batch, 0.07), rtol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 12),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 50.0]),
        temperature=st.sampled_from([0.07, 0.5, 3.0]),
    )
    def test_numpy_forward_bit_equals_graph(self, n, d, seed, scale, temperature):
        """The graph-free forward train_projection starts from (projection_loss
        on constants) returns the bits of the graph's loss."""
        rng = np.random.default_rng(seed)
        batch = AlignmentBatch(scale * rng.standard_normal((n, d)),
                               scale * rng.standard_normal((n, d)))
        weight = np.eye(d) + rng.standard_normal((d, d))
        bias = rng.standard_normal(d)
        graph = projection_loss(Tensor(weight), Tensor(bias), batch, temperature)
        value = projection_loss(wrap(weight), wrap(bias), batch, temperature)
        assert graph._parents and not value._parents
        assert value.item() == graph.item()

    def test_numpy_forward_names_a_zero_norm_projection(self):
        batch = AlignmentBatch(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(DataError, match="projected anchors"):
            projection_loss(wrap(np.zeros((2, 2))), wrap(np.zeros(2)), batch, 0.07)


class TestTrainProjection:
    def test_loss_decreases_on_planted_pairs(self):
        catalog, _ = clustered_catalog(n_items=120, n_clusters=6, d_in=8, seed=5)
        config = AlignmentConfig(epochs=8, batch_size=32, learning_rate=1e-2, seed=7)
        head = train_projection(catalog, config)
        assert len(head.loss_trace) == 9  # pre-training entry + one per epoch
        assert head.loss_trace[-1] < head.loss_trace[0]

    def test_same_seed_is_bitwise_identical(self):
        catalog, _ = clustered_catalog(n_items=60, n_clusters=4, d_in=6, seed=6)
        config = AlignmentConfig(epochs=3, batch_size=16, seed=11)
        first = train_projection(catalog, config)
        second = train_projection(catalog, config)
        np.testing.assert_array_equal(first.weight, second.weight)
        np.testing.assert_array_equal(first.bias, second.bias)
        assert first.loss_trace == second.loss_trace

    def test_zero_epochs_returns_initialization(self):
        catalog, _ = clustered_catalog(n_items=40, n_clusters=4, d_in=6, seed=8)
        head = train_projection(catalog, AlignmentConfig(epochs=0, seed=3))
        assert np.abs(head.weight - np.eye(6)).max() < 0.01  # identity plus small noise
        np.testing.assert_array_equal(head.bias, np.zeros(6))
        assert len(head.loss_trace) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("batch_size", [2, 7, 16, 25])
    def test_blocked_starting_loss_is_the_unblocked_one(self, seed, batch_size):
        """loss_trace[0], computed batch_size anchor rows at a time, has the
        bits of the one-block InfoNCE over every pair, written here in numpy."""
        catalog, _ = clustered_catalog(n_items=60, n_clusters=4, d_in=6, seed=seed)
        config = AlignmentConfig(epochs=0, batch_size=batch_size, temperature=0.3, seed=seed)
        head = train_projection(catalog, config)
        anchors, positives = collect_pairs(catalog)
        assert -(-anchors.shape[0] // batch_size) >= 3

        def unit(x):
            x = x @ head.weight + head.bias
            return x * (x * x).sum(axis=1, keepdims=True) ** -0.5

        logits = (unit(anchors) @ unit(positives).T) * (1.0 / config.temperature)
        shift = logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]
        rows = lse - logits.diagonal()
        assert head.loss_trace[0] == rows.sum() * (1.0 / rows.size)

    def test_starting_loss_holds_less_than_one_pair_matrix(self):
        """On 2,000 pairs the starting loss's tracemalloc peak stays below
        one (N, N) float64 array: it never holds more than a batch of rows."""
        catalog, _ = clustered_catalog(n_items=2000, n_clusters=20, d_in=16, seed=12)
        pairs = collect_pairs(catalog)[0].shape[0]
        assert pairs == 2000
        tracemalloc.start()
        try:
            train_projection(catalog, AlignmentConfig(epochs=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pairs**2 * 8

    @pytest.mark.parametrize("temperature", [0.0, -0.07, float("nan")])
    def test_config_temperature_must_be_positive(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            AlignmentConfig(temperature=temperature)

    @pytest.mark.parametrize("bad", [{"epochs": -1}, {"batch_size": 1}, {"batch_size": 0}])
    def test_config_that_would_train_something_else_is_refused(self, bad):
        """Negative epochs trained nothing, and a batch below 2 (no negative
        to contrast) was silently raised to 2."""
        with pytest.raises(ValueError, match=next(iter(bad))):
            AlignmentConfig(**bad)

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_config_learning_rate_negative_or_not_finite_rejected(self, rate):
        with pytest.raises(ValueError, match="^learning_rate must be finite and >= 0"):
            AlignmentConfig(learning_rate=rate)
        assert AlignmentConfig(learning_rate=0.0).learning_rate == 0.0

    def test_catalog_without_pairs_rejected(self):
        from sidkit.catalog import ItemCatalog, ItemRecord

        records = [ItemRecord(item_id="a", embedding=np.ones(3))]
        with pytest.raises(DataError):
            train_projection(ItemCatalog(records, d_in=3), AlignmentConfig(epochs=1))

    def test_catalog_with_one_pair_rejected(self):
        from sidkit.catalog import ItemCatalog, ItemRecord

        records = [ItemRecord(item_id="a", embedding=np.ones(3), related_item="b"),
                   ItemRecord(item_id="b", embedding=np.ones(3))]
        with pytest.raises(DataError,
                           match="^need at least 2 related-item pairs to form negatives$"):
            train_projection(ItemCatalog(records, d_in=3), AlignmentConfig(epochs=1))


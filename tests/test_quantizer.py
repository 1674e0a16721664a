"""Residual quantizers: assignment math, k-means, training, serialization."""

import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit import quantizer
from sidkit.autodiff import Tensor
from sidkit.catalog import SemanticId, SidStructure
from sidkit.errors import DataError
from sidkit.quantizer import (
    LLOYD_TOL,
    CodebookStack,
    Mlp,
    QuantizerModel,
    RqkmeansConfig,
    RqvaeConfig,
    assign_random,
    feature_fidelity,
    fidelity_percent,
    init_mlp,
    kmeanspp_init,
    lloyd_kmeans,
    load_quantizer,
    nearest_codewords,
    random_model,
    residual_assign_batch,
    rqvae_loss,
    save_quantizer,
    sq_distances,
    train_multivq,
    train_rqkmeans,
    train_rqvae,
)


def brute_force_codes(z, levels):
    """Independent oracle: per-level nearest codeword by explicit loop."""
    codes = []
    z = np.array(z, dtype=np.float64)
    for table in levels:
        best, best_d = 0, float("inf")
        for c in range(table.shape[0]):
            d = float(np.sqrt(((z - table[c]) ** 2).sum()))
            if d < best_d - 1e-15:
                best, best_d = c, d
        codes.append(best)
        z = z - table[best]
    return tuple(codes), z


def small_stack(seed=0, sizes=(4, 3), dim=5):
    rng = np.random.default_rng(seed)
    structure = SidStructure(sizes, code_dim=dim)
    return CodebookStack(structure, [rng.standard_normal((n, dim)) for n in sizes])


def train_kind(kind, X, structure):
    """A briefly trained content-based quantizer of the given kind."""
    if kind == "rqkmeans":
        return train_rqkmeans(X, structure, RqkmeansConfig(seed=0))
    cfg = RqvaeConfig(epochs=3, warmup_epochs=1, learning_rate=1e-3,
                      batch_size=16, hidden_dims=(8,), seed=0)
    train = train_rqvae if kind == "rqvae" else train_multivq
    return train(X, structure, cfg)


class TestResidualAssign:
    def test_exact_codeword_gives_zero_residual(self):
        stack = small_stack()
        Z = np.stack([stack.levels[0][2], stack.levels[0][0] + stack.levels[1][1]])
        codes, residuals = residual_assign_batch(Z, stack)
        assert codes[0, 0] == 2
        np.testing.assert_array_equal(codes[1], [0, 1])
        np.testing.assert_allclose(residuals[1], 0.0, atol=1e-15)
        one, _ = residual_assign_batch(Z[:1], stack)
        assert one[0, 0] == 2

    def test_tie_breaks_to_lowest_code(self):
        structure = SidStructure((3,), code_dim=2)
        table = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        stack = CodebookStack(structure, [table])
        codes, _ = residual_assign_batch(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), stack)
        np.testing.assert_array_equal(codes[:, 0], [0, 2, 0])
        one, _ = residual_assign_batch(np.array([[1.0, 0.0]]), stack)
        assert one.tolist() == [[0]]

    def test_matches_brute_force_oracle_on_500_inputs(self):
        stack = small_stack(seed=1, sizes=(6, 5, 4), dim=4)
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((500, 4)) * 2.0
        batch_codes, batch_res = residual_assign_batch(Z, stack)
        for i in range(Z.shape[0]):
            want_codes, want_res = brute_force_codes(Z[i], stack.levels)
            codes, residual = residual_assign_batch(Z[i : i + 1], stack)
            assert tuple(codes[0]) == want_codes
            np.testing.assert_allclose(residual[0], want_res, atol=1e-12)
            assert tuple(batch_codes[i]) == want_codes
            np.testing.assert_allclose(batch_res[i], want_res, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_codewords_plus_final_residual_telescope(self, seed, rows):
        """Chosen codewords and the final residual reassemble the input."""
        rng = np.random.default_rng(seed)
        stack = small_stack(seed=seed % 1000, sizes=(4, 3, 5), dim=6)
        Z = rng.standard_normal((rows, 6)) * 3.0
        codes, residuals = residual_assign_batch(Z, stack)
        assert codes.shape == (rows, 3) and residuals.shape == (rows, 6)
        rebuilt = residuals.copy()
        for j, table in enumerate(stack.levels):
            rebuilt = rebuilt + table[codes[:, j]]
        np.testing.assert_allclose(rebuilt, Z, atol=1e-9)
        for row in codes:
            SemanticId(tuple(row.tolist())).validate(stack.structure)

    def test_dimension_mismatch_rejected(self):
        for rows in (1, 4):
            with pytest.raises(DataError):
                residual_assign_batch(np.ones((rows, 3)), small_stack(dim=5))

    def test_sq_distances_empty_table(self):
        with pytest.raises(DataError):
            sq_distances(np.ones((1, 3)), np.zeros((0, 3)))


def kernel_case(family, seed, n, k, d):
    """(A, B) of one data family for the decision-kernel oracle tests."""
    rng = np.random.default_rng(seed)
    if family == "grid":
        # small integers: exact ties everywhere, and duplicated codewords
        A = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        B = rng.integers(-2, 3, size=(max(1, k // 2), d)).astype(np.float64)
        return A, B[rng.integers(B.shape[0], size=k)]
    if family == "offset":
        # a large common offset, where ||a||^2 - 2a.b + ||b||^2 cancels badly
        scale = 10.0 ** rng.uniform(-3, 0)
        return (1e6 + scale * rng.standard_normal((n, d)),
                1e6 + scale * rng.standard_normal((k, d)))
    return rng.standard_normal((n, d)), rng.standard_normal((k, d))


class SqDistancesSpy:
    """Stands in for quantizer.sq_distances and records the rows of A that
    the decision kernel sends to its difference-form fallback, per call."""

    def __init__(self):
        self.calls = []

    def __call__(self, A, B):
        self.calls.append(A.copy())
        return sq_distances(A, B)

    @property
    def rows(self):
        return sorted(tuple(row) for call in self.calls for row in call)


class TestNearestCodewords:
    @given(
        st.sampled_from(["grid", "offset", "gaussian"]),
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.integers(1, 12),
        st.integers(1, 9),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_difference_form_oracle(self, family, seed, n, k, d):
        A, B = kernel_case(family, seed, n, k, d)
        d2 = sq_distances(A, B)
        np.testing.assert_array_equal(nearest_codewords(A, B), np.argmin(d2, axis=1))
        np.testing.assert_array_equal(
            nearest_codewords(A, B, ranked=True), np.argsort(d2, axis=1, kind="stable")
        )

    @pytest.mark.parametrize("ranked", [False, True])
    def test_ties_take_the_fallback(self, monkeypatch, ranked):
        B = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # rows 0 and 2 coincide
        A = np.array([[1.0, 0.0], [0.5, 0.5], [3.0, -1.0]])
        spy = SqDistancesSpy()
        monkeypatch.setattr(quantizer, "sq_distances", spy)
        got = nearest_codewords(A, B, ranked=ranked)
        # rows 0 and 2 tie for first between codes 0 and 2; row 1 three ways
        assert spy.rows == sorted(tuple(a) for a in A)
        want = np.array([[0, 2, 1], [0, 1, 2], [0, 2, 1]])
        np.testing.assert_array_equal(got, want if ranked else want[:, 0])

    @pytest.mark.parametrize("ranked", [False, True])
    def test_fallback_rows_are_those_within_the_documented_bound(self, monkeypatch, ranked):
        """On integer points near a large offset both forms are exact, so the
        fallback must take exactly the rows whose margin is at most
        2 e_i = 16 (d + 4) u (||a_i||^2 + max_j ||b_j||^2)."""
        rng = np.random.default_rng(5)
        d, offset = 4, 5e6
        A = offset + rng.integers(-6, 7, size=(400, d)).astype(np.float64)
        B = offset + 2.0 * rng.integers(-3, 4, size=(6, d)).astype(np.float64)
        A = np.unique(A, axis=0)
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)  # exact integers
        sorted_d2 = np.sort(d2, axis=1)
        gaps = np.diff(sorted_d2, axis=1)
        margin = gaps.min(axis=1) if ranked else gaps[:, 0]
        bound = 16 * (d + 4) * np.finfo(float).eps * (
            (A**2).sum(axis=1) + (B**2).sum(axis=1).max()
        )
        # rows on both sides of the bound, and rows between it and its half
        assert (margin > bound).any() and ((margin <= bound) & (margin > bound / 2)).any()
        spy = SqDistancesSpy()
        monkeypatch.setattr(quantizer, "sq_distances", spy)
        nearest_codewords(A, B, ranked=ranked)
        assert spy.rows == sorted(tuple(a) for a in A[margin <= bound])

    def test_overflowing_rows_match_the_difference_form(self):
        # row 0 reads inf - inf = nan at codes 0 and 1 in the GEMM form, and
        # argmin takes the first nan; a nan margin must fall back to find 1
        A = np.array([[1e160, 0.0], [1.0, 1.0]])
        B = np.array([[1e160, 1e160], [1e160, 0.0], [1.0, 2.0]])
        with np.errstate(over="ignore"):
            d2 = sq_distances(A, B)
            codes = nearest_codewords(A, B)
            orders = nearest_codewords(A, B, ranked=True)
        np.testing.assert_array_equal(codes, np.argmin(d2, axis=1))
        np.testing.assert_array_equal(orders, np.argsort(d2, axis=1, kind="stable"))

    def test_blocks_bound_the_fallback_temporary(self, monkeypatch):
        monkeypatch.setattr(quantizer, "_BLOCK_FLOATS", 64)
        A, B = kernel_case("grid", 3, 50, 7, 3)
        d2 = sq_distances(A, B)
        spy = SqDistancesSpy()
        monkeypatch.setattr(quantizer, "sq_distances", spy)
        np.testing.assert_array_equal(nearest_codewords(A, B), np.argmin(d2, axis=1))
        # several blocks of 64 // 7 rows, each fallback call within 64 floats
        assert len(spy.calls) > 1 and all(call.size * 7 <= 64 for call in spy.calls)

    def test_shapes_of_empty_and_single_code_inputs(self):
        assert nearest_codewords(np.zeros((0, 3)), np.ones((4, 3))).shape == (0,)
        assert nearest_codewords(np.zeros((0, 3)), np.ones((4, 3)), ranked=True).shape == (0, 4)
        np.testing.assert_array_equal(nearest_codewords(np.ones((2, 3)), np.ones((1, 3))), [0, 0])

    def test_rejects_empty_codebook_and_width_mismatch(self):
        with pytest.raises(DataError):
            nearest_codewords(np.ones((1, 3)), np.zeros((0, 3)))
        with pytest.raises(DataError):
            nearest_codewords(np.ones((1, 3)), np.zeros((2, 4)))


class TestLloydKmeans:
    def test_single_centroid_is_the_mean(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 4))
        centroids, labels, _ = lloyd_kmeans(X, 1, np.random.default_rng(0))
        np.testing.assert_allclose(centroids[0], X.mean(axis=0), atol=1e-12)
        assert (labels == 0).all()

    def test_fixed_point_properties(self):
        """On return, labels are nearest-centroid and each non-empty centroid
        is the mean of its members."""
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 3))
        centroids, labels, _ = lloyd_kmeans(X, 7, np.random.default_rng(1))
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(labels, np.argmin(d2, axis=1))
        for c in range(7):
            mask = labels == c
            if mask.any():
                np.testing.assert_allclose(centroids[c], X[mask].mean(axis=0), atol=1e-9)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((300, 5))
        _, _, trace = lloyd_kmeans(X, 9, np.random.default_rng(2))
        diffs = np.diff(trace)
        assert (diffs <= 1e-9).all()

    def test_recovers_planted_clusters(self):
        rng = np.random.default_rng(6)
        centers = rng.standard_normal((4, 6)) * 20.0
        X = np.concatenate([c + 0.3 * rng.standard_normal((30, 6)) for c in centers])
        truth = np.repeat(np.arange(4), 30)
        _, labels, _ = lloyd_kmeans(X, 4, np.random.default_rng(7))
        # every planted cluster maps to exactly one learned label, all distinct
        mapped = [set(labels[truth == t]) for t in range(4)]
        assert all(len(s) == 1 for s in mapped)
        assert len(set().union(*mapped)) == 4

    def test_deterministic_per_rng_state(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((100, 4))
        a = lloyd_kmeans(X, 5, np.random.default_rng(3))
        b = lloyd_kmeans(X, 5, np.random.default_rng(3))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert a[2] == b[2]

    def test_more_centroids_than_points_still_valid(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        centroids, labels, _ = lloyd_kmeans(X, 5, np.random.default_rng(4))
        assert centroids.shape == (5, 2)
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert d2[np.arange(3), labels].max() < 1e-18

    def test_stops_when_the_objective_falls_less_than_the_tolerance(self):
        """The tolerance is absolute, so points of scale 1e-8 stop after two
        iterations while the centroids still move: they differ from the
        centroids one iteration gives."""
        X = 1e-8 * np.random.default_rng(0).standard_normal((30, 2))
        centroids, _, trace = lloyd_kmeans(X, 3, np.random.default_rng(0), max_iters=50)
        assert len(trace) == 2 and trace[0] - trace[1] < LLOYD_TOL
        once, _, _ = lloyd_kmeans(X, 3, np.random.default_rng(0), max_iters=1)
        assert (centroids != once).any()

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            lloyd_kmeans(np.zeros((0, 3)), 2, np.random.default_rng(0))

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_fewer_than_one_iteration_rejected(self, max_iters):
        """With no iteration the labels would all be 0 while the seeds differ."""
        X = np.random.default_rng(10).standard_normal((200, 4))
        with pytest.raises(ValueError, match="max_iters"):
            lloyd_kmeans(X, 5, np.random.default_rng(0), max_iters=max_iters)
        with pytest.raises(ValueError, match="max_iters"):
            train_rqkmeans(X, SidStructure((5, 5), code_dim=4),
                           RqkmeansConfig(iters_per_level=max_iters))

    def test_kmeanspp_seeds_are_data_points(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 3))
        seeds = kmeanspp_init(X, 6, np.random.default_rng(5))
        for row in seeds:
            assert (np.abs(X - row).sum(axis=1) < 1e-15).any()


class TestRqkmeans:
    def test_two_level_planted_offsets_reconstruct(self):
        """Coarse centers at +-10 and fine offsets at +-1 with no noise: the
        two-level quantizer reassembles every point to machine precision."""
        coarse = np.array([[10.0, 0.0], [-10.0, 0.0]])
        fine = np.array([[0.0, 1.0], [0.0, -1.0]])
        X = np.array([c + f for c in coarse for f in fine] * 10)
        model = train_rqkmeans(X, SidStructure((2, 2), code_dim=2), RqkmeansConfig(seed=0))
        codes, final_res = residual_assign_batch(X, model.codebooks)
        assert np.abs(final_res).max() < 1e-6
        rebuilt = sum(model.codebooks.levels[j][codes[:, j]] for j in range(2))
        np.testing.assert_allclose(rebuilt, X, atol=1e-6)

    def test_objective_traces_per_level(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((120, 4))
        model = train_rqkmeans(X, SidStructure((4, 4, 4), code_dim=4), RqkmeansConfig(seed=1))
        assert len(model.objective_traces) == 3
        for trace in model.objective_traces:
            assert (np.diff(trace) <= 1e-9).all()

    def test_later_levels_shrink_residuals(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((200, 6)) * 4.0
        model = train_rqkmeans(X, SidStructure((8, 8), code_dim=6), RqkmeansConfig(seed=2))
        after_one = X - model.codebooks.levels[0][model.assign_batch(X)[:, 0]]
        _, final_res = residual_assign_batch(X, model.codebooks)
        assert np.linalg.norm(final_res) < np.linalg.norm(after_one)
        assert np.linalg.norm(after_one) < np.linalg.norm(X)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((80, 3))
        a = train_rqkmeans(X, SidStructure((4, 4), code_dim=3), RqkmeansConfig(seed=5))
        b = train_rqkmeans(X, SidStructure((4, 4), code_dim=3), RqkmeansConfig(seed=5))
        for ta, tb in zip(a.codebooks.levels, b.codebooks.levels):
            np.testing.assert_array_equal(ta, tb)


class TestRqvae:
    def config(self, **kw):
        base = dict(
            epochs=60, warmup_epochs=10, learning_rate=5e-3, batch_size=64,
            hidden_dims=(32,), seed=0,
        )
        base.update(kw)
        return RqvaeConfig(**base)

    @pytest.mark.parametrize("bad", [
        dict(epochs=-1), dict(warmup_epochs=-1), dict(batch_size=0), dict(batch_size=-2),
    ])
    def test_schedule_that_trains_a_wrong_model_rejected(self, bad):
        with pytest.raises(ValueError):
            self.config(**bad)

    def clustered(self, seed=0):
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((4, 8)) * 6.0
        return np.concatenate([c + 0.05 * rng.standard_normal((40, 8)) for c in centers])

    def test_reconstruction_improves_tenfold_on_clustered_data(self):
        X = self.clustered()
        model = train_rqvae(X, SidStructure((4, 4), code_dim=8), self.config())
        assert model.recon_trace[-1] <= model.recon_trace[0] / 10.0
        assert len(model.recon_trace) == 61  # pre-training entry + one per epoch
        assert len(model.loss_trace) == 61

    def test_zero_epochs_returns_initial_state(self):
        X = self.clustered(seed=1)
        model = train_rqvae(X, SidStructure((4, 4), code_dim=8), self.config(epochs=0))
        assert len(model.recon_trace) == 1
        assert len(model.loss_trace) == 1

    @pytest.mark.parametrize("batch_size", [7, 40, 64])
    def test_blocked_evaluation_is_the_full_data_loss(self, batch_size):
        """loss_trace[0] and recon_trace[0], computed batch_size rows at a
        time, have the bits of rqvae_loss over all 160 rows at once, on
        detached copies of the starting parameters."""
        X = self.clustered(seed=4)
        model = train_rqvae(X, SidStructure((4, 4), code_dim=8),
                            self.config(epochs=0, batch_size=batch_size))
        enc, dec = model.encoder, model.decoder
        params = [[Tensor(a).detach() for a in group]
                  for group in (enc.weights, enc.biases, dec.weights, dec.biases,
                                model.codebooks.levels)]
        codes, _ = residual_assign_batch(enc.forward(X), model.codebooks)
        total, recon = rqvae_loss(*params, X, codes, quantizer.COMMITMENT_BETA)
        assert X.shape[0] > 2 * batch_size
        assert (model.loss_trace[0], model.recon_trace[0]) == (total.item(), recon.item())

    def test_training_runs_rqvae_loss_once_per_batch_with_the_latents(self):
        """Every training batch's loss is rqvae_loss, handed the encoder's
        latents z that picked its codes; the full-data evaluation is not."""
        X = self.clustered(seed=5)
        with mock.patch.object(quantizer, "rqvae_loss", wraps=rqvae_loss) as loss:
            train_rqvae(X, SidStructure((4, 4), code_dim=8),
                        self.config(epochs=2, batch_size=64))
        assert [len(call.args[5]) for call in loss.call_args_list] == [64, 64, 32] * 2
        for call in loss.call_args_list:
            assert call.args[7] == quantizer.COMMITMENT_BETA
            z = call.kwargs["z"]
            assert isinstance(z, Tensor) and z.shape == (len(call.args[5]), 8)

    def test_same_seed_bitwise_identical(self):
        X = self.clustered(seed=2)
        cfg = self.config(epochs=5)
        a = train_rqvae(X, SidStructure((4, 4), code_dim=8), cfg)
        b = train_rqvae(X, SidStructure((4, 4), code_dim=8), cfg)
        assert a.loss_trace == b.loss_trace
        for ta, tb in zip(a.codebooks.levels, b.codebooks.levels):
            np.testing.assert_array_equal(ta, tb)
        for wa, wb in zip(a.encoder.weights, b.encoder.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_reconstruct_runs_decoder(self):
        X = self.clustered(seed=3)
        model = train_rqvae(X, SidStructure((4, 4), code_dim=8), self.config(epochs=5))
        out = model._reconstruct_batch(X[:3])
        assert out.shape == (3, 8)

    def test_non_finite_embeddings_rejected(self):
        X = np.ones((10, 4))
        X[3, 2] = np.nan
        with pytest.raises(DataError):
            train_rqvae(X, SidStructure((2, 2), code_dim=4), self.config(epochs=1))

    @staticmethod
    def _fd_and_grad(enc, dec, tables, X, codes, beta):
        """Finite-difference derivative of the total and the analytic gradient
        for every parameter of the differentiable-gather loss."""
        params = (
            [w.copy() for w in enc.weights] + [b.copy() for b in enc.biases]
            + [w.copy() for w in dec.weights] + [b.copy() for b in dec.biases]
            + [t.copy() for t in tables]
        )
        ne, nd = len(enc.weights), len(dec.weights)

        def build(values):
            enc_w = [Tensor(v) for v in values[:ne]]
            enc_b = [Tensor(v) for v in values[ne : 2 * ne]]
            dec_w = [Tensor(v) for v in values[2 * ne : 2 * ne + nd]]
            dec_b = [Tensor(v) for v in values[2 * ne + nd : 2 * (ne + nd)]]
            lv = [Tensor(v) for v in values[2 * (ne + nd) :]]
            return enc_w, enc_b, dec_w, dec_b, lv

        tensors = build([p.copy() for p in params])
        total, _ = rqvae_loss(*tensors, X, codes, beta, straight_through=False)
        total.backward()
        grads = [np.asarray(t.grad) for group in tensors for t in group]

        h = 1e-6
        fds = []
        for param in params:
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                for sign in (+1, -1):
                    param[idx] = orig + sign * h
                    rebuilt = build(params)
                    val, _ = rqvae_loss(*rebuilt, X, codes, beta, straight_through=False)
                    fd[idx] += sign * val.item()
                param[idx] = orig
                fd[idx] /= 2 * h
            fds.append(fd)
        groups = {
            "enc": slice(0, 2 * ne),
            "dec": slice(2 * ne, 2 * (ne + nd)),
            "tables": slice(2 * (ne + nd), None),
        }
        return grads, fds, groups

    def test_decoder_gradient_matches_finite_differences(self):
        """No stop-gradient sits on the decoder path, so central differences
        of the full two-level objective must agree exactly."""
        rng = np.random.default_rng(13)
        X = rng.standard_normal((5, 3))
        structure = SidStructure((2, 2), code_dim=3)
        enc, dec = init_mlp((3, 4, 3), rng), init_mlp((3, 4, 3), rng)
        tables = [rng.standard_normal((2, 3)) for _ in range(2)]
        codes, _ = residual_assign_batch(
            enc.forward(X), CodebookStack(structure, [t.copy() for t in tables])
        )
        grads, fds, groups = self._fd_and_grad(enc, dec, tables, X, codes, beta=0.25)
        for g, fd in zip(grads[groups["dec"]], fds[groups["dec"]]):
            rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
            assert rel.max() < 1e-3

    def test_codebook_gradient_matches_finite_differences(self):
        """Single level with zero commitment weight: every term on the table's
        path (codebook pull plus reconstruction through the gather) is
        differentiable, so finite differences see the whole gradient."""
        rng = np.random.default_rng(30)
        X = rng.standard_normal((6, 3))
        structure = SidStructure((3,), code_dim=3)
        enc, dec = init_mlp((3, 3), rng), init_mlp((3, 3), rng)
        tables = [rng.standard_normal((3, 3))]
        codes, _ = residual_assign_batch(
            enc.forward(X), CodebookStack(structure, [tables[0].copy()])
        )
        grads, fds, groups = self._fd_and_grad(enc, dec, tables, X, codes, beta=0.0)
        g, fd = grads[groups["tables"]][0], fds[groups["tables"]][0]
        rel = np.abs(g - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-3

    def test_encoder_gradient_respects_stop_gradient_ratio(self):
        """The encoder reaches the loss through the commitment term (live) and
        the codebook term (value only, gradient stopped).  The two terms are
        equal in value, so the finite-difference derivative is (1 + beta)
        times the live part while the analytic gradient is beta times it:
        analytic == fd * beta / (1 + beta), exactly, at every entry."""
        rng = np.random.default_rng(31)
        X = rng.standard_normal((5, 3))
        structure = SidStructure((2, 2), code_dim=3)
        enc, dec = init_mlp((3, 4, 3), rng), init_mlp((3, 4, 3), rng)
        tables = [rng.standard_normal((2, 3)) for _ in range(2)]
        codes, _ = residual_assign_batch(
            enc.forward(X), CodebookStack(structure, [t.copy() for t in tables])
        )
        beta = 0.25
        grads, fds, groups = self._fd_and_grad(enc, dec, tables, X, codes, beta=beta)
        for g, fd in zip(grads[groups["enc"]], fds[groups["enc"]]):
            want = fd * beta / (1.0 + beta)
            rel = np.abs(g - want) / np.maximum(np.abs(want), 1e-6)
            assert rel.max() < 1e-3

    def test_straight_through_passes_decoder_gradient_to_encoder(self):
        """The encoder gradient under the straight-through estimator includes
        the reconstruction path even though quantization is not
        differentiable."""
        rng = np.random.default_rng(14)
        X = rng.standard_normal((4, 3))
        structure = SidStructure((2,), code_dim=3)
        enc = init_mlp((3, 3), rng)
        dec = init_mlp((3, 3), rng)
        table = rng.standard_normal((2, 3))
        stack = CodebookStack(structure, [table.copy()])
        codes, _ = residual_assign_batch(enc.forward(X), stack)

        def grads(st_flag, beta):
            enc_w = [Tensor(w.copy()) for w in enc.weights]
            enc_b = [Tensor(b.copy()) for b in enc.biases]
            dec_w = [Tensor(w.copy()) for w in dec.weights]
            dec_b = [Tensor(b.copy()) for b in dec.biases]
            lv = [Tensor(table.copy())]
            total, _ = rqvae_loss(
                enc_w, enc_b, dec_w, dec_b, lv, X, codes, beta, straight_through=st_flag
            )
            total.backward()
            return enc_w[0].grad

        # with beta=0 the only encoder gradient is the straight-through
        # reconstruction path, so it must be non-zero
        assert np.abs(grads(True, 0.0)).max() > 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        dims=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    )
    def test_graph_forward_equals_numpy_forward_bitwise(self, seed, rows, dims):
        """Training assigns codes from the graph forward's latents and
        assign_batch from Mlp.forward's (the same forward on constants), so
        the two must be the same bits."""
        rng = np.random.default_rng(seed)
        weights = init_mlp(dims, rng).weights
        mlp = Mlp(weights, [rng.standard_normal(w.shape[1]) for w in weights])
        X = rng.standard_normal((rows, dims[0])) * 5.0
        graph = quantizer._forward_t(
            [Tensor(w) for w in mlp.weights], [Tensor(b) for b in mlp.biases], Tensor(X)
        )
        assert graph.value.tobytes() == mlp.forward(X).tobytes()

    def test_a_dim_that_is_no_integer_is_refused(self):
        """(4, 2.7, 3) once built an mlp of dims (4, 2, 3)."""
        with pytest.raises(DataError, match="^dim 2.7 at position 1 is not an integer$"):
            init_mlp((4, 2.7, 3), np.random.default_rng(0))

    def test_one_encoder_forward_per_batch(self, monkeypatch):
        """Each batch runs one encoder and one decoder graph forward;
        initialization runs none.  Mlp.forward and the full-data evaluation
        before training run on constants and build no graph, so they are not
        counted."""
        calls = []
        graph_forward = quantizer._forward_t

        def counted(*args):
            out = graph_forward(*args)
            if out._parents:
                calls.append(args)
            return out

        monkeypatch.setattr(quantizer, "_forward_t", counted)
        X = np.random.default_rng(32).standard_normal((24, 4))
        cfg = RqvaeConfig(epochs=2, warmup_epochs=1, batch_size=10, hidden_dims=(8,))
        train_rqvae(X, SidStructure((3, 2), code_dim=3), cfg)
        assert len(calls) == 2 * 2 * 3


class TestGraphLifetime:
    """With the cyclic collector off, a dropped graph must leave it nothing
    to find: refcounting alone frees every node."""

    def test_graphs_and_training_leave_no_cycles(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((24, 4))
        structure = SidStructure((3, 2), code_dim=3)
        enc, dec = init_mlp((4, 8, 3), rng), init_mlp((3, 8, 4), rng)
        tables = [rng.standard_normal((n, 3)) for n in structure.level_sizes]
        codes, _ = residual_assign_batch(enc.forward(X), CodebookStack(structure, tables))

        def loss():
            params = [[Tensor(a) for a in group]
                      for group in (enc.weights, enc.biases, dec.weights, dec.biases, tables)]
            return rqvae_loss(*params, X, codes, 0.25)

        gc.collect()
        gc.disable()
        try:
            total, recon = loss()
            total.backward()
            del total, recon
            assert gc.collect() == 0
            forward_only = loss()
            del forward_only
            assert gc.collect() == 0
            cfg = RqvaeConfig(epochs=2, warmup_epochs=1, batch_size=8, hidden_dims=(8,))
            train_rqvae(X, structure, cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMultiVq:
    def test_identical_levels_on_identical_data(self):
        rng = np.random.default_rng(15)
        centers = rng.standard_normal((4, 6)) * 8.0
        X = np.concatenate([c + 0.1 * rng.standard_normal((25, 6)) for c in centers])
        cfg = RqvaeConfig(
            epochs=15, warmup_epochs=3, learning_rate=5e-3, batch_size=50,
            hidden_dims=(16,), seed=0,
        )
        model = train_multivq(X, SidStructure((4, 4), code_dim=6), cfg)
        np.testing.assert_array_equal(model.codebooks.levels[0], model.codebooks.levels[1])
        for wa, wb in zip(model.level_encoders[0].weights, model.level_encoders[1].weights):
            np.testing.assert_array_equal(wa, wb)
        codes = model.assign_batch(X)
        np.testing.assert_array_equal(codes[:, 0], codes[:, 1])

    def test_each_distinct_level_size_trains_once(self, monkeypatch):
        """Levels of one size come out identical, so each size trains once."""
        sizes = []

        def counting(X, structure, config):
            sizes.append(structure.level_sizes)
            return train_rqvae(X, structure, config)

        monkeypatch.setattr(quantizer, "train_rqvae", counting)
        X = np.random.default_rng(17).standard_normal((30, 4))
        cfg = RqvaeConfig(epochs=2, warmup_epochs=1, batch_size=30, hidden_dims=(4,), seed=0)
        model = train_multivq(X, SidStructure((3, 4, 3), code_dim=4), cfg)
        assert sizes == [(3,), (4,)]
        assert model.level_encoders[0] is model.level_encoders[2]
        train_multivq(X, SidStructure((3, 3, 3), code_dim=4), cfg)
        assert sizes[2:] == [(3,)]

    def test_assign_uses_per_level_encoders(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((60, 4)) * 3.0
        cfg = RqvaeConfig(
            epochs=5, warmup_epochs=1, learning_rate=2e-3, batch_size=30,
            hidden_dims=(8,), seed=1,
        )
        model = train_multivq(X, SidStructure((3, 3), code_dim=4), cfg)
        codes = model.assign_batch(X[:1])
        SemanticId(tuple(codes[0].tolist())).validate(model.structure)
        assert codes.shape == (1, 2)
        for j in range(2):
            own = nearest_codewords(model.level_encoders[j].forward(X[:1]),
                                    model.codebooks.levels[j])
            assert codes[0, j] == own[0]


class TestAssignOneRow:
    @pytest.mark.parametrize("kind", ["rqkmeans", "rqvae"])
    def test_assign_matches_assign_batch_rows(self, kind):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((40, 4)) * 3.0
        model = train_kind(kind, X, SidStructure((4, 3), code_dim=4))
        batch = model.assign_batch(X)
        for i in range(X.shape[0]):
            np.testing.assert_array_equal(model.assign_batch(X[i : i + 1]), batch[i : i + 1])


class TestRandomBaseline:
    def test_deterministic_per_seed(self):
        structure = SidStructure((8, 8, 8), code_dim=4)
        ids = [f"item{i}" for i in range(200)]
        a = assign_random(ids, structure, seed=7)
        b = assign_random(ids, structure, seed=7)
        assert a.shape == (200, 3) and a.dtype == np.int64
        np.testing.assert_array_equal(a, b)
        c = assign_random(ids, structure, seed=8)
        assert not np.array_equal(a, c)

    def test_codes_stay_in_band(self):
        structure = SidStructure((3, 5, 2), code_dim=4)
        codes = assign_random([f"i{i}" for i in range(500)], structure, seed=0)
        assert codes.shape == (500, 3)
        assert (codes >= 0).all() and (codes < structure.level_sizes).all()

    def test_level_marginals_are_uniform(self):
        """Chi-square on each level's code counts; 4000 draws over 8 codes."""
        from scipy import stats

        structure = SidStructure((8, 8, 8), code_dim=4)
        codes = assign_random([f"i{i}" for i in range(4000)], structure, seed=3)
        for j in range(3):
            counts = np.bincount(codes[:, j], minlength=8)
            _, p = stats.chisquare(counts)
            assert p > 1e-3

    def test_binary_level_near_half(self):
        structure = SidStructure((2,), code_dim=4)
        codes = assign_random([f"i{i}" for i in range(4000)], structure, seed=4)
        ones = int(codes[:, 0].sum())
        # 3.3 sigma for Binomial(4000, 0.5)
        assert abs(ones - 2000) < 3.3 * np.sqrt(1000)

    def test_random_model_cannot_assign_by_content(self):
        model = random_model(SidStructure((4, 4), code_dim=4), seed=0)
        with pytest.raises(DataError):
            model.assign_batch(np.ones((1, 4)))


class TestRankLastLevel:
    @pytest.mark.parametrize("kind", ["rqkmeans", "rqvae", "multivq"])
    def test_order_matches_brute_force(self, kind):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((30, 5))
        model = train_kind(kind, X, SidStructure((3, 2, 6), code_dim=5))
        prefixes, orders = model.rank_last_level_batch(X)
        codes = model.assign_batch(X)
        for i in range(X.shape[0]):
            np.testing.assert_array_equal(prefixes[i], codes[i, :-1])
            assert orders[i][0] == codes[i, -1]
            # the vector the last level quantizes, rebuilt for this row alone
            if kind == "multivq":
                residual = model.level_encoders[-1].forward(X[i])
            else:
                residual = model.encoder.forward(X[i]) if kind == "rqvae" else X[i]
                for j in range(2):
                    residual = residual - model.codebooks.levels[j][codes[i, j]]
            dists = np.linalg.norm(model.codebooks.levels[-1] - residual, axis=1)
            assert sorted(dists[orders[i]]) == pytest.approx(list(dists[orders[i]]))

    def test_equal_distances_rank_by_code(self):
        structure = SidStructure((2, 3), code_dim=2)
        level2 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # rows 0 and 2 tie
        stack = CodebookStack(structure, [np.zeros((2, 2)), level2])
        model = QuantizerModel(kind="rqkmeans", codebooks=stack, seed=0)
        _, orders = model.rank_last_level_batch(np.array([[1.0, 0.0]]))
        assert list(orders[0]) == [0, 2, 1]


class TestFidelity:
    def test_known_values(self):
        H = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(fidelity_percent(H, H), [100.0])
        np.testing.assert_allclose(fidelity_percent(H, np.zeros((1, 2))), [0.0])
        np.testing.assert_allclose(fidelity_percent(H, H / 2.0), [50.0])

    def test_clamped_at_zero_for_bad_reconstruction(self):
        H = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(fidelity_percent(H, -H), [0.0])

    def test_zero_norm_row_rejected(self):
        with pytest.raises(DataError, match="row 1"):
            fidelity_percent(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)))

    def test_feature_fidelity_requires_decoder(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((40, 3))
        model = train_rqkmeans(X, SidStructure((2, 2), code_dim=3), RqkmeansConfig(seed=0))
        with pytest.raises(DataError):
            feature_fidelity(model, X)

    def test_feature_fidelity_increases_with_training(self):
        rng = np.random.default_rng(19)
        centers = rng.standard_normal((4, 8)) * 6.0
        X = np.concatenate([c + 0.05 * rng.standard_normal((30, 8)) for c in centers])
        structure = SidStructure((4, 4), code_dim=8)
        cfg = dict(warmup_epochs=5, learning_rate=5e-3, batch_size=60,
                   hidden_dims=(32,), seed=0)
        early = train_rqvae(X, structure, RqvaeConfig(epochs=0, **cfg))
        late = train_rqvae(X, structure, RqvaeConfig(epochs=40, **cfg))
        assert feature_fidelity(late, X) > feature_fidelity(early, X)


class TestModelValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            QuantizerModel(kind="vqvae", codebooks=small_stack(), seed=0)

    def test_rqvae_requires_nets(self):
        with pytest.raises(ValueError):
            QuantizerModel(kind="rqvae", codebooks=small_stack(), seed=0)

    def test_rqkmeans_rejects_nets(self):
        rng = np.random.default_rng(20)
        mlp = init_mlp((5, 5), rng)
        with pytest.raises(ValueError):
            QuantizerModel(kind="rqkmeans", codebooks=small_stack(), seed=0, encoder=mlp)

    def test_codebook_stack_validation(self):
        structure = SidStructure((3, 3), code_dim=2)
        with pytest.raises(ValueError):
            CodebookStack(structure, [np.zeros((3, 2))])  # wrong level count
        with pytest.raises(ValueError):
            CodebookStack(structure, [np.zeros((3, 2)), np.zeros((4, 2))])  # wrong rows
        with pytest.raises(ValueError):
            CodebookStack(structure, [np.zeros((3, 2)), np.zeros((3, 3))])  # mixed dims


class TestSerialization:
    def round_trip(self, model, tmp_path, X):
        path = tmp_path / "model.tsv"
        save_quantizer(model, path)
        loaded = load_quantizer(path)
        assert loaded.kind == model.kind
        assert loaded.seed == model.seed
        assert loaded.structure == model.structure
        for ta, tb in zip(loaded.codebooks.levels, model.codebooks.levels):
            np.testing.assert_array_equal(ta, tb)
        if model.kind != "random":
            np.testing.assert_array_equal(loaded.assign_batch(X), model.assign_batch(X))
        return loaded

    def test_rqvae_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((50, 6))
        cfg = RqvaeConfig(epochs=3, warmup_epochs=1, learning_rate=1e-3,
                          batch_size=25, hidden_dims=(8,), seed=0)
        model = train_rqvae(X, SidStructure((3, 3), code_dim=6), cfg)
        loaded = self.round_trip(model, tmp_path, X)
        assert feature_fidelity(loaded, X) == feature_fidelity(model, X)

    def test_rqkmeans_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((40, 4))
        model = train_rqkmeans(X, SidStructure((4, 4), code_dim=4), RqkmeansConfig(seed=1))
        self.round_trip(model, tmp_path, X)

    def test_multivq_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((40, 4))
        cfg = RqvaeConfig(epochs=3, warmup_epochs=1, learning_rate=1e-3,
                          batch_size=20, hidden_dims=(8,), seed=2)
        model = train_multivq(X, SidStructure((3, 3), code_dim=4), cfg)
        self.round_trip(model, tmp_path, X)

    def test_random_round_trip(self, tmp_path):
        model = random_model(SidStructure((5, 5), code_dim=3), seed=9)
        self.round_trip(model, tmp_path, None)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#kind\trqvae\n#seed\tnotanint\n")
        with pytest.raises(DataError):
            load_quantizer(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_quantizer(tmp_path / "absent.tsv")

    def test_rqkmeans_table_keeps_embedding_width(self, tmp_path):
        # rqkmeans codebooks live in the embedding space, whatever code_dim says
        X = np.random.default_rng(24).standard_normal((30, 3))
        model = train_rqkmeans(X, SidStructure((3, 3), code_dim=8), RqkmeansConfig(seed=0))
        self.round_trip(model, tmp_path, X)


def _model_lines(kind, tmp_path):
    """A small saved model of the given kind, as a list of lines."""
    X = np.random.default_rng(25).standard_normal((24, 3))
    structure = SidStructure((3, 3, 3), code_dim=2)
    cfg = RqvaeConfig(epochs=2, warmup_epochs=1, learning_rate=1e-3,
                      batch_size=12, hidden_dims=(4,), seed=0)
    train = {"rqvae": train_rqvae, "multivq": train_multivq}[kind]
    save_quantizer(train(X, structure, cfg), tmp_path / "model.tsv")
    return (tmp_path / "model.tsv").read_text().splitlines(keepends=True)


class TestMalformedModel:
    """Each corruption raises DataError naming the file, and the line where
    one row is at fault."""

    def load_lines(self, lines, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("".join(lines))
        with pytest.raises(DataError) as info:
            load_quantizer(path)
        return str(info.value), str(path)

    def test_multivq_missing_level_encoder(self, tmp_path):
        lines = _model_lines("multivq", tmp_path)
        start = lines.index("#mlp\tencoder2\n")
        message, path = self.load_lines(lines[:start], tmp_path)
        assert message.startswith(f"{path}: ") and "#mlp encoder2" in message

    def test_garbled_float_names_its_line(self, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        row = lines.index("#codebook\t1\n") + 2
        lines[row] = lines[row].replace("\t", "x\t", 1)
        message, path = self.load_lines(lines, tmp_path)
        assert message.startswith(f"{path}:{row + 1}: ")

    @pytest.mark.parametrize("section", ["#codebook\t0\n", "#layer\t4\t2\n"])
    def test_extra_column_names_its_line(self, section, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        row = lines.index(section) + 1
        lines[row] = lines[row].replace("\n", "\t1.0\n")
        message, path = self.load_lines(lines, tmp_path)
        assert message.startswith(f"{path}:{row + 1}: ")

    def test_short_bias_names_its_line(self, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        bias = lines.index("#layer\t3\t4\n") + 4
        lines[bias] = lines[bias].rsplit("\t", 1)[0] + "\n"
        message, path = self.load_lines(lines, tmp_path)
        assert message.startswith(f"{path}:{bias + 1}: ")

    def test_extra_codebook_row_names_its_line(self, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        extra = lines.index("#codebook\t1\n")
        lines.insert(extra, lines[extra - 1])
        message, path = self.load_lines(lines, tmp_path)
        assert message.startswith(f"{path}:{extra + 1}: ") and "#codebook 0" in message

    def test_short_codebook_names_the_next_section(self, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        nxt = lines.index("#codebook\t1\n")
        del lines[nxt - 1]
        message, path = self.load_lines(lines, tmp_path)
        assert message.startswith(f"{path}:{nxt}: ") and "#codebook 0" in message

    def test_truncated_file_is_data_error(self, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        message, path = self.load_lines(lines[:-1], tmp_path)
        assert message.startswith(f"{path}: ")

    def test_nan_codebook_is_data_error(self, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        row = lines.index("#codebook\t2\n") + 1
        lines[row] = "nan" + lines[row][lines[row].index("\t"):]
        message, path = self.load_lines(lines, tmp_path)
        assert message.startswith(f"{path}: ") and "non-finite" in message

    def test_decoder_that_misses_the_input_width_is_data_error(self, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        last_layer = len(lines) - lines[::-1].index("#layer\t4\t3\n") - 1
        message, path = self.load_lines(lines[:last_layer], tmp_path)
        assert message.startswith(f"{path}: ") and "decoder" in message

    def test_empty_mlp_is_data_error(self, tmp_path):
        lines = _model_lines("rqvae", tmp_path)
        start = lines.index("#mlp\tdecoder\n")
        self.load_lines(lines[: start + 1], tmp_path)

    @pytest.mark.parametrize("row, bad", [
        ("#seed\t0\n", "#seed\t+0\n"),
        ("#levels\t3\t3\t3\n", "#levels\t３\t3\t 3\n"),
        ("#code_dim\t2\n", "#code_dim\t2_0\n"),
        ("#layer\t3\t4\n", "#layer\t3\t٤\n"),
    ])
    def test_header_integer_outside_ascii_digits_names_its_line(self, row, bad, tmp_path):
        """int() reads each of these; the one integer grammar refuses them."""
        lines = _model_lines("rqvae", tmp_path)
        at = lines.index(row)
        lines[at] = bad
        message, path = self.load_lines(lines, tmp_path)
        assert message.startswith(f"{path}:{at + 1}: ") and "ASCII digits" in message

    def test_missing_header_row_is_named(self, tmp_path):
        lines = [ln for ln in _model_lines("rqvae", tmp_path) if not ln.startswith("#kind")]
        message, _ = self.load_lines(lines, tmp_path)
        assert "missing #kind" in message

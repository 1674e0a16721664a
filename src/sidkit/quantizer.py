"""Codebook learning and semantic-id assignment.

Four ways to build the per-level codebooks: a jointly trained
encoder/quantizer/decoder (rqvae), residual k-means with no neural nets
(rqkmeans), one independent encoder-plus-codebook per level (multivq), and a
content-blind uniform baseline (random).  Assignment is always greedy
nearest-neighbor per level; rqvae and rqkmeans quantize residuals, multivq
quantizes each level's own encoding of the original embedding.

Two kernels measure distance.  nearest_codewords makes every decision (the
nearest codeword, a codeword ranking) with one matrix product per block of
rows and an exact rounding guard; sq_distances computes distance values in
the difference form, for k-means++ weights and the rows the guard sends
back.  Either way a tie goes to the lowest codeword index, and the outcome
is bit for bit the difference form's argmin or stable argsort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamW, Tensor, cosine_warmup_lr, no_grad
from .catalog import Header, SidStructure, read_rows
from .errors import DataError, NumericError


# ---------------------------------------------------------------------------
# MLP


@dataclass(eq=False)
class Mlp:
    """Fully connected net with rectifier activations between hidden layers."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("an mlp needs one or more layers, each with weights and a bias")
        for i in range(len(self.weights) - 1):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise ValueError(f"layer {i} output dim does not feed layer {i + 1}")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias length must equal layer output dim")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("mlp parameters must be finite")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The training graph's forward pass, run under no_grad: the same bits."""
        h = np.asarray(x, dtype=np.float64)
        if h.shape[-1] != self.weights[0].shape[0]:
            raise DataError(
                f"input width {h.shape[-1]} does not match the net's input dim "
                f"{self.weights[0].shape[0]}"
            )
        with no_grad():
            return _forward_t(list(map(Tensor, self.weights)), list(map(Tensor, self.biases)),
                              Tensor(h)).value


def init_mlp(dims, rng: np.random.Generator) -> Mlp:
    """He-scaled gaussian weights, zero biases."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("an mlp needs at least input and output dims")
    weights = [
        rng.standard_normal((dims[i], dims[i + 1])) * np.sqrt(2.0 / dims[i])
        for i in range(len(dims) - 1)
    ]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return Mlp(weights, biases)


def _forward_t(weights: list[Tensor], biases: list[Tensor], x: Tensor) -> Tensor:
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = h.relu()
    return h


# ---------------------------------------------------------------------------
# Codebooks and residual assignment


@dataclass(eq=False)
class CodebookStack:
    """One table per level; level j holds structure.level_sizes[j] rows."""

    structure: SidStructure
    levels: list[np.ndarray]

    def __post_init__(self):
        if len(self.levels) != self.structure.num_levels:
            raise ValueError("one codebook table required per level")
        dims = set()
        for j, (table, n_j) in enumerate(zip(self.levels, self.structure.level_sizes)):
            table = np.asarray(table, dtype=np.float64)
            if table.ndim != 2 or table.shape[0] != n_j:
                raise ValueError(f"level {j} table must have {n_j} rows")
            if not np.isfinite(table).all():
                raise ValueError(f"level {j} table has non-finite entries")
            self.levels[j] = table
            dims.add(table.shape[1])
        if len(dims) != 1:
            raise ValueError("all levels must share one vector dim")

    @property
    def dim(self) -> int:
        return self.levels[0].shape[1]


def _check_widths(A: np.ndarray, B: np.ndarray) -> None:
    if B.shape[0] == 0:
        raise DataError("empty codebook level")
    if A.shape[1] != B.shape[1]:
        raise DataError(f"input width {A.shape[1]} does not match codeword width {B.shape[1]}")


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(N, K) squared Euclidean distances from each row of A to each row of B.

    The value kernel, in the difference form sum_k (a_k - b_k)^2 with an
    (N, K, d) temporary.  It serves where the distances themselves matter:
    k-means++ sampling weights (a one-row B), and the rows whose decision
    nearest_codewords cannot certify, which it then argmins or stably sorts
    so that ties go to the lowest index.  Every other decision comes from
    nearest_codewords, with the same outcome as an argmin over these values.
    """
    _check_widths(A, B)
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


# Rows per block are _BLOCK_FLOATS // K for the (rows, K) distance block and
# _BLOCK_FLOATS // (K * d) for a fallback's (rows, K, d) temporary, so both
# stay near 2 MB whatever N is.
_BLOCK_FLOATS = 1 << 18

# Guard bound, per row i: e_i = 8 (d + 4) u (||a_i||^2 + max_j ||b_j||^2),
# u = 2^-52 (machine epsilon).  Write s = ||a||^2, t = ||b||^2,
# D = ||a - b||^2 <= 2 (s + t) and g_n = n u / (1 - n u).
#   GEMM form.  A row compares ~D = fl(fl(t) + fl(a.(-2b))) across codes:
#   it estimates D - s, and s is the same for every code of the row.  A
#   length-d dot product errs by at most g_d sum_k |x_k y_k| in any
#   summation order, with or without FMA: g_d t for fl(t), and
#   2 g_d |a||b| <= g_d (s + t) for the product (doubling is exact).  The
#   final addition rounds a value of size at most 2 (1 + g_d)(s + t).  So
#   |~D - (D - s)| <= ~(2d + 2) u (s + t).
#   Difference form ^D = fl(sum_k fl(fl(a_k - b_k)^2)).  Each term carries
#   two roundings and a sum of d non-negative terms in any order adds
#   g_(d-1), so |^D - D| <= g_(d+2) D <= ~(2d + 4) u (s + t).
# Together |(~D + s) - ^D| <= ~(4d + 6) u (s + t), and e_i leaves a factor
# near 2 for the O(d u) second-order terms.  Gradual underflow adds at most
# half a smallest subnormal per rounding, fewer than 4d + 8 in all, which
# the subnormal term of the bound covers.  Rounding is monotone, so a
# computed gap above 2 e_i is a real one: if a row's best ~D leads every
# other code by more than 2 e_i (ranked: every adjacent gap exceeds it), ^D
# orders those codes the same way, strictly, and a tie is never certified.
_GUARD_SLACK = 8.0


def _gemm_block(a: np.ndarray, B: np.ndarray, ranked: bool) -> tuple[np.ndarray, np.ndarray]:
    """GEMM-form decisions (~D above) for one block of rows, and which rows
    the guard certifies: a margin (ranked: every adjacent gap) above 2 e_i."""
    a_norms = np.einsum("ij,ij->i", a, a)
    b_norms = np.einsum("ij,ij->i", B, B)
    d2 = a @ (-2.0 * B).T
    d2 += b_norms
    f = np.finfo(np.float64)
    scale = _GUARD_SLACK * (a.shape[1] + 4)
    bound = 2.0 * scale * (f.eps * (a_norms + b_norms.max()) + f.smallest_subnormal)
    # certified means gap > bound, so a nan gap is never certified
    if ranked:
        order = np.argsort(d2, axis=1)
        gaps = np.diff(np.take_along_axis(d2, order, axis=1), axis=1)
        return order, (gaps > bound[:, None]).all(axis=1)
    order = np.argmin(d2, axis=1)
    rows = np.arange(a.shape[0])
    best = d2[rows, order]
    d2[rows, order] = np.inf
    return order, d2.min(axis=1) - best > bound


def nearest_codewords(A: np.ndarray, B: np.ndarray, ranked: bool = False) -> np.ndarray:
    """Index of the nearest row of B for each row of A, shape (N,); with
    ranked=True, every row index of B by ascending distance, shape (N, K).

    The decision kernel: every nearest-codeword choice and codeword ranking
    in sidkit comes from here.  It compares ||a||^2 - 2 a.b + ||b||^2 across
    codes, less the row's constant ||a||^2, with one matrix product per
    block of rows.  A row whose best-to-second margin (ranked: any adjacent
    gap in its sorted row) is not above the guard bound 2 e_i, or is NaN, is
    recomputed from sq_distances.  Results therefore equal
    np.argmin(sq_distances(A, B), axis=1) and
    np.argsort(sq_distances(A, B), axis=1, kind="stable") bit for bit: ties
    go to the lowest index.
    """
    _check_widths(A, B)
    n, k, d = A.shape[0], B.shape[0], A.shape[1]
    out = np.empty((n, k) if ranked else n, dtype=np.int64)
    step, fb_step = max(1, _BLOCK_FLOATS // k), max(1, _BLOCK_FLOATS // max(k * d, 1))
    for start in range(0, n, step):
        a = A[start : start + step]
        # overflow leaves inf or nan in the GEMM form, never a certified row
        with np.errstate(over="ignore", invalid="ignore"):
            order, sure = _gemm_block(a, B, ranked)
        unsure = np.flatnonzero(~sure)
        for fb in range(0, unsure.size, fb_step):
            idx = unsure[fb : fb + fb_step]
            exact = sq_distances(a[idx], B)
            if ranked:
                order[idx] = np.argsort(exact, axis=1, kind="stable")
            else:
                order[idx] = np.argmin(exact, axis=1)
        out[start : start + a.shape[0]] = order
    return out


def _residual_codes(Z: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """Greedy nearest-codeword codes over the running residual, one level per
    table: (N, len(tables)) int codes and the (N, d) residual left over."""
    codes = np.zeros((Z.shape[0], len(tables)), dtype=np.int64)
    for j, table in enumerate(tables):
        codes[:, j] = nearest_codewords(Z, table)
        Z = Z - table[codes[:, j]]
    return codes, Z


def residual_assign_batch(Z: np.ndarray, codebooks: CodebookStack) -> tuple[np.ndarray, np.ndarray]:
    """Greedy per-level quantization of each row: (N, m) int codes and the
    (N, d) final residuals, which plus the chosen codewords give back Z."""
    return _residual_codes(np.asarray(Z, dtype=np.float64), codebooks.levels)


# ---------------------------------------------------------------------------
# K-means (used by rqkmeans and for codebook init)


def kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared-distance sampling."""
    n = X.shape[0]
    if n == 0:
        raise DataError("cannot seed centroids from zero points")
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    d2 = sq_distances(X, centroids[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass sits on existing centroids; reuse points round-robin
            centroids[i] = X[i % n]
            continue
        centroids[i] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, sq_distances(X, centroids[i : i + 1])[:, 0])
    return centroids


def lloyd_kmeans(
    X: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 100,
    tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's iterations from a k-means++ seed.

    Returns (centroids, labels, per-iteration objective).  The objective (sum
    of squared distances to the assigned centroid) never increases: an empty
    cluster captures the point currently farthest from its centroid, which
    cannot raise the total.  A max_iters below 1 is a ValueError: the
    labels come from the iterations.
    """
    if max_iters < 1:
        raise ValueError(f"k-means needs max_iters >= 1, got {max_iters}")
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise DataError("k-means needs at least one point")
    centroids = kmeanspp_init(X, k, rng)
    objective_trace: list[float] = []
    for _ in range(max_iters):
        labels = nearest_codewords(X, centroids)
        # the same per-row sums the difference form gives at (i, labels[i])
        costs = ((X - centroids[labels]) ** 2).sum(axis=1)
        objective_trace.append(float(costs.sum()))
        new_centroids = centroids.copy()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centroids[c] = X[mask].mean(axis=0)
            else:
                # empty cluster captures the worst-served point; objective
                # cannot increase and repeated captures pick distinct points
                farthest = int(np.argmax(costs))
                new_centroids[c] = X[farthest]
                labels[farthest] = c
                costs[farthest] = 0.0
        if np.allclose(new_centroids, centroids, rtol=0.0, atol=0.0):
            break
        centroids = new_centroids
        if len(objective_trace) >= 2 and objective_trace[-2] - objective_trace[-1] < tol:
            break
    return centroids, labels, objective_trace


# ---------------------------------------------------------------------------
# Model container


@dataclass(eq=False)
class QuantizerModel:
    """A trained quantizer: codebooks plus whatever nets the kind requires."""

    kind: str
    codebooks: CodebookStack
    seed: int
    encoder: Mlp | None = None
    decoder: Mlp | None = None
    level_encoders: list[Mlp] | None = None
    recon_trace: list[float] = field(default_factory=list)
    loss_trace: list[float] = field(default_factory=list)
    objective_traces: list[list[float]] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("rqvae", "rqkmeans", "multivq", "random"):
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        if self.kind == "rqvae" and (self.encoder is None or self.decoder is None):
            raise ValueError("rqvae model requires encoder and decoder")
        if self.kind == "rqvae" and self.decoder.dims[-1] != self.encoder.dims[0]:
            raise ValueError("rqvae decoder must map back to the encoder's input width")
        if self.kind == "multivq":
            if not self.level_encoders or len(self.level_encoders) != self.structure.num_levels:
                raise ValueError("multivq model requires one encoder per level")
        if self.kind in ("rqkmeans", "random") and (self.encoder or self.decoder):
            raise ValueError(f"{self.kind} model carries no nets")

    @property
    def structure(self) -> SidStructure:
        return self.codebooks.structure

    def _prefix_walk(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, m-1) prefix codes and the rows the last level quantizes: the
        running residual for rqvae and rqkmeans, the last level encoder's
        output for multivq."""
        X = np.asarray(X, dtype=np.float64)
        if self.kind == "random":
            raise DataError("random quantizer assigns by item id, not content; use assign_random")
        levels = self.codebooks.levels
        if self.kind != "multivq":
            return _residual_codes(self.encoder.forward(X) if self.kind == "rqvae" else X,
                                   levels[:-1])
        prefixes = np.zeros((X.shape[0], len(levels) - 1), dtype=np.int64)
        for j, table in enumerate(levels[:-1]):
            prefixes[:, j] = nearest_codewords(self.level_encoders[j].forward(X), table)
        return prefixes, self.level_encoders[-1].forward(X)

    def assign_batch(self, X: np.ndarray) -> np.ndarray:
        """Codes for a matrix of embeddings, shape (N, m)."""
        prefixes, Z = self._prefix_walk(X)
        return np.column_stack((prefixes, nearest_codewords(Z, self.codebooks.levels[-1])))

    def rank_last_level_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, m-1) prefix codes plus (N, n_m) last-level codes ordered by
        residual distance.

        The collision-repair policies walk this ranking; ties in distance
        resolve to the lower code so the order is total and reproducible.
        """
        prefixes, Z = self._prefix_walk(X)
        return prefixes, nearest_codewords(Z, self.codebooks.levels[-1], ranked=True)

    def _reconstruct_batch(self, X: np.ndarray) -> np.ndarray:
        """Encode, quantize the latents level by level, decode (rqvae only)."""
        if self.kind != "rqvae":
            raise DataError(f"{self.kind} quantizer has no decoder; only rqvae models have one")
        Z = self.encoder.forward(X)
        _, final_res = residual_assign_batch(Z, self.codebooks)
        return self.decoder.forward(Z - final_res)


# ---------------------------------------------------------------------------
# RQ-VAE training


@dataclass
class RqvaeConfig:
    """Training schedule; the production-scale defaults are 150 epochs, warmup
    40, lr 2e-4, batch 2048, hidden dims (256, 256).  Tests scale these down."""

    epochs: int = 150
    warmup_epochs: int = 40
    learning_rate: float = 2e-4
    batch_size: int = 2048
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    commitment_beta: float = 0.25
    hidden_dims: tuple[int, ...] = (256, 256)
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.warmup_epochs) < 0:
            raise ValueError(f"epochs and warmup_epochs must be non-negative, got "
                             f"{self.epochs} and {self.warmup_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")


def _stack_embeddings(embeddings) -> np.ndarray:
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("need at least one embedding with consistent dims")
    if not np.isfinite(X).all():
        raise DataError("embeddings must be finite")
    return X


def _row_norms_t(diff: Tensor) -> Tensor:
    # sqrt is smoothed so a perfect reconstruction keeps a finite gradient
    return ((diff * diff).sum(axis=1) + 1e-12) ** 0.5


def rqvae_loss(
    enc_weights: list[Tensor],
    enc_biases: list[Tensor],
    dec_weights: list[Tensor],
    dec_biases: list[Tensor],
    level_tensors: list[Tensor],
    X: np.ndarray,
    codes: np.ndarray,
    commitment_beta: float,
    straight_through: bool = True,
    z: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Total rqvae objective for a batch under FROZEN code assignments.

    Returns (total, reconstruction) where reconstruction is the mean Euclidean
    norm of decoder-output minus input.  The quantization total adds the
    codebook term ||sg[z] - r||^2 and beta times the commitment term
    ||z - sg[r]||^2.  With straight_through=True the decoder consumes the
    quantized sum while gradients pass to the encoder unchanged; with False
    the decoder input is the differentiable gather of chosen codewords, which
    is the configuration a finite-difference check can verify.  z is the
    encoder's graph output for X when the caller already ran it, typically
    to assign the codes from its latents; otherwise the encoder runs here.
    """
    x_t = Tensor(X)
    if z is None:
        z = _forward_t(enc_weights, enc_biases, x_t)
    quantized = None
    codebook_term = None
    commitment_term = None
    running = z
    for j, table in enumerate(level_tensors):
        r = table.gather_rows(codes[:, j])
        cb = ((running.detach() - r) * (running.detach() - r)).sum(axis=1).mean()
        cm = ((running - r.detach()) * (running - r.detach())).sum(axis=1).mean()
        codebook_term = cb if codebook_term is None else codebook_term + cb
        commitment_term = cm if commitment_term is None else commitment_term + cm
        quantized = r if quantized is None else quantized + r
        running = running - r.detach()
    if straight_through:
        dec_in = z + (quantized - z).detach()
    else:
        dec_in = quantized
    recon = _forward_t(dec_weights, dec_biases, dec_in)
    recon_loss = _row_norms_t(recon - x_t).mean()
    total = recon_loss + codebook_term + commitment_term * commitment_beta
    return total, recon_loss


def _init_codebooks_from_latents(
    Z: np.ndarray, structure: SidStructure, rng: np.random.Generator
) -> CodebookStack:
    """k-means++ seeds on the running residuals of the first batch."""
    levels = []
    residuals = Z
    for n_j in structure.level_sizes:
        table = kmeanspp_init(residuals, n_j, rng)
        levels.append(table)
        residuals = residuals - table[nearest_codewords(residuals, table)]
    return CodebookStack(structure, levels)


def train_rqvae(embeddings, structure: SidStructure, config: RqvaeConfig) -> QuantizerModel:
    """Jointly train encoder, decoder, and codebooks on the embeddings.

    Deterministic per config.seed.  recon_trace[0] / loss_trace[0] hold the
    pre-training full-data evaluation; one entry per epoch follows.  Dead
    codewords (unused across a full epoch) are re-seeded from that epoch's
    last batch of residuals.
    """
    X = _stack_embeddings(embeddings)
    d_in = X.shape[1]
    rng = np.random.default_rng(config.seed)

    enc = init_mlp((d_in, *config.hidden_dims, structure.code_dim), rng)
    dec = init_mlp((structure.code_dim, *tuple(reversed(config.hidden_dims)), d_in), rng)
    enc_w = [Tensor(w) for w in enc.weights]
    enc_b = [Tensor(b) for b in enc.biases]
    dec_w = [Tensor(w) for w in dec.weights]
    dec_b = [Tensor(b) for b in dec.biases]

    batch_size = min(config.batch_size, X.shape[0])
    codebooks = _init_codebooks_from_latents(enc.forward(X[:batch_size]), structure, rng)
    level_tensors = [Tensor(t) for t in codebooks.levels]

    params = enc_w + enc_b + dec_w + dec_b + level_tensors
    optimizer = AdamW(params, lr=config.learning_rate, betas=config.betas, eps=config.eps)

    def batch_loss(batch: np.ndarray) -> tuple[Tensor, Tensor, np.ndarray, np.ndarray]:
        # one encoder forward: its latents pick the codes, then feed the loss;
        # the stack views the live tables, and assignment only reads them
        z = _forward_t(enc_w, enc_b, Tensor(batch))
        stack = CodebookStack(structure, [t.value for t in level_tensors])
        codes, _ = residual_assign_batch(z.value, stack)
        total, recon = rqvae_loss(
            enc_w, enc_b, dec_w, dec_b, level_tensors, batch, codes, config.commitment_beta, z=z
        )
        return total, recon, z.value, codes

    def evaluate_full() -> tuple[float, float]:
        total, recon, _, _ = batch_loss(X)
        return total.item(), recon.item()

    total0, recon0 = evaluate_full()
    loss_trace, recon_trace = [total0], [recon0]

    for epoch in range(config.epochs):
        optimizer.lr = cosine_warmup_lr(
            epoch, config.learning_rate, config.warmup_epochs, config.epochs
        )
        order = rng.permutation(X.shape[0])
        epoch_total, epoch_recon, seen = 0.0, 0.0, 0
        used = [np.zeros(n, dtype=bool) for n in structure.level_sizes]
        last_z, last_codes = None, None
        for start in range(0, X.shape[0], batch_size):
            idx = order[start : start + batch_size]
            total, recon, z_b, codes = batch_loss(X[idx])
            for j in range(structure.num_levels):
                used[j][codes[:, j]] = True
            last_z, last_codes = z_b, codes
            if not np.isfinite(total.value):
                raise NumericError(f"rqvae loss diverged at epoch {epoch}")
            optimizer.zero_grad()
            total.backward()
            optimizer.step()
            epoch_total += total.item() * idx.size
            epoch_recon += recon.item() * idx.size
            seen += idx.size
        loss_trace.append(epoch_total / seen)
        recon_trace.append(epoch_recon / seen)
        # revive codewords nothing selected this epoch, seeded from the last
        # batch's residuals at the matching level
        if last_z is not None:
            for j, table in enumerate(level_tensors):
                dead = np.nonzero(~used[j])[0]
                if not dead.size:
                    continue
                res_j = last_z.copy()
                for k in range(j):
                    res_j -= level_tensors[k].value[last_codes[:, k]]
                picks = rng.integers(res_j.shape[0], size=dead.size)
                table.value[dead] = res_j[picks]

    final_enc = Mlp([t.value.copy() for t in enc_w], [t.value.copy() for t in enc_b])
    final_dec = Mlp([t.value.copy() for t in dec_w], [t.value.copy() for t in dec_b])
    final_books = CodebookStack(structure, [t.value.copy() for t in level_tensors])
    return QuantizerModel(
        kind="rqvae",
        codebooks=final_books,
        seed=config.seed,
        encoder=final_enc,
        decoder=final_dec,
        recon_trace=recon_trace,
        loss_trace=loss_trace,
    )


# ---------------------------------------------------------------------------
# RQ-Kmeans


@dataclass
class RqkmeansConfig:
    iters_per_level: int = 100
    seed: int = 0


def train_rqkmeans(embeddings, structure: SidStructure, config: RqkmeansConfig) -> QuantizerModel:
    """Level-by-level k-means over running residuals; no neural nets.

    Each level runs Lloyd's iterations to convergence (or the iteration cap)
    on the residuals the previous levels left behind.
    """
    X = _stack_embeddings(embeddings)
    rng = np.random.default_rng(config.seed)
    residuals = X.copy()
    levels, traces = [], []
    for n_j in structure.level_sizes:
        centroids, labels, trace = lloyd_kmeans(residuals, n_j, rng, config.iters_per_level)
        levels.append(centroids)
        traces.append(trace)
        residuals = residuals - centroids[labels]
    return QuantizerModel(
        kind="rqkmeans",
        codebooks=CodebookStack(structure, levels),
        seed=config.seed,
        objective_traces=traces,
    )


# ---------------------------------------------------------------------------
# Multiple-VQ


def train_multivq(embeddings, structure: SidStructure, config: RqvaeConfig) -> QuantizerModel:
    """One independent encoder + codebook per level, no residual chaining.

    Every level trains a single-level vector quantizer against the ORIGINAL
    embeddings with the same seed and schedule, so on identical data the
    levels come out identical.  The per-level decoders only exist during
    training; assignment needs just the encoders and codebooks.
    """
    X = _stack_embeddings(embeddings)
    encoders, tables = [], []
    recon_traces = []
    for n_j in structure.level_sizes:
        level_structure = SidStructure((n_j,), code_dim=structure.code_dim)
        sub = train_rqvae(X, level_structure, config)
        encoders.append(sub.encoder)
        tables.append(sub.codebooks.levels[0])
        recon_traces.append(sub.recon_trace)
    return QuantizerModel(
        kind="multivq",
        codebooks=CodebookStack(structure, tables),
        seed=config.seed,
        level_encoders=encoders,
        objective_traces=recon_traces,
    )


# ---------------------------------------------------------------------------
# Random baseline


def assign_random(item_ids, structure: SidStructure, seed: int) -> np.ndarray:
    """Uniform independent codes per level per item, as an (N, m) matrix in
    item order; deterministic per seed."""
    rng = np.random.default_rng(seed)
    n = len(item_ids)
    return np.stack([rng.integers(n_j, size=n) for n_j in structure.level_sizes], axis=1)


def random_model(structure: SidStructure, seed: int) -> QuantizerModel:
    """Container for the random baseline (zero codebooks, no nets)."""
    levels = [np.zeros((n_j, structure.code_dim)) for n_j in structure.level_sizes]
    return QuantizerModel(
        kind="random", codebooks=CodebookStack(structure, levels), seed=seed
    )


# ---------------------------------------------------------------------------
# Feature fidelity


def fidelity_percent(original: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
    """Per-row max(0, 1 - ||H - H_hat|| / ||H||) * 100."""
    original = np.atleast_2d(np.asarray(original, dtype=np.float64))
    reconstructed = np.atleast_2d(np.asarray(reconstructed, dtype=np.float64))
    norms = np.linalg.norm(original, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DataError(f"zero-norm embedding at row {int(zero[0])}")
    err = np.linalg.norm(original - reconstructed, axis=1)
    return np.maximum(0.0, 1.0 - err / norms) * 100.0


def feature_fidelity(model: QuantizerModel, embeddings) -> float:
    """Mean reconstruction fidelity of the quantized representation, in percent."""
    X = _stack_embeddings(embeddings)
    return float(fidelity_percent(X, model._reconstruct_batch(X)).mean())


# ---------------------------------------------------------------------------
# Serialization


def _write_matrix(fh, matrix: np.ndarray) -> None:
    for row in np.atleast_2d(matrix):
        fh.write("\t".join(repr(float(x)) for x in row) + "\n")


def _write_mlp(fh, tag: str, mlp: Mlp) -> None:
    fh.write(f"#mlp\t{tag}\n")
    for w, b in zip(mlp.weights, mlp.biases):
        fh.write(f"#layer\t{w.shape[0]}\t{w.shape[1]}\n")
        _write_matrix(fh, w)
        _write_matrix(fh, b)


def save_quantizer(model: QuantizerModel, path) -> None:
    """TSV sections: header, per-level codebooks, then any mlps."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#kind\t{model.kind}\n")
        fh.write(f"#seed\t{model.seed}\n")
        fh.write("#levels\t" + "\t".join(str(n) for n in model.structure.level_sizes) + "\n")
        fh.write(f"#code_dim\t{model.structure.code_dim}\n")
        for j, table in enumerate(model.codebooks.levels):
            fh.write(f"#codebook\t{j}\n")
            _write_matrix(fh, table)
        if model.encoder is not None:
            _write_mlp(fh, "encoder", model.encoder)
        if model.decoder is not None:
            _write_mlp(fh, "decoder", model.decoder)
        if model.level_encoders:
            for j, enc in enumerate(model.level_encoders):
                _write_mlp(fh, f"encoder{j}", enc)


def load_quantizer(path) -> QuantizerModel:
    """Read a model written by save_quantizer: header rows, then sections.

    `#codebook j` holds level_sizes[j] rows of code_dim values (rqkmeans: the
    embedding width); each `#layer n_in n_out` of an `#mlp tag` holds n_in
    weight rows and a bias row of n_out values, each checked at its line.
    """
    header = Header()
    sections = [[["#header"], 0, 0, []]]  # [directive fields, rows expected, row width, rows]

    def parse(fields):
        section = sections[-1]
        if fields[0][:1] != "#":
            row = list(map(float, fields))
            section[2] = section[2] or len(row)
            if len(row) != section[2] or len(section[3]) >= section[1]:
                raise DataError(f"{' '.join(section[0])} takes {section[1]} rows of {section[2]}")
            section[3].append(row)
            return
        if len(section[3]) != section[1]:
            raise DataError(f"{' '.join(section[0])} ends after {len(section[3])} rows")
        key, level = fields[0], sum(s[0][0] == "#codebook" for s in sections)
        if key == "#codebook" and fields[1:] == [str(level)]:
            width = None if header["kind"] == ["rqkmeans"] else header.structure().code_dim
            sections.append([fields, header.structure().level_sizes[level], width, []])
        elif key == "#mlp" and len(fields) == 2 and fields not in [s[0] for s in sections]:
            sections.append([fields, 0, 0, []])
        elif key == "#layer" and section[0][0] in ("#mlp", "#layer"):
            n_in, n_out = map(int, fields[1:])
            sections.append([fields, n_in + 1, n_out, []])
        elif len(sections) == 1 and key not in ("#codebook", "#mlp", "#layer"):
            header[key[1:]] = fields[1:]
        else:
            raise DataError(f"unexpected {' '.join(fields)!r} row")

    def finish(_):
        if len(sections[-1][3]) != sections[-1][1]:
            raise DataError(f"file ends inside {' '.join(sections[-1][0])}")
        (kind,), (seed,), structure = header["kind"], header["seed"], header.structure()
        tables, layers = [], {}
        for fields, _, _, rows in sections[1:]:
            if fields[0] == "#codebook":
                tables.append(np.array(rows))
            elif fields[0] == "#mlp":
                weights, biases = layers[f"mlp {fields[1]}"] = ([], [])
            else:
                weights.append(np.array(rows[:-1]))
                biases.append(np.array(rows[-1]))
        nets = Header((name, Mlp(*net)) for name, net in layers.items())
        m = structure.num_levels if kind == "multivq" else 0
        return QuantizerModel(
            kind=kind,
            codebooks=CodebookStack(structure, tables),
            seed=int(seed),
            encoder=nets.get("mlp encoder"),
            decoder=nets.get("mlp decoder"),
            level_encoders=[nets[f"mlp encoder{j}"] for j in range(m)] or None,
        )

    return read_rows(path, parse, finish)

"""Contrastive alignment of item embeddings with in-batch negatives.

The loss pulls each anchor toward its co-occurring partner and pushes it away
from the other partners in the batch (cosine similarity, temperature-scaled
softmax).  A small linear projection head can be trained on top of frozen
embeddings to sharpen that collaborative structure before quantization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamW, Tensor, logsumexp_rows, no_grad
from .catalog import ItemCatalog
from .errors import DataError

DEFAULT_TEMPERATURE = 0.07


@dataclass(eq=False)
class AlignmentBatch:
    """Paired anchor/positive embeddings; anchor k's negatives are the other
    B-1 positives in the batch."""

    anchors: np.ndarray
    positives: np.ndarray

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        self.positives = np.asarray(self.positives, dtype=np.float64)
        if self.anchors.shape != self.positives.shape:
            raise ValueError("anchors and positives must have identical shape")
        if self.anchors.ndim != 2 or self.size < 2:
            raise ValueError("a batch needs at least 2 anchor/positive rows")

    @property
    def size(self) -> int:
        return self.anchors.shape[0]


@dataclass(eq=False)
class ProjectionHead:
    """Linear map y = x @ weight + bias applied to both anchors and positives."""

    weight: np.ndarray
    bias: np.ndarray
    temperature: float = DEFAULT_TEMPERATURE
    loss_trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def _check_row_norms(matrix: np.ndarray, name: str) -> None:
    zero = np.nonzero(np.linalg.norm(matrix, axis=1) == 0.0)[0]
    if zero.size:
        raise DataError(f"zero-norm vector in {name} at row {int(zero[0])}")


def _info_nce(anchors: Tensor, positives: Tensor, temperature: float, prefix: str) -> Tensor:
    """Mean over anchors of -log softmax(cos(anchor, positive) / temperature);
    a zero-norm row is named as the prefix's anchors or positives."""
    _check_row_norms(anchors.value, f"{prefix}anchors")
    _check_row_norms(positives.value, f"{prefix}positives")
    a_norm = anchors * (anchors * anchors).sum(axis=1, keepdims=True) ** -0.5
    p_norm = positives * (positives * positives).sum(axis=1, keepdims=True) ** -0.5
    logits = (a_norm @ p_norm.transpose()) * (1.0 / temperature)
    return (logsumexp_rows(logits) - logits.diagonal()).mean()


def info_nce_loss(batch: AlignmentBatch, temperature: float = DEFAULT_TEMPERATURE) -> float:
    """Mean over anchors of -log softmax(cos(anchor, positive) / temperature).

    The softmax at anchor k runs over its similarities to every positive in
    the batch; the matching index k is the labelled pair.  The value is
    projection_loss's with no head, computed without a graph.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    with no_grad():
        return _info_nce(Tensor(batch.anchors), Tensor(batch.positives), temperature, "").item()


def projection_loss(
    weight: Tensor,
    bias: Tensor,
    batch: AlignmentBatch,
    temperature: float,
) -> Tensor:
    """Differentiable InfoNCE of the batch pushed through a linear head."""
    anchors = Tensor(batch.anchors) @ weight + bias
    positives = Tensor(batch.positives) @ weight + bias
    return _info_nce(anchors, positives, temperature, "projected ")


@dataclass
class AlignmentConfig:
    """Training schedule for the projection head."""

    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 2e-4
    temperature: float = DEFAULT_TEMPERATURE
    seed: int = 0
    init_noise: float = 1e-3

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")


def collect_pairs(catalog: ItemCatalog) -> tuple[np.ndarray, np.ndarray]:
    """Anchor/positive embedding matrices from the catalog's related-item
    links: one row gather each from the catalog's matrix, in catalog order."""
    anchors, positives = catalog.related_rows()
    if not anchors.size:
        raise DataError("catalog has no resolvable related-item pairs")
    X = catalog.embedding_matrix()
    return X[anchors], X[positives]


def train_projection(catalog: ItemCatalog, config: AlignmentConfig) -> ProjectionHead:
    """Fit the projection head on the catalog's related-item pairs.

    Deterministic for a fixed seed.  The returned head carries a per-epoch
    mean-loss trace, with the pre-training loss over all pairs prepended so
    callers can compare start against finish.
    """
    anchors, positives = collect_pairs(catalog)
    if anchors.shape[0] < 2:
        raise DataError("need at least 2 related-item pairs to form negatives")
    rng = np.random.default_rng(config.seed)
    d = catalog.d_in
    weight = Tensor(np.eye(d) + config.init_noise * rng.standard_normal((d, d)))
    bias = Tensor(np.zeros(d))
    optimizer = AdamW([weight, bias], lr=config.learning_rate)

    with no_grad():
        trace = [projection_loss(weight, bias, AlignmentBatch(anchors, positives),
                                 config.temperature).item()]

    n = anchors.shape[0]
    batch_size = max(2, min(config.batch_size, n))
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if idx.size < 2:
                continue
            batch = AlignmentBatch(anchors[idx], positives[idx])
            loss = projection_loss(weight, bias, batch, config.temperature)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_losses.append(loss.item())
        trace.append(float(np.mean(epoch_losses)) if epoch_losses else trace[-1])

    return ProjectionHead(
        weight=weight.value,
        bias=bias.value,
        temperature=config.temperature,
        loss_trace=trace,
    )


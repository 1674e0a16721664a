"""Contrastive alignment of item embeddings with in-batch negatives.

The loss pulls each anchor toward its co-occurring partner and pushes it away
from the other partners in the batch (cosine similarity, temperature-scaled
softmax).  A small linear projection head can be trained on top of frozen
embeddings to sharpen that collaborative structure before quantization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import AdamW, Tensor, logsumexp_rows, wrap
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
    loss_trace: list[float] = field(default_factory=list)


def _normalized(x: Tensor, name: str) -> Tensor:
    """Each row of x over its Euclidean norm; a zero-norm row is named."""
    zero = np.nonzero(np.linalg.norm(x.value, axis=1) == 0.0)[0]
    if zero.size:
        raise DataError(f"zero-norm vector in {name} at row {int(zero[0])}")
    return x * (x * x).sum(axis=1, keepdims=True) ** -0.5


def _info_nce_rows(a_norm: Tensor, p_norm: Tensor, temperature: float, first: int = 0) -> Tensor:
    """-log softmax(cos(anchor, positive) / temperature) at each row of the
    unit-norm anchors: anchor i's positive is row first + i of the unit-norm
    positives, and every other positive row is a negative.  The softmax
    runs over every positive row, so a block of anchors gives the terms the
    full set gives its rows (tests pin the bits)."""
    logits = (a_norm @ p_norm.transpose()) * (1.0 / temperature)
    own = logits.transpose().gather_rows(np.arange(first, first + logits.shape[0]))
    return logsumexp_rows(logits) - own.diagonal()


def _projected(weight: Tensor, bias: Tensor, batch: AlignmentBatch) -> tuple[Tensor, Tensor]:
    """The batch's anchors and positives through the head, each row at unit norm."""
    anchors = wrap(batch.anchors) @ weight + bias
    positives = wrap(batch.positives) @ weight + bias
    return _normalized(anchors, "projected anchors"), _normalized(positives, "projected positives")


def info_nce_loss(batch: AlignmentBatch, temperature: float = DEFAULT_TEMPERATURE) -> float:
    """Mean over anchors of -log softmax(cos(anchor, positive) / temperature).

    The softmax at anchor k runs over its similarities to every positive in
    the batch; the matching index k is the labelled pair.  The value is
    projection_loss's with no head, computed without a graph.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    a_norm = _normalized(wrap(batch.anchors), "anchors")
    p_norm = _normalized(wrap(batch.positives), "positives")
    return _info_nce_rows(a_norm, p_norm, temperature).mean().item()


def projection_loss(
    weight: Tensor,
    bias: Tensor,
    batch: AlignmentBatch,
    temperature: float,
) -> Tensor:
    """Differentiable InfoNCE of the batch pushed through a linear head."""
    return _info_nce_rows(*_projected(weight, bias, batch), temperature).mean()


INIT_NOISE = 1e-3


@dataclass
class AlignmentConfig:
    """Training schedule for the projection head, which starts at the
    identity plus INIT_NOISE-scaled gaussian noise."""

    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 2e-4
    temperature: float = DEFAULT_TEMPERATURE
    seed: int = 0

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2 to form negatives, got {self.batch_size}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


def collect_pairs(catalog: ItemCatalog) -> tuple[np.ndarray, np.ndarray]:
    """Anchor/positive embedding matrices from the catalog's related-item
    links: one row gather each from the catalog's matrix, in catalog order."""
    anchors, positives = catalog.related_rows()
    if not anchors.size:
        raise DataError("catalog has no resolvable related-item pairs")
    X = catalog.embedding_matrix()
    return X[anchors], X[positives]


def _starting_loss(weight: Tensor, bias: Tensor, batch: AlignmentBatch, temperature: float,
                   block: int) -> float:
    """projection_loss over the whole batch on constant parameters, `block`
    anchor rows at a time against every positive: the per-row terms of one
    batch, so the same bits, with no (B, B) array."""
    a_norm, p_norm = _projected(weight, bias, batch)
    rows = [_info_nce_rows(wrap(a_norm.value[start : start + block]), p_norm, temperature,
                           first=start).value
            for start in range(0, batch.size, block)]
    return wrap(np.concatenate(rows)).mean().item()


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
    weight = Tensor(np.eye(d) + INIT_NOISE * rng.standard_normal((d, d)))
    bias = Tensor(np.zeros(d))
    optimizer = AdamW([weight, bias], lr=config.learning_rate)

    n = anchors.shape[0]
    batch_size = min(config.batch_size, n)
    trace = [_starting_loss(weight.detach(), bias.detach(), AlignmentBatch(anchors, positives),
                            config.temperature, batch_size)]

    def train_step(idx: np.ndarray) -> float:
        # the step's loss, and the graph behind it, live only here
        loss = projection_loss(weight, bias, AlignmentBatch(anchors[idx], positives[idx]),
                               config.temperature)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if idx.size >= 2:
                epoch_losses.append(train_step(idx))
        trace.append(float(np.mean(epoch_losses)))

    return ProjectionHead(weight=weight.value, bias=bias.value, loss_trace=trace)


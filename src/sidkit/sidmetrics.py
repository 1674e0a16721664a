"""Direct quality metrics for a SID assignment.

Gini coefficient over the items-per-SID distribution (0 = perfectly fair),
codebook utilization, raw-embedding retrieval hitrate, and pairwise
style/origin consistency.  Reconstruction fidelity lives with the quantizer
since it needs the decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rows
from .catalog import (ItemCatalog, SidStructure, integer_array, integer_tuple, read_rows,
                      write_artifact)
from .collision import AssignmentTable
from .errors import DataError

RELATIONS = ("style", "origin")


@dataclass(frozen=True, eq=False)
class OccupancyVector:
    """Sparse items-per-SID counts; SIDs not present count zero.

    total_sids is the full space size N_d = prod(n_j), so never-used SIDs
    still weigh in the fairness measure.
    """

    codes: np.ndarray  # (S, m) int64: the occupied SIDs
    counts: np.ndarray  # (S,) int64: the items on each
    total_sids: int
    structure: SidStructure | None = None

    def __post_init__(self):
        if self.total_sids < 1:
            raise ValueError("total_sids must be positive")
        if len(self.counts) > self.total_sids:
            raise ValueError("more occupied SIDs than the space holds")
        if (self.counts < 1).any():
            raise ValueError("sparse counts must be positive; zeros are implicit")

    @classmethod
    def from_table(cls, table: AssignmentTable) -> "OccupancyVector":
        return cls(*table.occupied(), table.structure.total_sids, table.structure)

    @classmethod
    def from_counts(cls, counts, total_sids: int | None = None) -> "OccupancyVector":
        """From a plain count list, SID i holding counts[i]; zeros are
        dropped into the implicit pool."""
        counts = integer_array(counts, "count")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if (counts > np.iinfo(np.int64).max).any():
            raise ValueError(f"count {max(counts)} is beyond int64")
        occupied = np.flatnonzero(counts)
        (total_sids,) = integer_tuple([len(counts) if total_sids is None else total_sids],
                                      "total_sids")
        return cls(occupied[:, None], counts[occupied].astype(np.int64), total_sids)


def gini_coefficient(occupancy: OccupancyVector) -> float:
    """Inequality of items-per-SID, in [0, 1).

    Counts are ranked ascending (implicit zeros first); with C(i) the running
    cumulative sum and L(i) = C(i)/C(N_d), the coefficient is
    (2/N_d) * sum_i (i/N_d - L(i)).  Computed in exact integer arithmetic on
    the sparse counts: G = (N_d+1)/N_d - 2 * sum_i C(i) / (N_d * C(N_d)).
    """
    if not len(occupancy.counts):
        raise DataError("gini coefficient of an all-zero occupancy is undefined")
    running = np.cumsum(np.sort(occupancy.counts))  # C(i) over the positive counts
    n_d, cumulative, cumulative_sum = occupancy.total_sids, int(running[-1]), int(running.sum())
    return float((n_d + 1) / n_d - 2 * cumulative_sum / (n_d * cumulative))


def codebook_utilization(
    occupancy: OccupancyVector, per_level: bool = False
) -> float | list[float]:
    """Percentage of the SID space (or of each level's codes) actually used."""
    if not per_level:
        return 100.0 * len(occupancy.counts) / occupancy.total_sids
    if occupancy.structure is None:
        raise DataError("per-level utilization needs the SID structure")
    return [100.0 * len(np.unique(column)) / n_j
            for column, n_j in zip(occupancy.codes.T, occupancy.structure.level_sizes)]


def pairs_from_sequences(sequences) -> list[tuple[str, tuple[str, ...]]]:
    """Default retrieval-evaluation pairs: (last history item, clicked targets)."""
    pairs = []
    for seq in sequences:
        if seq.history and seq.targets:
            pairs.append((seq.history[-1], tuple(seq.targets)))
    return pairs


def embedding_hitrate(
    catalog: ItemCatalog,
    eval_pairs,
    k: int,
) -> float:
    """HR@K from raw embedding cosine similarity, no trained retriever.

    For each (query item, clicked items) pair the other catalog items are
    ranked by cosine similarity to the query, ties to the earlier catalog
    item; the pair contributes |top-K intersect clicked| / |clicked|.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    if k >= len(catalog):
        raise DataError(f"K={k} must be smaller than the catalog ({len(catalog)} items)")
    eval_pairs = list(eval_pairs)
    if not eval_pairs:
        raise DataError("no evaluation pairs supplied")
    X = catalog.embedding_matrix()
    norms = np.linalg.norm(X, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise DataError(f"zero-norm embedding for item {catalog.item_ids[int(zero[0])]!r}")
    unit = X / norms[:, None]
    index_of = {item_id: i for i, item_id in enumerate(catalog.item_ids)}
    scores = []
    for query_id, clicked in eval_pairs:
        if query_id not in index_of:
            raise DataError(f"unknown query item {query_id!r}")
        clicked = tuple(clicked)
        if not clicked:
            raise DataError(f"empty clicked set for query {query_id!r}")
        clicked_idx = set()
        for c in clicked:
            if c not in index_of:
                raise DataError(f"unknown clicked item {c!r}")
            clicked_idx.add(index_of[c])
        q = index_of[query_id]
        sims = unit @ unit[q]
        sims[q] = -np.inf
        hits = len(set(rows.top_k(sims, k).tolist()) & clicked_idx)
        scores.append(hits / len(clicked_idx))
    return float(np.mean(scores))


@dataclass(frozen=True)
class PairLabels:
    """Labeled item pairs: same style or same source of origin."""

    pairs: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        for a, b, relation in self.pairs:
            if relation not in RELATIONS:
                raise ValueError(f"unknown relation {relation!r}; expected one of {RELATIONS}")

    def of_relation(self, relation: str) -> list[tuple[str, str]]:
        return [(a, b) for a, b, r in self.pairs if r == relation]


def consistency(table: AssignmentTable, labels: PairLabels, relation: str) -> float:
    """Percentage of labeled pairs whose items share the identical full SID.

    Both items' code rows come from one gather, in pair order, so an item
    with no SID raises for the first pair that names one."""
    if relation not in RELATIONS:
        raise DataError(f"unknown relation {relation!r}; expected one of {RELATIONS}")
    pairs = labels.of_relation(relation)
    if not pairs:
        raise DataError(f"no pairs labeled {relation!r}")
    codes = table.codes_of([item_id for pair in pairs for item_id in pair])
    codes = codes.reshape(len(pairs), 2, -1)
    shared = int((codes[:, 0] == codes[:, 1]).all(axis=1).sum())
    return 100.0 * shared / len(pairs)


def load_pair_labels(path) -> PairLabels:
    """3-column TSV: item_id, item_id, relation."""

    def parse(fields):
        a, b, relation = fields
        if relation not in RELATIONS:
            raise DataError(f"unknown relation {relation!r}")
        return a, b, relation

    return read_rows(path, parse, lambda pairs: PairLabels(tuple(pairs)))


def save_pair_labels(labels: PairLabels, path) -> None:
    write_artifact(path, (f"{a}\t{b}\t{relation}\n" for a, b, relation in labels.pairs))

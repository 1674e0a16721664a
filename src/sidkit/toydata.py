"""Self-contained synthetic worlds for tests, demos, and the CLI.

The recipe: Gaussian clusters in embedding space, a companion link planted
inside each cluster (the contrastive positive), style/origin groups aligned
with clusters, and interaction sequences that walk a planted cluster-to-
cluster transition ring.  Retrieval quality on this world therefore hinges on
whether the SIDs preserve the cluster structure, which is exactly the effect
the metrics and the end-to-end loop are meant to expose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rows
from .catalog import MAX_HISTORY, InteractionSequence, ItemCatalog, ItemRecord
from .sidmetrics import RELATIONS, PairLabels


CENTER_SCALE = 10.0
NOISE = 0.5


@dataclass
class ToyConfig:
    """A toy world's sizes and seed; make_toy_catalog spreads it by
    CENTER_SCALE and NOISE."""

    n_items: int = 1000
    n_clusters: int = 20
    d_in: int = 16
    n_train_sequences: int = 500
    n_eval_sequences: int = 100
    history_len: int = 3
    n_targets: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n_items < self.n_clusters:
            raise ValueError("need at least one item per cluster")
        if self.n_clusters < 2:
            raise ValueError("the transition ring needs at least 2 clusters")
        if min(self.d_in, self.n_targets) < 1:
            raise ValueError("d_in and n_targets must be at least 1")
        if not 0 <= self.history_len <= MAX_HISTORY:
            raise ValueError(f"history_len must be in [0, {MAX_HISTORY}]")
        if min(self.n_train_sequences, self.n_eval_sequences) < 0:
            raise ValueError("sequence counts must be non-negative")


@dataclass
class ToyWorld:
    catalog: ItemCatalog
    train_sequences: list[InteractionSequence]
    eval_sequences: list[InteractionSequence]
    labels: PairLabels


def make_toy_catalog(
    n_items: int,
    n_clusters: int,
    d_in: int,
    seed: int,
) -> tuple[ItemCatalog, dict[str, int]]:
    """Gaussian-cluster catalog with planted companion links.

    Centers are standard gaussian times CENTER_SCALE, and an item is its
    center plus standard gaussian times NOISE, one draw for all items.  Each
    item's related_item is the next member of its own cluster (cyclic; none
    in a cluster of one), style groups coincide with clusters, and origin
    groups pool two clusters each, so origin consistency is the weaker
    signal by construction.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, d_in)) * CENTER_SCALE
    clusters = np.concatenate(
        [np.arange(n_clusters), rng.integers(n_clusters, size=n_items - n_clusters)]
    )
    embeddings = centers[clusters] + rng.standard_normal((n_items, d_in)) * NOISE

    order, (keys,) = rows.sort([clusters], kind="stable")  # each cluster's members, in item order
    starts, sizes = rows.distinct([keys])
    first = np.repeat(starts, sizes)
    partner = np.empty(n_items, dtype=np.int64)
    partner[order] = order[first + (np.arange(n_items) - first + 1) % np.repeat(sizes, sizes)]

    ids = [f"item{i:05d}" for i in range(n_items)]
    n_origins = max(1, (n_clusters + 1) // 2)
    records = [
        ItemRecord(
            item_id=ids[i],
            embedding=embeddings[i],
            related_item=ids[p] if p != i else None,
            sid=None,
            style_group=f"s{c}",
            origin_group=f"o{c % n_origins}",
        )
        for i, (p, c) in enumerate(zip(partner.tolist(), clusters.tolist()))
    ]
    return ItemCatalog(records, d_in=d_in), dict(zip(ids, clusters.tolist()))


def make_toy_sequences(
    cluster_of: dict[str, int],
    n_clusters: int,
    n_sequences: int,
    history_len: int,
    n_targets: int,
    seed: int,
    pv_prefix: str = "pv",
) -> list[InteractionSequence]:
    """Interaction sequences walking the planted ring c -> (c+1) mod C.

    History items come from consecutive clusters along the walk; the targets
    all sit in the cluster the walk reaches next.  A scorer that learns the
    ring from SID streams can therefore beat chance by a wide margin.
    """
    rng = np.random.default_rng(seed)
    by_cluster: dict[int, list[str]] = {c: [] for c in range(n_clusters)}
    for item_id, c in sorted(cluster_of.items()):
        by_cluster[c].append(item_id)
    for c, pool in by_cluster.items():
        if not pool:
            raise ValueError(f"cluster {c} has no items")

    sequences = []
    for s in range(n_sequences):
        start = int(rng.integers(n_clusters))
        *walk, target_pool = (by_cluster[(start + step) % n_clusters]
                              for step in range(history_len + 1))
        history = tuple(pool[int(rng.integers(len(pool)))] for pool in walk)
        count = min(n_targets, len(target_pool))
        picks = rng.choice(len(target_pool), size=count, replace=False)
        targets = tuple(target_pool[int(p)] for p in np.sort(picks))
        sequences.append(
            InteractionSequence(
                pv_id=f"{pv_prefix}{s:06d}", history=history, targets=targets
            )
        )
    return sequences


def toy_pair_labels(catalog: ItemCatalog) -> PairLabels:
    """Consecutive members of each style, then each origin group, paired."""
    records = list(catalog.records())
    pairs = []
    for relation in RELATIONS:
        members: dict[str, list[str]] = {}
        for rec in records:
            group = getattr(rec, f"{relation}_group")
            if group:
                members.setdefault(group, []).append(rec.item_id)
        for group in sorted(members):
            ids = members[group]
            pairs.extend((a, b, relation) for a, b in zip(ids, ids[1:]))
    return PairLabels(tuple(pairs))


def make_toy_world(config: ToyConfig) -> ToyWorld:
    """Catalog plus train/eval sequences from one deterministic recipe."""
    catalog, cluster_of = make_toy_catalog(
        config.n_items, config.n_clusters, config.d_in, config.seed
    )
    train, eval_seqs = (
        make_toy_sequences(cluster_of, config.n_clusters, n_sequences, config.history_len,
                           config.n_targets, seed=config.seed + offset, pv_prefix=prefix)
        for n_sequences, offset, prefix in ((config.n_train_sequences, 1, "train"),
                                            (config.n_eval_sequences, 2, "eval"))
    )
    return ToyWorld(
        catalog=catalog,
        train_sequences=train,
        eval_sequences=eval_seqs,
        labels=toy_pair_labels(catalog),
    )

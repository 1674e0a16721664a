"""The toy-world recipe item by item, kept as a reference.

This is `sidkit.toydata` as it was before it worked on arrays: each item's
noise is its own standard gaussian draw, the clusters' members and each
item's companion link are collected in dict-of-lists loops, and the style and
origin pairs are built by two copies of the same group-then-pair loop.  The
differential test holds `sidkit.toydata` to the same catalog bytes, pair
labels and sequences.
"""

from __future__ import annotations

import numpy as np

from sidkit.catalog import InteractionSequence, ItemCatalog, ItemRecord
from sidkit.sidmetrics import PairLabels
from sidkit.toydata import CENTER_SCALE, NOISE, ToyConfig, ToyWorld


def make_toy_catalog(
    n_items: int,
    n_clusters: int,
    d_in: int,
    seed: int,
) -> tuple[ItemCatalog, dict[str, int]]:
    """Gaussian-cluster catalog with planted companion links.

    Centers are standard gaussian times CENTER_SCALE, and an item is its
    center plus standard gaussian times NOISE.  Each item's related_item is
    the next member of its own cluster (cyclic), style groups coincide with
    clusters, and origin groups pool two clusters each, so origin
    consistency is the weaker signal by construction.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, d_in)) * CENTER_SCALE
    clusters = np.concatenate(
        [np.arange(n_clusters), rng.integers(n_clusters, size=n_items - n_clusters)]
    )
    members: dict[int, list[int]] = {c: [] for c in range(n_clusters)}
    for i, c in enumerate(clusters):
        members[int(c)].append(i)

    ids = [f"item{i:05d}" for i in range(n_items)]
    related: dict[int, str | None] = {}
    for c, rows in members.items():
        for pos, i in enumerate(rows):
            related[i] = ids[rows[(pos + 1) % len(rows)]] if len(rows) > 1 else None

    n_origins = max(1, (n_clusters + 1) // 2)
    records = []
    for i in range(n_items):
        c = int(clusters[i])
        records.append(
            ItemRecord(
                item_id=ids[i],
                embedding=centers[c] + rng.standard_normal(d_in) * NOISE,
                related_item=related[i],
                sid=None,
                style_group=f"s{c}",
                origin_group=f"o{c % n_origins}",
            )
        )
    catalog = ItemCatalog(records, d_in=d_in)
    return catalog, {ids[i]: int(clusters[i]) for i in range(n_items)}


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
    for item_id, c in cluster_of.items():
        by_cluster[c].append(item_id)
    for c, pool in by_cluster.items():
        if not pool:
            raise ValueError(f"cluster {c} has no items")
        pool.sort()

    sequences = []
    for s in range(n_sequences):
        start = int(rng.integers(n_clusters))
        history = []
        for step in range(history_len):
            pool = by_cluster[(start + step) % n_clusters]
            history.append(pool[int(rng.integers(len(pool)))])
        target_pool = by_cluster[(start + history_len) % n_clusters]
        count = min(n_targets, len(target_pool))
        picks = rng.choice(len(target_pool), size=count, replace=False)
        targets = tuple(target_pool[int(p)] for p in np.sort(picks))
        sequences.append(
            InteractionSequence(
                pv_id=f"{pv_prefix}{s:06d}", history=tuple(history), targets=targets
            )
        )
    return sequences


def toy_pair_labels(catalog: ItemCatalog) -> PairLabels:
    """Consecutive members of each style/origin group, paired."""
    by_style: dict[str, list[str]] = {}
    by_origin: dict[str, list[str]] = {}
    for rec in catalog.records():
        if rec.style_group:
            by_style.setdefault(rec.style_group, []).append(rec.item_id)
        if rec.origin_group:
            by_origin.setdefault(rec.origin_group, []).append(rec.item_id)
    pairs = []
    for group in sorted(by_style):
        ids = by_style[group]
        pairs.extend((ids[i], ids[i + 1], "style") for i in range(len(ids) - 1))
    for group in sorted(by_origin):
        ids = by_origin[group]
        pairs.extend((ids[i], ids[i + 1], "origin") for i in range(len(ids) - 1))
    return PairLabels(tuple(pairs))


def make_toy_world(config: ToyConfig) -> ToyWorld:
    """Catalog plus train/eval sequences from one deterministic recipe."""
    catalog, cluster_of = make_toy_catalog(
        config.n_items, config.n_clusters, config.d_in, config.seed
    )
    train = make_toy_sequences(
        cluster_of,
        config.n_clusters,
        config.n_train_sequences,
        config.history_len,
        config.n_targets,
        seed=config.seed + 1,
        pv_prefix="train",
    )
    eval_seqs = make_toy_sequences(
        cluster_of,
        config.n_clusters,
        config.n_eval_sequences,
        config.history_len,
        config.n_targets,
        seed=config.seed + 2,
        pv_prefix="eval",
    )
    return ToyWorld(
        catalog=catalog,
        train_sequences=train,
        eval_sequences=eval_seqs,
        labels=toy_pair_labels(catalog),
    )

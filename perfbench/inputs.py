"""Seeded workload inputs, generated by the benchmark itself.

The recipe follows the package's toy worlds: Gaussian clusters in embedding
space, a companion link to the next member of the same cluster, style groups
equal to clusters and origin groups pooling two clusters, and interaction
sequences that walk the cluster ring c -> c+1.  The generator lives here, not
in ``sidkit.toydata``, so that a change to the package cannot silently change
a workload; the sha256 of every file written is reported with the run.

Files use the TSV layouts ``sidkit`` reads: ``catalog.tsv``, ``labels.tsv``,
``train_sequences.tsv`` and ``eval_sequences.tsv``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CENTER_SCALE = 10.0
NOISE = 0.5


@dataclass(frozen=True)
class WorldShape:
    n_items: int
    n_clusters: int
    d_in: int
    n_train: int = 0
    n_eval: int = 0
    history_len: int = 3
    n_targets: int = 2


@dataclass
class World:
    """What the generator wrote, plus the in-memory copies the checks use."""

    item_ids: list[str]
    embeddings: np.ndarray
    files: dict[str, Path]

    def digests(self) -> dict[str, str]:
        return {name: sha256_file(path) for name, path in sorted(self.files.items())}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _draw(rng, sizes: np.ndarray, k: int) -> np.ndarray:
    """Per row, k distinct indices below sizes[row], ascending."""
    if k > sizes.min():
        raise ValueError(f"a cluster holds fewer than {k} items")
    picks = np.floor(rng.random((sizes.size, k)) * sizes[:, None]).astype(np.int64)
    picks.sort(axis=1)
    while True:
        dup = np.nonzero((np.diff(picks, axis=1) == 0).any(axis=1))[0]
        if not dup.size:
            return picks
        redraw = np.floor(rng.random((dup.size, k)) * sizes[dup, None]).astype(np.int64)
        redraw.sort(axis=1)
        picks[dup] = redraw


def _sequences(rng, pools, n, history_len, n_targets, prefix) -> list[str]:
    """Ring-walk sequences as TSV rows: pv_id, targets, empty query, history.

    History step j comes from cluster start+j and the targets from the cluster
    the walk reaches next.
    """
    n_clusters = len(pools)
    sizes = np.array([len(pool) for pool in pools])
    starts = rng.integers(n_clusters, size=n)
    walk = [(starts + step) % n_clusters for step in range(history_len + 1)]
    history = [_draw(rng, sizes[w], 1)[:, 0] for w in walk[:-1]]
    targets = _draw(rng, sizes[walk[-1]], n_targets)
    rows = []
    for s in range(n):
        hist = ",".join(pools[w[s]][h[s]] for w, h in zip(walk, history))
        tgt = ",".join(pools[walk[-1][s]][t] for t in targets[s])
        rows.append(f"{prefix}{s:06d}\t{tgt}\t\t{hist}\n")
    return rows


def write_world(shape: WorldShape, seed: int, out_dir: Path) -> World:
    """Generate the world for ``seed`` and write its TSV files into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n, c = shape.n_items, shape.n_clusters
    centers = rng.standard_normal((c, shape.d_in)) * CENTER_SCALE
    clusters = np.concatenate([np.arange(c), rng.integers(c, size=n - c)])
    X = centers[clusters] + rng.standard_normal((n, shape.d_in)) * NOISE

    ids = [f"item{i:05d}" for i in range(n)]
    members: list[list[int]] = [[] for _ in range(c)]
    for i, k in enumerate(clusters):
        members[int(k)].append(i)
    related = [""] * n
    for rows in members:
        if len(rows) > 1:
            for pos, i in enumerate(rows):
                related[i] = ids[rows[(pos + 1) % len(rows)]]
    n_origins = max(1, (c + 1) // 2)

    files = {"catalog": out_dir / "catalog.tsv", "labels": out_dir / "labels.tsv"}
    with open(files["catalog"], "w", encoding="utf-8") as fh:
        for i in range(n):
            k = int(clusters[i])
            vec = ",".join(repr(float(x)) for x in X[i])
            fh.write(f"{ids[i]}\t{vec}\t\t{related[i]}\ts{k}\to{k % n_origins}\n")
    with open(files["labels"], "w", encoding="utf-8") as fh:
        for relation, group_of in (("style", clusters), ("origin", clusters % n_origins)):
            for g in range(int(group_of.max()) + 1):
                rows = np.nonzero(group_of == g)[0]
                for a, b in zip(rows[:-1], rows[1:]):
                    fh.write(f"{ids[a]}\t{ids[b]}\t{relation}\n")

    pools = [[ids[i] for i in rows] for rows in members]
    for name, count, prefix in (("train", shape.n_train, "train"), ("eval", shape.n_eval, "eval")):
        if count:
            path = out_dir / f"{name}_sequences.tsv"
            rows = _sequences(rng, pools, count, shape.history_len, shape.n_targets, prefix)
            path.write_text("".join(rows), encoding="utf-8")
            files[f"{name}_sequences"] = path
    return World(item_ids=ids, embeddings=X, files=files)

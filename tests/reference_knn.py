"""The knn policy over the full ranking, kept as a reference.

Every item's last-level codewords are ranked at once with
rank_last_level_batch, and the walk reads each item's row, as
apply_knn_policy did before it took each item's nearest codeword
from one nearest_codewords call and ranked only the blocks of the items
that divert.  The differential tests hold apply_knn_policy to the same
table, byte for byte.
"""

from __future__ import annotations

import numpy as np

from sidkit.collision import AssignmentTable


def full_ranking_knn(catalog, model, sigma: int):
    """apply_knn_policy over every item's full ranking."""
    n_m = model.structure.level_sizes[-1]
    prefixes, orders = model.rank_last_level_batch(catalog.embedding_matrix())
    loads: dict[tuple[int, ...], list[int]] = {}  # prefix -> items per last code so far
    last = []
    for prefix, candidates in zip(map(tuple, prefixes.tolist()), orders.tolist()):
        load = loads.setdefault(prefix, [0] * n_m)
        chosen = next((c for c in candidates if load[c] < sigma), None)
        if chosen is None:
            chosen = min(candidates, key=lambda c: (load[c], c))
        load[chosen] += 1
        last.append(chosen)
    return AssignmentTable(model.structure, catalog.item_ids, np.column_stack([prefixes, last]))

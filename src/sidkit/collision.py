"""Bounding items-per-SID after raw assignment.

Raw content-based assignment lets popular regions of embedding space pile
many items onto one semantic id.  The policies here repair that online, item
by item in catalog order: the knn policy walks outward through the nearest
last-level codewords until it finds one with headroom, the random policy
cycles the last code per prefix, merge deliberately re-concentrates small
SIDs (the fairness-degrading inverse used for ablations), and noco leaves the
raw table untouched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .catalog import SemanticId, SidStructure, format_sid_brackets, parse_sid_brackets, read_rows
from .errors import DataError
from .quantizer import QuantizerModel, assign_random

DEFAULT_SIGMA = 25


class AssignmentTable:
    """item_id -> SemanticId with an occupancy count per SID.

    Insertion order is preserved.  Occupancy lives in a per-prefix index,
    prefix -> {last-level code: count}, maintained incrementally: it always
    equals the multiset of mapped SIDs and holds no zero counts or empty
    prefixes, so the occupied siblings of a SID are one dict lookup away.
    """

    def __init__(self, structure: SidStructure, mapping: dict[str, SemanticId] | None = None):
        self.structure = structure
        self._map: dict[str, SemanticId] = {}
        self._index: dict[tuple[int, ...], dict[int, int]] = {}
        self._members: dict[tuple[int, ...], set[str]] = {}
        if mapping:
            for item_id, sid in mapping.items():
                self.assign(item_id, sid)

    def assign(self, item_id: str, sid: SemanticId) -> None:
        """Insert or move an item; occupancy follows."""
        sid.validate(self.structure)
        old = self._map.get(item_id)
        if old is not None:
            codes = old.codes
            siblings = self._index[codes[:-1]]
            siblings[codes[-1]] -= 1
            self._members[codes].discard(item_id)
            if siblings[codes[-1]] == 0:
                del siblings[codes[-1]]
                del self._members[codes]
                if not siblings:
                    del self._index[codes[:-1]]
        self._map[item_id] = sid
        codes = sid.codes
        siblings = self._index.setdefault(codes[:-1], {})
        siblings[codes[-1]] = siblings.get(codes[-1], 0) + 1
        self._members.setdefault(codes, set()).add(item_id)

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._map

    def __iter__(self):
        return iter(self._map)

    def __getitem__(self, item_id: str) -> SemanticId:
        try:
            return self._map[item_id]
        except KeyError:
            raise DataError(f"item {item_id!r} has no assigned SID") from None

    def items(self):
        return self._map.items()

    def occupancy_of(self, sid: SemanticId | tuple[int, ...]) -> int:
        codes = sid.codes if isinstance(sid, SemanticId) else tuple(sid)
        return self._index.get(codes[:-1], {}).get(codes[-1], 0)

    @property
    def occupancy(self) -> dict[tuple[int, ...], int]:
        """Occupied SIDs only; zeros are implicit."""
        return {
            prefix + (code,): count
            for prefix, siblings in self._index.items()
            for code, count in siblings.items()
        }

    def items_for_sid(self, sid: SemanticId | tuple[int, ...]) -> list[str]:
        """Member item ids in ascending id order."""
        codes = sid.codes if isinstance(sid, SemanticId) else tuple(sid)
        return sorted(self._members.get(codes, ()))

    def copy(self) -> "AssignmentTable":
        return AssignmentTable(self.structure, dict(self._map))


def raw_assignment(catalog, model: QuantizerModel) -> AssignmentTable:
    """Content-based SIDs straight from the quantizer, no collision handling.

    The random-baseline quantizer has no content path; its items draw uniform
    codes from the model seed instead.
    """
    table = AssignmentTable(model.structure)
    if model.kind == "random":
        for item_id, sid in assign_random(catalog.item_ids, model.structure, model.seed).items():
            table.assign(item_id, sid)
        return table
    codes = model.assign_batch(catalog.embedding_matrix())
    for item_id, row in zip(catalog.item_ids, codes):
        table.assign(item_id, SemanticId(tuple(int(c) for c in row)))
    return table


def apply_noco_policy(table: AssignmentTable) -> AssignmentTable:
    """Identity policy: the raw table, unchanged."""
    return table.copy()


def apply_knn_policy(
    catalog,
    model: QuantizerModel,
    sigma: int = DEFAULT_SIGMA,
    k_candidates: int | None = None,
) -> AssignmentTable:
    """Divert items away from full SIDs via the nearest-codeword ranking.

    Items stream in catalog order.  Levels 1..m-1 stay as assigned; the last
    level tries the k nearest codewords in ascending residual distance and
    takes the first whose SID holds fewer than sigma items so far.  If every
    candidate is full the item falls back to the least-occupied candidate
    (ties to the lowest code), so assignment never fails.
    """
    if sigma < 1:
        raise DataError("sigma must be >= 1")
    n_m = model.structure.level_sizes[-1]
    k = n_m if k_candidates is None else min(int(k_candidates), n_m)
    if k < 1:
        raise DataError("k_candidates must be >= 1")
    table = AssignmentTable(model.structure)
    prefixes, orders = model.rank_last_level_batch(catalog.embedding_matrix())
    for i, item_id in enumerate(catalog.item_ids):
        prefix = tuple(int(c) for c in prefixes[i])
        candidates = orders[i, :k]
        chosen = None
        for c in candidates:
            if table.occupancy_of(prefix + (int(c),)) < sigma:
                chosen = int(c)
                break
        if chosen is None:
            loads = [(table.occupancy_of(prefix + (int(c),)), int(c)) for c in candidates]
            chosen = min(loads)[1]
        table.assign(item_id, SemanticId(prefix + (chosen,)))
    return table


def apply_random_policy(catalog, model: QuantizerModel) -> AssignmentTable:
    """Cycle the last-level code per prefix: 0, 1, .., n_m-1, 0, ..

    Guarantees per-prefix occupancy spread of at most 1.  Needs m >= 2 since
    the last level is overwritten while the prefix is kept.
    """
    structure = model.structure
    if structure.num_levels < 2:
        raise DataError("random policy overwrites the last level; structure needs m >= 2")
    n_m = structure.level_sizes[-1]
    table = AssignmentTable(structure)
    prefixes, _ = model.rank_last_level_batch(catalog.embedding_matrix())
    counters: dict[tuple[int, ...], int] = {}
    for i, item_id in enumerate(catalog.item_ids):
        prefix = tuple(int(c) for c in prefixes[i])
        idx = counters.get(prefix, 0)
        table.assign(item_id, SemanticId(prefix + (idx,)))
        counters[prefix] = (idx + 1) % n_m
    return table


def apply_merge_policy(
    table: AssignmentTable, codebooks, merge_threshold: int
) -> AssignmentTable:
    """Fold small SIDs into bigger siblings under the same prefix.

    Small SIDs, those whose occupancy sits in (0, merge_threshold), are
    visited in ascending (occupancy, codes) order.  Each sends its items to
    the nearest sibling (last-level codeword distance, ties to the lowest
    code) whose live occupancy is at least the threshold; if no sibling
    qualifies, the largest-occupancy sibling takes them.  A SID with no other
    occupied sibling keeps its items.  Distinct occupied SIDs never increase.

    The end state per prefix has a closed form.  Where some SID starts at
    the threshold, small SIDs never receive items, so the fallback never
    runs and each small SID's items land in its nearest such starting SID.
    Where no SID starts at the threshold, each visited SID empties into one
    not yet visited, so every item of the prefix ends in its last small SID
    in (occupancy, codes) order, whatever the fallback picks.

    Siblings come from the table's per-prefix index, so beyond copying the
    table and sorting the small SIDs the cost is O(items moved + siblings of
    each small SID).
    """
    result = table.copy()
    if merge_threshold <= 0:
        return result
    last_table = codebooks.levels[-1]
    snapshot = table.occupancy
    small = sorted(
        (codes for codes, count in snapshot.items() if 0 < count < merge_threshold),
        key=lambda codes: (snapshot[codes], codes),
    )
    for codes in small:
        prefix, code = codes[:-1], codes[-1]
        counts = result._index.get(prefix, {})
        if code not in counts:
            continue
        siblings = [other for other in counts if other != code]
        if not siblings:
            continue
        big = [s for s in siblings if counts[s] >= merge_threshold]
        if big:
            d2 = {s: float(((last_table[s] - last_table[code]) ** 2).sum()) for s in big}
            target = min(big, key=lambda s: (d2[s], s))
        else:
            target = min(siblings, key=lambda s: (-counts[s], s))
        target_sid = SemanticId(prefix + (target,))
        for item_id in result.items_for_sid(codes):
            result.assign(item_id, target_sid)
    return result


@dataclass
class OccupancyStats:
    max_occupancy: int = 0
    mean_occupancy: float = 0.0
    distinct_occupied: int = 0
    histogram: dict[int, int] = field(default_factory=dict)


def occupancy_stats(table: AssignmentTable) -> OccupancyStats:
    """Exact counts over the occupied SIDs; empty table reports zeros."""
    occ = table.occupancy
    if not occ:
        return OccupancyStats()
    counts = list(occ.values())
    hist = Counter(counts)
    return OccupancyStats(
        max_occupancy=max(counts),
        mean_occupancy=float(np.mean(counts)),
        distinct_occupied=len(counts),
        histogram=dict(sorted(hist.items())),
    )


def save_assignment(table: AssignmentTable, path) -> None:
    """TSV: item_id, bracketed SID; the same shape the catalog loader accepts."""
    with open(path, "w", encoding="utf-8") as fh:
        for item_id, sid in table.items():
            fh.write(f"{item_id}\t{format_sid_brackets(sid)}\n")


def load_assignment(path, structure: SidStructure) -> AssignmentTable:
    """Read an assignment TSV; a duplicate item or an out-of-band code is an error."""
    table = AssignmentTable(structure)

    def assign(fields):
        item_id, sid = fields
        if item_id in table:
            raise DataError(f"duplicate item_id {item_id!r}")
        table.assign(item_id, parse_sid_brackets(sid))

    return read_rows(path, assign, lambda _: table)

"""Bounding items-per-SID after raw assignment.

An assignment is an `AssignmentTable`: the item ids in order plus one (N, m)
int64 code matrix whose row i is the SID of item i.  Raw content-based
assignment lets popular regions of embedding space pile many items onto one
SID.  Each policy here computes a whole code matrix and builds its table
once: knn streams the items in catalog order and walks outward through the
nearest last-level codewords until one has headroom, the random policy
cycles the last code per prefix, merge deliberately re-concentrates small
SIDs (the fairness-degrading inverse used for ablations), and noco leaves
the raw table untouched.
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
    """Item ids in insertion order plus one (N, m) int64 code matrix.

    Row i is the SID of the i-th item; nothing else is stored.  Occupancy and
    each SID's members, in ascending id, come from one stable lexsort over
    the item id and the code columns, built on the first read after a change.
    Codes are never packed into one integer key, so (256,) * 8 works.  The
    constructor rejects a duplicate id or an out-of-band code with DataError.
    `assign` copies the matrix on an insert, so it is for single edits.
    """

    def __init__(self, structure: SidStructure, item_ids=(), codes=()):
        self.structure = structure
        ids = list(item_ids)
        self._rows = dict(zip(ids, range(len(ids))))  # id -> matrix row, in order
        if len(self._rows) < len(ids):
            dup = next(item_id for i, item_id in enumerate(ids) if self._rows[item_id] != i)
            raise DataError(f"duplicate item_id {dup!r}")
        codes = np.array(codes, dtype=np.int64)
        self._codes = codes.reshape(0, structure.num_levels) if codes.size == 0 else codes
        if self._codes.shape != (len(ids), structure.num_levels):
            raise DataError(f"expected a ({len(ids)}, {structure.num_levels}) code matrix, "
                            f"got {codes.shape}")
        bad = np.argwhere((self._codes < 0) | (self._codes >= structure.level_sizes))
        if bad.size:
            i, j = bad[0]
            raise DataError(f"item {ids[i]!r}: code {self._codes[i, j]} out of range "
                            f"[0, {structure.level_sizes[j]}) at level {j}")
        self._groups = self._sids = None

    def assign(self, item_id: str, sid: SemanticId) -> None:
        """Insert or move one item."""
        codes = sid.validate(self.structure).codes
        row = self._rows.get(item_id)
        if row is None:
            self._rows[item_id] = len(self._rows)
            self._codes = np.vstack([self._codes, codes])
        else:
            self._codes[row] = codes
        self._groups = self._sids = None

    def _sid_list(self) -> list[SemanticId]:
        """Row i's SID as a SemanticId, built on the first read after a change."""
        if self._sids is None:
            self._sids = list(map(SemanticId, self._codes.tolist()))
        return self._sids

    def _members(self) -> dict[tuple[int, ...], list[str]]:
        """Occupied SID -> its item ids in ascending order, built on the first
        read after a change."""
        if self._groups is None:
            ids = list(self._rows)
            by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
            order = by_id[np.lexsort(self._codes[by_id].T[::-1])]
            codes = self._codes[order]
            new = np.ones(len(order), dtype=bool)
            new[1:] = (codes[1:] != codes[:-1]).any(axis=1)
            starts = np.flatnonzero(new).tolist()
            members = [ids[i] for i in order.tolist()]
            self._groups = {tuple(codes[a].tolist()): members[a:b]
                            for a, b in zip(starts, starts[1:] + [len(order)])}
        return self._groups

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __getitem__(self, item_id: str) -> SemanticId:
        try:
            return self._sid_list()[self._rows[item_id]]
        except KeyError:
            raise DataError(f"item {item_id!r} has no assigned SID") from None

    def items(self) -> list[tuple[str, SemanticId]]:
        return list(zip(self._rows, self._sid_list()))

    def occupancy_of(self, sid: SemanticId | tuple[int, ...]) -> int:
        codes = sid.codes if isinstance(sid, SemanticId) else tuple(sid)
        return len(self._members().get(codes, ()))

    @property
    def occupancy(self) -> dict[tuple[int, ...], int]:
        """Occupied SIDs only, in ascending codes; zeros are implicit."""
        return {codes: len(ids) for codes, ids in self._members().items()}

    def items_for_sid(self, sid: SemanticId | tuple[int, ...]) -> list[str]:
        """Member item ids in ascending id order."""
        codes = sid.codes if isinstance(sid, SemanticId) else tuple(sid)
        return list(self._members().get(codes, ()))

    def copy(self) -> "AssignmentTable":
        return AssignmentTable(self.structure, self._rows, self._codes)


def raw_assignment(catalog, model: QuantizerModel) -> AssignmentTable:
    """Content-based SIDs straight from the quantizer, no collision handling.

    The random-baseline quantizer has no content path; its items draw uniform
    codes from the model seed instead.
    """
    if model.kind == "random":
        codes = assign_random(catalog.item_ids, model.structure, model.seed)
    else:
        codes = model.assign_batch(catalog.embedding_matrix())
    return AssignmentTable(model.structure, catalog.item_ids, codes)


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
    prefixes, orders = model.rank_last_level_batch(catalog.embedding_matrix())
    loads: dict[tuple[int, ...], list[int]] = {}  # prefix -> items per last code so far
    last = []
    for prefix, candidates in zip(map(tuple, prefixes.tolist()), orders[:, :k].tolist()):
        load = loads.setdefault(prefix, [0] * n_m)
        chosen = next((c for c in candidates if load[c] < sigma), None)
        if chosen is None:
            chosen = min(candidates, key=lambda c: (load[c], c))
        load[chosen] += 1
        last.append(chosen)
    return AssignmentTable(model.structure, catalog.item_ids, np.column_stack([prefixes, last]))


def apply_random_policy(catalog, model: QuantizerModel) -> AssignmentTable:
    """Cycle the last-level code per prefix: 0, 1, .., n_m-1, 0, ..

    Guarantees per-prefix occupancy spread of at most 1.  Needs m >= 2 since
    the last level is overwritten while the prefix is kept.
    """
    structure = model.structure
    if structure.num_levels < 2:
        raise DataError("random policy overwrites the last level; structure needs m >= 2")
    n_m = structure.level_sizes[-1]
    prefixes, _ = model.rank_last_level_batch(catalog.embedding_matrix())
    counters: dict[tuple[int, ...], int] = {}
    last = []
    for prefix in map(tuple, prefixes.tolist()):
        idx = counters.get(prefix, 0)
        last.append(idx)
        counters[prefix] = (idx + 1) % n_m
    return AssignmentTable(structure, catalog.item_ids, np.column_stack([prefixes, last]))


def apply_merge_policy(
    table: AssignmentTable, codebooks, merge_threshold: int
) -> AssignmentTable:
    """Fold small SIDs, those holding fewer than merge_threshold items, into
    bigger siblings under the same prefix.

    The result is read off each prefix's counts.  If some SID of the prefix
    holds at least the threshold, each small SID moves whole to the nearest
    such SID (squared distance between last-level codewords, ties to the
    lowest code).  Otherwise every item of the prefix moves to its largest
    SID (ties to the highest code), so a lone SID keeps its items.  This is
    the end state of visiting the small SIDs in ascending (occupancy, codes)
    order, each moving to its nearest sibling at the threshold, else to its
    largest sibling.  Distinct occupied SIDs never increase.
    """
    if merge_threshold <= 0:
        return table.copy()
    last_table = codebooks.levels[-1]
    by_prefix: dict[tuple[int, ...], dict[int, int]] = {}
    for codes, count in table.occupancy.items():
        by_prefix.setdefault(codes[:-1], {})[codes[-1]] = count
    dest: dict[tuple[int, ...], int] = {}  # small SID -> its new last code
    for prefix, counts in by_prefix.items():
        small = [c for c, n in counts.items() if n < merge_threshold]
        big = sorted(c for c, n in counts.items() if n >= merge_threshold)
        if big:
            d2 = ((last_table[small][:, None] - last_table[big]) ** 2).sum(axis=2)
            targets = [big[i] for i in d2.argmin(axis=1).tolist()]  # first minimum: lowest code
        else:
            targets = [max(counts, key=lambda c: (counts[c], c))] * len(small)
        dest.update((prefix + (c,), t) for c, t in zip(small, targets))
    codes = table._codes.copy()
    codes[:, -1] = [dest.get(tuple(row), row[-1]) for row in codes.tolist()]
    return AssignmentTable(table.structure, table, codes)


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
    """Read an assignment TSV; a duplicate item or an out-of-band code is an
    error that names its line."""
    rows: dict[str, tuple[int, ...]] = {}

    def parse(fields):
        item_id, sid = fields
        if item_id in rows:
            raise DataError(f"duplicate item_id {item_id!r}")
        rows[item_id] = parse_sid_brackets(sid).validate(structure).codes

    return read_rows(path, parse, lambda _: AssignmentTable(structure, rows, list(rows.values())))

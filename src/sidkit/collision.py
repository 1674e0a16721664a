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

from dataclasses import dataclass, field

import numpy as np

from . import rows
from .catalog import (SemanticId, SidStructure, comma_matrix, integer_array, integer_tuple,
                      parse_sid_brackets, read_rows, write_artifact)
from .errors import DataError
from .quantizer import QuantizerModel, assign_random, block_rows, nearest_codewords

DEFAULT_SIGMA = 25


class AssignmentTable:
    """Item ids in insertion order plus one (N, m) int64 code matrix.

    Row i is the SID of the i-th item; nothing else is stored.  On the first
    read after a change, one stable sort of the SIDs' flat-token rows (see
    sidkit.rows) over the items in ascending id gives the member order (every
    item, by SID, then id) and an index over the distinct SIDs whose row
    ranges are their members' positions in that order.  `occupied()` reads
    the occupied SIDs and their counts off that index; `occupancy` and
    `occupancy_of` read a dict view of them.  The constructor rejects a
    duplicate id or an out-of-band code with DataError.  `assign` copies the
    matrix on an insert, so it is for single edits.
    """

    def __init__(self, structure: SidStructure, item_ids=(), codes=()):
        self.structure = structure
        ids = list(item_ids)
        self._rows = dict(zip(ids, range(len(ids))))  # id -> matrix row, in order
        if len(self._rows) < len(ids):
            dup = next(item_id for i, item_id in enumerate(ids) if self._rows[item_id] != i)
            raise DataError(f"duplicate item_id {dup!r}")
        codes = integer_array(codes, "code")
        codes = codes.reshape(0, structure.num_levels) if codes.size == 0 else codes
        if codes.shape != (len(ids), structure.num_levels):
            raise DataError(f"expected a ({len(ids)}, {structure.num_levels}) code matrix, "
                            f"got {codes.shape}")
        bad = np.argwhere((codes < 0) | (codes >= structure.level_sizes))
        if bad.size:
            i, j = bad[0]
            raise DataError(f"item {ids[i]!r}: code {codes[i, j]} out of range "
                            f"[0, {structure.level_sizes[j]}) at level {j}")
        self._codes = codes.astype(np.int64)  # a copy, which copy() and merge rely on
        self._index = self._counts = None

    def assign(self, item_id: str, sid: SemanticId) -> None:
        """Insert or move one item."""
        codes = sid.validate(self.structure).codes
        row = self._rows.get(item_id)
        if row is None:
            self._rows[item_id] = len(self._rows)
            self._codes = np.vstack([self._codes, codes])
        else:
            self._codes[row] = codes
        self._index = self._counts = None

    def _sid_index(self) -> rows.Index:
        """The index over the distinct SIDs, built with the member order: row
        indices `_order` and item ids `_ordered`."""
        if self._index is None:
            ids = list(self._rows)
            by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
            tokens = self._codes[by_id] + np.asarray(self.structure.offsets)
            radix = self.structure.total_tokens + 1
            order, _ = rows.sort(rows.pack(tokens, radix), kind="stable")
            self._order = by_id[order]
            self._ordered = [ids[i] for i in self._order.tolist()]
            self._index = rows.Index(tokens[order], radix)
        return self._index

    def occupied(self) -> tuple[np.ndarray, np.ndarray]:
        """The occupied SIDs, an (S, m) int64 matrix in ascending codes, and
        the (S,) count of each, whose members are consecutive in `_order`."""
        starts = self._sid_index().starts
        return self._codes[self._order[starts[:-1]]], np.diff(starts)

    def _occupancy(self) -> dict[tuple[int, ...], int]:
        """Occupied SID -> item count, in ascending codes."""
        if self._counts is None:
            sids, counts = self.occupied()
            self._counts = dict(zip(map(tuple, sids.tolist()), counts.tolist()))
        return self._counts

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __getitem__(self, item_id: str) -> SemanticId:
        return SemanticId(self.codes_of([item_id])[0].tolist())

    def codes_of(self, item_ids) -> np.ndarray:
        """The (n, m) code rows of the given items, in the order given."""
        at = self._rows
        try:
            return self._codes[[at[item_id] for item_id in item_ids]]
        except KeyError as missing:
            raise DataError(f"item {missing.args[0]!r} has no assigned SID") from None

    def items(self) -> list[tuple[str, SemanticId]]:
        return list(zip(self._rows, map(SemanticId, self._codes.tolist())))

    def occupancy_of(self, sid: SemanticId | tuple[int, ...]) -> int:
        """Items holding the SID; a SID of the wrong length, or a code that
        is no integer, raises DataError."""
        codes = (sid if isinstance(sid, SemanticId) else SemanticId(sid)).codes
        count = self._occupancy().get(codes)
        if count is None and len(codes) != self.structure.num_levels:
            self.items_for_codes([codes])  # raises the shape error
        return count or 0

    @property
    def occupancy(self) -> dict[tuple[int, ...], int]:
        """Occupied SIDs only, in ascending codes; zeros are implicit."""
        return dict(self._occupancy())

    def items_for_sid(self, sid: SemanticId | tuple[int, ...]) -> list[str]:
        """Member item ids in ascending id order."""
        return self.items_for_codes([sid.codes if isinstance(sid, SemanticId) else sid])

    def items_for_codes(self, code_rows, limit: int | None = None) -> list[str]:
        """The members of each code row in turn, each SID's in ascending id,
        cut at `limit` ids (no cut when None).  The rows, an (n, m) array or
        a list of code rows, are looked up at once in the SID index; a row
        with a code out of its level's band, however large, holds nobody.  A
        code that is no integer is a DataError."""
        m = self.structure.num_levels
        codes = integer_array(code_rows, "code")
        codes = codes.reshape(0, m) if codes.shape == (0,) else codes
        if codes.ndim != 2 or codes.shape[1] != m:
            raise DataError(f"expected an (n, {m}) code matrix, got shape {codes.shape}")
        in_band = (codes >= 0) & (codes < self.structure.level_sizes)
        held = None if in_band.all() else in_band.all(axis=1)  # the rows that may hold items
        if held is not None:
            codes = np.where(held[:, None], codes, 0)  # looked up as zeros, then emptied
        start, stop = self._sid_index().rows_of(
            codes.astype(np.int64, copy=False) + np.asarray(self.structure.offsets))
        found, _ = rows.expand(start, stop if held is None else np.where(held, stop, start))
        ordered = self._ordered
        return [ordered[i] for i in found[:limit].tolist()]

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
) -> AssignmentTable:
    """Divert items away from full SIDs via the nearest-codeword ranking.

    Items stream in catalog order.  Levels 1..m-1 stay as assigned; the last
    level walks the codewords in ascending residual distance and takes the
    first whose SID holds fewer than sigma items so far.  If every SID of the
    prefix is full the item falls back to the prefix's least-loaded code
    (ties to the lowest code), so assignment never fails.

    The prefixes are walked once and each item's nearest codeword taken
    from its residual.  Only an item whose nearest codeword's SID is full
    reads the ranking: the residuals of its block, the block_rows(n_m) rows
    nearest_codewords decides together, are ranked when the first such item
    of the block comes, once per block.  Both forms break ties to the lowest
    code, so the nearest codeword heads its ranking.
    """
    (sigma,) = integer_tuple([sigma], "sigma")
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    n_m = model.structure.level_sizes[-1]
    prefixes, Z = model.prefix_walk(catalog.embedding_matrix())
    codewords = model.codebooks.levels[-1]
    last = nearest_codewords(Z, codewords)
    step = block_rows(n_m)
    ranked_block, ranking = -1, None  # the block ranked last, and its (rows, n_m) ranking
    loads: dict[tuple[int, ...], list[int]] = {}  # prefix -> items per last code so far
    for i, (prefix, chosen) in enumerate(zip(map(tuple, prefixes.tolist()), last.tolist())):
        load = loads.setdefault(prefix, [0] * n_m)
        if load[chosen] >= sigma:
            if i // step != ranked_block:
                ranked_block = i // step
                block = Z[ranked_block * step : (ranked_block + 1) * step]
                ranking = nearest_codewords(block, codewords, ranked=True)
            chosen = next((c for c in ranking[i % step].tolist() if load[c] < sigma), None)
            if chosen is None:
                chosen = load.index(min(load))
            last[i] = chosen
        load[chosen] += 1
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
    prefixes = model.prefix_walk(catalog.embedding_matrix())[0]
    order, keys = rows.sort(rows.pack(prefixes, structure.total_tokens + 1), kind="stable")
    starts, counts = rows.distinct(keys)
    last = np.empty(len(order), dtype=np.int64)
    last[order] = (np.arange(len(order)) - np.repeat(starts, counts)) % n_m  # rank in prefix
    return AssignmentTable(structure, catalog.item_ids, np.column_stack([prefixes, last]))


def apply_merge_policy(
    table: AssignmentTable, codebooks, merge_threshold: int
) -> AssignmentTable:
    """Fold small SIDs, those holding fewer than merge_threshold items, into
    bigger siblings under the same prefix.

    The result is read off the table's occupied SIDs, where a prefix's SIDs
    are one run.  If some SID of the prefix holds at least the threshold,
    each small SID moves whole to the nearest such SID (squared distance
    between last-level codewords, ties to the lowest code).  Otherwise every
    item of the prefix moves to its largest SID (ties to the highest code),
    so a lone SID keeps its items.  This is the end state of visiting the
    small SIDs in ascending (occupancy, codes) order, each moving to its
    nearest sibling at the threshold, else to its largest sibling.  Distinct
    occupied SIDs never increase.
    """
    last_table = codebooks.levels[-1]
    sids, counts = table.occupied()
    last = sids[:, -1].copy()  # each SID's new last code
    small = counts < merge_threshold
    starts = np.ones(len(sids) + 1, dtype=bool)  # where a prefix's run starts, and the end
    starts[1:-1] = (sids[1:, :-1] != sids[:-1, :-1]).any(axis=1)
    bounds = np.flatnonzero(starts)
    runs = np.unique(np.cumsum(starts[:-1])[small] - 1)  # the prefixes holding a small SID
    for lo, hi in zip(bounds[runs].tolist(), bounds[runs + 1].tolist()):
        old, is_small = sids[lo:hi, -1], small[lo:hi]
        big = old[~is_small]
        if big.size:
            last[lo:hi][is_small] = big[nearest_codewords(last_table[old[is_small]],
                                                          last_table[big])]  # ties: lowest code
        else:  # the last maximum: the highest code
            last[lo:hi] = old[::-1][np.argmax(counts[lo:hi][::-1])]
    codes = table._codes.copy()
    codes[table._order, -1] = np.repeat(last, counts)
    return AssignmentTable(table.structure, table, codes)


@dataclass
class OccupancyStats:
    max_occupancy: int = 0
    mean_occupancy: float = 0.0
    distinct_occupied: int = 0
    histogram: dict[int, int] = field(default_factory=dict)


def occupancy_stats(table: AssignmentTable) -> OccupancyStats:
    """Exact counts over the occupied SIDs; empty table reports zeros."""
    _, counts = table.occupied()
    if not len(counts):
        return OccupancyStats()
    sizes, n_sids = np.unique(counts, return_counts=True)
    return OccupancyStats(max_occupancy=int(sizes[-1]), mean_occupancy=float(np.mean(counts)),
                          distinct_occupied=len(counts),
                          histogram=dict(zip(sizes.tolist(), n_sids.tolist())))


def save_assignment(table: AssignmentTable, path) -> None:
    """TSV: item_id, bracketed SID; the same shape the catalog loader accepts.
    Rows are formatted straight from the code matrix."""
    row = "%s\t[" + ",".join(["%d"] * table.structure.num_levels) + "]\n"
    write_artifact(path, (row % (item_id, *codes)
                          for item_id, codes in zip(table, table._codes.tolist())))


_DIGITS_AND_COMMAS = str.maketrans("", "", "0123456789,")


def _code_matrix(texts: list[str], m: int) -> np.ndarray:
    """Bracketed SID texts as an (n, m) int64 matrix.  ValueError or
    OverflowError unless every text is `[c,..]` with m codes that fit int64,
    each code ASCII digits (parse_sid_brackets' grammar)."""
    bodies = [text.strip() for text in texts]
    if not all(body[:1] == "[" and body[-1:] == "]" for body in bodies):
        raise ValueError("a SID is not bracketed")
    codes = [body[1:-1] for body in bodies]
    if "".join(codes).translate(_DIGITS_AND_COMMAS):
        raise ValueError("a SID holds other than ASCII digits and commas")
    return comma_matrix(codes, m, int, np.int64)


def load_assignment(path, structure: SidStructure) -> AssignmentTable:
    """Read an assignment TSV into a table.

    Each row is read as its two fields; once the file is read, every code is
    parsed into one (N, m) int64 matrix, and the table's constructor checks
    bands and duplicate ids on it.  When a check fails, `read_rows` walks
    the rows through their one-row check: the first bad row (a duplicate
    item, a malformed SID, a wrong level count or an out-of-band code) is
    the one reported, at its line."""

    def parse(fields):
        item_id, text = fields
        return item_id, text

    def finish(parsed):
        ids, texts = list(zip(*parsed)) or [(), ()]
        return AssignmentTable(structure, ids, _code_matrix(texts, structure.num_levels))

    seen = set()  # ids, as check_row walks

    def check_row(i, row):
        item_id, text = row
        if item_id in seen:
            raise DataError(f"duplicate item_id {item_id!r}")
        seen.add(item_id)
        parse_sid_brackets(text).validate(structure)

    return read_rows(path, parse, finish, check_row)

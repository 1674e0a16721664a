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

from .catalog import SemanticId, SidStructure, comma_matrix, parse_sid_brackets, read_rows
from .errors import DataError, RowError
from .quantizer import QuantizerModel, assign_random

DEFAULT_SIGMA = 25


class AssignmentTable:
    """Item ids in insertion order plus one (N, m) int64 code matrix.

    Row i is the SID of the i-th item; nothing else is stored.  Occupancy and
    each SID's members, in ascending id, come from one stable lexsort over
    the item id and the code columns, built on the first read after a change,
    together with an index that looks many SIDs up at once.  Codes are never
    packed into one integer key; the index packs as many columns per key as
    fit (see _ContextIndex), so (256,) * 8 works.  The constructor rejects a
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
        self._groups = self._index = self._ordered = None

    def assign(self, item_id: str, sid: SemanticId) -> None:
        """Insert or move one item."""
        codes = sid.validate(self.structure).codes
        row = self._rows.get(item_id)
        if row is None:
            self._rows[item_id] = len(self._rows)
            self._codes = np.vstack([self._codes, codes])
        else:
            self._codes[row] = codes
        self._groups = None

    def _members(self) -> dict[tuple[int, ...], list[str]]:
        """Occupied SID -> its item ids in ascending order, built on the first
        read after a change.  The same lexsort gives the member order (every
        item id, by SID, then id) and an index over the SIDs' flat-token rows
        whose row ranges are the members' positions in it."""
        if self._groups is None:
            ids = list(self._rows)
            by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
            order = by_id[np.lexsort(self._codes[by_id].T[::-1])]
            codes = self._codes[order]
            self._index = _ContextIndex(codes + np.asarray(self.structure.offsets),
                                        self.structure.total_tokens)
            self._ordered = [ids[i] for i in order.tolist()]
            starts = self._index.starts[:-1].tolist()
            self._groups = {tuple(codes[a].tolist()): self._ordered[a:b]
                            for a, b in zip(starts, starts[1:])}
        return self._groups

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __getitem__(self, item_id: str) -> SemanticId:
        return SemanticId(self._codes[self._row(item_id)].tolist())

    def _row(self, item_id: str) -> int:
        try:
            return self._rows[item_id]
        except KeyError:
            raise DataError(f"item {item_id!r} has no assigned SID") from None

    def codes_of(self, item_ids) -> np.ndarray:
        """The (n, m) code rows of the given items, in the order given."""
        rows = self._rows
        try:
            return self._codes[[rows[item_id] for item_id in item_ids]]
        except KeyError as missing:
            raise DataError(f"item {missing.args[0]!r} has no assigned SID") from None

    def items(self) -> list[tuple[str, SemanticId]]:
        return list(zip(self._rows, map(SemanticId, self._codes.tolist())))

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

    def items_for_codes(self, code_rows, limit: int | None = None) -> list[str]:
        """The members of each code row in turn, each SID's in ascending id,
        cut at `limit` ids (no cut when None).  The rows, an (n, m) array or
        a list of code rows, are looked up at once in the SID index; a row
        with a code out of its level's band holds nobody."""
        self._members()
        m = self.structure.num_levels
        codes = np.asarray(code_rows, dtype=np.int64)
        codes = codes.reshape(0, m) if codes.size == 0 else codes
        if codes.ndim != 2 or codes.shape[1] != m:
            raise DataError(f"expected an (n, {m}) code matrix, got shape {codes.shape}")
        start, stop = self._index.rows_of(codes + np.asarray(self.structure.offsets))
        in_band = ((codes >= 0) & (codes < self.structure.level_sizes)).all(axis=1)
        sizes = np.where(in_band, stop - start, 0)
        ends = np.cumsum(sizes)
        total = int(ends[-1]) if len(ends) else 0
        found = np.arange(total if limit is None else min(total, limit))
        row = np.searchsorted(ends, found, side="right")
        ordered = self._ordered
        return [ordered[i] for i in (start[row] + found - (ends[row] - sizes[row])).tolist()]

    def copy(self) -> "AssignmentTable":
        return AssignmentTable(self.structure, self._rows, self._codes)


class _ContextIndex:
    """The distinct rows of a sorted int table, as a trie of dense prefix ids:
    one "find these rows" for the scorer's contexts and a table's SIDs.

    A trie level spans a few context columns.  Its node ids number the
    distinct prefixes that end with those columns, in sorted order, and its
    sorted keys hold parent_id * radix**width + the level's columns packed
    base radix (see _pack).  So a node's id is its position in those
    keys and one searchsorted per level walks a batch down the trie.  Each
    level spans as many columns as keep every key below 2**63 for this
    table, so no key overflows however many columns it has; at desk scale
    one level spans them all.  The keys end in a sentinel no key equals.  A
    miss moves to the node one past the real ones, whose keys sort past
    every real key at the next level, so it stays missed.  starts[n] is the
    first row of context n; the missing context gets an empty row range.
    """

    def __init__(self, contexts: np.ndarray, total_tokens: int):
        self.radix, self.order = total_tokens + 1, contexts.shape[1]
        new = np.zeros(len(contexts), dtype=bool)
        new[:1] = True
        parent = np.zeros(len(contexts), dtype=np.int64)
        self.levels, lo = [], 0  # (first column, radix powers, radix**width, keys)
        for width in _key_widths(self.radix, self.order, room=len(contexts) + 1):
            for column in contexts[:, lo : lo + width].T:
                new[1:] |= column[1:] != column[:-1]
            at = np.flatnonzero(new)
            powers = _radix_powers(self.radix, width)
            span = self.radix**width
            keys = parent[at] * span + _pack(contexts[at, lo : lo + width], powers)
            self.levels.append((lo, powers, span, np.append(keys, np.iinfo(np.int64).max)))
            np.cumsum(new, out=parent)
            parent -= 1
            lo += width
        self.starts = np.append(np.flatnonzero(new), [len(contexts)] * 2)
        self.num_contexts = len(self.starts) - 2

    def rows_of(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row range [start, stop) of each row's context; keys narrower than
        the order are contexts right-padded with -1, the start of a stream."""
        if keys.shape[1] < self.order:
            padding = np.full((len(keys), self.order - keys.shape[1]), -1, dtype=np.int64)
            keys = np.concatenate((keys, padding), axis=1)
        node = 0
        for lo, powers, span, level_keys in self.levels:
            key = _pack(keys[:, lo : lo + len(powers)], powers) + node * span
            at = np.searchsorted(level_keys, key)
            node = np.where(level_keys[at] == key, at, len(level_keys) - 1)
        return self.starts[node], self.starts[node + 1]


def _key_widths(radix: int, width: int, room: int = 1) -> list[int]:
    """How many of `width` columns each packed key holds, left to right: as
    many as keep room * radix**columns below 2**63."""
    per = 1
    while room * radix ** (per + 1) < 2**63:
        per += 1
    return [min(per, width - lo) for lo in range(0, width, per)]


def _radix_powers(radix: int, width: int) -> np.ndarray:
    """radix**(width - 1), ..., radix, 1 as int64."""
    return radix ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _pack(columns: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Each row's columns as one int64, written base radix with each column
    as its value + 1, so the -1 padding is digit 0."""
    return (columns + 1) @ powers



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
    prefixes = model.assign_batch(catalog.embedding_matrix())[:, :-1]
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
    """TSV: item_id, bracketed SID; the same shape the catalog loader accepts.
    Rows are formatted straight from the code matrix."""
    row = "%s\t[" + ",".join(["%d"] * table.structure.num_levels) + "]\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(row % (item_id, *codes)
                      for item_id, codes in zip(table, table._codes.tolist()))


def _code_matrix(texts: list[str], m: int) -> np.ndarray:
    """Bracketed SID texts as an (n, m) int64 matrix.  ValueError or
    OverflowError unless every text is `[c,..]` with m codes that fit int64."""
    bodies = [text.strip() for text in texts]
    if not all(body[:1] == "[" and body[-1:] == "]" for body in bodies):
        raise ValueError("a SID is not bracketed")
    return comma_matrix([body[1:-1] for body in bodies], m, int, np.int64)


def load_assignment(path, structure: SidStructure) -> AssignmentTable:
    """Read an assignment TSV into a table.

    Each row keeps its SID text; once the file is read, every code is parsed
    into one (N, m) int64 matrix, and the table's constructor checks bands
    and duplicate ids on it.  Only when a check fails are the rows walked one
    by one, in file order: the first bad row (a duplicate item, a malformed
    SID, a wrong level count or an out-of-band code) is the one reported, at
    its line."""
    ids, texts = [], []

    def first_bad_row() -> None:
        """RowError at the first row read so far that fails a row check."""
        seen = set()
        for i, (item_id, text) in enumerate(zip(ids, texts)):
            try:
                if item_id in seen:
                    raise DataError(f"duplicate item_id {item_id!r}")
                seen.add(item_id)
                parse_sid_brackets(text).validate(structure)
            except DataError as exc:
                raise RowError(i, str(exc)) from None

    def parse(fields):
        try:
            item_id, text = fields
        except ValueError:
            first_bad_row()  # an earlier bad row is the one reported
            raise
        ids.append(item_id)
        texts.append(text)

    def finish(_):
        try:
            return AssignmentTable(structure, ids, _code_matrix(texts, structure.num_levels))
        except (ValueError, OverflowError, DataError):
            first_bad_row()
            raise

    return read_rows(path, parse, finish)

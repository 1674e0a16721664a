"""Rows of ints in [-1, radix - 1) packed into int64 keys, sorted and
looked up: the scorer's (context, next token) rows and a table's SIDs.
top_k, the package's one top-k selection, sends ties to the lowest position.

A key holds a few columns written base `radix`, each value + 1 a digit, so
the -1 padding of a short context is digit 0 and the keys' lexicographic
order is the rows' tuple order.  A row takes as many keys as its width needs
(see key_widths), so a row of any width packs.
"""

from __future__ import annotations

import numpy as np


def key_widths(radix: int, width: int, room: int = 1) -> list[int]:
    """How many of `width` columns each packed key holds, left to right: as
    many as keep room * radix**columns below 2**63, and at least one.  One
    column always fits while radix <= 2**31 and room <= 2**32, which
    SidStructure's bound on total_tokens + 1 (the radix) guarantees for any
    table of fewer than 2**32 rows."""
    per = 1
    while room * int(radix) ** (per + 1) < 2**63:  # a numpy radix would wrap
        per += 1
    return [min(per, width - lo) for lo in range(0, width, per)]


def _powers(radix: int, width: int) -> np.ndarray:
    """radix**(width - 1), ..., radix, 1: the weights of a key's digits."""
    return radix ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _digits(columns: np.ndarray, powers: np.ndarray, shift) -> np.ndarray:
    """Each row's columns as one int64 key: (columns + 1) @ powers, written
    so that no copy of the columns is made; `shift` is powers.sum()."""
    return columns @ powers + shift


def pack(rows: np.ndarray, radix: int) -> list[np.ndarray]:
    """The (n, w) rows as the fewest int64 keys that hold them, most
    significant first.  A value outside [-1, radix - 1) gives a key that may
    equal another row's."""
    keys, lo = [], 0
    for width in key_widths(radix, rows.shape[1]):
        powers = _powers(radix, width)
        keys.append(_digits(rows[:, lo : lo + width], powers, powers.sum()))
        lo += width
    return keys


def unpack(keys: list[np.ndarray], radix: int, width: int) -> np.ndarray:
    """The (n, width) rows that pack(rows, radix) packed into `keys`."""
    rows = np.empty((len(keys[0]), width), dtype=np.int64)
    lo = 0
    for key, key_width in zip(keys, key_widths(radix, width)):
        for j in reversed(range(lo, lo + key_width)):
            key, _ = np.divmod(key, radix, out=(None, rows[:, j]))
        lo += key_width
    rows -= 1
    return rows


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The positions of the k highest scores (all if fewer), best first, ties
    in position order: np.argsort(-scores, kind="stable")[:k], but only the
    k kept are sorted.  k must be at least 1.

    The cut, the k-th highest score, is read off one full np.sort: a beam's
    candidates are mostly ties (an order-3 scorer's unseen codes all share
    the add-alpha floor), and the sort's cost does not depend on ties, while
    np.partition's quickselect slows down on them to several times the sort."""
    n = len(scores)
    k = min(k, n)
    ordered = scores.copy()
    ordered.sort()
    cut = ordered[n - k]
    above = (scores > cut).nonzero()[0]
    pool = np.concatenate((above, (scores == cut).nonzero()[0][: k - len(above)]))
    return pool[(-scores[pool]).argsort(kind="stable")]


def sort(keys: list[np.ndarray], kind=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """The permutation that puts packed rows in tuple order, and the keys
    permuted by it; kind="stable" keeps equal rows in their input order, as
    the sort of rows of more than one key always does."""
    order = np.argsort(keys[0], kind=kind) if len(keys) == 1 else np.lexsort(keys[::-1])
    return order, [key[order] for key in keys]


def distinct(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Of packed rows in tuple order: the offset of each distinct row's first
    copy, and its number of copies."""
    n = len(keys[0])
    first = np.zeros(n, dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(first)
    return starts, np.diff(starts, append=n)


def expand(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position of each range [start[i], stop[i]) in turn, end to end,
    and the i each position came from."""
    sizes = stop - start
    owner = np.arange(len(sizes)).repeat(sizes)
    return (stop - sizes.cumsum()).repeat(sizes) + np.arange(len(owner)), owner


class Index:
    """The distinct rows of an (n, w) table in tuple order, as a trie of
    dense prefix ids: one "find these rows" for many rows at once.

    A trie level spans a few columns.  Its node ids number the distinct
    prefixes that end with those columns, in sorted order, and its sorted
    keys hold parent_id * radix**width + the level's key.  So a node's id is
    its position in those keys, and one searchsorted per level walks a batch
    down the trie.  Each level spans as many columns as keep every key below
    2**63 for this table; at desk scale one level spans them all.  The keys
    end in a sentinel no key equals.  A miss moves to the node one past the
    real ones, whose keys sort past every real key at the next level, so it
    stays missed.

    starts[r] is the first table row of distinct row r, and starts[-1] is n.
    """

    def __init__(self, rows: np.ndarray, radix: int):
        self._width = rows.shape[1]
        new = np.zeros(len(rows), dtype=bool)  # the row starts a new prefix
        new[:1] = True
        parent = np.zeros(len(rows), dtype=np.int64)
        self._levels, lo = [], 0  # levels: (columns, powers, their shift, radix**width, keys)
        for width in key_widths(radix, self._width, room=len(rows) + 1):
            powers = _powers(radix, width)
            shift = powers.sum()
            digits = _digits(rows[:, lo : lo + width], powers, shift)
            new[1:] |= digits[1:] != digits[:-1]
            at = np.flatnonzero(new)
            keys = parent[at] * radix**width + digits[at]
            self._levels.append((slice(lo, lo + width), powers, shift, radix**width,
                                 np.append(keys, np.iinfo(np.int64).max)))
            np.cumsum(new, out=parent)
            parent -= 1
            lo += width
        self.starts = np.append(np.flatnonzero(new), len(rows))
        self._bounds = np.append(self.starts, len(rows))  # a missed row's range is empty

    def rows_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The table row range [start, stop) that holds each of the (b, w')
        rows; rows narrower than the table's are right-padded with -1."""
        if rows.shape[1] < self._width:
            padded = np.full((len(rows), self._width), -1, dtype=np.int64)
            padded[:, : rows.shape[1]] = rows
            rows = padded
        node = 0
        for columns, powers, shift, span, level_keys in self._levels:
            key = _digits(rows[:, columns], powers, shift + node * span)
            at = level_keys.searchsorted(key)
            node = np.where(level_keys[at] == key, at, len(level_keys) - 1)
        return self._bounds[node], self._bounds[node + 1]

"""Item catalog data model, TSV ingestion, and the flat-token SID encoding.

Every other module builds on the types defined here: the level structure of a
semantic identifier (SID), the identifier itself, per-item records carrying a
multimodal embedding, and user interaction sequences.  File formats are plain
UTF-8 TSV so that fixtures stay diff-friendly.
"""

from __future__ import annotations

import contextlib
import logging
import operator
import os
import re
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Iterable, Iterator

import numpy as np

from . import rows
from .errors import DataError

logger = logging.getLogger(__name__)

MAX_HISTORY = 100


@dataclass(frozen=True)
class SidStructure:
    """Level layout of a SID: per-level codebook sizes plus codeword dimension.

    Args:
        level_sizes: number of codewords at each level, outermost first.
        code_dim: dimension of the codeword vectors.
    """

    level_sizes: tuple[int, ...]
    code_dim: int = 64

    def __post_init__(self):
        object.__setattr__(self, "level_sizes", integer_tuple(self.level_sizes, "level size"))
        if self.num_levels < 1:
            raise ValueError("a SID needs at least one level")
        if any(n < 2 for n in self.level_sizes):
            raise ValueError(f"every level needs >= 2 codewords, got {self.level_sizes}")
        if self.code_dim < 1:
            raise ValueError("code_dim must be positive")
        if self.total_tokens + 1 > 2**31:  # so one flat token packs into a key (sidkit.rows)
            raise ValueError(f"the levels hold {self.total_tokens} tokens; at most 2**31 - 1 fit")

    @property
    def num_levels(self) -> int:
        return len(self.level_sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Token offset of each level: sum of the sizes of all earlier levels."""
        acc, out = 0, []
        for n in self.level_sizes:
            out.append(acc)
            acc += n
        return tuple(out)

    @cached_property
    def total_tokens(self) -> int:
        return sum(self.level_sizes)

    @property
    def total_sids(self) -> int:
        """Number of distinct SIDs the structure can express (product of sizes)."""
        prod = 1
        for n in self.level_sizes:
            prod *= n
        return prod


@dataclass(frozen=True)
class SemanticId:
    """Ordered per-level codeword indices identifying one item slot."""

    codes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "codes", integer_tuple(self.codes, "code"))

    def validate(self, structure: SidStructure) -> "SemanticId":
        if len(self.codes) != structure.num_levels:
            raise DataError(
                f"SID has {len(self.codes)} levels, structure expects {structure.num_levels}"
            )
        for j, (c, n) in enumerate(zip(self.codes, structure.level_sizes)):
            if not 0 <= c < n:
                raise DataError(f"code {c} out of range [0, {n}) at level {j}")
        return self

    @property
    def prefix(self) -> tuple[int, ...]:
        """All codes except the last level."""
        return self.codes[:-1]


def as_embedding(values, d_in: int | None = None, context: str = "") -> np.ndarray:
    """Validate and return an embedding as a finite float64 vector."""
    vec = np.asarray(values, dtype=np.float64)
    where = f" ({context})" if context else ""
    if vec.ndim != 1:
        raise DataError(f"embedding must be a vector{where}")
    if d_in is not None and vec.shape[0] != d_in:
        raise DataError(f"embedding has {vec.shape[0]} dims, expected {d_in}{where}")
    if not np.all(np.isfinite(vec)):
        raise DataError(f"embedding contains non-finite entries{where}")
    return vec


@dataclass(eq=False)
class ItemRecord:
    """One catalog entry: id, fused embedding, and optional SID/relations."""

    item_id: str
    embedding: np.ndarray
    related_item: str | None = None
    sid: SemanticId | None = None
    style_group: str | None = None
    origin_group: str | None = None


def _checked_item(rows: dict[str, int], row: int, item_id: str, embedding, d_in: int) -> np.ndarray:
    """Item `row`'s embedding as a checked vector, once `item_id` is entered
    in `rows` (id -> first row).  DataError if an earlier row holds the id,
    else as :func:`as_embedding` raises."""
    if rows.setdefault(item_id, row) != row:
        raise DataError(f"duplicate item_id {item_id!r}")
    return as_embedding(embedding, d_in, context=f"item {item_id}")


class ItemCatalog:
    """Item ids in insertion order, one read-only (N, d_in) float64 embedding
    matrix whose row i is item i's, and four optional columns: SID, related
    item, style group and origin group (None where absent).

    The catalog is columnar: `catalog[item_id]` and `records()` build an
    ItemRecord only when read, its embedding a read-only row of the matrix,
    so editing a record leaves the catalog unchanged.  `embedding_matrix()`
    returns the matrix itself, with no copy.  A d_in below 1 is a
    ValueError.  The constructor checks each record in turn, a repeated id
    or an embedding that is not a finite d_in-vector being a DataError, and
    then every related-item link: a dangling reference is a data error too.
    Safe for concurrent reads.
    """

    def __init__(self, records: Iterable[ItemRecord], d_in: int):
        if int(d_in) < 1:
            raise ValueError(f"d_in must be at least 1, got {d_in}")
        records = list(records)
        rows: dict[str, int] = {}
        matrix = np.empty((len(records), int(d_in)))
        for i, rec in enumerate(records):
            matrix[i] = _checked_item(rows, i, rec.item_id, rec.embedding, d_in)
        self._set_columns(d_in, rows, matrix, [rec.sid for rec in records],
                          [rec.related_item for rec in records],
                          [rec.style_group for rec in records],
                          [rec.origin_group for rec in records])

    @classmethod
    def _of_columns(cls, d_in, rows, matrix, sids, related, styles, origins) -> "ItemCatalog":
        """A catalog over checked columns; only the related links are checked."""
        catalog = cls.__new__(cls)
        catalog._set_columns(d_in, rows, matrix, sids, related, styles, origins)
        return catalog

    def _set_columns(self, d_in, rows, matrix, sids, related, styles, origins) -> None:
        self.d_in = int(d_in)
        self._rows = rows  # id -> matrix row, in order
        self._ids = tuple(rows)
        self._matrix = matrix
        matrix.flags.writeable = False
        self._sids, self._related, self._styles, self._origins = sids, related, styles, origins
        for item_id, rel in zip(self._ids, related):
            if rel is not None and rel not in rows:
                raise DataError(f"item {item_id!r} references unknown related item {rel!r}")

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._rows

    def __getitem__(self, item_id: str) -> ItemRecord:
        try:
            i = self._rows[item_id]
        except KeyError:
            raise DataError(f"unknown item_id {item_id!r}") from None
        return ItemRecord(item_id, self._matrix[i], self._related[i], self._sids[i],
                          self._styles[i], self._origins[i])

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    @property
    def item_ids(self) -> tuple[str, ...]:
        return self._ids

    def records(self) -> Iterator[ItemRecord]:
        """Every item as an ItemRecord, in catalog order, each built when read."""
        return map(ItemRecord, self._ids, self._matrix, self._related, self._sids,
                   self._styles, self._origins)

    def related_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the items that name a related item, in catalog order,
        and the rows of the items they name."""
        anchors = [i for i, rel in enumerate(self._related) if rel is not None]
        partners = [self._rows[self._related[i]] for i in anchors]
        return np.array(anchors, dtype=np.int64), np.array(partners, dtype=np.int64)

    def embedding_matrix(self) -> np.ndarray:
        """All embeddings in catalog order, shape (len(self), d_in): the
        catalog's own read-only matrix."""
        return self._matrix


@dataclass(frozen=True)
class InteractionSequence:
    """One page view: prior history, the items interacted with, optional query."""

    pv_id: str
    history: tuple[str, ...]
    targets: tuple[str, ...]
    query: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "history", tuple(self.history))
        object.__setattr__(self, "targets", tuple(self.targets))
        _check_sequence(self.pv_id, self.history, self.targets)


def _check_sequence(pv_id: str, history, targets) -> None:
    """The rules of one page view: an id, at least one target, and at most
    MAX_HISTORY history ids."""
    if not pv_id:
        raise DataError("pv_id must be non-empty")
    if not targets:
        raise DataError(f"sequence {pv_id!r} has no targets")
    if len(history) > MAX_HISTORY:
        raise DataError(f"sequence {pv_id!r} history exceeds {MAX_HISTORY}")


class _ListView(Sequence):
    """Read-only view that reads as the list of its items: len, iteration,
    indexing and == against such a list (or a view of the same class)
    behave as the list does, and a slice is that list's slice.  A subclass
    gives __len__, __iter__ and _item, the item at one index."""

    __slots__ = ()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._item(operator.index(index))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, type(self))):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


class SequenceColumns(_ListView):
    """Read-only view of interaction sequences as columns: the pv ids and
    queries, `item_ids`, the distinct item ids in the order first named,
    and `items`, one int64 array of numbers into `item_ids` that holds each
    sequence's history and then its targets, end to end.  `starts` (n + 1)
    bounds each sequence's run and `target_starts` (n) its targets.

    It reads as the list of InteractionSequence (see _ListView).  A sequence
    is built only when read, so a corpus build or an id check reads the
    columns and builds none.  `of` builds the columns of InteractionSequence
    objects through the constructor, as the loader does, so there is one
    path.  Neither checks the rules of a sequence: the objects and the
    loader did.
    """

    __slots__ = ("pv_ids", "queries", "item_ids", "items", "starts", "target_starts")

    def __init__(self, pv_ids, queries, history_ids, n_history, target_ids, n_targets):
        """The columns of n sequences from their pv ids and queries, every
        history's ids end to end with each one's count, and every target
        list's likewise."""
        self.pv_ids, self.queries = list(pv_ids), list(queries)
        n_history = np.asarray(n_history, dtype=np.int64)
        self.starts = np.zeros(len(self.pv_ids) + 1, dtype=np.int64)
        np.cumsum(n_history + np.asarray(n_targets, dtype=np.int64), out=self.starts[1:])
        self.target_starts = self.starts[:-1] + n_history
        named = np.empty(self.starts[-1], dtype=object)  # each history, then its targets
        named[rows.expand(self.starts[:-1], self.target_starts)[0]] = history_ids
        named[rows.expand(self.target_starts, self.starts[1:])[0]] = target_ids
        self.item_ids = tuple(dict.fromkeys(named))
        numbers = dict(zip(self.item_ids, range(len(self.item_ids))))
        self.items = np.fromiter(map(numbers.__getitem__, named), np.int64, len(named))
        for column in (self.items, self.starts, self.target_starts):
            column.flags.writeable = False

    @classmethod
    def of(cls, sequences) -> "SequenceColumns":
        """The columns of InteractionSequence objects, in order."""
        sequences = list(sequences)
        histories, targets = [s.history for s in sequences], [s.targets for s in sequences]
        return cls([s.pv_id for s in sequences], [s.query for s in sequences],
                   list(chain.from_iterable(histories)), list(map(len, histories)),
                   list(chain.from_iterable(targets)), list(map(len, targets)))

    def __len__(self) -> int:
        return len(self.pv_ids)

    def _item(self, index: int) -> InteractionSequence:
        index = range(len(self))[index]  # from the end if negative; IndexError if outside
        start, stop = self.starts[index], self.starts[index + 1]
        ids = [self.item_ids[i] for i in self.items[start:stop].tolist()]
        cut = self.target_starts[index] - start
        return InteractionSequence(self.pv_ids[index], ids[:cut], ids[cut:], self.queries[index])

    def __iter__(self) -> Iterator[InteractionSequence]:
        ids = list(map(self.item_ids.__getitem__, self.items.tolist()))
        for pv_id, start, split, stop, query in zip(
                self.pv_ids, self.starts.tolist(), self.target_starts.tolist(),
                self.starts[1:].tolist(), self.queries):
            yield InteractionSequence(pv_id, ids[start:split], ids[split:stop], query)


def integer_array(values, what: str) -> np.ndarray:
    """`values` as an ndarray of integers: as numpy reads them when that is
    an integer dtype, else as int64, or as Python ints (dtype object) when
    one lies beyond int64.  A value that is no integer, a float among them
    even when it is integral, is a DataError naming `what`, the value and
    its position."""
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return array
    array = np.asarray(values, dtype=object)  # each value as given
    for at, value in np.ndenumerate(array):
        if not isinstance(value, (int, np.integer)):
            raise DataError(f"{what} {value} at position {at[0] if len(at) == 1 else at} "
                            "is not an integer")
    try:
        return array.astype(np.int64)
    except OverflowError:
        return array


def integer_tuple(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of ints, each read by operator.index.  A value
    that is no integer, a float among them even when it is integral, is a
    DataError naming `what`, the value and its position, as integer_array's."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for at, value in enumerate(values):
            if not hasattr(type(value), "__index__"):
                raise DataError(f"{what} {value} at position {at} is not an integer") from None
        raise


# ---------------------------------------------------------------------------
# Flat-token encoding
#
# Level j's codes occupy the token band [offsets[j], offsets[j] + n_j), so the
# bands of distinct levels never overlap and a token identifies its level.
# ---------------------------------------------------------------------------


def sid_to_flat_tokens(sid: SemanticId, structure: SidStructure) -> list[int]:
    """Map per-level codes to globally unique tokens: t_j = c_j + offset_j."""
    sid.validate(structure)
    return [c + off for c, off in zip(sid.codes, structure.offsets)]


def flat_tokens_to_sid(tokens: Sequence[int], structure: SidStructure) -> SemanticId:
    """Exact inverse of :func:`sid_to_flat_tokens`."""
    if len(tokens) != structure.num_levels:
        raise DataError(
            f"expected {structure.num_levels} tokens, got {len(tokens)}"
        )
    codes = []
    for j, (t, off, n) in enumerate(zip(tokens, structure.offsets, structure.level_sizes)):
        if not off <= t < off + n:
            raise DataError(f"token {t} outside level-{j} band [{off}, {off + n})")
        codes.append(t - off)
    return SemanticId(tuple(codes))


def render_sid_string(sid: SemanticId, structure: SidStructure) -> str:
    """Render as `C{t_1}C{t_2}...C{t_m}` over flat tokens, no separators."""
    return "".join(f"C{t}" for t in sid_to_flat_tokens(sid, structure))


SID_STRING = re.compile(r"(?:C[0-9]+)+")  # the SID-string grammar; use fullmatch
INT_LIST = re.compile(r"(?:[0-9]+(?:,[0-9]+)*)?")  # the comma-list grammar; use fullmatch


def parse_sid_string(s: str, structure: SidStructure) -> SemanticId:
    """Exact inverse of :func:`render_sid_string`."""
    if not SID_STRING.fullmatch(s):
        raise DataError(f"malformed SID string {s!r}")
    tokens = [int(t) for t in s.split("C")[1:]]
    return flat_tokens_to_sid(tokens, structure)


# ---------------------------------------------------------------------------
# Bracketed code-list form, e.g. `[1203,2315,3576]` (per-level codes, not
# flat tokens).  Used in the item-info and assignment TSV files.
# ---------------------------------------------------------------------------


def format_sid_brackets(sid: SemanticId) -> str:
    return "[" + ",".join(str(c) for c in sid.codes) + "]"


def parse_sid_brackets(text: str) -> SemanticId:
    """`[c,..]`, its body a non-empty INT_LIST; whitespace may surround it."""
    body = text.strip()
    codes = body[1:-1]
    if not (body[:1] == "[" and body[-1:] == "]" and codes and INT_LIST.fullmatch(codes)):
        raise DataError(f"malformed bracketed SID {text!r}")
    return SemanticId(tuple(map(int, codes.split(","))))


# ---------------------------------------------------------------------------
# TSV ingestion / serialization
# ---------------------------------------------------------------------------


# the errors read_rows reports as DataError, from a parse, a finish or a row check
PARSE_ERRORS = (ValueError, IndexError, KeyError, OverflowError, DataError)


def read_rows(path, parse_row, finish=lambda rows: rows, check_row=None, fold=None):
    """Read one artifact file: the one place the package opens one to read.

    Each non-blank line, less its line ending only (a scorer row may start
    with a tab), goes split on tabs to ``parse_row``; ``finish`` makes the
    list of results the loaded object.  With ``fold``, the results go to it
    _BLOCK_ROWS at a time instead, as they are read, and ``finish`` gets the
    list of what it returns, one per block, so only one block's rows are
    alive at once.  In the whole-file form, ``parse_row`` is None and
    ``finish`` gets the file's text instead.  Any of PARSE_ERRORS becomes
    ``DataError("path:line: ...")``; from ``fold`` or ``finish`` (checks on
    many rows) or from read-ahead UTF-8 decoding it becomes ``"path: ..."``.
    When ``check_row(i, row)`` is given (the one-row form of the checks a
    load makes in bulk), any error sends the rows through it in file order,
    the file read again and each line parsed as before, and the first row
    that the parse or the check refuses is reported at its line instead.
    In the whole-file form those rows are the text's non-blank lines, split
    and numbered as the per-line form reads them.  A file that loads is
    never walked.
    """
    rows, folded, lineno, text = [], [], 0, ""
    try:
        with open(path, encoding="utf-8") as fh:
            if parse_row is None:
                text = fh.read()
            else:
                for lineno, line in enumerate(fh, start=1):
                    if not line.isspace():
                        rows.append(parse_row(line.rstrip("\n").split("\t")))
                        if fold is not None and len(rows) == _BLOCK_ROWS:
                            lineno = 0  # a fold checks a block, no single line
                            folded.append(fold(rows))
                            rows = []
        lineno = 0  # no single line is at fault from here on
        if fold is not None:
            if rows:
                folded.append(fold(rows))
            rows = folded
        return finish(text if parse_row is None else rows)
    except PARSE_ERRORS as exc:
        if check_row is not None:  # the first row refused outranks the error
            with (open(path, encoding="utf-8") if parse_row is not None
                  else contextlib.nullcontext(text.split("\n"))) as lines:
                refused = _first_refused(lines, parse_row, check_row)
            if refused is not None:
                exc, lineno = refused
        where = path if not lineno or isinstance(exc, UnicodeDecodeError) else f"{path}:{lineno}"
        raise DataError(f"{where}: {exc}") from exc


def _first_refused(lines, parse_row, check_row):
    """The error and number of the first of `lines` (a file's, or its text's)
    that ``parse_row`` (None: none) or ``check_row`` refuses, blank lines
    counted but not walked; None if none is refused before the lines end or
    stop decoding."""
    i = 0
    try:
        for n, line in enumerate(lines, start=1):
            if line.strip():
                try:
                    fields = line.rstrip("\n").split("\t")
                    check_row(i, fields if parse_row is None else parse_row(fields))
                except PARSE_ERRORS as refused:
                    return refused, n
                i += 1
    except UnicodeDecodeError:  # every row before the bad byte was accepted
        pass
    return None


def write_artifact(path, chunks) -> None:
    """Write the str `chunks` to `path` as UTF-8: the one place the package
    opens a file to write.  They go to `path` + ".tmp", which replaces the
    artifact once it is whole, so an interrupted write never leaves a prefix
    at `path`.  A symlink's target is replaced and the link kept; a path that
    is there and is not a regular file (a device or a pipe) is written in place.
    A path that is the file stdout writes to is written through sys.stdout,
    after what the command printed.
    """
    try:
        to_stdout = os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such file, or a stdout with no descriptor
        to_stdout = False
    if to_stdout:
        sys.stdout.writelines(chunks)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        tmp = path
    else:
        path = os.path.realpath(path)
        tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        if tmp != path:
            os.replace(tmp, path)
    finally:
        if tmp != path and os.path.exists(tmp):
            os.remove(tmp)


def saved_int(text: str) -> int:
    """The integer `text` spells in ASCII digits, the one integer grammar of
    artifact rows.  Text int() refuses raises its ValueError, an integer
    spelt another way (a sign, a space, `_`, a non-ASCII digit) DataError,
    and one of 2**63 or more OverflowError."""
    value = int(text)
    if not (text.isascii() and text.isdigit()):
        raise DataError(f"{text!r} is not an integer written in ASCII digits")
    if value >= 2**63:
        raise OverflowError(f"{text!r} is beyond int64")
    return value


class Header(dict):
    """Named rows and sections of a quantizer or scorer file; a missing one
    raises.  A row that holds integers (`#levels`, `#code_dim`, `#order`,
    `#seed`) is checked against saved_int as it is stored, so a bad one is
    refused at its line; `ints` reads it."""

    _INTEGER_ROWS = frozenset(("levels", "code_dim", "order", "seed"))

    def __missing__(self, key):
        raise DataError(f"missing #{key}")

    def __setitem__(self, key, values):
        super().__setitem__(key, values)
        if key in self._INTEGER_ROWS:
            self.ints(key)

    def ints(self, key) -> tuple[int, ...]:
        """The values of row `key`, each an integer in ASCII digits."""
        return tuple(map(saved_int, self[key]))

    def structure(self) -> SidStructure:
        """The SID structure that the `#levels` and `#code_dim` rows name."""
        (code_dim,) = self.ints("code_dim")
        return SidStructure(self.ints("levels"), code_dim=code_dim)


_BLOCK_ROWS = 1024  # rows per parse pass: bounds the str objects alive at once


def comma_matrix(texts: list[str], width: int, convert, dtype) -> np.ndarray:
    """Comma-separated texts of `width` values each as an (n, width) matrix of
    `dtype`, each value converted by `convert` (float or int), in blocks of
    _BLOCK_ROWS rows written into a preallocated matrix.  ValueError if a
    text holds another number of values or `convert` refuses one; a value
    the dtype cannot hold raises OverflowError."""
    n = len(texts)
    if n and (np.fromiter(map(str.count, texts, repeat(",")), np.int64, n) != width - 1).any():
        raise ValueError(f"a row holds other than {width} values")
    matrix = np.empty((n, width), dtype=dtype)
    for start in range(0, n, _BLOCK_ROWS):
        block = texts[start : start + _BLOCK_ROWS]
        values = map(convert, ",".join(block).split(","))
        matrix[start : start + len(block)] = np.fromiter(
            values, dtype, len(block) * width).reshape(len(block), width)
    return matrix


def load_item_catalog(path, d_in: int) -> ItemCatalog:
    """Read an item-info TSV into a columnar catalog.

    Row layout (tab separated): item_id, comma-separated embedding floats,
    then optionally a bracketed SID, a related item id, a style group and an
    origin group.  Empty trailing fields mean "absent".

    Each row is read as its fields, the values kept as text, and the rows
    are folded _BLOCK_ROWS at a time: a block's floats are parsed into the
    one growing buffer that becomes the (N, d_in) matrix, its widths,
    finiteness and SID slots checked at once, and its texts dropped.  Once
    the file is read, duplicate ids are checked on the whole file.  When a
    check fails, `read_rows` walks the rows through their one-row check to
    report the first bad one.

    Args:
        path: TSV file to read.
        d_in: declared embedding dimension; every row is validated against it.

    Raises:
        ValueError: if d_in is below 1.
        DataError: naming the line of the first bad row in file order (a
            malformed row, a dimension mismatch, a non-finite value or a
            duplicate item id), or naming the file for a dangling related
            item.
    """
    if int(d_in) < 1:
        raise ValueError(f"d_in must be at least 1, got {d_in}")

    def parse(fields):
        item_id, values, *rest = (f.strip() for f in fields)
        if not item_id:
            raise DataError("empty item_id")
        slot = rest.pop(0) if rest and rest[0][:1] in ("", "[") else ""  # SID slot, maybe empty
        related, style, origin = (f or None for f in rest + [""] * (3 - len(rest)))
        return item_id, values, slot, related, style, origin

    floats = array("d")  # every row's embedding, end to end

    def fold(block):
        ids, texts, slots, related, styles, origins = zip(*block)
        matrix = comma_matrix(texts, d_in, float, np.float64)  # the one embedding check
        if not np.isfinite(matrix).all():
            raise ValueError("a value is not finite")
        floats.frombytes(matrix.tobytes())
        sids = [parse_sid_brackets(slot) if slot else None for slot in slots]
        return ids, sids, related, styles, origins

    def finish(blocks):
        columns = list(zip(*blocks)) or [()] * 5  # each column's blocks
        ids, sids, related, styles, origins = (list(chain.from_iterable(c)) for c in columns)
        rows = dict(zip(ids, range(len(ids))))
        if len(rows) < len(ids):
            raise DataError("an item id repeats")
        matrix = np.frombuffer(floats, dtype=np.float64).reshape(len(ids), d_in)
        return ItemCatalog._of_columns(d_in, rows, matrix, sids, related, styles, origins)

    seen: dict[str, int] = {}  # id -> first row, as check_row walks

    def check_row(i, row):
        item_id, values, slot = row[:3]
        embedding = list(map(float, values.split(",")))
        if slot:
            parse_sid_brackets(slot)
        _checked_item(seen, i, item_id, embedding, d_in)

    return read_rows(path, parse, finish, check_row, fold)


def save_item_catalog(catalog: ItemCatalog, path) -> None:
    """Write a catalog back to the item-info TSV layout."""

    def lines():
        for rec in catalog.records():
            fields = [
                rec.item_id,
                ",".join(repr(float(x)) for x in rec.embedding),
                format_sid_brackets(rec.sid) if rec.sid is not None else "",
                rec.related_item or "",
                rec.style_group or "",
                rec.origin_group or "",
            ]
            while len(fields) > 2 and fields[-1] == "":
                fields.pop()
            yield "\t".join(fields) + "\n"

    write_artifact(path, lines())


def load_sequences(path) -> SequenceColumns:
    """Read interaction sequences from TSV, preserving file order, as
    columns (see SequenceColumns).

    Row layout: pv_id, comma-separated target ids, query (empty string means
    a recommendation task), comma-separated history ids.  Ids are the
    non-empty texts between commas, once a field's surrounding whitespace is
    stripped.  Histories longer than MAX_HISTORY keep only the most recent
    ids; one warning reports how many rows were truncated.

    The file is read whole and split into columns _BLOCK_ROWS rows at a
    time, and every row is checked at once.  When that fails, `read_rows`
    walks the rows through their one-row check, the rules an
    InteractionSequence checks, to name the first bad one.
    """

    def finish(text):
        lines = list(filter(str.strip, text.split("\n")))
        if (np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines)) != 3).any():
            raise ValueError("a row holds other than 4 fields")
        pv_ids, queries, targets, n_targets, history, n_history = [], [], [], [], [], []
        names = {}  # one str object per distinct id, so only a block's copies are alive at once
        for lo in range(0, len(lines), _BLOCK_ROWS):
            fields = list(map(str.strip, "\t".join(lines[lo : lo + _BLOCK_ROWS]).split("\t")))
            pv_ids += fields[0::4]
            queries += fields[2::4]
            _extend_ids(targets, n_targets, fields[1::4], names)
            _extend_ids(history, n_history, fields[3::4], names)
        del lines
        n_targets, n_history = np.array(n_targets, np.int64), np.array(n_history, np.int64)
        if not (all(pv_ids) and n_targets.all()):
            raise ValueError("a sequence has no pv_id or no targets")
        long = np.flatnonzero(n_history > MAX_HISTORY)
        if len(long):
            logger.warning("%d sequence(s) truncated to the last %d ids", len(long), MAX_HISTORY)
            first = (np.cumsum(n_history) - n_history)[long]
            kept = np.ones(len(history), dtype=bool)
            kept[rows.expand(first, first + n_history[long] - MAX_HISTORY)[0]] = False
            history, n_history = list(compress(history, kept)), np.minimum(n_history, MAX_HISTORY)
        return SequenceColumns(pv_ids, [query or None for query in queries],
                               history, n_history, targets, n_targets)

    def check_row(i, fields):
        pv_id, targets, _, _ = map(str.strip, fields)
        _check_sequence(pv_id, (), tuple(filter(None, targets.split(","))))

    return read_rows(path, None, finish, check_row)


def _extend_ids(ids: list, counts: list, texts: list[str], names: dict) -> None:
    """Append the non-empty ids of each comma-separated text to `ids`, end
    to end, each as the one str object `names` holds for it, and how many
    each text holds to `counts`."""
    split = ",".join(texts).split(",")
    sizes = np.fromiter(map(str.count, texts, repeat(",")), np.int64, len(texts)) + 1
    if "" in split:  # an empty text, or commas with nothing between them
        named = np.fromiter(map(bool, split), bool, len(split))
        sizes = np.add.reduceat(named, np.cumsum(sizes) - sizes, dtype=np.int64)
        split = list(compress(split, named))
    ids += map(names.setdefault, split, split)
    counts += sizes.tolist()


def save_sequences(sequences: Sequence[InteractionSequence], path) -> None:
    write_artifact(path, ("\t".join([seq.pv_id, ",".join(seq.targets), seq.query or "",
                                     ",".join(seq.history)]) + "\n" for seq in sequences))

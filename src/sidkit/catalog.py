"""Item catalog data model, TSV ingestion, and the flat-token SID encoding.

Every other module builds on the types defined here: the level structure of a
semantic identifier (SID), the identifier itself, per-item records carrying a
multimodal embedding, and user interaction sequences.  File formats are plain
UTF-8 TSV so that fixtures stay diff-friendly.
"""

from __future__ import annotations

import io
import logging
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, RowError

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
        object.__setattr__(self, "level_sizes", tuple(int(n) for n in self.level_sizes))
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

    @property
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
        object.__setattr__(self, "codes", tuple(map(int, self.codes)))

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
        if not self.pv_id:
            raise DataError("pv_id must be non-empty")
        if not self.targets:
            raise DataError(f"sequence {self.pv_id!r} has no targets")
        if len(self.history) > MAX_HISTORY:
            raise DataError(f"sequence {self.pv_id!r} history exceeds {MAX_HISTORY}")


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
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise DataError(f"malformed bracketed SID {text!r}")
    try:
        codes = tuple(int(c) for c in body[1:-1].split(","))
    except ValueError:
        raise DataError(f"malformed bracketed SID {text!r}") from None
    return SemanticId(codes)


# ---------------------------------------------------------------------------
# TSV ingestion / serialization
# ---------------------------------------------------------------------------


def _format_floats(vec: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in vec)


# the errors read_rows reports as DataError, from a parse, a finish or a row check
PARSE_ERRORS = (ValueError, IndexError, KeyError, OverflowError, DataError)


def read_rows(path, parse_row, finish=lambda rows: rows, check_row=None):
    """Read one artifact file: the one place the package opens one to read.

    Each non-blank line, less its line ending only (a scorer row may start
    with a tab), goes split on tabs to ``parse_row``; ``finish`` makes the
    list of results the loaded object.  The reader records the line each
    result came from.  In the whole-file form, ``parse_row`` is None and
    ``finish`` gets the file's text instead; result i is then the i-th
    non-blank line.  Any of PARSE_ERRORS becomes ``DataError("path:line:
    ...")``; from ``finish`` (whole-file checks) or from read-ahead UTF-8
    decoding it becomes ``"path: ..."``.  A RowError naming result i is
    reported at the line of result i.  For any other error, when
    ``check_row(i, result)`` is given (the one-row form of the checks
    ``finish`` makes in bulk), the results read so far go through it in
    file order, and the first it refuses is reported at its line instead:
    the first bad row in file order is the one reported.  A file that loads
    is never walked.
    """
    rows, lines, lineno, text = [], array("q"), 0, ""
    try:
        with open(path, encoding="utf-8") as fh:
            if parse_row is None:
                text = fh.read()
            else:
                for lineno, line in enumerate(fh, start=1):
                    if not line.isspace():
                        rows.append(parse_row(line.rstrip("\n").split("\t")))
                        lines.append(lineno)
        lineno = 0  # no single line is at fault from here on
        return finish(text if parse_row is None else rows)
    except PARSE_ERRORS as exc:
        if isinstance(exc, RowError):
            lineno = _nonblank_lines(text)[exc.row] if parse_row is None else lines[exc.row]
        elif check_row is not None:  # the first row it refuses outranks the error
            for i, row in enumerate(rows):
                try:
                    check_row(i, row)
                except PARSE_ERRORS as refused:
                    exc, lineno = refused, lines[i]
                    break
        where = path if not lineno or isinstance(exc, UnicodeDecodeError) else f"{path}:{lineno}"
        raise DataError(f"{where}: {exc}") from exc


def _nonblank_lines(text: str) -> list[int]:
    """The numbers of the lines of `text` that read_rows hands on, in order."""
    return [n for n, line in enumerate(io.StringIO(text, newline="\n"), start=1)
            if not line.isspace()]


class Header(dict):
    """Named rows and sections of a quantizer or scorer file; a missing one raises."""

    def __missing__(self, key):
        raise DataError(f"missing #{key}")

    def structure(self) -> SidStructure:
        """The SID structure that the `#levels` and `#code_dim` rows name."""
        (code_dim,) = self["code_dim"]
        return SidStructure(tuple(int(n) for n in self["levels"]), code_dim=int(code_dim))


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

    Each row is read as its fields, the values kept as text; once the file
    is read, every float is parsed into one (N, d_in) matrix, and widths,
    finiteness and duplicate ids are checked on the whole file.  When a
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

    def finish(parsed):
        ids, texts, slots, related, styles, origins = list(zip(*parsed)) or [()] * 6
        matrix = comma_matrix(texts, d_in, float, np.float64)  # the one embedding check
        if not np.isfinite(matrix).all():
            raise ValueError("a value is not finite")
        sids = [parse_sid_brackets(slot) if slot else None for slot in slots]
        rows = dict(zip(ids, range(len(ids))))
        if len(rows) < len(ids):
            raise DataError("an item id repeats")
        return ItemCatalog._of_columns(d_in, rows, matrix, sids, related, styles, origins)

    seen: dict[str, int] = {}  # id -> first row, as check_row walks

    def check_row(i, row):
        item_id, values, slot = row[:3]
        embedding = list(map(float, values.split(",")))
        if slot:
            parse_sid_brackets(slot)
        _checked_item(seen, i, item_id, embedding, d_in)

    return read_rows(path, parse, finish, check_row)


def save_item_catalog(catalog: ItemCatalog, path) -> None:
    """Write a catalog back to the item-info TSV layout."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in catalog.records():
            fields = [
                rec.item_id,
                _format_floats(rec.embedding),
                format_sid_brackets(rec.sid) if rec.sid is not None else "",
                rec.related_item or "",
                rec.style_group or "",
                rec.origin_group or "",
            ]
            while len(fields) > 2 and fields[-1] == "":
                fields.pop()
            fh.write("\t".join(fields) + "\n")


def load_sequences(path) -> list[InteractionSequence]:
    """Read interaction sequences from TSV, preserving file order.

    Row layout: pv_id, comma-separated target ids, query (empty string means
    a recommendation task), comma-separated history ids.  Histories longer
    than MAX_HISTORY keep only the most recent ids; one warning reports how
    many rows were truncated.
    """
    truncated = []

    def parse(fields):
        pv_id, targets, query, history = (f.strip() for f in fields)
        history_ids = tuple(h for h in history.split(",") if h)
        if len(history_ids) > MAX_HISTORY:
            history_ids = history_ids[-MAX_HISTORY:]
            truncated.append(pv_id)
        target_ids = tuple(t for t in targets.split(",") if t)
        return InteractionSequence(pv_id, history_ids, target_ids, query or None)

    sequences = read_rows(path, parse)
    if truncated:
        logger.warning("%d sequence(s) truncated to the last %d ids", len(truncated), MAX_HISTORY)
    return sequences


def save_sequences(sequences: Sequence[InteractionSequence], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(
                "\t".join(
                    [seq.pv_id, ",".join(seq.targets), seq.query or "", ",".join(seq.history)]
                )
                + "\n"
            )

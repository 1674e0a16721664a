"""Item catalog data model, TSV ingestion, and the flat-token SID encoding.

Every other module builds on the types defined here: the level structure of a
semantic identifier (SID), the identifier itself, per-item records carrying a
multimodal embedding, and user interaction sequences.  File formats are plain
UTF-8 TSV so that fixtures stay diff-friendly.
"""

from __future__ import annotations

import logging
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
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


class ItemCatalog:
    """Immutable map item_id -> ItemRecord, preserving insertion order.

    Safe for concurrent reads once constructed.  Related-item links are
    validated at construction time: a dangling reference is a data error.
    """

    def __init__(self, records: Iterable[ItemRecord], d_in: int):
        self.d_in = int(d_in)
        self._records: dict[str, ItemRecord] = {}
        for rec in records:
            self._add(rec)
        self._linked()

    def _add(self, rec: ItemRecord) -> None:
        if rec.item_id in self._records:
            raise DataError(f"duplicate item_id {rec.item_id!r}")
        rec.embedding = as_embedding(rec.embedding, self.d_in, context=f"item {rec.item_id}")
        self._records[rec.item_id] = rec

    def _linked(self) -> "ItemCatalog":
        """The catalog itself, once every related-item link resolves."""
        for rec in self._records.values():
            if rec.related_item is not None and rec.related_item not in self._records:
                raise DataError(
                    f"item {rec.item_id!r} references unknown related item {rec.related_item!r}"
                )
        return self

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._records

    def __getitem__(self, item_id: str) -> ItemRecord:
        try:
            return self._records[item_id]
        except KeyError:
            raise DataError(f"unknown item_id {item_id!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(self._records)

    def records(self) -> Iterator[ItemRecord]:
        return iter(self._records.values())

    def embedding_matrix(self) -> np.ndarray:
        """All embeddings stacked in catalog order, shape (len(self), d_in)."""
        if len(self._records) == 0:
            return np.zeros((0, self.d_in))
        return np.stack([rec.embedding for rec in self._records.values()])


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


_SID_STRING = re.compile(r"^(?:C\d+)+$")


def parse_sid_string(s: str, structure: SidStructure) -> SemanticId:
    """Exact inverse of :func:`render_sid_string`."""
    if not _SID_STRING.match(s):
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


def read_rows(path, parse_row, finish=lambda rows: rows):
    """Read one artifact file: the one place the package opens one to read.

    Each non-blank line, less its line ending only (a scorer row may start
    with a tab), goes split on tabs to ``parse_row``; ``finish`` makes the
    list of results the loaded object.  The reader records the line each
    result came from.  A ValueError, IndexError, KeyError, OverflowError or
    DataError becomes ``DataError("path:line: ...")``.  From ``finish`` it
    becomes ``"path: ..."`` (whole-file checks), unless it is a RowError
    naming result i, which is reported at the line of result i.  Read-ahead
    UTF-8 decoding errors become ``"path: ..."`` too.
    """
    rows, lines, lineno = [], array("q"), 0
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.isspace():
                    rows.append(parse_row(line.rstrip("\n").split("\t")))
                    lines.append(lineno)
        lineno = 0  # no single line is at fault from here on
        return finish(rows)
    except (ValueError, IndexError, KeyError, OverflowError, DataError) as exc:
        if isinstance(exc, RowError):
            lineno = lines[exc.row]
        where = path if not lineno or isinstance(exc, UnicodeDecodeError) else f"{path}:{lineno}"
        raise DataError(f"{where}: {exc}") from exc


class Header(dict):
    """Named rows and sections of a quantizer or scorer file; a missing one raises."""

    def __missing__(self, key):
        raise DataError(f"missing #{key}")

    def structure(self) -> SidStructure:
        """The SID structure that the `#levels` and `#code_dim` rows name."""
        (code_dim,) = self["code_dim"]
        return SidStructure(tuple(int(n) for n in self["levels"]), code_dim=int(code_dim))


def load_item_catalog(path, d_in: int) -> ItemCatalog:
    """Read an item-info TSV into a catalog.

    Row layout (tab separated): item_id, comma-separated embedding floats,
    then optionally a bracketed SID, a related item id, a style group and an
    origin group.  Empty trailing fields mean "absent".

    Args:
        path: TSV file to read.
        d_in: declared embedding dimension; every row is validated against it.

    Raises:
        DataError: on malformed rows, dimension mismatches or duplicate item
            ids (reported with their line number), or dangling related items.
    """
    catalog = ItemCatalog((), d_in)

    def add_row(fields):
        item_id, values, *rest = (f.strip() for f in fields)
        if not item_id:
            raise DataError("empty item_id")
        slot = rest.pop(0) if rest and rest[0][:1] in ("", "[") else ""  # SID slot, maybe empty
        related, style, origin = (f or None for f in rest + [""] * (3 - len(rest)))
        catalog._add(ItemRecord(
            item_id, list(map(float, values.split(","))), related_item=related,
            sid=parse_sid_brackets(slot) if slot else None, style_group=style, origin_group=origin,
        ))

    return read_rows(path, add_row, lambda _: catalog._linked())


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

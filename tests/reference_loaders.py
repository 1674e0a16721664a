"""Per-row catalog, assignment, scorer and sequence loaders, kept as
references.

The catalog and assignment loaders are as they were before the columnar
catalog: every row is parsed and checked on its own, in file order, so the
first bad row is the one that raises.  The scorer loader reads each row
through int() and checks it against the rows before it in plain Python: its
context a slice of a stream of whole SIDs, its token of the level that
follows, its count at least 1 and its (context, token) new.  The sequence
loader reads each field and id list in plain loops.  The differential tests
hold the loaders in `sidkit` to the same results and the same DataError
text; a sequence row of the wrong field count only to the same line.
"""

from __future__ import annotations

import numpy as np

from sidkit.catalog import (
    MAX_HISTORY,
    Header,
    InteractionSequence,
    as_embedding,
    parse_sid_brackets,
    read_rows,
)
from sidkit.errors import DataError
from sidkit.retrieval import MarkovScorer


def load_item_catalog_rows(path, d_in: int):
    """The catalog file as plain columns: (ids, (N, d_in) matrix, SID codes
    or None, related ids, style groups, origin groups)."""
    records: dict[str, tuple] = {}

    def add_row(fields):
        item_id, values, *rest = (f.strip() for f in fields)
        if not item_id:
            raise DataError("empty item_id")
        slot = rest.pop(0) if rest and rest[0][:1] in ("", "[") else ""  # SID slot, maybe empty
        related, style, origin = (f or None for f in rest + [""] * (3 - len(rest)))
        values = list(map(float, values.split(",")))
        sid = parse_sid_brackets(slot) if slot else None
        if item_id in records:
            raise DataError(f"duplicate item_id {item_id!r}")
        embedding = as_embedding(values, d_in, context=f"item {item_id}")
        records[item_id] = (embedding, sid and sid.codes, related, style, origin)

    def finish(_):
        for item_id, (_, _, related, _, _) in records.items():
            if related is not None and related not in records:
                raise DataError(
                    f"item {item_id!r} references unknown related item {related!r}"
                )
        ids = list(records)
        columns = list(zip(*records.values())) or [[], [], [], [], []]
        matrix = np.stack(columns[0]) if ids else np.zeros((0, d_in))
        return (ids, matrix, *map(list, columns[1:]))

    return read_rows(path, add_row, finish)


def load_assignment_rows(path, structure):
    """The assignment file as (ids, (N, m) int64 code matrix)."""
    rows: dict[str, tuple[int, ...]] = {}

    def parse(fields):
        item_id, sid = fields
        if item_id in rows:
            raise DataError(f"duplicate item_id {item_id!r}")
        rows[item_id] = parse_sid_brackets(sid).validate(structure).codes

    def finish(_):
        codes = np.array(list(rows.values()), dtype=np.int64)
        return list(rows), codes.reshape(len(rows), structure.num_levels)

    return read_rows(path, parse, finish)


def load_sequence_rows(path):
    """The sequence file as (sequences, the warnings it logs).  A row of
    other than four fields is a ValueError that names its field count."""
    truncated = 0

    def parse(fields):
        nonlocal truncated
        if len(fields) != 4:
            raise ValueError(f"{len(fields)} fields, not 4")
        pv_id, targets, query, history = [field.strip() for field in fields]
        history_ids = id_list(history)
        if len(history_ids) > MAX_HISTORY:
            history_ids = history_ids[len(history_ids) - MAX_HISTORY:]
            truncated += 1
        return InteractionSequence(pv_id, history_ids, id_list(targets),
                                   query if query != "" else None)

    sequences = read_rows(path, parse)
    warning = f"{truncated} sequence(s) truncated to the last {MAX_HISTORY} ids"
    return sequences, [warning] if truncated else []


def id_list(text):
    """The non-empty comma-separated ids of `text`, spaces kept."""
    ids = []
    for part in text.split(","):
        if part != "":
            ids.append(part)
    return ids


def load_markov_scorer_rows(path):
    """The scorer file as a MarkovScorer, read and checked row by row."""
    header, scorer, table = Header(), None, {}

    def parse(fields):
        nonlocal scorer
        if scorer is None:
            if fields[0][:1] == "#":
                header[fields[0][1:]] = fields[1:]
                return
            scorer = header_scorer(header)
        text, token, count = fields
        context = tuple(int64(t) for t in text.split(",")) if text else ()
        token, count = int64(token), int64(count)
        written = ",".join(map(str, context))
        structure, order = scorer.structure, scorer.order
        following = following_level(context, structure, order)
        if following is None:
            raise DataError(f"context {written!r} is not a slice of a stream of whole SIDs")
        low = structure.offsets[following]
        high = low + structure.level_sizes[following]
        key = context + (-1,) * (order - len(context)) + (token,)
        if not low <= token < high or count < 1 or key in table:
            raise DataError(f"after {written!r} expected a new token in [{low}, {high}), "
                            "count >= 1")
        table[key] = count

    def finish(_):
        loaded = scorer or header_scorer(header)
        keys = sorted(table)
        loaded._set_table(np.array(keys, dtype=np.int64).reshape(len(keys), loaded.order + 1),
                          np.array([table[key] for key in keys], dtype=np.int64))
        return loaded

    return read_rows(path, parse, finish)


def header_scorer(header):
    (order,), (alpha,) = header["order"], header["alpha"]
    return MarkovScorer(header.structure(), order=int(order), alpha=float(alpha))


def int64(text):
    value = int(text)
    if value >= 2**63:
        raise OverflowError(f"{text!r} is beyond int64")
    return value


def following_level(context, structure, order):
    """The level of the token that follows `context` in a stream of whole
    SIDs, or None if no such stream holds the context: its tokens lie on
    successive levels, from level 0 when it is shorter than the order."""
    if len(context) > order:
        return None
    bands = list(zip(structure.offsets, structure.level_sizes))
    levels = [next((j for j, (o, n) in enumerate(bands) if o <= t < o + n), None) for t in context]
    start = levels[0] if len(context) == order else 0
    if start is None or levels != [(start + j) % structure.num_levels for j in range(len(levels))]:
        return None
    return (start + len(context)) % structure.num_levels

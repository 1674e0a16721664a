"""Per-row catalog, assignment and scorer loaders, kept as references.

The catalog and assignment loaders are as they were before the columnar
catalog: every row is parsed and checked on its own, in file order, so the
first bad row is the one that raises.  The scorer loader is as it was before
the scorer file was parsed whole: each row goes through int() into int
buffers while the file is read, and the whole-table checks follow.  The
differential tests hold the loaders in `sidkit` to the same results and the
same DataError text.
"""

from __future__ import annotations

from array import array

import numpy as np

from sidkit.catalog import Header, as_embedding, parse_sid_brackets, read_rows
from sidkit.errors import DataError
from sidkit.retrieval import _checked_table, _header_scorer


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


def load_markov_scorer_rows(path):
    """The scorer file as a MarkovScorer, read row by row."""
    header, scorer, last = Header(), None, None
    context_tokens, context_widths = array("q"), array("q")  # contexts end to end
    run_starts, tokens, counts = array("q"), array("q"), array("q")

    def parse(fields):
        nonlocal scorer, last
        if scorer is None:
            if fields[0][:1] == "#":
                header[fields[0][1:]] = fields[1:]
                return
            scorer = _header_scorer(header)
        text, token, count = fields
        if text != last:  # a new run of rows that share a context
            key = text.split(",") if text else ()
            context_tokens.extend(map(int, key))
            context_widths.append(len(key))
            run_starts.append(len(tokens))
            last = text
        tokens.append(int(token))
        counts.append(int(count))

    def finish(rows):
        loaded = scorer or _header_scorer(header)
        widths = np.frombuffer(context_widths, dtype=np.int64)
        run_lengths = np.diff(np.append(np.frombuffer(run_starts, dtype=np.int64), len(tokens)))
        loaded._set_table(*_checked_table(
            loaded, np.frombuffer(context_tokens, dtype=np.int64), widths,
            np.repeat(np.arange(len(widths)), run_lengths),
            np.frombuffer(tokens, dtype=np.int64), np.frombuffer(counts, dtype=np.int64),
            first_row=len(rows) - len(tokens)))
        return loaded

    return read_rows(path, parse, finish)

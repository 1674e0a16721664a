"""Desk-scale generative retrieval over SID token streams.

Items are addressed by their SID tokens, so retrieval is sequence generation:
a scorer assigns next-token probabilities level by level, a beam search whose
width grows per level decodes the most probable SIDs, and each decoded SID
expands to the items currently holding it.  The scorer here is a count-based
Markov model, a deliberately small stand-in exposing the same interface a
billion-parameter sequence model would.
"""

from __future__ import annotations

import io
import logging
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import rows
from .catalog import PARSE_ERRORS, Header, SemanticId, SidStructure, read_rows
# not called here; perfbench/test_tracer.py checks that tracing patches and
# restores this module's binding of it
from .catalog import flat_tokens_to_sid  # noqa: F401
from .collision import AssignmentTable
from .errors import DataError, RowError

logger = logging.getLogger(__name__)

SENTINEL = -100
DEFAULT_ALPHA = 0.1
DEFAULT_K_LIST = (20, 100, 500, 1000)


class SequenceScorer:
    """Interface every retrieval scorer implements.

    next_token_log_probs(context) returns log-probabilities over the token
    band of the NEXT level (index within the band = the level code), inferred
    from the context length mod m.  The entries exponentiate-and-sum to 1.

    next_token_log_probs_batch(contexts) scores many contexts at once: it
    takes a (B, L) int array whose rows share one length L, hence one next
    level, and returns a (B, band) matrix whose row i equals
    next_token_log_probs(contexts[i]).  The beam search calls only this one.
    """

    structure: SidStructure

    def next_token_log_probs(self, context) -> np.ndarray:
        raise NotImplementedError

    def next_token_log_probs_batch(self, contexts) -> np.ndarray:
        raise NotImplementedError


class MarkovScorer(SequenceScorer):
    """Count-based scorer: condition on the last `order` tokens, smooth with
    add-alpha over the next level's band.

    The counts are one sorted table.  `_rows` is an (E, order + 1) int64
    matrix of distinct (context, next token) rows and `_counts` their (E,)
    counts, each at least 1.  A context shorter than the order (a stream's
    first tokens) is right-padded with -1, which sorts below every token, so
    the lexsorted rows are in Python's tuple order of (context, token): the
    order a save writes them in.  Counting cuts a stream's windows with numpy
    and sorts them once as packed keys (see sidkit.rows).  A lookup walks the
    context columns as a trie of dense prefix ids (rows.Index), which is
    built on the first lookup after the counts change.
    """

    def __init__(self, structure: SidStructure, order: int = 2, alpha: float = DEFAULT_ALPHA):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < alpha < float("inf"):
            raise ValueError("alpha must be positive and finite")
        self.structure = structure
        self.order = int(order)
        self.alpha = float(alpha)
        self._set_table(np.empty((0, self.order + 1), dtype=np.int64), np.empty(0, dtype=np.int64))

    def _set_table(self, rows: np.ndarray, counts: np.ndarray) -> None:
        self._rows, self._counts, self._index = rows, counts, None

    def _context_index(self) -> rows.Index:
        if self._index is None:
            self._index = rows.Index(self._rows[:, : self.order], self.structure.total_tokens + 1)
        return self._index

    @property
    def num_contexts(self) -> int:
        """Distinct contexts seen in training."""
        return len(self._context_index().starts) - 1

    def observe(self, stream) -> None:
        """Accumulate (context, next-token) counts from one flat-token stream;
        a bad stream raises and leaves the counts as they were."""
        self._count([stream])

    def _count(self, streams) -> None:
        """Add every (context, next token) window of the streams to the table.
        The windows of each chunk of whole streams are kept only as packed
        keys; one sort then counts the copies of each row.  The first bad
        stream raises and leaves the table as it was."""
        radix = self.structure.total_tokens + 1
        keys = [rows.pack(self._rows, radix)]
        for tokens, positions in _checked_chunks(streams, self.structure):
            keys.append(rows.pack(_windows(tokens, positions, self.order), radix))
        keys = [np.concatenate(group) for group in zip(*keys)]
        order, keys = rows.sort(keys)
        starts, counts = rows.distinct(keys)
        # each of the table's own rows stands for its count of copies
        table_rows = np.flatnonzero(order < len(self._counts))
        counts[np.searchsorted(starts, table_rows, side="right") - 1] += (
            self._counts[order[table_rows]] - 1)
        del order  # only the distinct rows stay alive while they are unpacked
        keys = [key[starts] for key in keys]
        self._set_table(rows.unpack(keys, radix, self.order + 1), counts)

    def next_token_log_probs(self, context) -> np.ndarray:
        return self.next_token_log_probs_batch([[int(t) for t in context]])[0]

    def next_token_log_probs_batch(self, contexts) -> np.ndarray:
        """One trie walk finds every row's context, one scatter places its
        counts, then one smoothing serves the whole batch."""
        contexts = np.asarray(contexts, dtype=np.int64)
        if contexts.ndim != 2:
            raise DataError(f"expected a (B, L) context matrix, got shape {contexts.shape}")
        bad = (contexts < 0) | (contexts >= self.structure.total_tokens)
        if bad.any():
            raise DataError(f"token {contexts[bad][0]} outside the structure's token space")
        length = contexts.shape[1]
        level = length % self.structure.num_levels
        offset = self.structure.offsets[level]
        band = self.structure.level_sizes[level]
        start, stop = self._context_index().rows_of(contexts[:, max(0, length - self.order) :])
        picked, batch_row = rows.expand(start, stop)
        code = self._rows[:, self.order][picked] - offset
        keep = (code >= 0) & (code < band)
        counts = np.zeros((len(contexts), band))
        counts[batch_row[keep], code[keep]] = self._counts[picked[keep]]
        probs = (counts + self.alpha) / (counts.sum(axis=1, keepdims=True) + self.alpha * band)
        return np.log(probs)


# about how many tokens _count cuts into windows at a time
_CHUNK_TOKENS = 1 << 16


def _checked_chunks(streams, structure: SidStructure):
    """Yield (tokens, position in stream) int64 arrays for runs of whole
    streams of about _CHUNK_TOKENS tokens, in order, each run checked by
    _checked_streams before it is yielded."""
    batch, size = [], 0
    for stream in streams:
        batch.append(list(stream))
        size += len(batch[-1])
        if size >= _CHUNK_TOKENS:
            yield _checked_streams(batch, structure)
            batch, size = [], 0
    if batch:
        yield _checked_streams(batch, structure)


def _checked_streams(batch, structure: SidStructure) -> tuple[np.ndarray, np.ndarray]:
    """The streams' tokens end to end, and each one's position in its stream.
    The first bad stream raises: a token outside its level's band, else a
    length that is no whole number of SIDs."""
    m = structure.num_levels
    lengths = np.fromiter(map(len, batch), dtype=np.int64, count=len(batch))
    ends = np.cumsum(lengths)
    flat = chain.from_iterable(batch)
    try:
        tokens = np.fromiter(flat, dtype=np.int64, count=int(ends[-1]))
    except OverflowError:  # a token beyond int64 is outside every band, as -1 is
        flat = (t if -(2**63) <= t < 2**63 else -1 for t in map(int, chain.from_iterable(batch)))
        tokens = np.fromiter(flat, dtype=np.int64, count=int(ends[-1]))
    positions = np.arange(len(tokens)) - np.repeat(ends - lengths, lengths)
    level = positions % m
    low = np.asarray(structure.offsets)[level]
    high = low + np.asarray(structure.level_sizes)[level]
    out_of_band = np.flatnonzero((tokens < low) | (tokens >= high))
    ragged = np.flatnonzero(lengths % m)
    if len(out_of_band):
        at = out_of_band[0]
        stream = np.searchsorted(ends, at, side="right")
        if not len(ragged) or stream <= ragged[0]:
            token = int(batch[stream][positions[at]])
            raise DataError(
                f"token {token} at position {positions[at]} is outside level {level[at]}'s band")
    if len(ragged):
        raise DataError("stream length must be a whole number of SIDs")
    return tokens, positions


def _windows(tokens: np.ndarray, positions: np.ndarray, order: int) -> np.ndarray:
    """One (context, next token) row per token: the `order` tokens before it
    in its stream, right-padded with -1 where the stream has fewer."""
    width = np.minimum(positions, order)
    return np.column_stack((_padded(tokens, np.arange(len(tokens)) - width, width, order), tokens))


def train_markov_scorer(
    streams,
    structure: SidStructure,
    order: int = 2,
    alpha: float = DEFAULT_ALPHA,
) -> MarkovScorer:
    """Count every (context, next token) pair across the corpus."""
    scorer = MarkovScorer(structure, order=order, alpha=alpha)
    scorer._count(streams)
    return scorer


# ---------------------------------------------------------------------------
# Training losses


@dataclass(frozen=True)
class LabeledSequence:
    """Token stream with a parallel label row; -100 marks unscored positions."""

    tokens: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        object.__setattr__(self, "labels", tuple(int(t) for t in self.labels))
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels must have equal length")
        if not any(label >= 0 for label in self.labels):
            raise ValueError("a labeled sequence needs at least one scored position")


def labeled_from_stream(stream, scored_from: int) -> LabeledSequence:
    """Score positions from index `scored_from` on; mask everything before."""
    tokens = tuple(int(t) for t in stream)
    labels = tuple(
        SENTINEL if pos < scored_from else tok for pos, tok in enumerate(tokens)
    )
    return LabeledSequence(tokens, labels)


def _scored_loss(scorer: SequenceScorer, examples, start: int = 0) -> float:
    """Mean negative log-probability over every scored position from index
    `start` on, pooled across the examples.

    The label at position t is predicted from tokens[:t]; a label outside its
    level's band raises DataError.  All positions of one prefix length are
    scored in one next_token_log_probs_batch call, and the losses are summed
    example by example, position by position, as a loop over them would.
    """
    structure = scorer.structure
    by_length = {}  # prefix length -> [(example index, label code, prefix)]
    for e, example in enumerate(examples):
        for pos in range(start, len(example.labels)):
            label = example.labels[pos]
            if label < 0:
                continue
            level = pos % structure.num_levels
            offset = structure.offsets[level]
            if not offset <= label < offset + structure.level_sizes[level]:
                raise DataError(f"label {label} at position {pos} is outside level {level}'s band")
            by_length.setdefault(pos, []).append((e, label - offset, example.tokens[:pos]))
    if not by_length:
        raise DataError("no scorable position")
    losses = {}
    for pos, scored in by_length.items():
        contexts = np.array([prefix for _, _, prefix in scored], dtype=np.int64)
        contexts = contexts.reshape(len(scored), pos)
        step = scorer.next_token_log_probs_batch(contexts)
        for (e, code, _), row in zip(scored, step):
            losses[e, pos] = -float(row[code])
    total = 0.0
    for key in sorted(losses):
        total += losses[key]
    return total / len(losses)


@dataclass(frozen=True)
class SlicePlan:
    """Where batched scoring may start without dropping any scored position."""

    first_non_neg: int
    logits_to_keep: int


def slice_plan(label_rows) -> SlicePlan:
    """Earliest scored index across rows, and how many tail positions to keep.

    logits_to_keep = seq_len - first_non_neg + 1, capped at seq_len; every
    label before the kept window is the sentinel in every row, so scoring
    only the window loses nothing.
    """
    rows = [list(row) for row in label_rows]
    if not rows:
        raise DataError("empty label batch")
    seq_len = len(rows[0])
    first = seq_len
    for i, row in enumerate(rows):
        if len(row) != seq_len:
            raise DataError("label rows must share one length")
        non_neg = [pos for pos, label in enumerate(row) if label >= 0]
        if not non_neg:
            raise DataError(f"label row {i} has no scored position")
        first = min(first, non_neg[0])
    return SlicePlan(first_non_neg=first, logits_to_keep=min(seq_len - first + 1, seq_len))


def masked_batch_loss(scorer: SequenceScorer, examples) -> float:
    """Full-length masked loss: every position visited, sentinels skipped."""
    return _scored_loss(scorer, examples)


def sliced_loss(scorer: SequenceScorer, examples) -> float:
    """masked_batch_loss computed only over the slice_plan window.

    Skipping the shared sentinel prefix is the whole trick; the result equals
    the full-length masked loss exactly.
    """
    examples = list(examples)
    plan = slice_plan([ex.labels for ex in examples])
    return _scored_loss(scorer, examples, start=len(examples[0].labels) - plan.logits_to_keep)


# ---------------------------------------------------------------------------
# Beam search


@dataclass(frozen=True)
class BeamSchedule:
    """Per-level beam widths, e.g. (300, 600, 1200): the beam widens as the
    SID space fans out."""

    widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError("beam widths must be positive")
        if any(b < a for a, b in zip(self.widths, self.widths[1:])):
            logger.warning("beam widths %s decrease between levels", self.widths)

    def validate(self, structure: SidStructure) -> "BeamSchedule":
        if len(self.widths) != structure.num_levels:
            raise DataError(
                f"schedule has {len(self.widths)} widths for {structure.num_levels} levels"
            )
        return self


def default_schedule(structure: SidStructure) -> BeamSchedule:
    """The production defaults for 2- and 3-level structures; doubling from
    300 (capped at 1200) otherwise."""
    m = structure.num_levels
    if m == 3:
        return BeamSchedule((300, 600, 1200))
    if m == 2:
        return BeamSchedule((600, 1200))
    return BeamSchedule(tuple(min(300 * 2**j, 1200) for j in range(m)))


class BeamResult(Sequence):
    """Read-only view of a decode: a (k, m) int64 code matrix and its (k,)
    log-prob vector, best first.

    It reads as the list of (SemanticId, float log-prob) pairs: len,
    iteration, indexing and == against such a list behave as the list does,
    and a slice is that list's slice.  A pair is built only when read, so a
    caller that needs only the codes builds no SemanticId.
    """

    __slots__ = ("codes", "log_probs")

    def __init__(self, codes: np.ndarray, log_probs: np.ndarray):
        self.codes, self.log_probs = codes, log_probs
        codes.flags.writeable = log_probs.flags.writeable = False

    def __len__(self) -> int:
        return len(self.log_probs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        return SemanticId(self.codes[index].tolist()), float(self.log_probs[index])

    def __iter__(self):
        return zip(map(SemanticId, self.codes.tolist()), self.log_probs.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, BeamResult)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


def dynamic_beam_search(
    scorer: SequenceScorer,
    context,
    schedule: BeamSchedule,
    k: int,
) -> BeamResult:
    """Top-k SIDs by exact cumulative log-probability, as a BeamResult view
    that reads as a list of (SemanticId, float log-prob) pairs, best first.

    Level j keeps the widths[j] best partial sequences; equal scores order by
    token tuple.  The returned log-probs are plain sums of scorer outputs, so
    with widths covering the full vocabulary this is exhaustive enumeration.

    The beams are a (B, level) token matrix kept in token-tuple order, and
    their scores; each level scores all B contexts in one
    next_token_log_probs_batch call.  So candidate parent * band + code sits
    at its place in tuple order, and rows.top_k, ties to the lowest position,
    keeps the widths[j] best as a full sort by score, then tokens, would.
    Sorted, they stay in tuple order; the last level keeps its k best, best first.
    A NaN score raises DataError naming the level; -inf is a legal score.
    The context must be whole SIDs, so the first decoded token is a level-0
    one, and k must lie in [1, widths[-1]].
    """
    structure = scorer.structure
    schedule.validate(structure)
    if k < 1:
        raise DataError(f"k={k} must be positive")
    if k > schedule.widths[-1]:
        raise DataError(f"k={k} exceeds the final beam width {schedule.widths[-1]}")
    context = np.asarray([int(t) for t in context], dtype=np.int64)
    if len(context) % structure.num_levels:
        raise DataError(f"context of {len(context)} tokens is not a whole number of SIDs")
    beams = np.empty((1, 0), dtype=np.int64)
    scores = np.zeros(1)
    for level, width in enumerate(schedule.widths):
        band = structure.level_sizes[level]
        contexts = np.concatenate(
            (np.broadcast_to(context, (len(beams), len(context))), beams), axis=1)
        step = scorer.next_token_log_probs_batch(contexts)
        candidates = (scores[:, None] + step).ravel()
        if np.isnan(candidates).any():
            raise DataError(f"scorer returned NaN log-probabilities at level {level}")
        if level < structure.num_levels - 1:
            keep = np.sort(rows.top_k(candidates, width))
        else:
            keep = rows.top_k(candidates, k)
        parent, code = np.divmod(keep, band)
        beams = np.concatenate((beams[parent], (code + structure.offsets[level])[:, None]), axis=1)
        scores = candidates[keep]
    return BeamResult(beams - np.asarray(structure.offsets), scores)


# ---------------------------------------------------------------------------
# Evaluation and corpus building


def _flat_tokens(table: AssignmentTable, item_ids) -> list[int]:
    """The items' SIDs as one flat-token list: their code rows plus the level
    offsets.  The table's constructor already checked every code's band."""
    return (table.codes_of(item_ids) + np.asarray(table.structure.offsets)).ravel().tolist()


def sequence_context(table: AssignmentTable, history) -> list[int]:
    """Concatenated flat tokens of the history items' SIDs, oldest first."""
    return _flat_tokens(table, history)


def evaluate_hr(
    scorer: SequenceScorer,
    table: AssignmentTable,
    sequences,
    schedule: BeamSchedule,
    k_list=DEFAULT_K_LIST,
) -> dict[int, float]:
    """HR@K over interaction sequences, one decode per sequence.

    The beam decodes the top widths[-1] SIDs from the history context; each
    SID expands to all items currently assigned to it (ascending item id) and
    the expansion is truncated at K.  A sequence contributes the fraction of
    its clicked items found in that top-K list.  The expansion reads the
    decode's code matrix, so no SemanticId is built per decoded SID.
    """
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list or k_list[0] < 1:
        raise DataError("K values must be positive")
    sequences = list(sequences)
    if not sequences:
        raise DataError("no sequences to evaluate")
    totals = {k: 0.0 for k in k_list}
    max_k = k_list[-1]
    for seq in sequences:
        if not seq.targets:
            raise DataError(f"sequence {seq.pv_id!r} has no clicked targets")
        context = sequence_context(table, seq.history)
        decoded = dynamic_beam_search(scorer, context, schedule, k=schedule.widths[-1])
        retrieved = table.items_for_codes(decoded.codes, limit=max_k)
        clicked = set(seq.targets)
        table.codes_of(clicked)  # unmapped target is a data error, not a zero
        for k in k_list:
            hits = len(set(retrieved[:k]) & clicked)
            totals[k] += hits / len(clicked)
    return {k: totals[k] / len(sequences) for k in k_list}


def build_useraction_corpus(sequences, table: AssignmentTable) -> list[list[int]]:
    """One flat-token stream per page view: history then targets, in order.

    No instruction tokens, no separators; the stream is exactly the SIDs of
    the interacted items, which is what autoregressive pretraining consumes.
    """
    sequences = list(sequences)
    tokens = _flat_tokens(table, [i for seq in sequences for i in (*seq.history, *seq.targets)])
    corpus, start = [], 0
    for seq in sequences:
        end = start + (len(seq.history) + len(seq.targets)) * table.structure.num_levels
        corpus.append(tokens[start:end])
        start = end
    return corpus


# ---------------------------------------------------------------------------
# File formats


def save_corpus(corpus, path) -> None:
    """One stream per line, comma-separated flat tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        for stream in corpus:
            fh.write(",".join(str(int(t)) for t in stream) + "\n")


def load_corpus(path) -> list[list[int]]:
    """One stream per line, comma-separated flat tokens."""

    def parse(fields):
        (stream,) = fields
        return [int(t) for t in stream.split(",")]

    return read_rows(path, parse)


# count rows formatted per write in save_markov_scorer
_SAVE_ROWS = 1 << 14


def save_markov_scorer(scorer: MarkovScorer, path) -> None:
    """Header (order, alpha, structure) then one count row per (context, next),
    in the table's row order, formatted a block of rows at a time as bytes
    (see _count_row_bytes)."""
    structure, rows, counts = scorer.structure, scorer._rows, scorer._counts
    with open(path, "wb") as fh:
        levels = "\t".join(str(n) for n in structure.level_sizes)
        fh.write(f"#order\t{scorer.order}\n#alpha\t{repr(scorer.alpha)}\n#levels\t{levels}\n"
                 f"#code_dim\t{structure.code_dim}\n".encode())
        for lo in range(0, len(rows), _SAVE_ROWS):
            fh.write(_count_row_bytes(rows[lo : lo + _SAVE_ROWS], counts[lo : lo + _SAVE_ROWS]))


def _count_row_bytes(rows: np.ndarray, counts: np.ndarray) -> bytes:
    """Count rows as text: each row's context tokens (its -1 padding left
    out) joined by commas, a tab, the next token, a tab, the count and a
    newline, every number written as str() writes it.  Each number's digits
    and the separator after it are written into one byte buffer."""
    if not len(rows):
        return b""
    order = rows.shape[1] - 1
    values = np.column_stack((rows, counts))  # row-major, in the order they are written
    digits = (values >= 0).astype(np.int64)  # 0 for the padding, which writes nothing
    for power in 10 ** np.arange(1, 19, dtype=np.int64):
        if power > values.max():
            break
        digits += values >= power
    sep = np.zeros(values.shape, dtype=np.uint8)  # the byte after each number; 0: none
    sep[:, : order - 1] = np.where(values[:, 1:order] >= 0, ord(","), 0)
    sep[:, order - 1 :] = np.frombuffer(b"\t\t\n", dtype=np.uint8)
    has_sep = sep > 0
    last_digit = np.cumsum(digits + has_sep).reshape(values.shape) - has_sep - 1
    out = np.empty(int(last_digit[-1, -1]) + 2, dtype=np.uint8)
    out[(last_digit + 1)[has_sep]] = sep[has_sep]
    for j in range(int(digits.max())):  # the digit that stands for 10**j
        live = digits > j
        out[last_digit[live] - j] = values[live] // 10**j % 10 + ord("0")
    return out.tobytes()


def load_markov_scorer(path) -> MarkovScorer:
    """Read a scorer written by save_markov_scorer, its rows in any order.
    Each count row must be a slice of a valid stream: a context of at most
    `order` tokens on successive levels, from level 0 if shorter than the
    order, then a token of the next level (level 0 after an empty context),
    counted at least once, and no (context, token) twice.

    Every integer of a count row is written as the saver writes one: ASCII
    digits only.  A row that spells one otherwise (a sign, spaces, `_`,
    non-ASCII digits) is a DataError at its line.  The file is read whole;
    the count rows are parsed with numpy over the bytes when each is
    `context<TAB>token<TAB>count`, the context comma-separated, every number
    of 1 to _MAX_DIGITS digits.  Otherwise they are parsed row by row, the
    first that does not parse being named.  The checks then run on the whole
    table and name the line of the first row that fails."""
    return read_rows(path, None, _parsed_scorer)


def _parsed_scorer(text: str) -> MarkovScorer:
    """The scorer a whole scorer file's text holds: header rows (`#name`,
    tab-separated values) up to the first other non-blank line, then count
    rows.  A RowError names the non-blank line at fault."""
    header, row, pos = Header(), 0, 0  # row: non-blank lines before pos
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        line = text[pos:end]
        if not line.isspace():
            if line[:1] != "#":
                break
            fields = line.rstrip("\n").split("\t")
            header[fields[0][1:]] = fields[1:]
            row += 1
        pos = end
    if pos == len(text):
        return _header_scorer(header)
    try:
        scorer = _header_scorer(header)
    except PARSE_ERRORS as exc:
        raise RowError(row, str(exc)) from exc  # at the first count row, as read
    columns = _byte_columns(text[pos:]) or _walked_columns(text[pos:], row)
    scorer._set_table(*_checked_table(scorer, *columns, first_row=row))
    return scorer


_ROW_BYTES = b"0123456789,\t\n"  # the bytes a count row is written in
_MAX_DIGITS = 18  # the most digits of a number the byte parse reads: below 2**63
_BLOCK_BYTES = 1 << 18  # about how much of the file the byte parse takes at a time


def _byte_columns(body: str):
    """Count rows as _checked_table's (context tokens end to end, context
    widths, each row's context, tokens, counts), parsed with numpy over the
    bytes a block of whole lines at a time; a context is shared by a run of
    rows that hold it.  None unless every line is empty (a blank line) or
    `c,..,c<TAB>token<TAB>count` with zero or more context tokens, every
    number 1 to _MAX_DIGITS ASCII digits."""
    raw = (body if body.endswith("\n") else body + "\n").encode()
    if raw.translate(None, _ROW_BYTES):
        return None
    blocks, start = [], 0
    while start < len(raw):
        stop = raw.find(b"\n", start + _BLOCK_BYTES) + 1 or len(raw)
        blocks.append(_block_columns(np.frombuffer(raw, np.uint8, stop - start, start)))
        if blocks[-1] is None:
            return None
        start = stop
    context_tokens, widths, run_lengths, tokens, counts = map(np.concatenate, zip(*blocks))
    return (context_tokens, widths, np.repeat(np.arange(len(widths)), run_lengths),
            tokens, counts)


def _block_columns(data: np.ndarray):
    """One block of _byte_columns, whole lines of bytes that end in a
    newline: (context tokens of each run end to end, each run's context
    width, rows in each run, tokens, counts), or None."""
    ends = np.flatnonzero(data < 48)  # the separators; each ends one number
    kind = data[ends]
    lengths = np.diff(ends, prepend=-1) - 1
    newline = kind == 10
    starts_line = np.concatenate(([True], newline[:-1]))  # the number begins its line
    blank = newline & (lengths == 0) & starts_line
    if blank.any():  # what follows a blank line begins its line too
        keep = ~blank
        ends, kind, lengths, newline, starts_line = (
            ends[keep], kind[keep], lengths[keep], newline[keep], starts_line[keep])
    rows = np.flatnonzero(newline)  # a row's count ends at its newline, its token at
    tab = kind == 9                 # the tab before, its context at the tab before that
    if (rows[:1] < 2).any() or tab.sum() != 2 * len(rows) or not (
            tab[rows - 1] & tab[rows - 2]).all():
        return None
    context_ends = rows - 2
    empty_context = np.zeros(len(kind), dtype=bool)  # the one number that may be empty
    empty_context[context_ends] = starts_line[context_ends]
    if ((lengths == 0) & ~empty_context).any() or lengths.max(initial=0) > _MAX_DIGITS:
        return None
    values = np.zeros(len(ends), dtype=np.int64)
    for j in range(lengths.max(initial=0)):  # the digits that stand for 10**j
        values += (lengths > j) * (data[ends - 1 - j] - np.int64(48)) * 10**j
    in_context = kind == 44
    in_context[context_ends] = lengths[context_ends] > 0
    context, width = values[in_context], np.diff(np.cumsum(in_context)[rows], prepend=0)
    # a row starts a run unless its context is the row before's: as wide, and
    # each token equal to the one `width` places back
    first = np.cumsum(width) - width
    changed = np.cumsum(context != context[np.arange(len(context)) - np.repeat(width, width)])
    changed = np.concatenate(([0], changed))
    new = np.ones(len(rows), dtype=bool)
    new[1:] = width[1:] != width[:-1]
    new |= changed[first + width] > changed[first]
    runs = np.flatnonzero(new)
    return (context[np.repeat(new, width)], width[runs], np.diff(runs, append=len(rows)),
            values[rows - 1], values[rows])


def _walked_columns(body: str, first_row: int):
    """_byte_columns' arrays, read row by row, one context per run of rows
    that share its text.  The first row that does not parse raises RowError
    at its index, first_row being the first count row's."""
    context_tokens, widths, run_starts, tokens, counts = (array("q") for _ in range(5))
    last = None
    lines = (line for line in io.StringIO(body, newline="\n") if not line.isspace())
    for row, line in enumerate(lines, start=first_row):
        try:
            text, token, count = line.rstrip("\n").split("\t")
            if text != last:
                key = text.split(",") if text else ()
                context_tokens.extend(map(_saved_int, key))
                widths.append(len(key))
                run_starts.append(len(tokens))
                last = text
            tokens.append(_saved_int(token))
            counts.append(_saved_int(count))
        except (ValueError, OverflowError, DataError) as exc:
            raise RowError(row, str(exc)) from exc
    run_lengths = np.diff(np.append(np.frombuffer(run_starts, dtype=np.int64), len(tokens)))
    return (np.frombuffer(context_tokens, dtype=np.int64), np.frombuffer(widths, dtype=np.int64),
            np.repeat(np.arange(len(widths)), run_lengths),
            np.frombuffer(tokens, dtype=np.int64), np.frombuffer(counts, dtype=np.int64))


def _saved_int(text: str) -> int:
    """The integer `text` spells in ASCII digits.  Text int() refuses raises
    its ValueError; an integer spelt another way raises DataError."""
    if text.isascii() and text.isdigit():
        return int(text)
    int(text)
    raise DataError(f"{text!r} is not an integer written in ASCII digits")


def _header_scorer(header: Header) -> MarkovScorer:
    (order,), (alpha,) = header["order"], header["alpha"]
    return MarkovScorer(header.structure(), order=int(order), alpha=float(alpha))


def _checked_table(scorer, context_tokens, widths, contexts, tokens, counts, first_row):
    """The count rows as a sorted table.  The first row, in file order, that
    no stream of whole SIDs produces raises RowError(first_row + its index):
    its context is no slice of such a stream, its token is not of the level
    that follows the context, its count is below 1, or an earlier row has
    the same context and token."""
    order, structure = scorer.order, scorer.structure
    padded = _padded(context_tokens, np.cumsum(widths) - widths, widths, order)
    valid, low, high = _next_bands(padded, widths, structure)
    ok = valid[contexts] & (tokens >= low[contexts]) & (tokens < high[contexts]) & (counts >= 1)
    # a stable sort of the packed (context, token) rows puts a repeat after
    # its first copy.  An out-of-range value makes its row bad and may give
    # it another row's key: the earlier of the two is reported either way
    radix = structure.total_tokens + 1
    sort, keys = rows.sort(rows.pack(np.column_stack((padded[contexts], tokens)), radix),
                           kind="stable")
    ok[np.delete(sort, rows.distinct(keys)[0])] = False
    if not ok.all():
        row = int(np.argmin(ok))
        context = int(contexts[row])
        start = int(widths[:context].sum())
        text = ",".join(map(str, context_tokens[start : start + widths[context]].tolist()))
        if not valid[context]:
            raise RowError(first_row + row,
                           f"context {text!r} is not a slice of a stream of whole SIDs")
        raise RowError(first_row + row, f"after {text!r} expected a new token in "
                       f"[{low[context]}, {high[context]}), count >= 1")
    counts = counts[sort]
    del ok, sort  # only the sorted keys stay alive while they are unpacked
    return rows.unpack(keys, radix, order + 1), counts


def _padded(tokens: np.ndarray, first: np.ndarray, widths: np.ndarray, order: int) -> np.ndarray:
    """Row i is tokens[first[i] : first[i] + widths[i]], cut to the order and
    right-padded with -1 to it."""
    padded = np.full((len(widths), order), -1, dtype=np.int64)
    for j in range(order):
        has = np.flatnonzero(widths > j)
        padded[has, j] = tokens[first[has] + j]
    return padded


def _next_bands(padded: np.ndarray, widths: np.ndarray, structure: SidStructure):
    """Which contexts are slices of a stream of whole SIDs, and the band
    [low, high) of the token that follows each.  A context as long as the
    order starts at its first token's level, a shorter one at level 0; each
    token must lie in its level's band."""
    order = padded.shape[1]
    offsets, sizes = np.asarray(structure.offsets), np.asarray(structure.level_sizes)
    first_level = np.where(
        widths == order, np.searchsorted(offsets, padded[:, 0], side="right") - 1, 0)
    level = (first_level[:, None] + np.arange(order)) % len(sizes)
    in_band = (padded >= offsets[level]) & (padded < offsets[level] + sizes[level])
    valid = (widths <= order) & (in_band | (np.arange(order) >= widths[:, None])).all(axis=1)
    following = (first_level + widths) % len(sizes)
    return valid, offsets[following], offsets[following] + sizes[following]


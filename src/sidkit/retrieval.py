"""Desk-scale generative retrieval over SID token streams.

Items are addressed by their SID tokens, so retrieval is sequence generation:
a scorer assigns next-token probabilities level by level, a beam search whose
width grows per level decodes the most probable SIDs, and each decoded SID
expands to the items currently holding it.  The scorer here is a count-based
Markov model, a deliberately small stand-in exposing the same interface a
billion-parameter sequence model would.
"""

from __future__ import annotations

import logging
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .catalog import Header, SemanticId, SidStructure, read_rows
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
    and sorts them once as packed keys.  A lookup walks the context columns
    as a trie of dense prefix ids (see _ContextIndex), which is built on the
    first lookup after the counts change.
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

    def _context_index(self) -> "_ContextIndex":
        if self._index is None:
            self._index = _ContextIndex(self._rows[:, : self.order], self.structure.total_tokens)
        return self._index

    @property
    def num_contexts(self) -> int:
        """Distinct contexts seen in training."""
        return self._context_index().num_contexts

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
        keys = [_packed_keys(self._rows, radix)]
        for tokens, positions in _checked_chunks(streams, self.structure):
            keys.append(_packed_keys(_windows(tokens, positions, self.order), radix))
        keys = [np.concatenate(group) for group in zip(*keys)]
        keys, counts = _distinct(keys, self._counts)
        self._set_table(_unpacked(keys, radix, self.order + 1), counts)

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
        sizes = stop - start
        batch_row = np.repeat(np.arange(len(contexts)), sizes)
        picked = np.repeat(stop - np.cumsum(sizes), sizes) + np.arange(len(batch_row))
        code = self._rows[:, self.order][picked] - offset
        keep = (code >= 0) & (code < band)
        counts = np.zeros((len(contexts), band))
        counts[batch_row[keep], code[keep]] = self._counts[picked[keep]]
        probs = (counts + self.alpha) / (counts.sum(axis=1, keepdims=True) + self.alpha * band)
        return np.log(probs)


class _ContextIndex:
    """The distinct contexts of a sorted table, as a trie of dense prefix ids.

    A trie level spans a few context columns.  Its node ids number the
    distinct prefixes that end with those columns, in sorted order, and its
    sorted keys hold parent_id * radix**width + the level's columns packed
    base radix (see _packed_keys).  So a node's id is its position in those
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
    first = np.arange(len(tokens)) - width
    windows = np.full((len(tokens), order + 1), -1, dtype=np.int64)
    windows[:, order] = tokens
    for j in range(order):
        has = np.flatnonzero(width > j)
        windows[has, j] = tokens[first[has] + j]
    return windows


def _key_widths(radix: int, width: int, room: int = 1) -> list[int]:
    """How many of `width` columns each packed key holds, left to right: as
    many as keep room * radix**columns below 2**63."""
    per = 1
    while room * radix ** (per + 1) < 2**63:
        per += 1
    return [min(per, width - lo) for lo in range(0, width, per)]


def _packed_keys(rows: np.ndarray, radix: int) -> list[np.ndarray]:
    """The rows' columns packed by _pack into as few int64 keys as hold them,
    most significant first: the keys' lexicographic order is the rows' tuple
    order.  A value outside [-1, radix - 1) gives a key that may equal
    another row's."""
    keys, lo = [], 0
    for width in _key_widths(radix, rows.shape[1]):
        keys.append(_pack(rows[:, lo : lo + width], _radix_powers(radix, width)))
        lo += width
    return keys


def _radix_powers(radix: int, width: int) -> np.ndarray:
    """radix**(width - 1), ..., radix, 1 as int64."""
    return radix ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _pack(columns: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Each row's columns as one int64, written base radix with each column
    as its value + 1, so the -1 padding is digit 0."""
    return (columns + 1) @ powers


def _unpacked(keys: list[np.ndarray], radix: int, width: int) -> np.ndarray:
    """The rows that _packed_keys packed into `keys`."""
    rows = np.empty((len(keys[0]), width), dtype=np.int64)
    lo = 0
    for key, key_width in zip(keys, _key_widths(radix, width)):
        for j in reversed(range(lo, lo + key_width)):
            key, digit = np.divmod(key, radix)
            rows[:, j] = digit - 1
        lo += key_width
    return rows


def _tuple_order(keys: list[np.ndarray], kind=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """The permutation that sorts rows by their packed keys, and the keys
    permuted by it; kind="stable" keeps equal rows in their input order."""
    order = np.argsort(keys[0], kind=kind) if len(keys) == 1 else np.lexsort(keys[::-1])
    return order, [key[order] for key in keys]


def _first_copies(keys: list[np.ndarray]) -> np.ndarray:
    """Of rows sorted by their packed keys, which differ from the row before."""
    first = np.zeros(len(keys[0]), dtype=bool)
    first[:1] = True
    for key in keys:
        first[1:] |= key[1:] != key[:-1]
    return first


def _distinct(keys: list[np.ndarray], table_counts: np.ndarray):
    """The distinct rows among packed `keys`, sorted, and the copies of each.
    The first len(table_counts) rows are a table's, each standing for its
    count of copies; every other row is one copy."""
    order, keys = _tuple_order(keys)
    starts = np.flatnonzero(_first_copies(keys))
    counts = np.diff(np.append(starts, len(order)))
    table_rows = np.flatnonzero(order < len(table_counts))
    counts[np.searchsorted(starts, table_rows, side="right") - 1] += (
        table_counts[order[table_rows]] - 1)
    return [key[starts] for key in keys], counts


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

    The beams are a (B, level) token matrix plus a score vector, and each
    level scores all B contexts in one next_token_log_probs_batch call.
    Selection partitions the B x band candidate scores for the widths[j]-th
    best, keeps every candidate scoring at least that (so ties at the cut all
    stay in the pool), and lexsorts only that pool by descending score, then
    token columns left to right: the same order a full sort would give.  A
    NaN score raises DataError naming the level; -inf is a legal score.  The
    context must be whole SIDs, so the first decoded token is a level-0 one,
    and k must lie in [1, widths[-1]].
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
        if len(candidates) > width:
            cut = np.partition(candidates, len(candidates) - width)[len(candidates) - width]
            pool = np.flatnonzero(candidates >= cut)
        else:
            pool = np.arange(len(candidates))
        parent, code = np.divmod(pool, band)
        tokens = np.concatenate((beams[parent], (code + structure.offsets[level])[:, None]), axis=1)
        # primary key: descending score; then token columns left to right
        keys = tuple(tokens[:, j] for j in reversed(range(level + 1))) + (-candidates[pool],)
        keep = np.lexsort(keys)[:width]
        beams, scores = tokens[keep], candidates[pool[keep]]
    return BeamResult(beams[:k] - np.asarray(structure.offsets), scores[:k])


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


# contexts formatted per write in save_markov_scorer
_SAVE_CONTEXTS = 1 << 13


def save_markov_scorer(scorer: MarkovScorer, path) -> None:
    """Header (order, alpha, structure) then one count row per (context, next),
    in the table's row order.  Each token's and each context's text is
    formatted once; rows go out a block of contexts at a time."""
    structure, order, rows = scorer.structure, scorer.order, scorer._rows
    names = [str(t) for t in range(structure.total_tokens)]
    starts = scorer._context_index().starts[:-1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#order\t{order}\n")
        fh.write(f"#alpha\t{repr(scorer.alpha)}\n")
        fh.write("#levels\t" + "\t".join(str(n) for n in structure.level_sizes) + "\n")
        fh.write(f"#code_dim\t{structure.code_dim}\n")
        for first in range(0, len(starts) - 1, _SAVE_CONTEXTS):
            block = starts[first : first + _SAVE_CONTEXTS + 1]
            lo, hi = block[0], block[-1]
            contexts = [",".join([names[t] for t in key if t >= 0])
                        for key in rows[block[:-1], :order].tolist()]
            of_row = np.repeat(np.arange(len(contexts)), np.diff(block)).tolist()
            fh.write("".join([f"{contexts[i]}\t{names[t]}\t{c}\n" for i, t, c in zip(
                of_row, rows[lo:hi, order].tolist(), scorer._counts[lo:hi].tolist())]))


def load_markov_scorer(path) -> MarkovScorer:
    """Read a scorer written by save_markov_scorer, its rows in any order.
    Each count row must be a slice of a valid stream: a context of at most
    `order` tokens on successive levels, from level 0 if shorter than the
    order, then a token of the next level (level 0 after an empty context),
    counted at least once, and no (context, token) twice.

    Rows parse into int buffers.  A context text is parsed when it differs
    from the row before's, so once per context in a saved file; the checks
    then run on the whole table and name the line of the first row that
    fails."""
    header, scorer, last = Header(), None, None
    context_tokens, context_widths = array("q"), array("q")  # contexts end to end
    run_starts, tokens, counts = array("q"), array("q"), array("q")
    add_token, add_count = tokens.append, counts.append

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
        add_token(int(token))
        add_count(int(count))

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
    padded = _padded(context_tokens, widths, order)
    valid, low, high = _next_bands(padded, widths, structure)
    ok = valid[contexts] & (tokens >= low[contexts]) & (tokens < high[contexts]) & (counts >= 1)
    # a stable sort on (context rank, token) puts a repeat after its first
    # copy.  An out-of-range value makes its row bad and may give it another
    # row's key: the earlier of the two is reported either way
    radix = structure.total_tokens + 1
    sort, (key,) = _tuple_order([_ranks(padded, radix)[contexts] * radix + tokens + 1],
                                kind="stable")
    ok[sort[~_first_copies([key])]] = False
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
    del key, ok
    table = np.empty((len(tokens), order + 1), dtype=np.int64)
    sorted_contexts = contexts[sort]
    for j in range(order):
        table[:, j] = padded[sorted_contexts, j]
    table[:, order] = tokens[sort]
    return table, counts[sort]


def _padded(tokens: np.ndarray, widths: np.ndarray, order: int) -> np.ndarray:
    """Contexts stored end to end (`widths` tokens each) as rows right-padded
    with -1 to the order; a longer context is cut short."""
    column = np.arange(len(tokens)) - np.repeat(np.cumsum(widths) - widths, widths)
    fits = column < order
    padded = np.full((len(widths), order), -1, dtype=np.int64)
    padded[np.repeat(np.arange(len(widths)), widths)[fits], column[fits]] = tokens[fits]
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


def _ranks(rows: np.ndarray, radix: int) -> np.ndarray:
    """Each row's rank among the distinct rows in tuple order; copies share one."""
    by_value, keys = _tuple_order(_packed_keys(rows, radix))
    rank = np.empty(len(rows), dtype=np.int64)
    rank[by_value] = np.cumsum(_first_copies(keys)) - 1
    return rank

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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import rows
from .catalog import (INT_LIST, Header, SemanticId, SequenceColumns, SidStructure, _ListView,
                      integer_array, integer_tuple, read_rows, saved_int, write_artifact)
# not called here; perfbench/test_tracer.py checks that tracing patches and
# restores this module's binding of it
from .catalog import flat_tokens_to_sid  # noqa: F401
from .collision import AssignmentTable
from .errors import DataError

logger = logging.getLogger(__name__)

SENTINEL = -100
DEFAULT_ALPHA = 0.1
DEFAULT_K_LIST = (20, 100, 500, 1000)


class SequenceScorer:
    """Interface every retrieval scorer implements: one method.

    next_token_log_probs_sparse(contexts) scores many contexts at once.  It
    takes a (B, L) int array whose rows share one length L, hence one next
    level (L mod m), and returns each row's log-probabilities over that
    level's token band (index within the band = the level code) as a floor
    per row and the entries that differ from it: (floor (B,), row (S,),
    code (S,), log_prob (S,)).  Row i holds log_prob[j] at each listed
    (row[j], code[j]) and floor[i] at every other code; its band's entries
    exponentiate-and-sum to 1.  Rows are listed ascending, codes ascending
    within a row, and each pair at most once.  A scorer whose rows are
    mostly one value lists only the others, and the beam then scores only
    the entries listed; a scorer may also list every code over a -inf floor.
    """

    structure: SidStructure

    def next_token_log_probs_sparse(self, contexts):
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
    built whenever the counts are set.
    """

    def __init__(self, structure: SidStructure, order: int = 2, alpha: float = DEFAULT_ALPHA):
        (self.order,) = integer_tuple([order], "order")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < alpha < float("inf"):
            raise ValueError("alpha must be positive and finite")
        self.structure = structure
        self.alpha = float(alpha)
        self._set_table(np.empty((0, self.order + 1), dtype=np.int64), np.empty(0, dtype=np.int64))

    def _set_table(self, table: np.ndarray, counts: np.ndarray) -> None:
        self._rows, self._counts = table, counts
        self._index = rows.Index(table[:, : self.order], self.structure.total_tokens + 1)

    @property
    def num_contexts(self) -> int:
        """Distinct contexts seen in training."""
        return len(self._index.starts) - 1

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
        """One context's sparse row filled in over the next level's band:
        its floor, then its counted codes."""
        context = integer_array(context, "token")
        if context.ndim != 1:
            raise DataError(f"expected a flat token context, got shape {context.shape}")
        floor, _, code, log_prob = self.next_token_log_probs_sparse(context[None])
        step = np.full(self.structure.level_sizes[len(context) % self.structure.num_levels],
                       floor[0])
        step[code] = log_prob
        return step

    def next_token_log_probs_sparse(self, contexts):
        """One trie walk finds every row's context and lists its counted
        codes of the next level.  Add-alpha smoothing over the band gives a
        counted code log((c + alpha) / d) and every other code the floor
        log(alpha / d), where d is the row's count total + alpha * band.
        A token that is no integer, or lies outside the token space, is a
        DataError."""
        contexts = integer_array(contexts, "token")
        if contexts.ndim != 2:
            raise DataError(f"expected a (B, L) context matrix, got shape {contexts.shape}")
        total = self.structure.total_tokens
        if contexts.size and (contexts.min() < 0 or contexts.max() >= total):
            raise DataError(f"token {contexts[(contexts < 0) | (contexts >= total)][0]} "
                            "outside the structure's token space")
        contexts = contexts.astype(np.int64, copy=False)
        length = contexts.shape[1]
        level = length % self.structure.num_levels
        offset = self.structure.offsets[level]
        band = self.structure.level_sizes[level]
        start, stop = self._index.rows_of(contexts[:, max(0, length - self.order) :])
        picked, row = rows.expand(start, stop)
        code = self._rows[picked, self.order] - offset
        if code.size and (code.min() < 0 or code.max() >= band):
            # a context with tokens outside their levels' bands
            keep = (code >= 0) & (code < band)
            picked, row, code = picked[keep], row[keep], code[keep]
        counts = self._counts[picked]
        # integer counts, so the float sums are exact in any order
        denom = np.bincount(row, weights=counts, minlength=len(contexts)) + self.alpha * band
        return (np.log(self.alpha / denom), row, code,
                np.log((counts + self.alpha) / denom[row]))


# about how many tokens _count cuts into windows at a time
_CHUNK_TOKENS = 1 << 16


def _checked_chunks(streams, structure: SidStructure):
    """Yield (tokens, position in stream) int64 arrays for runs of whole
    streams of about _CHUNK_TOKENS tokens, in order, each run checked by
    _checked before it is yielded; the streams are read as TokenStreams.of
    reads them."""
    streams = TokenStreams.of(streams)
    starts, ends = streams._starts, streams._starts + streams.lengths
    first = 0
    while first < len(ends):
        last = min(int(np.searchsorted(ends, starts[first] + _CHUNK_TOKENS)), len(ends) - 1)
        yield _checked(streams.tokens[starts[first] : ends[last]],
                       streams.lengths[first : last + 1], structure)
        first = last + 1


def _checked(tokens, lengths, structure: SidStructure):
    """The streams' tokens end to end as int64, and each one's position in
    its stream.  The first bad stream raises: a token outside its level's
    band, else a length that is no whole number of SIDs."""
    ragged = np.flatnonzero(lengths % structure.num_levels)
    if len(ragged):
        end = ragged[0] + 1
        _banded(tokens[: lengths[:end].sum()], lengths[:end], structure)
        raise DataError("stream length must be a whole number of SIDs")
    return _banded(tokens, lengths, structure)


def _banded(tokens, lengths, structure: SidStructure):
    """_checked without the length check: the first token outside its
    level's band raises.  The tokens are compared as integer_array reads
    them, so one beyond int64 (dtype object) is named as it was given."""
    positions = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    level = positions % structure.num_levels
    low = np.asarray(structure.offsets)[level]
    high = low + np.asarray(structure.level_sizes)[level]
    out_of_band = np.flatnonzero((tokens < low) | (tokens >= high))
    if len(out_of_band):
        at = out_of_band[0]
        raise DataError(f"token {int(tokens[at])} at position {positions[at]} "
                        f"is outside level {level[at]}'s band")
    return tokens.astype(np.int64, copy=False), positions


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
        object.__setattr__(self, "tokens", integer_tuple(self.tokens, "token"))
        object.__setattr__(self, "labels", integer_tuple(self.labels, "label"))
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels must have equal length")
        if not any(label >= 0 for label in self.labels):
            raise ValueError("a labeled sequence needs at least one scored position")


def labeled_from_stream(stream, scored_from: int) -> LabeledSequence:
    """Score positions from index `scored_from` on; mask everything before."""
    tokens = integer_tuple(stream, "token")
    labels = tuple(
        SENTINEL if pos < scored_from else tok for pos, tok in enumerate(tokens)
    )
    return LabeledSequence(tokens, labels)


def _scored_loss(scorer: SequenceScorer, examples, start: int = 0) -> float:
    """Mean negative log-probability over every scored position from index
    `start` on, pooled across the examples.

    The label at position t is predicted from tokens[:t]; a token or a label
    outside its level's band raises DataError.  All positions of one prefix
    length are scored in one next_token_log_probs_sparse call, each label
    reading its listed log-prob or else its row's floor, and the losses
    summed example by example, position by position, as a loop would.
    """
    structure = scorer.structure
    by_length = {}  # prefix length -> [(example index, label code, prefix)]
    for e, example in enumerate(examples):
        tokens = integer_array(example.tokens, "token")
        _banded(tokens, np.array([len(tokens)]), structure)
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
        floor, row, code, log_prob = scorer.next_token_log_probs_sparse(contexts)
        listed = dict(zip(zip(row.tolist(), code.tolist()), log_prob.tolist()))
        for i, ((e, label_code, _), row_floor) in enumerate(zip(scored, floor.tolist())):
            losses[e, pos] = -listed.get((i, label_code), row_floor)
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
        object.__setattr__(self, "widths", integer_tuple(self.widths, "beam width"))
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
    """The production defaults: (600, 1200) for 2 levels, else doubling from
    300 and capped at 1200, which gives 3 levels (300, 600, 1200)."""
    m = structure.num_levels
    if m == 2:
        return BeamSchedule((600, 1200))
    return BeamSchedule(tuple(min(300 * 2**j, 1200) for j in range(m)))


class BeamResult(_ListView):
    """Read-only view of a decode: a (k, m) int64 code matrix and its (k,)
    log-prob vector, best first.

    It reads as the list of (SemanticId, float log-prob) pairs (see
    _ListView).  A pair is built only when read, so a caller that needs only
    the codes builds no SemanticId.
    """

    __slots__ = ("codes", "log_probs")

    def __init__(self, codes: np.ndarray, log_probs: np.ndarray):
        self.codes, self.log_probs = codes, log_probs
        codes.flags.writeable = log_probs.flags.writeable = False

    def __len__(self) -> int:
        return len(self.log_probs)

    def _item(self, index: int):
        return SemanticId(self.codes[index].tolist()), float(self.log_probs[index])

    def __iter__(self):  # faster than _item for perfbench's checks, which walk every decode
        return zip(map(SemanticId, self.codes.tolist()), self.log_probs.tolist())


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

    The beams are a (B, level) code matrix in code-tuple order and their
    scores.  Each level scores all B beams in one next_token_log_probs_sparse
    call on their (B, L + level) contexts, the context then the beam's codes
    as tokens, so candidate parent * band + code sits at its place in tuple
    order, and rows.top_k, ties to the lowest position, keeps the `want`
    best (widths[j], or k at the last level) as a full sort by score, then
    tokens, would.  The kept parents' codes gain the new code; sorted, they
    stay in tuple order, and the last level keeps its k best, best first.

    Only some candidates are scored.  Each listed pair scores
    scores[row] + log_prob, and each unlisted code of parent p the floor
    candidate F[p] = scores[p] + floor[p].  Order the parents by F
    descending, then index, and take the shortest prefix whose unlisted
    codes number at least `want`: the candidates are every listed pair and
    every unlisted code of those parents.  This keeps what the full set
    keeps.  An unlisted code of a parent q outside the prefix is beaten by
    each of at least `want` unlisted codes in the prefix, whose parent p
    has F[p] > F[q], or F[p] == F[q] and p < q, a lower position.

    A NaN candidate raises DataError naming the level; -inf is a legal
    score.  The context must be whole SIDs, each token an integer in its
    level's band (as _checked_chunks checks a training stream), so the first
    decoded token is a level-0 one; k must lie in [1, widths[-1]].
    """
    structure = scorer.structure
    schedule.validate(structure)
    (k,) = integer_tuple([k], "k")
    if k < 1:
        raise ValueError(f"k={k} must be positive")
    if k > schedule.widths[-1]:
        raise ValueError(f"k={k} exceeds the final beam width {schedule.widths[-1]}")
    context = _context_tokens(context, structure)
    offsets = np.asarray(structure.offsets)
    codes = np.empty((1, 0), dtype=np.int64)
    scores = np.zeros(1)
    for level, (band, want) in enumerate(zip(structure.level_sizes, (*schedule.widths[:-1], k))):
        contexts = np.empty((len(codes), len(context) + level), dtype=np.int64)
        contexts[:, : len(context)] = context
        contexts[:, len(context) :] = codes + offsets[:level]
        floor, row, code, log_prob = scorer.next_token_log_probs_sparse(contexts)
        listed = scores[row] + log_prob
        floors = scores + floor
        unlisted = band - np.bincount(row, minlength=len(contexts))
        if np.isnan(listed).any() or (
                np.isnan(floors).any() and np.isnan(floors[unlisted > 0]).any()):
            raise DataError(f"scorer returned NaN log-probabilities at level {level}")
        by_floor = (-floors).argsort(kind="stable")
        enough = unlisted[by_floor].cumsum().searchsorted(want)
        # every code of the prefix parents and every listed pair, in tuple order
        chosen = np.zeros(len(contexts), dtype=bool)
        chosen[by_floor[: enough + 1]] = True
        chosen = chosen.repeat(band)
        listed_at = row * band + code
        chosen[listed_at] = True
        position = chosen.nonzero()[0]
        candidates = floors[position // band]
        candidates[position.searchsorted(listed_at)] = listed
        keep = rows.top_k(candidates, want)
        if level < structure.num_levels - 1:
            keep.sort()
        parent, code = np.divmod(position[keep], band)
        scores = candidates[keep]
        codes = np.concatenate((codes[parent], code[:, None]), axis=1)
    return BeamResult(codes, scores)


def _context_tokens(context, structure: SidStructure) -> np.ndarray:
    """The beam's context as an int64 token array, checked as one training
    stream: the first bad token raises, else the length."""
    tokens = integer_array(context, "token")
    if tokens.ndim != 1:
        raise DataError(f"expected a flat token context, got shape {tokens.shape}")
    return _checked(tokens, np.array([len(tokens)]), structure)[0]


# ---------------------------------------------------------------------------
# Evaluation and corpus building


def _flat_tokens(table: AssignmentTable, item_ids) -> np.ndarray:
    """The items' SIDs as one flat-token array: their code rows plus the
    level offsets.  The table's constructor already checked every code's
    band."""
    return (table.codes_of(item_ids) + np.asarray(table.structure.offsets)).ravel()


def sequence_context(table: AssignmentTable, history) -> list[int]:
    """Concatenated flat tokens of the history items' SIDs, oldest first."""
    return _flat_tokens(table, history).tolist()


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
    k_list = sorted(set(integer_tuple(k_list, "K")))
    if not k_list or k_list[0] < 1:
        raise ValueError("K values must be positive")
    sequences = list(sequences)
    if not sequences:
        raise DataError("no sequences to evaluate")
    totals = {k: 0.0 for k in k_list}
    max_k = k_list[-1]
    for seq in sequences:
        if not seq.targets:
            raise DataError(f"sequence {seq.pv_id!r} has no clicked targets")
        table.codes_of(seq.targets)  # the first unmapped target is a data error, not a zero
        decoded = dynamic_beam_search(scorer, _flat_tokens(table, seq.history), schedule,
                                      k=schedule.widths[-1])
        retrieved = table.items_for_codes(decoded.codes, limit=max_k)
        clicked = set(seq.targets)
        for k in k_list:
            hits = len(set(retrieved[:k]) & clicked)
            totals[k] += hits / len(clicked)
    return {k: totals[k] / len(sequences) for k in k_list}


class TokenStreams(_ListView):
    """Read-only view of a corpus: one flat token array, the streams end to
    end, and each stream's length.

    It reads as the list of token lists (see _ListView).  A stream's list is
    built only when read; training counts straight from the arrays (see
    _checked_chunks).  `of` builds the view of any other streams, so every
    stream is read through one path.
    """

    __slots__ = ("tokens", "lengths", "_starts")

    def __init__(self, tokens: np.ndarray, lengths: np.ndarray):
        self.tokens, self.lengths = tokens, lengths
        self._starts = np.cumsum(lengths) - lengths
        tokens.flags.writeable = lengths.flags.writeable = False

    @classmethod
    def of(cls, streams) -> "TokenStreams":
        """The streams, in order, as one view (a TokenStreams as it is),
        their tokens read by integer_array, so a token beyond int64 is kept
        exact.  A token that is no integer is a DataError naming it at its
        position in its stream."""
        if isinstance(streams, cls):
            return streams
        streams = [list(stream) for stream in streams]
        lengths = np.fromiter(map(len, streams), dtype=np.int64, count=len(streams))
        try:
            tokens = integer_array(list(chain.from_iterable(streams)), "token")
        except DataError:
            for stream in streams:
                integer_array(stream, "token")  # names the first such token in its stream
            raise
        return cls(tokens, lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def _item(self, index: int):
        start = self._starts[index]
        return self.tokens[start : start + self.lengths[index]].tolist()


def build_useraction_corpus(sequences, table: AssignmentTable) -> TokenStreams:
    """One flat-token stream per page view: history then targets, in order.

    No instruction tokens, no separators; the stream is exactly the SIDs of
    the interacted items, which is what autoregressive pretraining consumes.
    The sequences are read as columns (SequenceColumns, which a list of
    InteractionSequence becomes): the table is asked once for each distinct
    item, and one gather lays out the streams.
    """
    if not isinstance(sequences, SequenceColumns):
        sequences = SequenceColumns.of(sequences)
    m = table.structure.num_levels
    tokens = _flat_tokens(table, sequences.item_ids).reshape(-1, m)[sequences.items]
    return TokenStreams(tokens.ravel(), np.diff(sequences.starts) * m)


# ---------------------------------------------------------------------------
# File formats


def save_corpus(corpus, path) -> None:
    """One stream per line, comma-separated flat tokens (TokenStreams.of)."""
    write_artifact(path, (",".join(map(str, stream)) + "\n" for stream in TokenStreams.of(corpus)))


def load_corpus(path) -> list[list[int]]:
    """One stream per line, comma-separated flat tokens (a non-empty
    INT_LIST; whitespace may surround it)."""

    def parse(fields):
        (stream,) = fields
        stream = stream.strip()
        if not INT_LIST.fullmatch(stream):
            raise DataError(f"malformed token stream {stream!r}")
        return [int(t) for t in stream.split(",")]

    return read_rows(path, parse)


# count rows formatted per write in save_markov_scorer
_SAVE_ROWS = 1 << 14


def save_markov_scorer(scorer: MarkovScorer, path) -> None:
    """Header (order, alpha, structure) then one count row per (context, next),
    in the table's row order, formatted a block of rows at a time (see
    _count_row_bytes, whose bytes are ASCII)."""
    structure, rows, counts = scorer.structure, scorer._rows, scorer._counts

    def blocks():
        levels = "\t".join(str(n) for n in structure.level_sizes)
        yield (f"#order\t{scorer.order}\n#alpha\t{repr(scorer.alpha)}\n#levels\t{levels}\n"
               f"#code_dim\t{structure.code_dim}\n")
        for lo in range(0, len(rows), _SAVE_ROWS):
            yield _count_row_bytes(rows[lo : lo + _SAVE_ROWS], counts[lo : lo + _SAVE_ROWS]).decode()

    write_artifact(path, blocks())


def _count_row_bytes(rows: np.ndarray, counts: np.ndarray) -> bytes:
    """Count rows as text: each row's context tokens (its -1 padding left
    out) joined by commas, a tab, the next token, a tab, the count and a
    newline, every number written as str() writes it.  Each number's digits
    and the separator after it are written into one byte buffer."""
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
    digits only, and below 2**63.  A row that spells one otherwise (a sign,
    spaces, `_`, non-ASCII digits) is a DataError at its line.  The file is
    read whole and its count rows parsed with numpy over the bytes, then
    checked as one table.  When that fails, `read_rows` walks the rows
    through their one-row check (_row_check) to name the first bad one."""
    return read_rows(path, None, _parsed_scorer, _row_check())


def _parsed_scorer(text: str) -> MarkovScorer:
    """The scorer a whole scorer file's text holds: header rows (`#name`,
    tab-separated values) up to the first other non-blank line, then count
    rows."""
    header, pos = Header(), 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        line = text[pos:end]
        if not line.isspace():
            if line[:1] != "#":
                break
            fields = line.rstrip("\n").split("\t")
            header[fields[0][1:]] = fields[1:]
        pos = end
    scorer = _header_scorer(header)
    if pos < len(text):  # blank or whitespace-only lines fail a first parse; a retry drops them
        columns = _byte_columns(text[pos:]) or _byte_columns("".join(
            line for line in io.StringIO(text[pos:], newline="\n") if not line.isspace()))
        if columns is None:
            raise ValueError("a count row is not context<TAB>token<TAB>count in ASCII digits")
        scorer._set_table(*_checked_table(scorer, *columns))
    return scorer


def _row_check():
    """A check_row for read_rows: the one-row form of _parsed_scorer, with
    the state of one load.  Header rows come first, and the header must hold
    at the first count row.  Each field of a count row goes through
    saved_int; then the row's context must be a slice of a stream of whole
    SIDs (checked once per run of rows that share its text), its token of
    the level that follows, its count at least 1 and its (context, token)
    new."""
    header, seen = Header(), set()
    scorer = last = context = band = None

    def check_row(i, fields):
        nonlocal scorer, last, context, band
        if scorer is None:
            if fields[0][:1] == "#":
                header[fields[0][1:]] = fields[1:]
                return
            scorer = _header_scorer(header)
        text, token, count = fields
        if text != last:
            context = tuple(map(saved_int, text.split(","))) if text else ()
            band, last = _next_band(context, scorer), text
        token, count = saved_int(token), saved_int(count)
        if band is None:
            raise DataError(f"context {','.join(map(str, context))!r} is not a slice of a "
                            "stream of whole SIDs")
        if not band[0] <= token < band[1] or count < 1 or (context, token) in seen:
            raise DataError(f"after {','.join(map(str, context))!r} expected a new token in "
                            f"[{band[0]}, {band[1]}), count >= 1")
        seen.add((context, token))

    return check_row


def _next_band(context: tuple[int, ...], scorer: MarkovScorer):
    """_next_bands for one context in plain Python: the band (low, high) of
    the token that follows it, or None if it is no slice of a stream of
    whole SIDs."""
    offsets, sizes = scorer.structure.offsets, scorer.structure.level_sizes
    first = bisect_right(offsets, context[0]) - 1 if len(context) == scorer.order else 0
    levels = [(first + j) % len(sizes) for j in range(len(context) + 1)]
    if len(context) > scorer.order or not all(
            offsets[level] <= t < offsets[level] + sizes[level]
            for level, t in zip(levels, context)):
        return None
    return offsets[levels[-1]], offsets[levels[-1]] + sizes[levels[-1]]


_ROW_BYTES = b"0123456789,\t\n"  # the bytes a count row is written in
_MAX_DIGITS = 18  # the digits numpy reads of a number (below 2**63); int() reads more
_BLOCK_BYTES = 1 << 18  # about how much of the file the byte parse takes at a time


def _byte_columns(body: str):
    """Count rows as _checked_table's (context tokens end to end, context
    widths, each row's context, tokens, counts), parsed with numpy over the
    bytes a block of whole lines at a time; a context is shared by a run of
    rows that hold it.  None unless every line is `c,..,c<TAB>token<TAB>count`
    with zero or more context tokens, every number of ASCII digits.  A number
    of 2**63 or more raises OverflowError."""
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
    rows = np.flatnonzero(newline)  # a row's count ends at its newline, its token at
    tab = kind == 9                 # the tab before, its context at the tab before that
    if (rows[:1] < 2).any() or tab.sum() != 2 * len(rows) or not (
            tab[rows - 1] & tab[rows - 2]).all():
        return None
    context_ends = rows - 2
    empty_context = np.zeros(len(kind), dtype=bool)  # the one number that may be empty
    empty_context[context_ends] = starts_line[context_ends]
    if ((lengths == 0) & ~empty_context).any():
        return None
    values = np.zeros(len(ends), dtype=np.int64)
    for j in range(min(lengths.max(initial=0), _MAX_DIGITS)):  # the digits that stand for 10**j
        values += (lengths > j) * (data[ends - 1 - j] - np.int64(48)) * 10**j
    for at in np.flatnonzero(lengths > _MAX_DIGITS):  # the few longer numbers, through int
        values[at] = int(data[ends[at] - lengths[at] : ends[at]].tobytes())  # >= 2**63 raises
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


def _header_scorer(header: Header) -> MarkovScorer:
    (order,), (alpha,) = header.ints("order"), header["alpha"]
    return MarkovScorer(header.structure(), order=order, alpha=float(alpha))


def _checked_table(scorer, context_tokens, widths, contexts, tokens, counts):
    """The count rows as a sorted table.  DataError if any row is one no
    stream of whole SIDs produces: its context is no slice of such a
    stream, its token is not of the level that follows the context, its
    count is below 1, or another row has the same context and token."""
    order, structure = scorer.order, scorer.structure
    padded = _padded(context_tokens, np.cumsum(widths) - widths, widths, order)
    valid, low, high = _next_bands(padded, widths, structure)
    ok = valid[contexts] & (tokens >= low[contexts]) & (tokens < high[contexts]) & (counts >= 1)
    radix = structure.total_tokens + 1
    sort, keys = rows.sort(rows.pack(np.column_stack((padded[contexts], tokens)), radix),
                           kind="stable")
    ok[np.delete(sort, rows.distinct(keys)[0])] = False  # each repeat of a row
    if not ok.all():
        raise DataError("a count row is one no stream of whole SIDs produces")
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


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
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .catalog import Header, SemanticId, SidStructure, read_rows
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
    add-alpha over the next level's band."""

    def __init__(self, structure: SidStructure, order: int = 2, alpha: float = DEFAULT_ALPHA):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < alpha < float("inf"):
            raise ValueError("alpha must be positive and finite")
        self.structure = structure
        self.order = int(order)
        self.alpha = float(alpha)
        self._counts: dict[tuple[int, ...], dict[int, int]] = {}

    @property
    def num_contexts(self) -> int:
        """Distinct contexts seen in training."""
        return len(self._counts)

    def observe(self, stream) -> None:
        """Accumulate (context, next-token) counts from one flat-token stream."""
        tokens = _validated_stream(stream, self.structure)
        for pos, token in enumerate(tokens):
            key = tuple(tokens[max(0, pos - self.order) : pos])
            slot = self._counts.setdefault(key, {})
            slot[token] = slot.get(token, 0) + 1

    def next_token_log_probs(self, context) -> np.ndarray:
        return self.next_token_log_probs_batch([[int(t) for t in context]])[0]

    def next_token_log_probs_batch(self, contexts) -> np.ndarray:
        """One count lookup per row, then one smoothing for the whole batch."""
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
        rows, cols, values = [], [], []
        for i, key in enumerate(contexts[:, max(0, length - self.order) :].tolist()):
            for token, count in self._counts.get(tuple(key), {}).items():
                if offset <= token < offset + band:
                    rows.append(i)
                    cols.append(token - offset)
                    values.append(count)
        counts = np.zeros((len(contexts), band))
        counts[rows, cols] = values
        probs = (counts + self.alpha) / (counts.sum(axis=1, keepdims=True) + self.alpha * band)
        return np.log(probs)


def _validated_stream(stream, structure: SidStructure) -> list[int]:
    tokens = [int(t) for t in stream]
    m = structure.num_levels
    for pos, token in enumerate(tokens):
        level = pos % m
        offset = structure.offsets[level]
        if not offset <= token < offset + structure.level_sizes[level]:
            raise DataError(
                f"token {token} at position {pos} is outside level {level}'s band"
            )
    if len(tokens) % m != 0:
        raise DataError("stream length must be a whole number of SIDs")
    return tokens


def train_markov_scorer(
    streams,
    structure: SidStructure,
    order: int = 2,
    alpha: float = DEFAULT_ALPHA,
) -> MarkovScorer:
    """Count every (context, next token) pair across the corpus."""
    scorer = MarkovScorer(structure, order=order, alpha=alpha)
    for stream in streams:
        scorer.observe(stream)
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
    level's band raises DataError.
    """
    structure = scorer.structure
    total, scored = 0.0, 0
    for example in examples:
        for pos in range(start, len(example.labels)):
            label = example.labels[pos]
            if label < 0:
                continue
            level = pos % structure.num_levels
            offset = structure.offsets[level]
            if not offset <= label < offset + structure.level_sizes[level]:
                raise DataError(f"label {label} at position {pos} is outside level {level}'s band")
            log_probs = scorer.next_token_log_probs(example.tokens[:pos])
            total += -float(log_probs[label - offset])
            scored += 1
    if scored == 0:
        raise DataError("no scorable position")
    return total / scored


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
    context must be whole SIDs, so the first decoded token is a level-0 one.
    """
    structure = scorer.structure
    schedule.validate(structure)
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


def save_markov_scorer(scorer: MarkovScorer, path) -> None:
    """Header (order, alpha, structure) then one count row per (context, next)."""
    structure = scorer.structure
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#order\t{scorer.order}\n")
        fh.write(f"#alpha\t{repr(scorer.alpha)}\n")
        fh.write("#levels\t" + "\t".join(str(n) for n in structure.level_sizes) + "\n")
        fh.write(f"#code_dim\t{structure.code_dim}\n")
        for key in sorted(scorer._counts):
            slot = scorer._counts[key]
            ctx = ",".join(str(t) for t in key)
            for token in sorted(slot):
                fh.write(f"{ctx}\t{token}\t{slot[token]}\n")


def load_markov_scorer(path) -> MarkovScorer:
    """Read a scorer written by save_markov_scorer.  Each count row must be a
    slice of a valid stream: a context of at most `order` tokens on successive
    levels, from level 0 if shorter than the order, then a token of the next
    level (level 0 after an empty context), counted at least once."""
    header, seen, scorer = Header(), {}, None  # seen: context text -> (slot, next band)

    def parse(fields):
        nonlocal scorer
        if scorer is None and fields[0][:1] == "#":
            header[fields[0][1:]] = fields[1:]
            return
        scorer = scorer or _header_scorer(header)
        text, token, count = fields
        slot, lo, hi = seen.get(text) or seen.setdefault(text, _context_slot(scorer, text))
        token, count = int(token), int(count)
        if not lo <= token < hi or count < 1 or token in slot:
            raise DataError(f"after {text!r} expected a new token in [{lo}, {hi}), count >= 1")
        slot[token] = count

    return read_rows(path, parse, lambda _: scorer or _header_scorer(header))


def _header_scorer(header: Header) -> MarkovScorer:
    (order,), (alpha,) = header["order"], header["alpha"]
    return MarkovScorer(header.structure(), order=int(order), alpha=float(alpha))


def _context_slot(scorer: MarkovScorer, text: str) -> tuple[dict[int, int], int, int]:
    """The count slot of a context plus the band [start, end) its next token
    must lie in; a context that is no slice of a stream of whole SIDs raises."""
    key = tuple(map(int, text.split(","))) if text else ()
    offsets, sizes = scorer.structure.offsets, scorer.structure.level_sizes
    level = bisect_right(offsets, key[0]) - 1 if len(key) == scorer.order else 0
    for t in key:
        if len(key) > scorer.order or not 0 <= t - offsets[level] < sizes[level]:
            raise DataError(f"context {text!r} is not a slice of a stream of whole SIDs")
        level = (level + 1) % len(sizes)
    return scorer._counts.setdefault(key, {}), offsets[level], offsets[level] + sizes[level]

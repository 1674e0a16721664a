"""Sequence scoring, loss slicing, beam decoding, and the HR@K loop."""

import logging
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidkit import retrieval
from sidkit.catalog import (
    InteractionSequence,
    SemanticId,
    SequenceColumns,
    SidStructure,
    flat_tokens_to_sid,
    load_sequences,
    save_sequences,
    sid_to_flat_tokens,
)
from sidkit.collision import AssignmentTable
from sidkit.errors import DataError
from sidkit.retrieval import (
    SENTINEL,
    BeamResult,
    BeamSchedule,
    LabeledSequence,
    MarkovScorer,
    SequenceScorer,
    SlicePlan,
    TokenStreams,
    build_useraction_corpus,
    default_schedule,
    dynamic_beam_search,
    evaluate_hr,
    labeled_from_stream,
    load_corpus,
    load_markov_scorer,
    masked_batch_loss,
    save_corpus,
    save_markov_scorer,
    sequence_context,
    slice_plan,
    sliced_loss,
    train_markov_scorer,
)
from sidkit.rows import key_widths

from conftest import scorer_count_dicts
from reference_beam import dense_beam_search, densified


def two_by_two():
    return SidStructure((2, 2), code_dim=2)


def hand_scorer():
    """Three observed streams over a (2, 2) structure; counts are tiny enough
    to check every probability by hand."""
    structure = two_by_two()
    return train_markov_scorer([[0, 2], [0, 3], [1, 2]], structure, order=2, alpha=0.1)


class TestMarkovScorer:
    def test_hand_counted_root_probabilities(self):
        """Empty context: level-1 counts are {0: 2, 1: 1}, smoothed by 0.1."""
        scorer = hand_scorer()
        log_probs = scorer.next_token_log_probs([])
        np.testing.assert_allclose(
            np.exp(log_probs), [2.1 / 3.2, 1.1 / 3.2], rtol=1e-12
        )

    def test_hand_counted_conditional_probabilities(self):
        scorer = hand_scorer()
        after_zero = np.exp(scorer.next_token_log_probs([0]))
        np.testing.assert_allclose(after_zero, [0.5, 0.5], rtol=1e-12)
        after_one = np.exp(scorer.next_token_log_probs([1]))
        np.testing.assert_allclose(after_one, [1.1 / 1.2, 0.1 / 1.2], rtol=1e-12)

    def test_num_contexts_counts_distinct_contexts(self):
        # contexts (), (0,) and (1,); (0,) is seen twice
        assert hand_scorer().num_contexts == 3

    def test_unseen_context_is_uniform(self):
        scorer = hand_scorer()
        # tokens 3 then 1 never occur as a context pair
        log_probs = scorer.next_token_log_probs([3, 1])
        np.testing.assert_allclose(np.exp(log_probs), [0.5, 0.5], rtol=1e-12)

    def test_probabilities_sum_to_one(self):
        scorer = hand_scorer()
        for context in ([], [0], [1], [0, 2], [1, 3], [3, 0]):
            total = np.exp(scorer.next_token_log_probs(context)).sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_context_truncates_to_order(self):
        """order=1 keys on the single previous token, so contexts that agree
        on their last token score identically."""
        structure = two_by_two()
        scorer = train_markov_scorer(
            [[0, 2, 0, 2], [1, 3, 1, 3]], structure, order=1, alpha=0.1
        )
        np.testing.assert_array_equal(
            scorer.next_token_log_probs([0, 2]), scorer.next_token_log_probs([1, 2])
        )

    def test_frequent_continuation_wins(self):
        structure = two_by_two()
        streams = [[0, 2]] * 9 + [[0, 3]]
        scorer = train_markov_scorer(streams, structure, order=2, alpha=0.1)
        log_probs = scorer.next_token_log_probs([0])
        assert log_probs[0] > log_probs[1]
        np.testing.assert_allclose(
            np.exp(log_probs), [9.1 / 10.2, 1.1 / 10.2], rtol=1e-12
        )

    def test_observe_rejects_band_violations(self):
        scorer = MarkovScorer(two_by_two(), order=2)
        with pytest.raises(DataError):
            scorer.observe([2, 0])  # token 2 belongs to level 2
        with pytest.raises(DataError):
            scorer.observe([0, 2, 1])  # not a whole number of SIDs

    def test_scoring_rejects_unknown_tokens(self):
        with pytest.raises(DataError):
            hand_scorer().next_token_log_probs([7])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MarkovScorer(two_by_two(), order=0)
        with pytest.raises(ValueError):
            MarkovScorer(two_by_two(), alpha=0.0)

    def test_an_order_that_is_no_integer_is_refused(self):
        """order=2.9 once counted an order-2 table."""
        with pytest.raises(DataError, match=r"^order 2.9 at position 0 is not an integer$"):
            train_markov_scorer([[0, 2]], two_by_two(), order=2.9)
        assert type(train_markov_scorer([[0, 2]], two_by_two(), order=np.int64(3)).order) is int


def loop_log_probs(scorer, context):
    """Reference: one context scored with per-token count lookups and a
    one-dimensional sum, as a single-context scorer would."""
    structure = scorer.structure
    level = len(context) % structure.num_levels
    offset, band = structure.offsets[level], structure.level_sizes[level]
    counts = np.zeros(band)
    slot = scorer_count_dicts(scorer).get(tuple(context[-scorer.order :]), {})
    for token, count in slot.items():
        if offset <= token < offset + band:
            counts[token - offset] = count
    return np.log((counts + scorer.alpha) / (counts.sum() + scorer.alpha * band))


@st.composite
def small_structures(draw):
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    return SidStructure(tuple(sizes), code_dim=2)


@st.composite
def count_scorers(draw, structure):
    """A Markov scorer on a few random streams: integer counts, many contexts
    never seen (and no counts at all when the corpus is empty)."""
    order = draw(st.integers(1, 3), label="order")
    alpha = draw(st.sampled_from([0.1, 1.0, 2.5]), label="alpha")
    n_sids = draw(st.lists(st.integers(1, 3), max_size=4), label="stream lengths")
    streams = []
    for n in n_sids:
        streams.append([
            offset + draw(st.integers(0, size - 1))
            for _ in range(n)
            for offset, size in zip(structure.offsets, structure.level_sizes)
        ])
    return train_markov_scorer(streams, structure, order=order, alpha=alpha)


class TestScorerBatch:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_bit_equal_single_context_scoring(self, data):
        """Contexts of any length, shorter than the order or not, seen in
        training or not, from any band: every batch row equals the loop
        reference and next_token_log_probs bit for bit."""
        structure = data.draw(small_structures(), label="structure")
        scorer = data.draw(count_scorers(structure))
        length = data.draw(st.integers(0, 2 * structure.num_levels + 1), label="length")
        token = st.integers(0, structure.total_tokens - 1)
        contexts = data.draw(
            st.lists(st.lists(token, min_size=length, max_size=length), min_size=1, max_size=6),
            label="contexts",
        )
        sparse = scorer.next_token_log_probs_sparse(np.array(contexts, dtype=np.int64))
        floor, row, code, _ = sparse
        band = structure.level_sizes[length % structure.num_levels]
        assert floor.shape == (len(contexts),)
        at = row * band + code
        assert (np.diff(at) > 0).all() and ((code >= 0) & (code < band)).all()
        dense = densified(sparse, band)
        for i, context in enumerate(contexts):
            want = loop_log_probs(scorer, context)
            assert dense[i].tobytes() == want.tobytes()
            assert scorer.next_token_log_probs(context).tobytes() == want.tobytes()
            # each listed code is counted, so the floor is every other code's value
            assert (want[np.setdiff1d(np.arange(band), code[row == i])] == floor[i]).all()

    def test_empty_context_rows(self):
        scorer = hand_scorer()
        batch = densified(scorer.next_token_log_probs_sparse(np.empty((3, 0), dtype=np.int64)), 2)
        for row in batch:
            assert row.tobytes() == scorer.next_token_log_probs([]).tobytes()
        np.testing.assert_allclose(np.exp(batch[0]), [2.1 / 3.2, 1.1 / 3.2], rtol=1e-12)

    @pytest.mark.parametrize("bad_row", [0, 2])
    @pytest.mark.parametrize("bad_token", [-1, 4, 99])
    def test_bad_token_in_any_row_rejected(self, bad_row, bad_token):
        contexts = [[0, 2], [1, 3], [0, 3]]
        contexts[bad_row][1] = bad_token
        with pytest.raises(DataError, match=f"token {bad_token} outside"):
            hand_scorer().next_token_log_probs_sparse(contexts)

    def test_contexts_must_be_a_matrix(self):
        with pytest.raises(DataError, match="matrix"):
            hand_scorer().next_token_log_probs_sparse([0, 2])


def reference_counts(streams, order):
    """Oracle: context -> {next token: count}, counted one token at a time the
    way a dict-of-dicts scorer counts, the context being the last `order`
    tokens before the token in its stream."""
    counts = {}
    for stream in streams:
        tokens = [int(t) for t in stream]
        for pos, token in enumerate(tokens):
            slot = counts.setdefault(tuple(tokens[max(0, pos - order) : pos]), {})
            slot[token] = slot.get(token, 0) + 1
    return counts


def reference_first_error(streams, structure):
    """Oracle: the message of the first stream, in order, with a token
    outside its level's band or a length that is no whole number of SIDs."""
    m = structure.num_levels
    for stream in streams:
        tokens = [int(t) for t in stream]
        for pos, token in enumerate(tokens):
            offset, size = structure.offsets[pos % m], structure.level_sizes[pos % m]
            if not offset <= token < offset + size:
                return f"token {token} at position {pos} is outside level {pos % m}'s band"
        if len(tokens) % m:
            return "stream length must be a whole number of SIDs"
    return None


def reference_scorer_text(counts, order, alpha, structure):
    """Oracle: the scorer file of the reference counts, contexts and tokens
    in Python's sorted order."""
    lines = [f"#order\t{order}", f"#alpha\t{alpha!r}",
             "#levels\t" + "\t".join(map(str, structure.level_sizes)),
             f"#code_dim\t{structure.code_dim}"]
    for key in sorted(counts):
        context = ",".join(map(str, key))
        lines += [f"{context}\t{token}\t{counts[key][token]}" for token in sorted(counts[key])]
    return "\n".join(lines) + "\n"


@st.composite
def corpora(draw, structure):
    """Whole-SID streams, some of them repeated, in a random order; maybe none."""
    streams = draw(st.lists(st.lists(
        st.tuples(*(st.integers(o, o + n - 1) for o, n in zip(structure.offsets,
                                                               structure.level_sizes))),
        max_size=4).map(lambda sids: [t for sid in sids for t in sid]), max_size=5),
        label="streams")
    repeats = draw(st.lists(st.sampled_from(streams), max_size=3) if streams else st.just([]),
                   label="repeats")
    return draw(st.permutations(streams + repeats), label="corpus")


def token_streams(streams) -> TokenStreams:
    """The streams as a TokenStreams view over one flat array."""
    flat = [t for stream in streams for t in stream]
    return TokenStreams(np.array(flat, dtype=np.int64),
                        np.array([len(stream) for stream in streams], dtype=np.int64))


class TestCountTable:
    @pytest.mark.parametrize("streams, value, at", [
        ([[0.5, 2.9]], "0.5", 0),
        ([[0, 2], [1, 2.0]], "2.0", 1),
        ([[0, 2], np.array([1.0, 3.0])], "1.0", 0),
    ])
    def test_a_float_token_in_a_stream_is_refused(self, streams, value, at):
        """[0.5, 2.9] once counted as [0, 2].  A float is refused at its
        position in its stream, as the beam refuses one in a context."""
        structure = SidStructure((2, 2), code_dim=2)
        with pytest.raises(DataError, match=rf"^token {value} at position {at} is not an integer$"):
            train_markov_scorer(streams, structure, order=1)
        scorer = MarkovScorer(structure, order=1)
        with pytest.raises(DataError, match=rf"^token {value} at position {at} is not an integer$"):
            for stream in streams:
                scorer.observe(stream)
        assert scorer_count_dicts(scorer) == scorer_count_dicts(
            train_markov_scorer([s for s in streams[:-1]], structure, order=1))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_table_equals_reference_counter(self, data, tmp_path_factory):
        """Orders above the stream length and above m, empty and repeated
        streams, several chunks per corpus: training, observing stream by
        stream, and the saved bytes all agree with the dict-of-dicts
        reference."""
        structure = data.draw(small_structures(), label="structure")
        order = data.draw(st.integers(1, 2 * structure.num_levels + 2), label="order")
        streams = data.draw(corpora(structure))
        chunk = data.draw(st.integers(1, 12), label="chunk tokens")
        with mock.patch.object(retrieval, "_CHUNK_TOKENS", chunk):
            trained = train_markov_scorer(streams, structure, order=order, alpha=0.5)
            observed = MarkovScorer(structure, order=order, alpha=0.5)
            for stream in streams:
                observed.observe(stream)
        want = reference_counts(streams, order)
        assert scorer_count_dicts(trained) == want
        assert trained.num_contexts == len(want)
        rows = trained._rows.tolist()
        assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
        assert observed._rows.tolist() == rows
        assert observed._counts.tolist() == trained._counts.tolist()
        path = tmp_path_factory.mktemp("scorer") / "scorer.tsv"
        save_markov_scorer(trained, path)
        assert path.read_text() == reference_scorer_text(want, order, 0.5, structure)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_first_error_in_stream_order(self, data):
        """Streams with a token moved out of its band or a SID cut short: the
        error raised is the reference's first, whatever the chunking."""
        structure = data.draw(small_structures(), label="structure")
        streams = data.draw(corpora(structure))
        for _ in range(data.draw(st.integers(0, 3), label="faults")):
            if not streams:
                break
            i = data.draw(st.integers(0, len(streams) - 1), label="stream")
            stream = list(streams[i])
            if stream and data.draw(st.booleans(), label="retoken"):
                pos = data.draw(st.integers(0, len(stream) - 1), label="position")
                stream[pos] = data.draw(st.integers(-2, structure.total_tokens + 1), label="token")
            else:
                stream.append(data.draw(st.integers(0, structure.total_tokens - 1)))
            streams[i] = stream
        chunk = data.draw(st.integers(1, 12), label="chunk tokens")
        want = reference_first_error(streams, structure)
        with mock.patch.object(retrieval, "_CHUNK_TOKENS", chunk):
            for corpus in (streams, token_streams(streams)):  # both go through one check
                if want is None:
                    train_markov_scorer(corpus, structure, order=2)
                else:
                    with pytest.raises(DataError) as info:
                        train_markov_scorer(corpus, structure, order=2)
                    assert str(info.value) == want

    def test_token_beyond_int64_is_out_of_band(self):
        streams = [[0, 2], [0, 2**70], [5, 2]]
        with pytest.raises(DataError, match=f"^token {2**70} at position 1 is outside level 1's"):
            train_markov_scorer(streams, two_by_two())

    def test_failed_observe_leaves_the_table_as_it_was(self):
        scorer = hand_scorer()
        before = scorer_count_dicts(scorer)
        with pytest.raises(DataError):
            scorer.observe([0, 2, 1, 9])
        assert scorer_count_dicts(scorer) == before

    @pytest.mark.parametrize("radix, room", [
        (193, 1), (193, 156_001), (501, 1), (501, 901), (8193 * 3, 2**20), (2**31, 2**30)])
    def test_packed_key_widths_are_the_widest_that_fit(self, radix, room):
        widths = key_widths(radix, 12, room)
        assert sum(widths) == 12
        assert all(room * radix**w < 2**63 for w in widths)
        assert widths[0] == 12 or room * radix ** (widths[0] + 1) >= 2**63

    def test_keys_wider_than_one_int64(self, tmp_path):
        """Ten levels of 50 codes and order 9: no int64 holds a packed row,
        so counting, the trie walk and the file round trip span several
        keys; all still agree with the references."""
        structure = SidStructure((50,) * 10, code_dim=2)
        rng = np.random.default_rng(6)
        streams = random_corpus(structure, 30, 3, rng)
        streams += [s[:10] for s in streams[:5]]  # shared prefixes
        scorer = train_markov_scorer(streams, structure, order=9, alpha=0.25)
        want = reference_counts(streams, 9)
        assert scorer_count_dicts(scorer) == want
        contexts = [s[: 10 + k] for s in streams[:6] for k in (0, 3, 7)] + [[], streams[0][:4]]
        for context in contexts:
            assert scorer.next_token_log_probs(context).tobytes() == (
                loop_log_probs(scorer, context).tobytes())
        path = tmp_path / "scorer.tsv"
        save_markov_scorer(scorer, path)
        assert path.read_text() == reference_scorer_text(want, 9, 0.25, structure)
        assert load_markov_scorer(path)._rows.tolist() == scorer._rows.tolist()


class TestRecLoss:
    """The recommendation loss of one example: masked_batch_loss([example])."""

    def test_hand_computed_value(self):
        scorer = hand_scorer()
        example = labeled_from_stream([0, 2], scored_from=0)
        want = (-math.log(2.1 / 3.2) - math.log(0.5)) / 2
        assert masked_batch_loss(scorer, [example]) == pytest.approx(want, rel=1e-12)

    def test_untrained_scorer_gives_log_band(self):
        scorer = MarkovScorer(two_by_two(), order=2)
        example = labeled_from_stream([0, 2, 1, 3], scored_from=0)
        assert masked_batch_loss(scorer, [example]) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_sentinel_prefix_skipped(self):
        scorer = hand_scorer()
        example = labeled_from_stream([0, 2], scored_from=1)
        assert example.labels == (SENTINEL, 2)
        want = -math.log(0.5)
        assert masked_batch_loss(scorer, [example]) == pytest.approx(want, rel=1e-12)

    def test_label_band_violation_rejected(self):
        scorer = hand_scorer()
        example = LabeledSequence(tokens=(0, 2), labels=(SENTINEL, 0))
        with pytest.raises(DataError):
            masked_batch_loss(scorer, [example])

    @pytest.mark.parametrize("loss", [
        lambda scorer, ex: masked_batch_loss(scorer, [ex]),
        lambda scorer, ex: sliced_loss(scorer, [ex]),
    ], ids=["masked", "sliced"])
    def test_every_loss_rejects_label_below_band(self, loss):
        """Label 1 sits in level 0's band, not level 1's; indexing the level-1
        log-probs with 1 - offset would wrap to the last entry."""
        example = LabeledSequence(tokens=(0, 2), labels=(SENTINEL, 1))
        with pytest.raises(DataError, match="outside level 1"):
            loss(hand_scorer(), example)

    @pytest.mark.parametrize("loss", [
        lambda scorer, ex: masked_batch_loss(scorer, [ex]),
        lambda scorer, ex: sliced_loss(scorer, [ex]),
    ], ids=["masked", "sliced"])
    def test_every_loss_rejects_context_token_outside_band(self, loss):
        """Context token 2 is a level-1 token at level 0's position: the
        losses refuse it as dynamic_beam_search refuses that context."""
        example = LabeledSequence(tokens=(2, 2), labels=(SENTINEL, 2))
        want = "token 2 at position 0 is outside level 0's band"
        with pytest.raises(DataError, match=want):
            loss(hand_scorer(), example)
        with pytest.raises(DataError, match=want):
            dynamic_beam_search(hand_scorer(), [2, 2], BeamSchedule((2, 2)), 1)

    def test_no_examples_rejected(self):
        with pytest.raises(DataError, match="^no scorable position$"):
            masked_batch_loss(hand_scorer(), [])

    def test_fully_masked_sequence_unconstructible(self):
        with pytest.raises(ValueError):
            LabeledSequence(tokens=(0, 2), labels=(SENTINEL, SENTINEL))

    def test_tokens_and_labels_of_other_lengths_unconstructible(self):
        with pytest.raises(ValueError, match="^tokens and labels must have equal length$"):
            LabeledSequence(tokens=(0, 2), labels=(SENTINEL, 2, 1))

    def test_a_float_token_or_label_is_refused(self):
        """(0.5, 2.9) once read as (0, 2), in a stream and in its labels."""
        with pytest.raises(DataError, match=r"^token 0.5 at position 0 is not an integer$"):
            LabeledSequence((0.5, 2.9), (SENTINEL, 2.9))
        with pytest.raises(DataError, match=r"^label 2.9 at position 1 is not an integer$"):
            LabeledSequence((0, 2), (SENTINEL, 2.9))
        with pytest.raises(DataError, match=r"^token 2.0 at position 1 is not an integer$"):
            labeled_from_stream([0, np.float64(2.0)], scored_from=1)
        example = labeled_from_stream(np.array([0, 2], dtype=np.int32), scored_from=1)
        assert example == LabeledSequence((0, 2), (SENTINEL, 2))
        assert all(type(t) is int for t in example.tokens + example.labels)


def loop_scored_loss(scorer, examples):
    """Reference: each scored position's context scored alone and its row
    filled in, summed example by example, position by position."""
    structure = scorer.structure
    total, scored = 0.0, 0
    for example in examples:
        for pos, label in enumerate(example.labels):
            if label >= 0:
                level = pos % structure.num_levels
                sparse = scorer.next_token_log_probs_sparse([example.tokens[:pos]])
                step = densified(sparse, structure.level_sizes[level])[0]
                total += -float(step[label - structure.offsets[level]])
                scored += 1
    return total / scored


class TestScoredLossBatches:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_batch_per_prefix_length_equals_the_loop(self, data):
        """Examples of different lengths and masks: the masked loss equals
        the per-position loop exactly, from one sparse call per scored
        prefix length."""
        structure = data.draw(small_structures(), label="structure")
        scorer = data.draw(count_scorers(structure))
        examples = []
        for stream in data.draw(corpora(structure)):
            if stream:
                scored_from = data.draw(st.integers(0, len(stream) - 1), label="scored from")
                examples.append(labeled_from_stream(stream, scored_from))
        if not examples:
            return
        calls = []
        sparse = scorer.next_token_log_probs_sparse

        def counting(contexts):
            calls.append(np.shape(contexts)[1])
            return sparse(contexts)

        want = loop_scored_loss(scorer, examples)
        with mock.patch.object(scorer, "next_token_log_probs_sparse", counting):
            got = masked_batch_loss(scorer, examples)
        assert got == want
        scored = {pos for ex in examples for pos, label in enumerate(ex.labels) if label >= 0}
        assert sorted(calls) == sorted(scored)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sparse_only_scorer_is_scored(self, data):
        """A scorer that gives only the sparse form, its floors tied with
        its listed values and -inf among both: each label reads its listed
        log-prob, else its row's floor, as the per-position loop does."""
        structure = data.draw(small_structures(), label="structure")
        values = data.draw(st.lists(st.sampled_from([0.0, -1.0, -2.5, -math.inf]),
                                    min_size=1, max_size=3, unique=True), label="values")
        scorer = FloorScorer(structure, values, data.draw(st.integers(0, 2**16), label="seed"))
        examples = [labeled_from_stream(stream, data.draw(st.integers(0, len(stream) - 1)))
                    for stream in data.draw(corpora(structure)) if stream]
        if examples:
            assert masked_batch_loss(scorer, examples) == loop_scored_loss(scorer, examples)


class TestSlicePlan:
    def test_single_row_golden(self):
        assert slice_plan([[-100, -100, 5, 6]]) == SlicePlan(2, 3)

    def test_two_row_golden(self):
        rows = [[-100, 5, 6, 7], [-100, -100, 8, 9]]
        assert slice_plan(rows) == SlicePlan(1, 4)

    def test_keep_is_capped_at_length(self):
        assert slice_plan([[5, 6, 7]]) == SlicePlan(0, 3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError):
            slice_plan([[1, 2], [1, 2, 3]])

    def test_unscored_row_rejected(self):
        with pytest.raises(DataError, match="row 1"):
            slice_plan([[1, 2], [-100, -100]])

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            slice_plan([])


class TestSlicedEqualsMasked:
    def test_equal_on_random_mask_patterns(self):
        """100 random batches: scoring only the slice-plan window gives the
        same pooled loss as scoring everything with sentinels skipped."""
        structure = SidStructure((3, 3), code_dim=2)
        rng = np.random.default_rng(0)
        corpus = []
        for _ in range(30):
            stream = []
            for _ in range(2):
                stream += [int(rng.integers(3)), 3 + int(rng.integers(3))]
            corpus.append(stream)
        scorer = train_markov_scorer(corpus, structure, order=2, alpha=0.1)
        for trial in range(100):
            examples = []
            for _ in range(4):
                stream = []
                for _ in range(2):
                    stream += [int(rng.integers(3)), 3 + int(rng.integers(3))]
                scored_from = int(rng.integers(0, len(stream)))  # at least one kept
                examples.append(labeled_from_stream(stream, scored_from))
            masked = masked_batch_loss(scorer, examples)
            sliced = sliced_loss(scorer, examples)
            assert sliced == pytest.approx(masked, abs=1e-10), f"trial {trial}"


class TestBeamSchedule:
    def test_default_widths(self):
        assert default_schedule(SidStructure((8, 8, 8), code_dim=2)).widths == (300, 600, 1200)
        assert default_schedule(SidStructure((8, 8), code_dim=2)).widths == (600, 1200)
        assert default_schedule(
            SidStructure((4, 4, 4, 4), code_dim=2)
        ).widths == (300, 600, 1200, 1200)

    def test_length_must_match_structure(self):
        with pytest.raises(DataError):
            BeamSchedule((4, 4)).validate(SidStructure((2, 2, 2), code_dim=2))

    def test_positive_widths_required(self):
        with pytest.raises(ValueError):
            BeamSchedule((4, 0, 4))

    @pytest.mark.parametrize("widths, value, at", [((2.5, 4), "2.5", 0), ((2, "4"), "4", 1)])
    def test_a_width_that_is_no_integer_is_refused(self, widths, value, at):
        """(2.5, 4) once read as (2, 4)."""
        message = f"^beam width {value} at position {at} is not an integer$"
        with pytest.raises(DataError, match=message):
            BeamSchedule(widths)

    def test_decreasing_widths_warn(self, caplog):
        with caplog.at_level(logging.WARNING):
            BeamSchedule((8, 4, 2))
        assert any("decrease" in r.message for r in caplog.records)


def random_corpus(structure, n_streams, sids_per_stream, rng):
    corpus = []
    sizes = structure.level_sizes
    offsets = structure.offsets
    for _ in range(n_streams):
        stream = []
        for _ in range(sids_per_stream):
            stream += [offsets[j] + int(rng.integers(sizes[j])) for j in range(len(sizes))]
        corpus.append(stream)
    return corpus


def exhaustive_decode(scorer, context, k):
    """Oracle: score every full SID by summing scorer steps, order by
    descending log-probability then lexicographic codes."""
    structure = scorer.structure
    results = []

    def walk(partial, logp):
        level = len(partial)
        if level == structure.num_levels:
            results.append((logp, tuple(partial)))
            return
        step = scorer.next_token_log_probs(list(context) + list(partial))
        offset = structure.offsets[level]
        for code in range(structure.level_sizes[level]):
            walk(partial + [offset + code], logp + float(step[code]))

    walk([], 0.0)
    results.sort(key=lambda r: (-r[0], r[1]))
    return results[:k]


def tuple_beam_search(scorer, context, schedule, k):
    """Reference: the beam as a list of (score, token tuple) pairs, scored
    one beam at a time and fully lexsorted at every level."""
    structure = scorer.structure
    context = tuple(int(t) for t in context)
    beams = [(0.0, ())]
    for level, width in enumerate(schedule.widths):
        band = structure.level_sizes[level]
        offset = structure.offsets[level]
        scores = np.empty(len(beams) * band)
        tokens = np.empty((len(beams) * band, level + 1), dtype=np.int64)
        for i, (logp, partial) in enumerate(beams):
            step = scorer.next_token_log_probs(context + partial)
            rows = slice(i * band, (i + 1) * band)
            scores[rows] = logp + step
            tokens[rows, :level] = partial
            tokens[rows, level] = np.arange(band) + offset
        keys = tuple(tokens[:, j] for j in reversed(range(level + 1))) + (-scores,)
        order = np.lexsort(keys)[:width]
        beams = [(float(scores[i]), tuple(int(t) for t in tokens[i])) for i in order]
    return [(flat_tokens_to_sid(tokens, structure), logp) for logp, tokens in beams[:k]]


class DenseScorer(SequenceScorer):
    """Stub base: a subclass gives each (B, band) matrix of log-probs,
    next_token_log_probs_batch, and this lists every code of it over a -inf
    floor.  next_token_log_probs is one context's row."""

    def next_token_log_probs_sparse(self, contexts):
        step = self.next_token_log_probs_batch(contexts)
        row, code = np.divmod(np.arange(step.size), step.shape[1])
        return np.full(len(step), -np.inf), row, code, step.ravel()

    def next_token_log_probs(self, context):
        return self.next_token_log_probs_batch([list(context)])[0]


class StepScorer(DenseScorer):
    """Stub scorer: every context at level j gets the fixed row steps[j]."""

    def __init__(self, structure, steps):
        self.structure = structure
        self.steps = [np.asarray(row, dtype=np.float64) for row in steps]

    def next_token_log_probs_batch(self, contexts):
        contexts = np.asarray(contexts)
        level = contexts.shape[1] % self.structure.num_levels
        return np.tile(self.steps[level], (len(contexts), 1))


class ContextStepScorer(DenseScorer):
    """Stub scorer: the row of each context is given by a dict."""

    def __init__(self, structure, rows):
        self.structure, self.rows = structure, rows

    def next_token_log_probs_batch(self, contexts):
        return np.array([self.rows[tuple(c)] for c in np.asarray(contexts).tolist()])


class TieScorer(DenseScorer):
    """Stub scorer: each (context, code) draws its log-prob from a few
    values, seeded by the context, so most candidates tie."""

    def __init__(self, structure, values, seed):
        self.structure, self.values, self.seed = structure, np.asarray(values), seed

    def next_token_log_probs_batch(self, contexts):
        contexts = np.asarray(contexts, dtype=np.int64)
        band = self.structure.level_sizes[contexts.shape[1] % self.structure.num_levels]
        rows = [self.values[np.random.default_rng([self.seed, *row]).integers(
            len(self.values), size=band)] for row in contexts.tolist()]
        return np.array(rows).reshape(len(contexts), band)


class TestDynamicBeamSearch:
    def setup_method(self):
        self.structure = SidStructure((4, 4, 4), code_dim=2)
        rng = np.random.default_rng(1)
        corpus = random_corpus(self.structure, 60, 2, rng)
        self.scorer = train_markov_scorer(corpus, self.structure, order=2, alpha=0.1)

    def test_full_width_beam_matches_exhaustive_oracle(self):
        """Widths covering the whole vocabulary turn the beam into exact
        enumeration; every SID and log-prob must match the oracle."""
        schedule = BeamSchedule((4, 16, 64))
        context = [0, 5, 9]  # one full SID from each level's band
        got = dynamic_beam_search(self.scorer, context, schedule, k=64)
        want = exhaustive_decode(self.scorer, context, k=64)
        assert len(got) == 64
        for (sid, logp), (want_logp, want_tokens) in zip(got, want):
            assert sid_to_flat_tokens(sid, self.structure) == list(want_tokens)
            assert logp == pytest.approx(want_logp, abs=1e-12)

    def test_narrow_beam_top_result_matches_greedy(self):
        schedule = BeamSchedule((1, 1, 1))
        context = []
        got = dynamic_beam_search(self.scorer, context, schedule, k=1)
        tokens = []
        for level in range(3):
            step = self.scorer.next_token_log_probs(tokens)
            offset = self.structure.offsets[level]
            tokens.append(offset + int(np.argmax(step)))
        assert sid_to_flat_tokens(got[0][0], self.structure) == tokens

    def test_untrained_ties_order_lexicographically(self):
        scorer = MarkovScorer(two_by_two(), order=2)
        schedule = BeamSchedule((2, 4))
        got = dynamic_beam_search(scorer, [], schedule, k=4)
        assert [sid.codes for sid, _ in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(
            logp == pytest.approx(math.log(0.25), rel=1e-12) for _, logp in got
        )

    def test_k_cannot_exceed_final_width(self):
        with pytest.raises(ValueError):
            dynamic_beam_search(self.scorer, [], BeamSchedule((4, 8, 8)), k=9)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_must_be_positive(self, k):
        """A negative k would slice rows off the end of the beam."""
        with pytest.raises(ValueError, match=f"k={k}"):
            dynamic_beam_search(self.scorer, [], BeamSchedule((2, 4, 8)), k=k)

    def test_a_k_that_is_no_integer_is_refused(self):
        """k=1.5 once raised numpy's IndexError from the last level's cut."""
        with pytest.raises(DataError, match=r"^k 1.5 at position 0 is not an integer$"):
            dynamic_beam_search(self.scorer, [], BeamSchedule((2, 4, 8)), k=1.5)
        decoded = dynamic_beam_search(self.scorer, [], BeamSchedule((2, 4, 8)), k=np.int64(3))
        assert len(decoded) == 3

    def test_wider_beam_never_scores_worse(self):
        """The best SID found can only improve as widths grow."""
        context = [2, 4, 8]
        narrow = dynamic_beam_search(self.scorer, context, BeamSchedule((1, 1, 1)), k=1)
        wide = dynamic_beam_search(self.scorer, context, BeamSchedule((4, 16, 64)), k=1)
        assert wide[0][1] >= narrow[0][1] - 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_array_beam_equals_tuple_beam(self, data):
        """Integer-count scorers and unseen contexts give uniform rows, so
        tied scores straddle the cut; widths fall below and above
        beams x band, and k below the final width.  SIDs and log-probs must
        equal the tuple-list reference exactly; a context with a token
        outside its level's band is a DataError."""
        structure = data.draw(small_structures(), label="structure")
        scorer = data.draw(count_scorers(structure))
        length = structure.num_levels * data.draw(st.integers(0, 2), label="context SIDs")
        context = data.draw(st.lists(
            st.integers(0, structure.total_tokens - 1), min_size=length, max_size=length),
            label="context")
        widths = data.draw(st.lists(
            st.integers(1, 3 * max(structure.level_sizes) ** 2),
            min_size=structure.num_levels, max_size=structure.num_levels), label="widths")
        schedule = BeamSchedule(widths)
        k = data.draw(st.integers(1, widths[-1]), label="k")
        m = structure.num_levels
        if not all(structure.offsets[j % m] <= t < structure.offsets[j % m]
                   + structure.level_sizes[j % m] for j, t in enumerate(context)):
            with pytest.raises(DataError, match="outside level"):
                dynamic_beam_search(scorer, context, schedule, k)
            return
        got = dynamic_beam_search(scorer, context, schedule, k)
        want = tuple_beam_search(scorer, context, schedule, k)
        assert got == want
        assert all(type(logp) is float for _, logp in got)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cuts_through_tie_blocks_like_the_tuple_beam(self, data):
        """Scores from at most three values, -inf among them, or a corpus of
        at most one stream, so ties fill most of every level, and widths
        anywhere up to the level's candidates, so the cut falls inside a tie
        block.  SIDs and log-probs equal the tuple-list reference exactly."""
        sizes = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=3), label="sizes")
        structure = SidStructure(tuple(sizes), code_dim=2)
        if data.draw(st.booleans(), label="tie scorer"):
            values = data.draw(st.lists(st.sampled_from([0.0, -1.0, -2.5, -math.inf]),
                                        min_size=1, max_size=3, unique=True), label="values")
            scorer = TieScorer(structure, values, data.draw(st.integers(0, 2**16), label="seed"))
        else:
            corpus = random_corpus(structure, data.draw(st.integers(0, 1), label="streams"),
                                   1, np.random.default_rng(data.draw(st.integers(0, 99))))
            scorer = train_markov_scorer(corpus, structure, order=data.draw(st.integers(1, 3)))
        widths = [data.draw(st.integers(1, math.prod(sizes[: j + 1])), label=f"width {j}")
                  for j in range(len(sizes))]
        context = list(structure.offsets) * data.draw(st.integers(0, 1), label="context")
        k = data.draw(st.integers(1, widths[-1]), label="k")
        got = dynamic_beam_search(scorer, context, BeamSchedule(widths), k)
        assert got == tuple_beam_search(scorer, context, BeamSchedule(widths), k)

    def test_production_shape_equals_the_tuple_beam(self):
        """64x64x64 with the default widths and an order-3 scorer: tens of
        thousands of candidates per level, nearly all tied at the add-alpha
        floor, where the tests above draw a few dozen.  The empty context and
        contexts of 1 and 3 SIDs from the corpus decode as the tuple beam does."""
        structure = SidStructure((64, 64, 64), code_dim=2)
        corpus = random_corpus(structure, 300, 4, np.random.default_rng(3))
        scorer = train_markov_scorer(corpus, structure, order=3)
        schedule = default_schedule(structure)
        assert schedule.widths == (300, 600, 1200)
        for context in ([], corpus[0][:3], corpus[1][:9]):
            got = dynamic_beam_search(scorer, context, schedule, k=1200)
            assert got == tuple_beam_search(scorer, context, schedule, k=1200)

    def test_tie_across_parents_goes_to_the_smaller_token_tuple(self):
        """(1, 0) and (0, 0) tie at the cut, and the beam ranks parent (1,)
        before (0,) by score; the smaller token tuple still wins."""
        rows = {(): [-2.0, -1.0], (0,): [-1.0, -5.0], (1,): [-2.0, -5.0]}
        scorer = ContextStepScorer(two_by_two(), rows)
        got = dynamic_beam_search(scorer, [], BeamSchedule((2, 1)), k=1)
        assert [(sid.codes, logp) for sid, logp in got] == [((0, 0), -3.0)]
        assert got == tuple_beam_search(scorer, [], BeamSchedule((2, 1)), k=1)

    def test_ties_at_the_cut_keep_the_smallest_tokens(self):
        """Untrained: every candidate ties, so each level keeps the
        lexicographically first widths[j] partial SIDs."""
        scorer = MarkovScorer(self.structure, order=2)
        got = dynamic_beam_search(scorer, [], BeamSchedule((3, 5, 7)), k=7)
        assert [sid.codes for sid, _ in got] == [
            (0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0), (0, 1, 1), (0, 1, 2)
        ]

    def test_partial_sid_context_rejected(self):
        with pytest.raises(DataError, match="whole number of SIDs"):
            dynamic_beam_search(self.scorer, [0, 4], BeamSchedule((4, 8, 8)), k=1)

    def test_nan_step_names_the_level(self):
        steps = [np.log([0.5, 0.5]), [np.nan, 0.0], np.log([0.5, 0.5])]
        scorer = StepScorer(SidStructure((2, 2, 2), code_dim=2), steps)
        with pytest.raises(DataError, match="level 1"):
            dynamic_beam_search(scorer, [], BeamSchedule((2, 2, 2)), k=2)

    def test_minus_inf_is_a_legal_score(self):
        """A -inf threshold keeps every candidate in the pool; -inf results
        sort after every finite one, ties by tokens."""
        steps = [[0.0, -np.inf, -np.inf], [-np.inf, -np.inf, np.log(0.5)]]
        scorer = StepScorer(SidStructure((3, 3), code_dim=2), steps)
        got = dynamic_beam_search(scorer, [], BeamSchedule((2, 4)), k=4)
        assert [sid.codes for sid, _ in got] == [(0, 2), (0, 0), (0, 1), (1, 0)]
        assert [logp for _, logp in got] == [math.log(0.5), -math.inf, -math.inf, -math.inf]


class TestContextForms:
    """A context reads as integers whatever holds it: a list, a tuple or an
    integer array of any width decodes the same bytes and is refused with
    the same text, and a float, integral or not, is refused at its position
    by every entry point that takes tokens."""

    def setup_method(self):
        self.structure = SidStructure((4, 4, 4), code_dim=2)
        corpus = random_corpus(self.structure, 60, 2, np.random.default_rng(1))
        self.scorer = train_markov_scorer(corpus, self.structure, order=3, alpha=0.1)
        self.schedule = BeamSchedule((4, 8, 8))
        self.context = [0, 5, 9, 1, 6, 8]

    def test_every_form_decodes_the_same_bytes(self):
        want = dynamic_beam_search(self.scorer, self.context, self.schedule, k=8)
        assert len(want) == 8
        for form in (tuple(self.context), np.array(self.context, dtype=np.int64),
                     np.array(self.context, dtype=np.int32)):
            assert_same_decode(dynamic_beam_search(self.scorer, form, self.schedule, k=8), want)

    @pytest.mark.parametrize("bad, dtypes", [
        (3, (np.int64, np.int32, np.uint64)),  # a level-0 token at level 1
        (2**64 - 1, (np.uint64, object)),
        (2**70, (object,)),
    ], ids=["out of band", "beyond int64", "beyond uint64"])
    def test_every_form_refuses_a_token_with_one_text(self, bad, dtypes):
        context = self.context[:4] + [bad] + self.context[5:]
        with pytest.raises(DataError) as from_list:
            dynamic_beam_search(self.scorer, context, self.schedule, k=1)
        assert str(from_list.value) == f"token {bad} at position 4 is outside level 1's band"
        for dtype in dtypes:
            with pytest.raises(DataError) as info:
                dynamic_beam_search(self.scorer, np.array(context, dtype=dtype), self.schedule, k=1)
            assert str(info.value) == str(from_list.value)

    @pytest.mark.parametrize("value", [25.5, 9.0, np.float64(9.0)], ids=["25.5", "9.0", "f64"])
    def test_beam_refuses_a_float_token(self, value):
        context = self.context[:2] + [value] + self.context[3:]
        with pytest.raises(DataError, match=rf"^token {value} at position 2 is not an integer$"):
            dynamic_beam_search(self.scorer, context, self.schedule, k=1)
        with pytest.raises(DataError, match=r"^token 0.0 at position 0 is not an integer$"):
            dynamic_beam_search(self.scorer, np.array(self.context, dtype=float), self.schedule, k=1)

    @pytest.mark.parametrize("value", [1.5, 1.0], ids=["1.5", "1.0"])
    def test_scorer_steps_refuse_a_float_token(self, value):
        with pytest.raises(DataError, match=rf"^token {value} at position 0 is not an integer$"):
            self.scorer.next_token_log_probs([value, 5, 9])
        with pytest.raises(DataError,
                           match=rf"^token {value} at position \(1, 0\) is not an integer$"):
            self.scorer.next_token_log_probs_sparse([[0, 5, 9], [value, 5, 9]])

    def test_scorer_steps_read_every_form_alike(self):
        want = self.scorer.next_token_log_probs(self.context)
        for form in (np.array(self.context, dtype=np.int32), np.array(self.context, np.uint16)):
            assert self.scorer.next_token_log_probs(form).tobytes() == want.tobytes()
        with pytest.raises(DataError, match=f"^token {2**70} outside the structure's token space$"):
            self.scorer.next_token_log_probs_sparse([self.context, [0, 5, 2**70, 1, 6, 8]])


class FloorScorer(SequenceScorer):
    """Stub scorer in the sparse form: each context draws its floor, which
    codes it lists and their log-probs from a few values, seeded by the
    context.  So floors tie across parents, listed values tie with floors,
    and -inf may be either."""

    def __init__(self, structure, values, seed):
        self.structure, self.values, self.seed = structure, np.asarray(values), seed

    def next_token_log_probs_sparse(self, contexts):
        contexts = np.asarray(contexts, dtype=np.int64)
        band = self.structure.level_sizes[contexts.shape[1] % self.structure.num_levels]
        floor, row, code, log_prob = [], [], [], []
        for i, context in enumerate(contexts.tolist()):
            rng = np.random.default_rng([self.seed, *context])
            floor.append(self.values[rng.integers(len(self.values))])
            listed = np.flatnonzero(rng.random(band) < rng.random())
            row += [i] * len(listed)
            code += listed.tolist()
            log_prob += self.values[rng.integers(len(self.values), size=len(listed))].tolist()
        return (np.array(floor, dtype=np.float64), np.array(row, dtype=np.int64),
                np.array(code, dtype=np.int64), np.array(log_prob, dtype=np.float64))


def assert_same_decode(got, want):
    assert got.codes.tobytes() == want.codes.tobytes()
    assert got.log_probs.tobytes() == want.log_probs.tobytes()


class TestSparseBeam:
    """dynamic_beam_search scores only the listed pairs and the floor
    candidates that can be kept; tests/reference_beam.py scores every
    candidate.  Codes and log-probs must be byte-equal."""

    @pytest.mark.parametrize("widths, k", [((300, 600, 1200), 1200), ((30, 60, 120), 50)])
    def test_production_world_equals_the_dense_beam(self, widths, k):
        """64x64x64, an order-3 scorer: most candidates of a level sit at
        their parent's floor.  100 contexts of 1 to 4 SIDs from the corpus,
        and the empty context for the trained and an untrained scorer."""
        structure = SidStructure((64, 64, 64), code_dim=2)
        corpus = random_corpus(structure, 400, 5, np.random.default_rng(11))
        scorer = train_markov_scorer(corpus, structure, order=3)
        schedule = BeamSchedule(widths)
        if widths == (300, 600, 1200):
            assert schedule == default_schedule(structure)
        contexts = [corpus[i][: 3 * (1 + i % 4)] for i in range(100)]
        for context in contexts + [[]]:
            assert_same_decode(dynamic_beam_search(scorer, context, schedule, k),
                               dense_beam_search(scorer, context, schedule, k))
        untrained = MarkovScorer(structure, order=3)
        assert_same_decode(dynamic_beam_search(untrained, [], schedule, k),
                           dense_beam_search(untrained, [], schedule, k))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_dense_beam(self, data):
        """Count scorers (untrained ones among them, whose candidates all sit
        at their floors), sparse-form stubs whose floors tie across parents,
        with -inf among floors and values, and a dense stub that lists every
        code over a -inf floor.  Widths at or above B x band, k
        below the final width."""
        structure = data.draw(small_structures(), label="structure")
        kind = data.draw(st.sampled_from(["count", "floor", "tie"]), label="scorer")
        if kind == "count":
            scorer = data.draw(count_scorers(structure))
        else:
            values = data.draw(st.lists(st.sampled_from([0.0, -1.0, -2.5, -math.inf]),
                                        min_size=1, max_size=3, unique=True), label="values")
            stub = FloorScorer if kind == "floor" else TieScorer
            scorer = stub(structure, values, data.draw(st.integers(0, 2**16), label="seed"))
        widths = data.draw(st.lists(
            st.integers(1, 3 * max(structure.level_sizes) ** 2),
            min_size=structure.num_levels, max_size=structure.num_levels), label="widths")
        k = data.draw(st.integers(1, widths[-1]), label="k")
        context = list(structure.offsets) * data.draw(st.integers(0, 2), label="context SIDs")
        got = dynamic_beam_search(scorer, context, BeamSchedule(widths), k)
        assert_same_decode(got, dense_beam_search(scorer, context, BeamSchedule(widths), k))

    def test_nan_floor_of_a_parent_with_unlisted_codes_names_the_level(self):
        """A NaN floor counts where the parent has unlisted codes, which the
        full candidate set holds, even if the parent would not be kept."""

        class NanFloor(SequenceScorer):
            structure = SidStructure((2, 3), code_dim=2)

            def next_token_log_probs_sparse(self, contexts):
                if np.shape(contexts)[1] == 0:
                    return np.array([-1.0]), np.array([0, 0]), np.array([0, 1]), np.array([-1.0, -9.0])
                # parent (1,) lists codes 0 and 1 only, its floor is NaN
                return (np.array([-1.0, np.nan]), np.array([0, 0, 0, 1, 1]),
                        np.array([0, 1, 2, 0, 1]), np.array([-1.0, -1.0, -1.0, -2.0, -2.0]))

        with pytest.raises(DataError, match="level 1"):
            dynamic_beam_search(NanFloor(), [], BeamSchedule((2, 1)), k=1)

    def test_nan_floor_of_a_fully_listed_parent_is_no_candidate(self):
        """A parent that lists every code holds no floor candidate, so its
        floor is never read, as the dense matrix would never hold it."""

        class FullyListed(SequenceScorer):
            structure = SidStructure((2, 2), code_dim=2)

            def next_token_log_probs_sparse(self, contexts):
                b = len(contexts)
                row, code = np.divmod(np.arange(2 * b), 2)
                return np.full(b, np.nan), row, code, np.full(2 * b, -0.5)

        got = dynamic_beam_search(FullyListed(), [], BeamSchedule((2, 4)), k=4)
        assert [sid.codes for sid, _ in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert got.log_probs.tolist() == [-1.0] * 4


class TestBeamResult:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_view_reads_as_the_reference_list(self, data):
        """len, positive and negative indexing, slices, iteration and == in
        both directions match the reference list; every log-prob is a float
        and an index past either end raises IndexError."""
        structure = data.draw(small_structures(), label="structure")
        scorer = data.draw(count_scorers(structure))
        widths = data.draw(st.lists(st.integers(1, 12), min_size=structure.num_levels,
                                    max_size=structure.num_levels), label="widths")
        k = data.draw(st.integers(1, widths[-1]), label="k")
        got = dynamic_beam_search(scorer, [], BeamSchedule(widths), k)
        want = tuple_beam_search(scorer, [], BeamSchedule(widths), k)
        n = len(want)
        assert len(got) == n
        for i in range(-n, n):
            assert got[i] == want[i]
            assert type(got[i][1]) is float
        window = data.draw(st.slices(n + 2), label="slice")
        assert got[window] == want[window]
        assert list(got) == want and got == want and want == got
        assert all(type(logp) is float for _, logp in got)
        assert got != want[:-1] and got != [] and got != tuple(want)
        assert got != want[:-1] + [(want[-1][0], want[-1][1] - 1.0)]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                got[index]

    def test_codes_and_log_probs_are_read_only_arrays(self):
        scorer = MarkovScorer(two_by_two(), order=2)
        got = dynamic_beam_search(scorer, [], BeamSchedule((2, 4)), k=3)
        np.testing.assert_array_equal(got.codes, [[0, 0], [0, 1], [1, 0]])
        assert got.log_probs.tolist() == pytest.approx([math.log(0.25)] * 3, rel=1e-12)
        with pytest.raises(ValueError):
            got.codes[0, 0] = 1
        with pytest.raises(TypeError):
            got[0.0]


def toy_assignment():
    """Four items on three SIDs over a (2, 2) structure."""
    structure = two_by_two()
    table = AssignmentTable(structure)
    table.assign("a", SemanticId((0, 0)))
    table.assign("b", SemanticId((0, 1)))
    table.assign("c", SemanticId((1, 0)))
    table.assign("d", SemanticId((0, 0)))  # shares a SID with "a"
    return structure, table


class TestSequenceContext:
    def test_concatenates_history_tokens(self):
        structure, table = toy_assignment()
        context = sequence_context(table, ["a", "b", "c"])
        assert context == [0, 2, 0, 3, 1, 2]

    def test_unassigned_history_item_rejected(self):
        _, table = toy_assignment()
        with pytest.raises(DataError):
            sequence_context(table, ["ghost"])


def reference_hr(scorer, table, sequences, schedule, k_list):
    """HR@K the per-SID way: the tuple-beam reference decodes a list of
    SemanticIds, each expands through items_for_sid, checked against a scan
    of table.items(), until max K items are found."""
    totals = {k: 0.0 for k in k_list}
    for seq in sequences:
        context = [t for i in seq.history for t in sid_to_flat_tokens(table[i], table.structure)]
        decoded = tuple_beam_search(scorer, context, schedule, schedule.widths[-1])
        retrieved = []
        for sid, _ in decoded:
            members = table.items_for_sid(sid)
            assert members == sorted(i for i, s in table.items() if s == sid)
            retrieved.extend(members)
            if len(retrieved) >= max(k_list):
                break
        clicked = set(seq.targets)
        for k in k_list:
            totals[k] += len(set(retrieved[:k]) & clicked) / len(clicked)
    return {k: totals[k] / len(sequences) for k in k_list}


@st.composite
def hr_worlds(draw):
    """A table in which most SIDs hold nobody, a count scorer that ties many
    candidates, histories and targets drawn from the table's items, and
    narrow widths."""
    structure = draw(small_structures(), label="structure")
    n_items = draw(st.integers(1, 8), label="items")
    codes = [[draw(st.integers(0, size - 1)) for size in structure.level_sizes]
             for _ in range(n_items)]
    ids = draw(st.permutations([f"i{n}" for n in range(n_items)]), label="id order")
    table = AssignmentTable(structure, ids, codes)
    item = st.sampled_from(ids)
    sequences = [
        InteractionSequence(pv_id=f"p{n}", history=tuple(draw(st.lists(item, max_size=2))),
                            targets=tuple(draw(st.lists(item, min_size=1, max_size=3))),
                            query="")
        for n in range(draw(st.integers(1, 3), label="sequences"))
    ]
    widths = draw(st.lists(st.integers(1, 6), min_size=structure.num_levels,
                           max_size=structure.num_levels), label="widths")
    return draw(count_scorers(structure)), table, sequences, BeamSchedule(widths)


class TestEvaluateHr:
    @settings(max_examples=200, deadline=None)
    @given(world=hr_worlds(), k_list=st.sets(st.integers(1, 12), min_size=1, max_size=3))
    def test_equals_per_sid_reference(self, world, k_list):
        """Ties at the cut, empty SIDs and K above what is retrieved: the
        code-matrix expansion gives the per-SID reference's HR exactly."""
        scorer, table, sequences, schedule = world
        k_list = sorted(k_list)
        want = reference_hr(scorer, table, sequences, schedule, k_list)
        assert evaluate_hr(scorer, table, sequences, schedule, k_list) == want

    def test_query_builds_no_semantic_id(self, monkeypatch):
        """After a first query has grouped the table, a query constructs no
        SemanticId, though most of its decoded SIDs are empty."""
        structure = SidStructure((4, 4, 4), code_dim=2)
        rng = np.random.default_rng(5)
        ids = [f"i{n:02d}" for n in range(40)]
        table = AssignmentTable(structure, ids, rng.integers(0, 4, size=(40, 3)))
        scorer = train_markov_scorer(random_corpus(structure, 30, 3, rng), structure)
        seq = InteractionSequence(pv_id="p", history=("i03", "i17"), targets=("i05",),
                                  query="")
        schedule = BeamSchedule((4, 16, 64))
        evaluate_hr(scorer, table, [seq], schedule, k_list=(5, 20))
        built = []
        original = SemanticId.__post_init__

        def counting(sid):
            built.append(sid)
            original(sid)

        monkeypatch.setattr(SemanticId, "__post_init__", counting)
        evaluate_hr(scorer, table, [seq], schedule, k_list=(5, 20))
        assert built == []
        dynamic_beam_search(scorer, [], schedule, k=2)[0]  # the counter does count
        assert len(built) == 1

    def make_scorer(self, table, structure, boost_sid):
        """Scorer trained so boost_sid is by far the likeliest decode."""
        stream = sid_to_flat_tokens(SemanticId(boost_sid), structure)
        return train_markov_scorer([stream] * 50, structure, order=2, alpha=0.1)

    def test_hand_checked_hit_fractions(self):
        structure, table = toy_assignment()
        scorer = self.make_scorer(table, structure, (0, 0))
        sequences = [
            InteractionSequence(pv_id="p1", history=("b",), targets=("a",), query=""),
            InteractionSequence(pv_id="p2", history=("b",), targets=("c",), query=""),
        ]
        schedule = BeamSchedule((2, 4))
        hr = evaluate_hr(scorer, table, sequences, schedule, k_list=(1, 4))
        # top SID (0,0) expands to [a, d]; p1 hits at K=1, p2 needs the
        # full decode before "c" appears
        assert hr[1] == pytest.approx(0.5)
        assert hr[4] == pytest.approx(1.0)

    def test_a_k_that_is_no_integer_is_refused(self):
        """K = 1.7 once reported HR@1."""
        structure, table = toy_assignment()
        scorer = self.make_scorer(table, structure, (0, 0))
        sequences = [InteractionSequence(pv_id="p1", history=("b",), targets=("a",), query="")]
        schedule = BeamSchedule((2, 4))
        with pytest.raises(DataError, match=r"^K 1.7 at position 1 is not an integer$"):
            evaluate_hr(scorer, table, sequences, schedule, k_list=(4, 1.7))
        assert evaluate_hr(scorer, table, sequences, schedule, k_list=np.array([4, 1])) == {
            1: 1.0, 4: 1.0}

    def test_expansion_is_ascending_item_id_and_truncated(self):
        structure, table = toy_assignment()
        scorer = self.make_scorer(table, structure, (0, 0))
        sequences = [
            InteractionSequence(pv_id="p1", history=("b",), targets=("d",), query="")
        ]
        schedule = BeamSchedule((2, 4))
        # SID (0,0) holds {a, d}; at K=1 only "a" survives the truncation
        assert evaluate_hr(scorer, table, sequences, schedule, k_list=(1,))[1] == 0.0
        assert evaluate_hr(scorer, table, sequences, schedule, k_list=(2,))[2] == 1.0

    def test_multi_target_partial_credit(self):
        structure, table = toy_assignment()
        scorer = self.make_scorer(table, structure, (0, 0))
        sequences = [
            InteractionSequence(
                pv_id="p1", history=("b",), targets=("a", "c"), query=""
            )
        ]
        schedule = BeamSchedule((2, 4))
        assert evaluate_hr(scorer, table, sequences, schedule, k_list=(2,))[2] == 0.5

    def test_unmapped_target_rejected(self):
        structure, table = toy_assignment()
        scorer = self.make_scorer(table, structure, (0, 0))
        sequences = [
            InteractionSequence(pv_id="p1", history=("b",), targets=("zz",), query="")
        ]
        with pytest.raises(DataError):
            evaluate_hr(scorer, table, sequences, BeamSchedule((2, 4)), k_list=(1,))

    def test_first_unmapped_target_is_named_before_decoding(self, monkeypatch):
        """Several unmapped targets: the error names the first in the
        sequence's order, not one that set hash order picks, and no decode
        runs first."""
        structure, table = toy_assignment()
        scorer = self.make_scorer(table, structure, (0, 0))
        targets = ("a", "ghost7", *(f"ghost{n}" for n in range(7)))
        sequences = [InteractionSequence(pv_id="p1", history=("b",), targets=targets, query="")]
        monkeypatch.setattr(retrieval, "dynamic_beam_search",
                            mock.Mock(side_effect=AssertionError("decoded")))
        with pytest.raises(DataError, match="^item 'ghost7' has no assigned SID$"):
            evaluate_hr(scorer, table, sequences, BeamSchedule((2, 4)), k_list=(1,))

    def test_no_sequences_rejected(self):
        structure, table = toy_assignment()
        scorer = self.make_scorer(table, structure, (0, 0))
        with pytest.raises(DataError, match="^no sequences to evaluate$"):
            evaluate_hr(scorer, table, [], BeamSchedule((2, 4)), k_list=(1,))

    def test_hitrate_monotone_in_k_on_toy_world(self):
        from sidkit.quantizer import RqkmeansConfig, train_rqkmeans
        from sidkit.collision import apply_knn_policy
        from sidkit.toydata import ToyConfig, make_toy_world

        world = make_toy_world(
            ToyConfig(
                n_items=200, n_clusters=5, d_in=8, n_train_sequences=150,
                n_eval_sequences=40, seed=3,
            )
        )
        structure = SidStructure((5, 4), code_dim=8)
        model = train_rqkmeans(
            world.catalog.embedding_matrix(), structure, RqkmeansConfig(seed=0)
        )
        table = apply_knn_policy(world.catalog, model, sigma=15)
        corpus = build_useraction_corpus(world.train_sequences, table)
        scorer = train_markov_scorer(corpus, structure, order=2, alpha=0.1)
        schedule = BeamSchedule((10, 20))
        hr = evaluate_hr(scorer, table, world.eval_sequences, schedule, k_list=(1, 5, 20))
        assert hr[1] <= hr[5] <= hr[20]
        assert hr[20] > 0.0


class TestCorpus:
    def test_streams_follow_history_then_targets(self):
        structure, table = toy_assignment()
        sequences = [
            InteractionSequence(pv_id="p1", history=("c", "a"), targets=("b",), query="")
        ]
        corpus = build_useraction_corpus(sequences, table)
        assert corpus == [[1, 2, 0, 2, 0, 3]]

    def test_stream_length_is_items_times_levels(self):
        structure, table = toy_assignment()
        sequences = [
            InteractionSequence(
                pv_id="p1", history=("a", "b", "c"), targets=("d", "a"), query=""
            )
        ]
        corpus = build_useraction_corpus(sequences, table)
        assert len(corpus[0]) == 5 * structure.num_levels

    def test_round_trip(self, tmp_path):
        corpus = [[0, 2, 1, 3], [1, 2], []]
        path = tmp_path / "corpus.txt"
        save_corpus([c for c in corpus if c], path)
        assert load_corpus(path) == [[0, 2, 1, 3], [1, 2]]

    def test_a_token_that_is_no_integer_is_not_saved(self, tmp_path):
        """[0.5, 2.9] was once written as 0,2."""
        path = tmp_path / "corpus.txt"
        with pytest.raises(DataError, match=r"^token 2.9 at position 1 is not an integer$"):
            save_corpus([[0, 2], [1, 2.9]], path)
        assert not path.exists()
        save_corpus([np.array([0, 2], dtype=np.int32), [2**70]], path)
        assert path.read_text() == f"0,2\n{2**70}\n"

    @pytest.mark.parametrize("stream", [" +0, 4", "0,\uff14", "1_0,4"])
    def test_tokens_only_in_ascii_digits_and_commas(self, tmp_path, stream):
        """Each line is a non-empty comma list of ASCII-digit tokens, the
        grammar of --context; whitespace around it stays legal."""
        path = tmp_path / "corpus.txt"
        path.write_text(f" 0,2 \n{stream}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:2: "):
            load_corpus(path)
        path.write_text(" 0,2 \n")
        assert load_corpus(path) == [[0, 2]]

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("0,2\n0,x\n")
        with pytest.raises(DataError, match="2"):
            load_corpus(path)


class TestTokenStreams:
    @settings(max_examples=200, deadline=None)
    @given(streams=st.lists(st.lists(st.integers(0, 300), max_size=6), max_size=6),
           window=st.slices(8))
    def test_reads_as_the_list_it_replaces(self, tmp_path_factory, streams, window):
        """len, positive and negative indexing, slices, iteration, == in both
        directions and the bytes save_corpus writes; an index past either
        end raises IndexError, and the arrays are read-only."""
        view = token_streams(streams)
        n = len(streams)
        assert len(view) == n
        for i in range(-n, n):
            assert view[i] == streams[i]
            assert type(view[i]) is list
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                view[index]
        assert view[window] == streams[window]
        assert list(view) == streams and view == streams and streams == view
        assert view == token_streams(streams)
        assert view != streams + [[1]] and view != tuple(streams)
        if streams:
            assert view != streams[:-1] + [streams[-1] + [301]]
        with pytest.raises(ValueError):
            view.tokens[:1] = 1
        folder = tmp_path_factory.mktemp("corpus")
        save_corpus(view, folder / "view.txt")
        save_corpus(streams, folder / "lists.txt")
        assert (folder / "view.txt").read_bytes() == (folder / "lists.txt").read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_counts_as_the_lists_do(self, data):
        """Chunks of a few tokens, so that chunks end inside runs of
        streams, give the same table from the view as from the lists."""
        structure = data.draw(small_structures(), label="structure")
        order = data.draw(st.integers(1, 2 * structure.num_levels + 2), label="order")
        streams = data.draw(corpora(structure))
        with mock.patch.object(retrieval, "_CHUNK_TOKENS", data.draw(st.integers(1, 12))):
            from_view = train_markov_scorer(token_streams(streams), structure, order=order)
            from_lists = train_markov_scorer(streams, structure, order=order)
        assert from_view._rows.tobytes() == from_lists._rows.tobytes()
        assert from_view._counts.tobytes() == from_lists._counts.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(streams=st.lists(st.lists(st.integers(0, 300), max_size=6), max_size=6))
    def test_of_reads_as_the_lists_do(self, streams):
        """Any streams, none among them, read as the lists: the same arrays
        as the view built by hand, and streams given as numpy arrays of any
        integer width read the same."""
        want = token_streams(streams)
        arrays = [np.array(stream, dtype=np.int16) for stream in streams]
        for given_streams in (streams, iter(streams), arrays):
            view = TokenStreams.of(given_streams)
            assert view == streams
            assert view.tokens.tolist() == want.tokens.tolist()
            assert view.lengths.tolist() == want.lengths.tolist()

    @pytest.mark.parametrize("streams, value, at", [
        ([[0, 2], [1, 3], [1, 2, 0.5]], "0.5", 2),
        ([[0, 2], [np.float64(1), 3]], "1.0", 0),
        ([[0, 2], ["1", 3]], "1", 0),
    ])
    def test_of_names_a_token_that_is_no_integer_in_its_stream(self, streams, value, at):
        message = rf"^token {value} at position {at} is not an integer$"
        with pytest.raises(DataError, match=message):
            TokenStreams.of(streams)

    def test_of_keeps_a_token_beyond_int64_exact(self):
        view = TokenStreams.of([[0, 2], [2**70, -(2**70)]])
        assert view == [[0, 2], [2**70, -(2**70)]]
        assert view.tokens.tolist() == [0, 2, 2**70, -(2**70)]

    def test_corpus_is_a_view(self):
        structure, table = toy_assignment()
        sequences = [
            InteractionSequence(pv_id="p1", history=("c",), targets=("b", "a"), query=""),
            InteractionSequence(pv_id="p2", history=(), targets=("d",), query=""),
        ]
        corpus = build_useraction_corpus(sequences, table)
        assert isinstance(corpus, TokenStreams)
        assert corpus.tokens.tolist() == [1, 2, 0, 3, 0, 2, 0, 2]
        assert corpus.lengths.tolist() == [6, 2]


VIEW_SEQUENCES = [
    InteractionSequence(pv_id="p1", history=("c",), targets=("b", "a"), query="red"),
    InteractionSequence(pv_id="p2", history=(), targets=("d",)),
    InteractionSequence(pv_id="p3", history=("a", "d"), targets=("c",), query="blue"),
]


def loaded_sequences(tmp_path, sequences):
    path = tmp_path / f"sequences{len(sequences)}.tsv"
    save_sequences(sequences, path)
    return load_sequences(path)


@pytest.mark.parametrize("views", [
    lambda tmp_path: [SequenceColumns.of(s) for s in (VIEW_SEQUENCES, [])],
    lambda tmp_path: [loaded_sequences(tmp_path, s) for s in (VIEW_SEQUENCES, [])],
    lambda tmp_path: [TokenStreams.of(s) for s in ([[0, 2], [], [1, 3, 2]], [])],
    lambda tmp_path: [build_useraction_corpus(s, toy_assignment()[1])
                      for s in (VIEW_SEQUENCES, [])],
    lambda tmp_path: [dynamic_beam_search(MarkovScorer(two_by_two(), order=2), [],
                                          BeamSchedule((2, 4)), k=3),
                      BeamResult(np.zeros((0, 2), dtype=np.int64), np.zeros(0))],
], ids=["SequenceColumns.of", "load_sequences", "TokenStreams.of", "build_useraction_corpus",
        "BeamResult"])
def test_column_view_iterates_as_it_indexes(views, tmp_path):
    """Each column view, full and empty, iterates as it indexes, reads its
    last item at -1 and raises IndexError one past its end."""
    full, empty = views(tmp_path)
    assert len(full) == 3 and len(empty) == 0
    items = [full[i] for i in range(len(full))]
    assert list(full) == items and full[-1] == items[-1]
    assert list(empty) == []
    for view in (full, empty):
        with pytest.raises(IndexError):
            view[len(view)]


@st.composite
def sequence_lists(draw, item_ids):
    """Interaction sequences over the given ids: empty and repeating
    histories, one or more targets, and an optional query."""
    item = st.sampled_from(item_ids)
    return [InteractionSequence(f"pv{n}", tuple(draw(st.lists(item, max_size=4))),
                                tuple(draw(st.lists(item, min_size=1, max_size=3))),
                                draw(st.sampled_from([None, "tea"])))
            for n in range(draw(st.integers(0, 6)))]


class TestCorpusColumns:
    @settings(max_examples=100, deadline=None)
    @given(sequences=sequence_lists(["a", "b", "c", "d"]))
    def test_loaded_columns_and_lists_give_the_per_sequence_streams(self, tmp_path_factory,
                                                                    sequences):
        """The corpus read off loaded columns, and off a list, is each
        sequence's history and targets through sequence_context."""
        _, table = toy_assignment()
        path = tmp_path_factory.mktemp("corpus") / "sequences.tsv"
        save_sequences(sequences, path)
        want = [sequence_context(table, seq.history + seq.targets) for seq in sequences]
        for source in (sequences, load_sequences(path)):
            corpus = build_useraction_corpus(source, table)
            assert corpus == want
            assert corpus.tokens.dtype == corpus.lengths.dtype == np.int64

    def test_first_unmapped_item_in_order_is_named(self):
        _, table = toy_assignment()
        sequences = [InteractionSequence("p1", ("a",), ("b",)),
                     InteractionSequence("p2", ("c", "ghost2"), ("ghost1",)),
                     InteractionSequence("p3", ("ghost1",), ("a",))]
        with pytest.raises(DataError, match="^item 'ghost2' has no assigned SID$"):
            build_useraction_corpus(sequences, table)


class TestScorerSerialization:
    def test_round_trip_preserves_all_probabilities(self, tmp_path):
        structure = SidStructure((3, 4), code_dim=2)
        rng = np.random.default_rng(4)
        corpus = random_corpus(structure, 40, 2, rng)
        scorer = train_markov_scorer(corpus, structure, order=3, alpha=0.05)
        path = tmp_path / "scorer.tsv"
        save_markov_scorer(scorer, path)
        loaded = load_markov_scorer(path)
        assert loaded.order == 3
        assert loaded.alpha == 0.05
        assert loaded.structure == structure
        for context in ([], [0], [1, 4], [2, 6], [0, 3]):
            np.testing.assert_array_equal(
                loaded.next_token_log_probs(context),
                scorer.next_token_log_probs(context),
            )

    def test_saves_are_byte_identical(self, tmp_path):
        structure = SidStructure((3, 4), code_dim=2)
        rng = np.random.default_rng(5)
        corpus = random_corpus(structure, 20, 2, rng)
        scorer = train_markov_scorer(corpus, structure)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_markov_scorer(scorer, a)
        save_markov_scorer(scorer, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_saves_in_blocks_write_the_same_bytes(self, tmp_path, block):
        """Rows are formatted a block at a time; a block edge anywhere, even
        inside a context's rows, leaves the bytes as one block writes them."""
        structure = SidStructure((3, 4), code_dim=2)
        scorer = train_markov_scorer(random_corpus(structure, 20, 2, np.random.default_rng(8)),
                                     structure, order=3, alpha=0.05)
        save_markov_scorer(scorer, tmp_path / "one.tsv")
        with mock.patch.object(retrieval, "_SAVE_ROWS", block):
            save_markov_scorer(scorer, tmp_path / "blocks.tsv")
        assert (tmp_path / "blocks.tsv").read_bytes() == (tmp_path / "one.tsv").read_bytes()
        assert len(scorer._rows) > 10

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "scorer.tsv"
        path.write_text("#order\t2\n0\t1\t3\n")  # missing structure rows
        with pytest.raises(DataError):
            load_markov_scorer(path)

    def test_structure_beyond_a_packed_key_column_rejected(self, tmp_path):
        """Such a header used to load, its table out of order."""
        path = tmp_path / "scorer.tsv"
        path.write_text("#order\t2\n#alpha\t0.1\n#levels\t4611686018427387904\t3\n"
                        "#code_dim\t2\n\t0\t5\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:5: the levels hold"):
            load_markov_scorer(path)

    @pytest.mark.parametrize("header, line", [
        ("#order\t+2\n#alpha\t0.1\n#levels\t3\t4\n#code_dim\t2\n", 1),
        ("#order\t2\n#alpha\t0.1\n#levels\t３\t 4\n#code_dim\t2\n", 3),
        ("#order\t2\n#alpha\t0.1\n#levels\t3\t4\n#code_dim\t 2\n", 4),
    ])
    def test_header_integer_outside_ascii_digits_names_its_line(self, header, line, tmp_path):
        """int() reads '+2', '３' and ' 4'; the one integer grammar refuses
        them, at the header row, before any count row."""
        path = tmp_path / "scorer.tsv"
        path.write_text(header + "\t0\t5\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: .*ASCII digits"):
            load_markov_scorer(path)

    def test_malformed_count_row_rejected(self, tmp_path):
        path = tmp_path / "scorer.tsv"
        path.write_text(
            "#order\t2\n#alpha\t0.1\n#levels\t2\t2\n#code_dim\t2\n0\tnope\t3\n"
        )
        with pytest.raises(DataError, match="5"):
            load_markov_scorer(path)

    HEADER = "#order\t2\n#alpha\t0.1\n#levels\t4\t4\t4\n#code_dim\t2\n"

    @pytest.mark.parametrize(
        "row",
        [
            "0\t999\t3",  # token outside every band
            "0\t1\t3",  # token of level 0 where level 1 follows
            "\t4\t1",  # an empty context is followed by level 0
            "4\t8\t2",  # a context shorter than the order starts at level 0
            "0,8\t9\t1",  # context tokens on levels 0 and 2
            "0,4,8\t1\t1",  # context longer than the order
            "-1,4\t8\t1",  # context token outside every band
            "0\t4\t0",  # count below 1
            "4,8\t0\t1\n4,8\t0\t2",  # the same (context, token) twice
        ],
    )
    def test_row_that_no_stream_produces_is_rejected(self, tmp_path, row):
        path = tmp_path / "scorer.tsv"
        path.write_text(self.HEADER + "\t0\t5\n" + row + "\n")
        last = 6 + row.count("\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{last}: "):
            load_markov_scorer(path)

    def test_rows_that_streams_produce_load(self, tmp_path):
        path = tmp_path / "scorer.tsv"
        path.write_text(self.HEADER + "\t0\t5\n0\t4\t2\n0,4\t8\t1\n4,8\t2\t1\n8,3\t5\t1\n")
        scorer = load_markov_scorer(path)
        assert scorer.num_contexts == 5
        assert np.argmax(scorer.next_token_log_probs([0, 4, 8])) == 2

    def test_header_only_file_is_an_empty_scorer(self, tmp_path):
        path = tmp_path / "scorer.tsv"
        path.write_text(self.HEADER)
        scorer = load_markov_scorer(path)
        assert scorer.num_contexts == 0
        np.testing.assert_allclose(np.exp(scorer.next_token_log_probs([0, 4])), [0.25] * 4)
        save_markov_scorer(scorer, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_text() == self.HEADER

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_in_any_order_load_to_the_same_scorer(self, tmp_path, seed):
        """Shuffled count rows, so one context's rows lie apart: the load
        equals the original table and saves in sorted order again."""
        structure = SidStructure((3, 4), code_dim=2)
        corpus = random_corpus(structure, 40, 2, np.random.default_rng(seed))
        scorer = train_markov_scorer(corpus, structure, order=3, alpha=0.05)
        path = tmp_path / "scorer.tsv"
        save_markov_scorer(scorer, path)
        lines = path.read_text().splitlines(keepends=True)
        header, rows = lines[:4], lines[4:]
        np.random.default_rng(seed).shuffle(rows)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text("".join(header + rows))
        loaded = load_markov_scorer(shuffled)
        assert loaded._rows.tolist() == scorer._rows.tolist()
        assert loaded._counts.tolist() == scorer._counts.tolist()
        save_markov_scorer(loaded, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()

    def test_context_split_over_two_runs_loads_as_one(self, tmp_path):
        path = tmp_path / "scorer.tsv"
        path.write_text(self.HEADER + "0\t5\t1\n\t0\t5\n0\t4\t2\n")
        scorer = load_markov_scorer(path)
        assert scorer_count_dicts(scorer) == {(): {0: 5}, (0,): {4: 2, 5: 1}}
        save_markov_scorer(scorer, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_text() == (
            self.HEADER + "\t0\t5\n0\t4\t2\n0\t5\t1\n")

    @pytest.mark.parametrize("rows, line", [
        # the second copy of ((0,), 4) is written differently, two rows on
        ("\t0\t5\n0\t4\t2\n\t1\t1\n00\t4\t1\n", 8),
        # a context longer than the order, with good rows after it
        ("\t0\t5\n0,4,8\t1\t1\n0\t4\t2\n", 6),
        # of several bad rows, the first in the file is named
        ("\t0\t5\n0\t4\t2\n4,8\t0\t0\n0,4,8\t1\t1\n\t0\t1\n", 7),
        ("\t0\t5\n0\t4\t2\n0\t4\t1\n4,8\t7\t1\n", 7),
        # a row the table checks refuse, before a row that does not parse
        ("\t0\t5\n0\t4\t0\nx\t4\t1\n", 6),
        ("\t0\t5\n0\t4\t2\n0\t4\t1\n0\t+2\t1\n", 7),
        ("\t0\t5\n0\t1\t3\n0\t4\t" + "9" * 20 + "\n", 6),
        ("\t0\t5\n4\t8\t1\n0,4\t9\t+2\n", 6),
    ], ids=["duplicate-apart", "long-context", "first-of-three", "first-of-two",
            "count-0-before-x", "repeat-before-sign", "out-of-band-before-20-digits",
            "bad-context-before-sign"])
    def test_bad_row_among_good_ones_is_named(self, tmp_path, rows, line):
        path = tmp_path / "scorer.tsv"
        path.write_text(self.HEADER + rows)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: "):
            load_markov_scorer(path)

    def test_non_finite_alpha_rejected(self, tmp_path):
        path = tmp_path / "scorer.tsv"
        path.write_text(self.HEADER.replace("0.1", "nan"))
        with pytest.raises(DataError, match="alpha"):
            load_markov_scorer(path)

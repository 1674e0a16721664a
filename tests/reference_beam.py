"""The dense beam search, kept as a reference.

Every level fills all B * band candidates in from one
next_token_log_probs_sparse call and selects from them with rows.top_k, as
dynamic_beam_search did before it scored only the listed pairs and the
floor candidates that can be kept.  The differential tests hold
dynamic_beam_search to the same codes and log-probs, byte for byte.
"""

from __future__ import annotations

import numpy as np

from sidkit import rows
from sidkit.errors import DataError
from sidkit.retrieval import BeamResult, TokenStreams, _checked


def densified(sparse, band):
    """A (floor, row, code, log_prob) form as its (B, band) matrix."""
    floor, row, code, log_prob = sparse
    step = np.repeat(np.asarray(floor, dtype=np.float64)[:, None], band, axis=1)
    step[row, code] = log_prob
    return step


def dense_beam_search(scorer, context, schedule, k: int) -> BeamResult:
    """dynamic_beam_search over every candidate of every level."""
    structure = scorer.structure
    schedule.validate(structure)
    if not 1 <= k <= schedule.widths[-1]:
        raise ValueError(f"k={k} outside [1, {schedule.widths[-1]}]")
    context = TokenStreams.of([context])
    context, _ = _checked(context.tokens, context.lengths, structure)
    beams = np.empty((1, 0), dtype=np.int64)
    scores = np.zeros(1)
    for level, width in enumerate(schedule.widths):
        band = structure.level_sizes[level]
        contexts = np.concatenate(
            (np.broadcast_to(context, (len(beams), len(context))), beams), axis=1)
        step = densified(scorer.next_token_log_probs_sparse(contexts), band)
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

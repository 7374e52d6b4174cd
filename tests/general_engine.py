"""The general engine's per-batch counts: the reference the kernels are held to.

``simulate`` picks the engine by strategy type alone, so a strategy that
has a kernel never reaches the round-by-round engine through it; this
helper runs that engine on a plan directly.  The kernels' side has
helpers too: a matrix of pairs laid out as the stream's words, and a
kernel counting the scores of a tile, or of whole batches from their
first round on, whose pair counts are held to the tile's.
"""

import numpy as np

from chshsim import montecarlo


def general_batch_counts(plan):
    """Per-batch counts of ``plan`` in batch order, from the general engine."""
    tally = montecarlo._general_tally(plan.factory(), plan.n, plan.seed, 0, plan.batches)
    counts = zip(tally.score_counts.tolist(), tally.pair_counts.tolist())
    return [montecarlo.BatchCounts(b, tuple(scores), tuple(totals)) for b, (scores, totals) in enumerate(counts)]


def pair_words(pairs):
    """The uint64 words that hold a (batches, rounds) matrix of pair indices
    as the stream lays them out: round i of a word's eight in the top two
    bits of its byte i, little-endian, and the bytes past the last round zero."""
    batches, rounds = pairs.shape
    data = np.zeros((batches, 8 * -(-rounds // 8)), dtype=np.uint8)
    data[:, :rounds] = pairs << 6
    return data.view("<u8").astype(np.uint64)


def bincounts(pairs):
    """Each row's count of every pair, one (batches, 4) int64 row per batch."""
    return np.array([np.bincount(row, minlength=4) for row in pairs], dtype=np.int64).reshape(len(pairs), 4)


def kernel_counts(score, scorer, pairs, r0, before, uniforms=None):
    """A kernel's score counts of a tile of ``pairs`` from round ``r0``,
    handed the pair counts ``before`` of the rounds before it; the pair
    counts it returns must be the tile's."""
    scores, tile = score(scorer, pair_words(pairs), pairs.shape[1], uniforms, r0, before)
    for counts in (scores, tile):
        assert counts.shape == (len(pairs), 4) and counts.dtype == np.int64
    assert np.array_equal(tile, bincounts(pairs))
    return scores


def whole_run_counts(score, scorer, pairs, uniforms=None):
    """A kernel's score counts of whole batches, one row of ``pairs`` each:
    a tile from round 0, handed zero pair counts for the rounds before it."""
    return kernel_counts(score, scorer, pairs, 0, np.zeros((len(pairs), 4), dtype=np.int64), uniforms)

"""The general engine's per-batch counts: the reference the kernels are held to.

``simulate`` picks the engine by strategy type alone, so a strategy that
has a kernel never reaches the round-by-round engine through it; this
helper runs that engine on a plan directly.  The kernels' side has one
helper too: a kernel scoring whole batches, from their first round on.
"""

import numpy as np

from chshsim import montecarlo


def general_batch_counts(plan):
    """Per-batch counts of ``plan`` in batch order, from the general engine."""
    tally = montecarlo._general_tally(plan.factory(), plan.n, plan.seed, 0, plan.batches)
    counts = zip(tally.score_counts.tolist(), tally.pair_counts.tolist())
    return [montecarlo.BatchCounts(b, tuple(scores), tuple(totals)) for b, (scores, totals) in enumerate(counts)]


def whole_run_scores(score, scorer, pairs, uniforms=None):
    """A kernel's round scores of whole batches, one row of ``pairs`` each:
    a tile from round 0, handed zero pair counts for the rounds before it."""
    return score(scorer, pairs, uniforms, 0, np.zeros((len(pairs), 4), dtype=np.int64))

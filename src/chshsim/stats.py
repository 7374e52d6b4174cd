"""Experimental CHSH statistics computed from transcripts.

Everything here is exact rational arithmetic; callers convert to float
only when presenting results.  The ratio statistic ``x_statistic`` is
``None`` (undefined) whenever some setting pair never occurred; it is
never conflated with a numeric sentinel.  Every X_N in the package,
exact or float, per transcript, per batch or per enumeration state, is
formed from per-pair scores and totals by :func:`x_ratio`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .core import ALL_PAIRS, WINS_ON_EQUAL, PairCounts, Round, SettingPair, Transcript
from .strategies import StochasticLHV


def round_score(rnd: Round) -> int:
    """1 if the round meets its CHSH target (``WINS_ON_EQUAL``), else 0."""
    return int((rnd.a == rnd.b) == WINS_ON_EQUAL[rnd.pair.index])


def pair_tallies(transcript: Transcript) -> tuple[list[int], list[int]]:
    """Per-pair scoring rounds and total rounds, canonical order."""
    table = transcript.counts()
    counts = [table[p] for p in ALL_PAIRS]
    scores = [c.correlated if equal else c.anticorrelated for c, equal in zip(counts, WINS_ON_EQUAL)]
    return scores, [c.total for c in counts]


def x_ratio(scores, totals):
    """X_N as num / den, with den the product of the four pair totals.

    The one place X_N is formed.  Works alike on Python ints (one run,
    exact) and on int64 arrays (one run per column); num <= 4 den since
    each score is at most its total.
    """
    t01, t23 = totals[0] * totals[1], totals[2] * totals[3]
    num01 = scores[0] * totals[1] + totals[0] * scores[1]
    num23 = scores[2] * totals[3] + totals[2] * scores[3]
    return num01 * t23 + num23 * t01, t01 * t23


def x_from_counts(scores, totals) -> Fraction | None:
    """Exact X_N from per-pair scores and totals; ``None`` if a pair never occurred."""
    if not all(totals):
        return None
    return Fraction(*x_ratio(scores, totals))


def y_statistic(transcript: Transcript) -> Fraction:
    """The linear CHSH statistic, 4/N times the number of scoring rounds."""
    n = transcript.n_total
    if n == 0:
        raise ValueError("y statistic needs at least one round")
    return Fraction(4 * sum(pair_tallies(transcript)[0]), n)


def x_statistic(transcript: Transcript) -> Fraction | None:
    """The ratio-form CHSH statistic; ``None`` if any pair was never measured."""
    if transcript.n_total == 0:
        raise ValueError("x statistic needs at least one round")
    return x_from_counts(*pair_tallies(transcript))


def chsh_value(lhv: StochasticLHV) -> Fraction:
    """The exact per-round CHSH sum of a stochastic mixture.

    Three correlation probabilities plus the (A2,B2) anticorrelation
    probability; at most 3 for any mixture, since each assignment meets
    at most three of the four targets (``hits``).
    """
    return sum((weight * sum(assignment.hits) for weight, assignment in lhv.support), Fraction(0))


class _BatchStatisticsFields(NamedTuple):
    n: int
    y_value: Fraction
    x_value: Fraction | None
    counts: Mapping[SettingPair, PairCounts]


class BatchStatistics(_BatchStatisticsFields):
    """Summary of one transcript: both CHSH statistics and the tallies."""

    __slots__ = ()

    def __new__(cls, n, y_value, x_value, counts):
        if not 0 <= y_value <= 4:
            raise ValueError(f"y value {y_value} outside [0, 4]")
        if x_value is not None and not 0 <= x_value <= 4:
            raise ValueError(f"x value {x_value} outside [0, 4]")
        return super().__new__(cls, n, y_value, x_value, counts)


def batch_statistics(transcript: Transcript) -> BatchStatistics:
    """Compute :class:`BatchStatistics` for a non-empty transcript."""
    if transcript.n_total == 0:
        raise ValueError("batch statistics need at least one round")
    return BatchStatistics(
        n=transcript.n_total,
        y_value=y_statistic(transcript),
        x_value=x_statistic(transcript),
        counts=transcript.counts(),
    )

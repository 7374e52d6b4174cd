"""Seeded Monte Carlo simulation of strategies at scale.

Each batch is one n-round experiment with independently uniform setting
pairs.  Batch i draws everything from a dedicated stream derived as
``SeedSequence(master_seed, spawn_key=(i,))``, so results do not depend
on execution order or on how batches are partitioned, and any single
batch can be replayed in isolation.  Within a batch the draw order is
fixed: the n setting pairs first, then whatever tape the strategy needs.

For the built-in strategies a vectorized scoring kernel reproduces the
general round-by-round engine exactly (same streams, same draws); the
engine remains the fallback for everything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .core import ALL_PAIRS, Transcript
from .bounds import f_delta, x_tail_bound
from .enumerator import collective_playout, playout
from .stats import batch_statistics
from .strategies import (
    QUANTUM_SCORE_PROBABILITY,
    CollectiveStrategy,
    ConstantPlus,
    GuessingModel,
    Model101,
    QuantumSingletSampler,
    SequentialStrategy,
    StochasticSequential,
)

_CHUNK = 8192


@dataclass(frozen=True)
class SimulationPlan:
    """One simulation request: r batches of n rounds from one master seed."""

    factory: Callable[[], SequentialStrategy | CollectiveStrategy]
    n: int
    batches: int
    seed: int = 0
    delta: float = 0.1
    strategy_name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.batches < 1:
            raise ValueError(f"batches must be >= 1, got {self.batches}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def batch_seed_sequence(seed: int, batch_index: int) -> np.random.SeedSequence:
    """The stream root for one batch; depends only on (seed, batch_index)."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))


def _play(strategy, n: int, seed_seq) -> Transcript:
    rng = np.random.default_rng(seed_seq)
    idx = rng.integers(0, 4, size=n, dtype=np.uint8)
    pairs = [ALL_PAIRS[i] for i in idx]
    if isinstance(strategy, CollectiveStrategy):
        return collective_playout(strategy, pairs, rng)
    return playout(strategy, pairs, rng)


def run_batch(strategy, n: int, seed: int, batch_index: int = 0) -> Transcript:
    """Simulate one batch; identical arguments give identical transcripts."""
    return _play(strategy, n, batch_seed_sequence(seed, batch_index))


class BatchCounts(NamedTuple):
    """Per-batch tallies: scoring rounds and total rounds for each pair."""

    batch: int
    score_counts: tuple[int, int, int, int]
    pair_counts: tuple[int, int, int, int]


def batch_y(record: BatchCounts, n: int) -> Fraction:
    return Fraction(4 * sum(record.score_counts), n)


def batch_x(record: BatchCounts) -> Fraction | None:
    if 0 in record.pair_counts:
        return None
    return sum(
        (Fraction(s, t) for s, t in zip(record.score_counts, record.pair_counts)),
        Fraction(0),
    )


#: Per-batch CSV row layout (c11/c12/c21 are correlated counts for the
#: three correlation-target pairs, a22 the anticorrelated count for
#: (A2,B2); together they are the per-pair scoring counts).
BATCH_CSV_HEADER = (
    "batch", "seed", "n", "y_value", "x_defined", "x_value",
    "c11", "c12", "c21", "a22", "n11", "n12", "n21", "n22",
)


def batch_csv_row(record: BatchCounts, n: int, seed: int) -> tuple:
    y = batch_y(record, n)
    x = batch_x(record)
    return (
        record.batch,
        seed,
        n,
        repr(float(y)),
        int(x is not None),
        "" if x is None else repr(float(x)),
        *record.score_counts,
        *record.pair_counts,
    )


def _counts_from_transcript(batch: int, transcript: Transcript) -> BatchCounts:
    stats = batch_statistics(transcript)
    score_counts = []
    pair_counts = []
    for i, pair in enumerate(ALL_PAIRS):
        cell = stats.counts[pair]
        pair_counts.append(cell.total)
        score_counts.append(cell.correlated if i < 3 else cell.anticorrelated)
    return BatchCounts(batch, tuple(score_counts), tuple(pair_counts))


# --- vectorized scoring kernels -------------------------------------------
#
# A kernel maps a (batches, n) matrix of pair indices to a boolean matrix
# of round scores, consuming each batch's generator exactly as the
# strategy's begin_playout would.  Kernels are registered per concrete
# strategy type and must reproduce the general engine bit for bit; the
# test suite asserts this equivalence.


def _kernel_constant(strategy, pairs, rngs):
    return pairs != 3


def _kernel_guessing(strategy, pairs, rngs):
    n_batches, n = pairs.shape
    counts = np.zeros((n_batches, 4), dtype=np.int64)
    scores = np.empty((n_batches, n), dtype=bool)
    rows = np.arange(n_batches)
    # Round 1 plays the constant assignment, which fails only (A2,B2).
    scores[:, 0] = pairs[:, 0] != 3
    counts[rows, pairs[:, 0]] += 1
    for k in range(1, n):
        col = pairs[:, k]
        # np.argmax returns the first maximum: the canonical tie-break.
        target = np.argmax(counts, axis=1)
        scores[:, k] = col != target
        counts[rows, col] += 1
    return scores


def _kernel_model101(strategy, pairs, rngs):
    scores = pairs != 3
    n = pairs.shape[1]
    if n >= 101:
        head = pairs[:, :100]
        triggered = (
            ((head == 0).sum(axis=1) == 33)
            & ((head == 1).sum(axis=1) == 33)
            & ((head == 2).sum(axis=1) == 33)
            & ((head == 3).sum(axis=1) == 1)
        )
        if triggered.any():
            # The trigger assignment scores every pair except (A1,B2).
            scores[triggered, 100] = pairs[triggered, 100] != 1
    return scores


def _kernel_quantum(strategy, pairs, rngs):
    n_batches, n = pairs.shape
    scores = np.empty((n_batches, n), dtype=bool)
    for b, rng in enumerate(rngs):
        rng.integers(0, 2, size=n, dtype=np.uint8)  # Alice's coin tape; scores don't use it
        scores[b] = rng.random(n) < QUANTUM_SCORE_PROBABILITY
    return scores


def _kernel_stochastic(strategy, pairs, rngs):
    support = strategy.lhv.support
    cumulative = np.cumsum([float(w) for w, _ in support])
    score_table = np.array(
        [[assignment.satisfies(p) for p in ALL_PAIRS] for _, assignment in support],
        dtype=bool,
    )
    n_batches, n = pairs.shape
    scores = np.empty((n_batches, n), dtype=bool)
    for b, rng in enumerate(rngs):
        picks = np.minimum(
            np.searchsorted(cumulative, rng.random(n), side="right"),
            len(support) - 1,
        )
        scores[b] = score_table[picks, pairs[b]]
    return scores


_KERNELS = {
    ConstantPlus: _kernel_constant,
    GuessingModel: _kernel_guessing,
    Model101: _kernel_model101,
    QuantumSingletSampler: _kernel_quantum,
    StochasticSequential: _kernel_stochastic,
}


def _find_kernel(strategy):
    kernel = _KERNELS.get(type(strategy))
    if kernel is _kernel_guessing and strategy.tie_break is not None:
        return None  # only the canonical tie-break is vectorized
    return kernel


def iter_batch_counts(plan: SimulationPlan, force_general: bool = False) -> Iterable[BatchCounts]:
    """Per-batch tallies in batch order, via kernel or general engine."""
    strategy = plan.factory()
    n, batches = plan.n, plan.batches
    children = np.random.SeedSequence(plan.seed).spawn(batches)
    kernel = None
    if not force_general and not isinstance(strategy, CollectiveStrategy):
        kernel = _find_kernel(strategy)

    if kernel is None:
        for i in range(batches):
            yield _counts_from_transcript(i, _play(strategy, n, children[i]))
        return

    for lo in range(0, batches, _CHUNK):
        hi = min(lo + _CHUNK, batches)
        rngs = [np.random.default_rng(children[i]) for i in range(lo, hi)]
        pairs = np.stack([rng.integers(0, 4, size=n, dtype=np.uint8) for rng in rngs])
        scores = kernel(strategy, pairs, rngs)
        score_counts = np.empty((hi - lo, 4), dtype=np.int64)
        pair_counts = np.empty((hi - lo, 4), dtype=np.int64)
        for p in range(4):
            mask = pairs == p
            pair_counts[:, p] = mask.sum(axis=1)
            score_counts[:, p] = (mask & scores).sum(axis=1)
        for b in range(hi - lo):
            yield BatchCounts(
                lo + b,
                tuple(score_counts[b].tolist()),
                tuple(pair_counts[b].tolist()),
            )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials < 1:
        raise ValueError("wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes={successes} outside 0..{trials}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class EstimateReport:
    """Aggregated simulation results for one plan.

    ``mean_y`` and the tail frequencies are exact rationals; the ratio
    statistic is aggregated in floating point (batch order) because its
    exact denominators grow without bound across batches.
    """

    strategy: str
    n: int
    batches: int
    seed: int
    delta: float
    mean_y: Fraction
    se_y: float | None
    mean_x: float | None
    se_x: float | None
    undefined_count: int
    tail_freq_y: Fraction
    tail_freq_x: Fraction
    wilson_y: tuple[float, float]
    wilson_x: tuple[float, float]


def _se_y(n: int, r: int, k_sum: int, k_sqsum: int) -> float | None:
    """Standard error of mean Y_N from r batches' scoring-round sums Σk and Σk².

    r·Σk² − (Σk)² is exact in integers (it is r (r−1) times the sample
    variance of k), so the only roundings are one division and one
    square root; Σk² − (Σk)²/r in floats cancels once (Σk)² > 2^53.
    """
    if r < 2:
        return None
    return math.sqrt(16 * (r * k_sqsum - k_sum * k_sum) / (n * n * r * r * (r - 1)))


def estimate(
    plan: SimulationPlan,
    batch_sink: Callable[[BatchCounts], None] | None = None,
    force_general: bool = False,
) -> EstimateReport:
    """Run all batches and aggregate; identical plans give identical reports.

    ``batch_sink``, if given, receives every :class:`BatchCounts` in
    batch order (e.g. to stream a per-batch CSV).
    """
    n, r = plan.n, plan.batches
    # The decimal delta, not the binary float: Fraction(0.3) < 3/10 would
    # count a batch with Y_N = 3.3 exactly as Y_N > 3.3.
    delta = Fraction(str(plan.delta))
    # Y_N > 3 + delta  <=>  scoring rounds > n (3 + delta) / 4, exactly.
    y_cut = n * (3 + delta) / 4
    x_cut = (3 + delta) / (1 - delta)

    k_sum = 0
    k_sqsum = 0
    y_tail = 0
    defined = 0
    x_sum = 0.0
    x_sqsum = 0.0
    x_tail = 0

    for record in iter_batch_counts(plan, force_general=force_general):
        if batch_sink is not None:
            batch_sink(record)
        k = sum(record.score_counts)
        k_sum += k
        k_sqsum += k * k
        if k > y_cut:
            y_tail += 1
        x = batch_x(record)
        if x is not None:
            defined += 1
            xf = float(x)
            x_sum += xf
            x_sqsum += xf * xf
            if x > x_cut:
                x_tail += 1

    mean_y = Fraction(4 * k_sum, r * n)
    se_y = _se_y(n, r, k_sum, k_sqsum)
    mean_x = x_sum / defined if defined else None
    se_x = None
    if defined > 1:
        var_x = max(0.0, (x_sqsum - x_sum * x_sum / defined) / (defined - 1))
        se_x = math.sqrt(var_x / defined)

    return EstimateReport(
        strategy=plan.strategy_name,
        n=n,
        batches=r,
        seed=plan.seed,
        delta=plan.delta,
        mean_y=mean_y,
        se_y=se_y,
        mean_x=mean_x,
        se_x=se_x,
        undefined_count=r - defined,
        tail_freq_y=Fraction(y_tail, r),
        tail_freq_x=Fraction(x_tail, r),
        wilson_y=wilson_interval(y_tail, r),
        wilson_x=wilson_interval(x_tail, r),
    )


@dataclass(frozen=True)
class TailComparison:
    """Empirical tail frequencies next to their analytic bounds."""

    report: EstimateReport
    y_bound: float
    y_ratio: float
    x_bound: float
    x_ratio: float


def compare_tails(report: EstimateReport) -> TailComparison:
    y_bound = f_delta(report.n, report.delta)
    x_bound = x_tail_bound(report.n, report.delta)
    return TailComparison(
        report=report,
        y_bound=y_bound,
        y_ratio=float(report.tail_freq_y) / y_bound,
        x_bound=x_bound,
        x_ratio=float(report.tail_freq_x) / x_bound,
    )


def tail_compare(plan: SimulationPlan) -> TailComparison:
    """Simulate a plan and compare its empirical tails to the bounds."""
    return compare_tails(estimate(plan))

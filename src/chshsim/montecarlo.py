"""Seeded Monte Carlo simulation of strategies at scale.

Each batch is one n-round experiment with independently uniform setting
pairs.  Batch i draws everything from a dedicated stream,
``default_rng(SeedSequence(master_seed, spawn_key=(i,)))``, so results
do not depend on execution order or on how batches are partitioned, and
any single batch can be replayed in isolation.  Within a batch the draw
order is fixed: the n setting pairs first, then whatever tape the
strategy needs.

For the built-in strategies a vectorized scoring kernel reproduces the
general round-by-round engine exactly; the engine remains the fallback
for everything else.  The kernels seed a whole chunk of batches at once:
they recompute each batch's PCG64 state in numpy, without building a
``SeedSequence`` or ``Generator`` per batch, and let one reused PCG64
draw each batch's words natively.  The draws are bit-identical to the
per-batch generators, which the general engine still builds and which
the tests use as the reference.
"""

from __future__ import annotations

import math
import operator
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


def run_batch(strategy, n: int, seed: int, batch_index: int = 0) -> Transcript:
    """Simulate one batch; identical arguments give identical transcripts."""
    rng = np.random.default_rng(batch_seed_sequence(seed, batch_index))
    idx = rng.integers(0, 4, size=n, dtype=np.uint8)
    pairs = [ALL_PAIRS[i] for i in idx]
    if isinstance(strategy, CollectiveStrategy):
        return collective_playout(strategy, pairs, rng)
    return playout(strategy, pairs, rng)


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


# --- per-batch streams, a chunk at a time --------------------------------
#
# Batch i's stream is a PCG64 seeded from
# SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64).  Only the
# spawn-key words differ between batches, and SeedSequence's sequence of
# hash constants does not depend on the data, so the pool is mixed once
# for the seed and then for all of a chunk's indices together in uint32
# arithmetic.  The constants are numpy's (SeedSequence and PCG64).

_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hash of a uint32 word (int or uint32 array), and the next constant."""
    value = value ^ const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _mix_in(pool: list, word, const: int):
    """Mix one entropy word beyond the pool size into every pool word."""
    out = []
    for p in pool:
        h, const = _hashmix(word, const)
        out.append(_mix(p, h))
    return out, const


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """SeedSequence(seed, spawn_key=(i,))'s pool before the spawn key is mixed in,
    and the hash constant reached there; neither depends on i."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    words += [0] * (4 - len(words))  # a spawn key pads the entropy to the pool size
    const = _INIT_A
    pool = []
    for word in words[:4]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for word in words[4:]:
        pool, const = _mix_in(pool, word, const)
    return pool, const


def _mulhi64(a, b: int):
    """High 64 bits of the 128-bit products a * b for a uint64 array a."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_states(seed: int, lo: int, hi: int) -> tuple[list[int], list[int]]:
    """PCG64 states and increments of batches lo..hi-1, as
    ``default_rng(batch_seed_sequence(seed, i))`` sets them."""
    pool, const = _seed_pool(seed)
    index = np.arange(lo, hi, dtype=np.uint64)
    pool = [np.full(hi - lo, p, dtype=np.uint32) for p in pool]
    mixed, const = _mix_in(pool, (index & _M32).astype(np.uint32), const)
    wide = index >> 32  # indices >= 2^32 take a second spawn-key word
    if wide.any():
        two_words, _ = _mix_in(mixed, wide.astype(np.uint32), const)
        mixed = [np.where(wide > 0, b, a) for a, b in zip(mixed, two_words)]
    # generate_state(4, uint64): eight uint32 words, low word first in each uint64.
    const = _INIT_B
    words = []
    for k in range(8):
        h, const = _hashmix(mixed[k % 4], const, _MULT_B)
        words.append(h.astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64's seeding in (hi, lo) uint64 halves: inc = 2 seq + 1,
    # state = ((inc + init) * MULT + inc) mod 2^128.
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    s_lo = inc_lo + init_lo
    s_hi = inc_hi + init_hi + (s_lo < inc_lo)
    t_hi = _mulhi64(s_lo, _PCG_MULT_LO) + s_lo * _PCG_MULT_HI + s_hi * _PCG_MULT_LO
    t_lo = s_lo * _PCG_MULT_LO + inc_lo
    t_hi += inc_hi + (t_lo < inc_lo)
    return (
        [h << 64 | l for h, l in zip(t_hi.tolist(), t_lo.tolist())],
        [h << 64 | l for h, l in zip(inc_hi.tolist(), inc_lo.tolist())],
    )


def _raw_words(n: int, coins: bool, uniforms: bool) -> tuple[int, int]:
    """Where a batch's uniforms start in its uint64 words, and how many words it draws.

    integers(0, 4, n, uint8) takes ceil(n/4) uint32 words, as does the
    coin tape; a uint64 gives two uint32 words, and random() takes whole
    uint64 words after them.
    """
    uint32_words = -(-n // 4) * (2 if coins else 1)
    start = -(-uint32_words // 2)
    return start, start + (n if uniforms else 0)


def _chunk_draws(seed: int, lo: int, hi: int, n: int, coins: bool = False, uniforms: bool = False):
    """Setting pairs and uniforms of batches lo..hi-1, one row per batch.

    Equal to what ``default_rng(batch_seed_sequence(seed, i))`` gives
    batch i: ``integers(0, 4, n, uint8)``, then (if ``coins``) an
    ``integers(0, 2, n, uint8)`` tape, which is skipped, then (if
    ``uniforms``) ``random(n)``; the uniforms are None otherwise.
    Numpy's buffered Lemire method never rejects for ranges 4 and 2, so
    a pair is the top two bits of one byte of a uint32 word, low byte
    first.  Bytes are taken with shifts, independent of byte order.
    """
    start, m = _raw_words(n, coins, uniforms)
    states, incs = _pcg64_states(seed, lo, hi)
    bitgen = np.random.PCG64(0)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    block = np.empty((hi - lo, m), dtype=np.uint64)
    for row, (s, inc) in enumerate(zip(states, incs)):
        state["state"] = {"state": s, "inc": inc}
        bitgen.state = state
        block[row] = bitgen.random_raw(m)

    words = block[:, : -(-n // 8)]  # the words holding the n pair bytes
    pairs = np.empty((hi - lo, words.shape[1], 8), dtype=np.uint8)
    for b in range(8):
        pairs[:, :, b] = words >> (8 * b + 6)  # the cast keeps the low byte
    pairs &= 3
    pairs = pairs.reshape(hi - lo, -1)[:, :n]
    if not uniforms:
        return pairs, None
    tape = block[:, start:]
    tape >>= 11
    return pairs, tape * 2.0 ** -53


# --- vectorized scoring kernels -------------------------------------------
#
# A kernel maps a (batches, n) matrix of pair indices, and the uniforms
# its strategy draws, to a boolean matrix of round scores.  Kernels are
# registered per concrete strategy type and must reproduce the general
# engine bit for bit; the test suite asserts this equivalence.


def _kernel_constant(strategy, pairs, uniforms):
    return pairs != 3


def _kernel_guessing(strategy, pairs, uniforms):
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


def _kernel_model101(strategy, pairs, uniforms):
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


def _kernel_quantum(strategy, pairs, uniforms):
    # Alice's coin tape comes before the uniforms; scores don't use it.
    return uniforms < QUANTUM_SCORE_PROBABILITY


def _kernel_stochastic(strategy, pairs, uniforms):
    support = strategy.lhv.support
    cumulative = np.cumsum([float(w) for w, _ in support])
    score_table = np.array(
        [[assignment.satisfies(p) for p in ALL_PAIRS] for _, assignment in support],
        dtype=bool,
    )
    picks = np.searchsorted(cumulative, uniforms, side="right")
    np.minimum(picks, len(support) - 1, out=picks)
    return score_table[picks, pairs]


class _Kernel(NamedTuple):
    score: Callable
    coins: bool = False  # the strategy draws an n-coin tape after the pairs
    uniforms: bool = False  # ... and then n uniforms, which it scores with


_KERNELS = {
    ConstantPlus: _Kernel(_kernel_constant),
    GuessingModel: _Kernel(_kernel_guessing),
    Model101: _Kernel(_kernel_model101),
    QuantumSingletSampler: _Kernel(_kernel_quantum, coins=True, uniforms=True),
    StochasticSequential: _Kernel(_kernel_stochastic, uniforms=True),
}

#: Bytes of working arrays one kernel chunk may take; it holds at least
#: one batch whatever n is.
_CHUNK_BYTES = 16 << 20


def _row_bytes(n: int, kernel: _Kernel) -> int:
    """One batch's share of a chunk: its raw words, pairs, scores and two
    tally masks, and for a uniform tape the floats and the int64 picks."""
    _, m = _raw_words(n, kernel.coins, kernel.uniforms)
    return 8 * m + 4 * n + (16 * n if kernel.uniforms else 0)


def _find_kernel(strategy):
    kernel = _KERNELS.get(type(strategy))
    if type(strategy) is GuessingModel and strategy.tie_break is not None:
        return None  # only the canonical tie-break is vectorized
    return kernel


def iter_batch_counts(plan: SimulationPlan, force_general: bool = False) -> Iterable[BatchCounts]:
    """Per-batch tallies in batch order, via kernel or general engine."""
    strategy = plan.factory()
    n, batches = plan.n, plan.batches
    kernel = None
    if not force_general and not isinstance(strategy, CollectiveStrategy):
        kernel = _find_kernel(strategy)

    if kernel is None:
        for i in range(batches):
            yield _counts_from_transcript(i, run_batch(strategy, n, plan.seed, i))
        return

    rows = max(1, _CHUNK_BYTES // _row_bytes(n, kernel))
    for lo in range(0, batches, rows):
        hi = min(lo + rows, batches)
        pairs, uniforms = _chunk_draws(plan.seed, lo, hi, n, kernel.coins, kernel.uniforms)
        scores = kernel.score(strategy, pairs, uniforms)
        del uniforms  # the tally needs only pairs and scores
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

"""Seeded Monte Carlo simulation of strategies at scale.

Each batch is one n-round experiment with independently uniform setting
pairs.  Batch i draws everything from a dedicated stream,
``default_rng(SeedSequence(master_seed, spawn_key=(i,)))``, so results
do not depend on execution order or on how batches are partitioned, and
any single batch can be replayed in isolation.  Within a batch the draw
order is fixed: the n setting pairs first, then whatever tape the
strategy needs.

Batches run in chunks, and everything after the draws works on a whole
chunk at once: a :class:`Tally` of per-pair counts, one row per batch
(counted on the kernel path as set bits of packed planes of the pair
bits and scores), feeds both the aggregation in :func:`estimate` and
the per-batch CSV text, which :func:`batch_csv_rows` formats once per
distinct count row of each slice of batches.  For every strategy of
the CLI catalogue a vectorized scoring kernel reproduces the general
round-by-round engine exactly; the engine remains the fallback for
every other strategy and the reference the tests hold the kernels to.
The kernels seed a whole chunk of batches at once: they recompute each
batch's PCG64 state in numpy, by SeedSequence's hashing from
:mod:`chshsim.stream`, without building a ``SeedSequence`` or
``Generator`` per batch.
A batch that needs at most ``_STEP_WORDS`` raw words has all of them
stepped in numpy too, a word of every batch at a time; a longer stream
is drawn natively by one reused PCG64 per chunk.  The draws are bit-identical to the per-batch
generators, which the general engine still builds.

This is the package's numpy layer, the only module that imports numpy
when it loads, and the only one that builds numpy's ``Generator``.  The
CLI imports it for ``simulate`` alone, and the package resolves its
exports on first use; elsewhere numpy is imported only where the
collective tables are built as arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .core import ALL_PAIRS, Transcript
from .bounds import f_delta, x_tail_bound
from .enumerator import collective_playout, collective_scores, playout
from .stats import pair_tallies, x_from_counts, x_ratio
from .stream import _M32, _M64, _PCG_MULT, _generate_state, _mix_in, _seed_pool
from .strategies import (
    MODEL_101_TRIGGER_ASSIGNMENT,
    MODEL_101_TRIGGER_COUNTS,
    QUANTUM_SCORE_PROBABILITY,
    CollectiveN2,
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
        if self.seed < 0:
            raise ValueError(f"seed: expected non-negative integer, got {self.seed}")
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
        return collective_playout(strategy, pairs)
    return playout(strategy, pairs, rng)


class BatchCounts(NamedTuple):
    """Per-batch tallies: scoring rounds and total rounds for each pair."""

    batch: int
    score_counts: tuple[int, int, int, int]
    pair_counts: tuple[int, int, int, int]


def batch_x(record: BatchCounts) -> Fraction | None:
    return x_from_counts(record.score_counts, record.pair_counts)


#: Per-batch CSV row layout (c11/c12/c21 are correlated counts for the
#: three correlation-target pairs, a22 the anticorrelated count for
#: (A2,B2); together they are the per-pair scoring counts).
BATCH_CSV_HEADER = (
    "batch", "seed", "n", "y_value", "x_defined", "x_value",
    "c11", "c12", "c21", "a22", "n11", "n12", "n21", "n22",
)


#: Below this X_N's denominator, it and the numerator (at most four times
#: it) are exact float64 values, so one division rounds num / den
#: correctly, to what ``float(Fraction(num, den))`` gives.
_FLOAT_EXACT_DEN = 2 ** 51


class Tally(NamedTuple):
    """Per-pair counts of consecutive batches, one row per batch.

    Row b is batch ``first + b``.  ``score_counts[b, i]`` counts its
    rounds on ``ALL_PAIRS[i]`` that met their target, ``pair_counts[b, i]``
    all its rounds on that pair; both are (B, 4) int64 arrays.
    """

    first: int
    score_counts: np.ndarray
    pair_counts: np.ndarray

    def y(self, n: int) -> np.ndarray:
        """Y_N of every batch, each the float of the exact 4k/n.

        4k and n are exact float64 values, so the division rounds once.
        """
        return 4 * self.score_counts.sum(axis=1) / n

    def x(self) -> tuple[np.ndarray, np.ndarray]:
        """Which batches have X_N defined, and X_N of those in batch order.

        Each value is the float of the exact rational.  A batch whose
        denominator may reach 2^51 (by a float estimate of it, good to
        three roundings) is worked out in Python ints.
        """
        has_x = self.pair_counts.all(axis=1)
        scores = self.score_counts[has_x].T
        totals = self.pair_counts[has_x].T
        small = np.prod(totals, axis=0, dtype=np.float64) < _FLOAT_EXACT_DEN / 2
        x = np.empty(totals.shape[1])
        num, den = x_ratio(scores[:, small], totals[:, small])
        x[small] = num / den
        big = ~small
        x[big] = [
            num / den
            for num, den in itertools.starmap(x_ratio, zip(scores[:, big].T.tolist(), totals[:, big].T.tolist()))
        ]
        return has_x, x


#: Rows of per-batch CSV text built at once, to bound the Python objects alive.
_CSV_SLICE_ROWS = 1024

#: A batch's CSV line after ``batch,seed,n,``: Y, X defined, X (empty
#: when undefined), then the four scores and the four totals.
_CSV_TAIL_X = "%r,1,%r," + ",".join(["%d"] * 8) + "\n"
_CSV_TAIL_NO_X = "%r,0,," + ",".join(["%d"] * 8) + "\n"


def batch_csv_rows(tally: Tally, n: int, seed: int) -> Iterator[str]:
    """The tally's per-batch CSV lines, laid out as ``BATCH_CSV_HEADER``
    names them, as text slices of at most ``_CSV_SLICE_ROWS`` lines.

    Everything after ``batch,seed,n,`` depends only on a batch's eight
    counts, so each slice formats that tail once per distinct count row
    and reuses it for the equal rows.  The distinct rows go through
    :meth:`Tally.y` and :meth:`Tally.x` as one tally, so every float is
    the one the whole tally would give; it is written as its ``repr``.
    """
    prefix = f",{seed},{n},"
    for lo in range(0, len(tally.score_counts), _CSV_SLICE_ROWS):
        hi = min(lo + _CSV_SLICE_ROWS, len(tally.score_counts))
        counts = np.concatenate((tally.score_counts[lo:hi], tally.pair_counts[lo:hi]), axis=1)
        # Each row as one opaque bytes key: sorting those is far cheaper
        # than np.unique(axis=0), and unlike a key packed into one integer
        # it cannot overflow.
        keys = counts.view(np.dtype((np.void, counts.itemsize * counts.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = counts[first]
        rows = Tally(0, distinct[:, :4], distinct[:, 4:])
        has_x, x = rows.x()
        x_cells = iter(x.tolist())  # X_N of the rows that have it, in row order
        tails = [
            _CSV_TAIL_X % (y, next(x_cells), *row) if defined else _CSV_TAIL_NO_X % (y, *row)
            for y, defined, row in zip(rows.y(n).tolist(), has_x.tolist(), distinct.tolist())
        ]
        batches = range(tally.first + lo, tally.first + hi)
        yield "".join([f"{b}{prefix}{tails[i]}" for b, i in zip(batches, inverse.tolist())])


# --- per-batch streams, a chunk at a time --------------------------------
#
# Batch i's stream is a PCG64 seeded from
# SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64).  Only the
# spawn-key words differ between batches, and SeedSequence's sequence of
# hash constants does not depend on the data, so the pool is mixed once
# for the seed and then for all of a chunk's indices together in uint32
# arithmetic, by the hashing of :mod:`chshsim.stream`.

_PCG_MULT_HI, _PCG_MULT_LO = _PCG_MULT >> 64, _PCG_MULT & _M64


def _mulhi64(a, b: int):
    """High 64 bits of the 128-bit products a * b for a uint64 array a."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_step(s_hi, s_lo, inc_hi, inc_lo):
    """One PCG64 step, state * MULT + inc mod 2^128, on (hi, lo) uint64 halves."""
    t_lo = s_lo * _PCG_MULT_LO
    t_hi = _mulhi64(s_lo, _PCG_MULT_LO) + s_lo * _PCG_MULT_HI + s_hi * _PCG_MULT_LO
    t_lo += inc_lo
    t_hi += inc_hi + (t_lo < inc_lo)
    return t_hi, t_lo


def _pcg64_states(seed: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64 states and increments of batches lo..hi-1, as
    ``default_rng(batch_seed_sequence(seed, i))`` sets them: the (hi, lo)
    uint64 halves of the states, then of the increments."""
    pool, const = _seed_pool(seed)
    index = np.arange(lo, hi, dtype=np.uint64)
    pool = [np.full(hi - lo, p, dtype=np.uint32) for p in pool]
    mixed, const = _mix_in(pool, (index & _M32).astype(np.uint32), const)
    wide = index >> 32  # indices >= 2^32 take a second spawn-key word
    if wide.any():
        two_words, _ = _mix_in(mixed, wide.astype(np.uint32), const)
        mixed = [np.where(wide > 0, b, a) for a, b in zip(mixed, two_words)]
    words = [w.astype(np.uint64) for w in _generate_state(mixed)]
    init_hi, init_lo, seq_hi, seq_lo = (words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    # PCG64's seeding: inc = 2 seq + 1, state = (inc + init) * MULT + inc.
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    s_lo = inc_lo + init_lo
    s_hi = inc_hi + init_hi + (s_lo < inc_lo)
    return *_pcg64_step(s_hi, s_lo, inc_hi, inc_lo), inc_hi, inc_lo


def _raw_words(n: int, coins: bool, uniforms: bool) -> tuple[int, int]:
    """Where a batch's uniforms start in its uint64 words, and how many words it draws.

    integers(0, 4, n, uint8) takes ceil(n/4) uint32 words, as does the
    coin tape; a uint64 gives two uint32 words, and random() takes whole
    uint64 words after them.
    """
    uint32_words = -(-n // 4) * (2 if coins else 1)
    start = -(-uint32_words // 2)
    return start, start + (n if uniforms else 0)


#: Most raw words per batch that are stepped in numpy.  Emulated 128-bit
#: arithmetic costs 14-17 ns a word of every batch; a native PCG64 draws
#: a word in about 3 ns but takes about 2.2 us to set each batch's state.
#: The two break even at 150-190 words, on a 2-core x86 machine.
_STEP_WORDS = 128

#: Raw words one ``random_raw`` call returns at most.
_RAW_PIECE = 1 << 16


def _raw_block(seed: int, lo: int, hi: int, m: int) -> np.ndarray:
    """The first m raw uint64 words of batches lo..hi-1, one row per batch."""
    s_hi, s_lo, inc_hi, inc_lo = _pcg64_states(seed, lo, hi)
    block = np.empty((hi - lo, m), dtype=np.uint64)
    if m <= _STEP_WORDS:
        # Numpy steps the state, then outputs it by XSL-RR: the xor of its
        # halves rotated right by its top six bits.
        for col in range(m):
            s_hi, s_lo = _pcg64_step(s_hi, s_lo, inc_hi, inc_lo)
            x = s_hi ^ s_lo
            rot = s_hi >> 58
            block[:, col] = x >> rot | x << (-rot & 63)
        return block
    bitgen = np.random.PCG64(0)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    halves = zip(s_hi.tolist(), s_lo.tolist(), inc_hi.tolist(), inc_lo.tolist())
    for row, (sh, sl, ih, il) in enumerate(halves):
        state["state"] = {"state": sh << 64 | sl, "inc": ih << 64 | il}
        bitgen.state = state
        # The stream continues across calls; pieces bound the copy's temporary.
        for a in range(0, m, _RAW_PIECE):
            block[row, a : a + _RAW_PIECE] = bitgen.random_raw(min(_RAW_PIECE, m - a))
    return block


def _chunk_draws(seed: int, lo: int, hi: int, n: int, coins: bool = False, uniforms: bool = False):
    """Setting pairs and uniforms of batches lo..hi-1, one row per batch.

    Equal to what ``default_rng(batch_seed_sequence(seed, i))`` gives
    batch i: ``integers(0, 4, n, uint8)``, then (if ``coins``) an
    ``integers(0, 2, n, uint8)`` tape, which is skipped, then (if
    ``uniforms``) ``random(n)``; the uniforms are None otherwise.
    A batch's raw words are stepped in numpy for the whole chunk at once
    up to ``_STEP_WORDS`` words, and drawn by a native PCG64 beyond.
    A uniform comes as the uint64 word ``x >> 11`` whose ``random()`` is
    ``(x >> 11) * 2**-53``, so kernels compare it with integer cut points
    and no float copy of the tape is made.
    Numpy's buffered Lemire method never rejects for ranges 4 and 2, so
    a pair is the top two bits of one byte of a uint32 word, low byte
    first.  The words are viewed as bytes in a little-endian copy, which
    puts the bytes in that order whatever the host's byte order.
    """
    start, m = _raw_words(n, coins, uniforms)
    block = _raw_block(seed, lo, hi, m)

    words = block[:, : -(-n // 8)]  # the words holding the n pair bytes
    pairs = (np.ascontiguousarray(words, dtype="<u8").view(np.uint8) >> 6)[:, :n]
    if not uniforms:
        return pairs, None
    tape = block[:, start:]
    tape >>= 11
    return pairs, tape


# --- vectorized scoring kernels -------------------------------------------
#
# A kernel maps a (batches, n) matrix of pair indices, and the uniforms
# its strategy draws (as 53-bit integers), to a boolean matrix of round
# scores.  It receives the strategy, or what its ``prepare`` built from
# the strategy and n once per plan.  Kernels are registered per concrete
# strategy type and must reproduce the general engine bit for bit; the
# test suite asserts this equivalence.


def _kernel_constant(strategy, pairs, uniforms):
    return pairs != 3


def _kernel_guessing(strategy, pairs, uniforms):
    # A round scores unless its pair is the most measured so far, the
    # first of tied pairs winning.  Pair j of a batch keeps the key
    # 4 count_j + 3 - j: a batch's keys differ mod 4, so its largest key
    # is the canonical target, and a running maximum of the keys tracks
    # it without an argmax per round.  Pairs and scores are walked
    # round-major, one contiguous column per round.
    n_batches, n = pairs.shape
    order = np.ascontiguousarray(pairs.T)
    keys = np.tile(np.arange(3, -1, -1, dtype=np.int64), n_batches)
    top = np.full(n_batches, 3, dtype=np.int64)
    offsets = np.arange(0, 4 * n_batches, 4)
    idx = np.empty(n_batches, dtype=np.intp)
    key = np.empty(n_batches, dtype=np.int64)
    scores = np.empty((n, n_batches), dtype=bool)
    for k in range(n):
        np.add(offsets, order[k], out=idx)
        np.take(keys, idx, out=key)
        np.not_equal(key, top, out=scores[k])
        key += 4
        keys[idx] = key
        np.maximum(top, key, out=top)
    # Round 1 plays the constant assignment, which fails only (A2,B2).
    np.not_equal(order[0], 3, out=scores[0])
    del order
    return np.ascontiguousarray(scores.T)


def _kernel_model101(strategy, pairs, uniforms):
    scores = pairs != 3
    k = sum(MODEL_101_TRIGGER_COUNTS)  # the trigger round, counted from 0
    if pairs.shape[1] > k:
        head = pairs[:, :k]
        triggered = np.logical_and.reduce(
            [(head == j).sum(axis=1) == count for j, count in enumerate(MODEL_101_TRIGGER_COUNTS)]
        )
        if triggered.any():
            scores[triggered, k] = np.take(MODEL_101_TRIGGER_ASSIGNMENT.hits, pairs[triggered, k])
    return scores


#: A uniform u = (x >> 11) 2^-53 is below p iff x >> 11 is below p 2^53,
#: an integer: p lies in [1/2, 1), where float64 steps are 2^-53.
_QUANTUM_CUT = int(QUANTUM_SCORE_PROBABILITY * 2 ** 53)


def _kernel_quantum(strategy, pairs, uniforms):
    # Alice's coin tape comes before the uniforms; scores don't use it.
    return uniforms < _QUANTUM_CUT


def _stochastic_tables(strategy, n: int | None = None):
    """A mixture's integer cut points and its (assignment, pair) score table,
    which do not depend on n.

    The general engine picks the first assignment whose float cumulative
    weight c, read from the strategy's own ``_cumulative``, exceeds u; the
    cuts come from the same tuple.  u >= c iff x >> 11 >= ceil(c 2^53),
    and c 2^53 is exact.  The table is flattened for one index per round.
    """
    cuts = np.array([math.ceil(c * 2 ** 53) for c in strategy._cumulative], dtype=np.uint64)
    table = np.array([assignment.hits for _, assignment in strategy.lhv.support], dtype=bool)
    return cuts, table.ravel()


def _kernel_stochastic(tables, pairs, uniforms):
    cuts, table = tables
    picks = np.searchsorted(cuts, uniforms, side="right")
    np.minimum(picks, len(cuts) - 1, out=picks)
    picks *= 4
    picks += pairs
    return table[picks]


def _kernel_collective(table, pairs, uniforms):
    # A batch's row of the table is its pairs read as a base-4 number.
    return table[pairs @ 4 ** np.arange(pairs.shape[1] - 1, -1, -1)]


class _Kernel(NamedTuple):
    score: Callable
    coins: bool = False  # the strategy draws an n-coin tape after the pairs
    uniforms: bool = False  # ... and then n uniforms, which it scores with
    round_bytes: int = 0  # bytes per round the score takes beyond its result
    batch_bytes: int = 0  # ... and per batch
    prepare: Callable | None = None  # (strategy, n) -> what ``score`` receives instead


_KERNELS = {
    ConstantPlus: _Kernel(_kernel_constant),
    GuessingModel: _Kernel(_kernel_guessing, round_bytes=1, batch_bytes=64),
    Model101: _Kernel(_kernel_model101),
    QuantumSingletSampler: _Kernel(_kernel_quantum, coins=True, uniforms=True),
    StochasticSequential: _Kernel(_kernel_stochastic, uniforms=True, round_bytes=16, prepare=_stochastic_tables),
    CollectiveN2: _Kernel(_kernel_collective, round_bytes=8, batch_bytes=8, prepare=collective_scores),
}

#: Bytes of working arrays one chunk may take; it holds at least one
#: batch whatever n is.
_CHUNK_BYTES = 16 << 20

#: A batch's bytes in its chunk's tally and in the aggregation's
#: per-batch arrays, which a general-engine chunk holds alone.  The CSV
#: sink's arrays span one slice of ``_CSV_SLICE_ROWS`` rows, not the chunk.
_TALLY_ROW_BYTES = 256

#: What a kernel chunk's PCG64 seeding takes per batch beyond the tally's
#: share.  Seeding ends before the tally exists and peaks, under
#: tracemalloc, at about 250 B per batch of numpy words.  Beyond the raw
#: words, stepping the states in numpy then takes about 120 B per batch,
#: and handing them to a native PCG64 as 128-bit Python ints about 210 B.
_SEED_ROW_BYTES = 256


def _row_bytes(n: int, kernel: _Kernel) -> int:
    """One batch's share of a kernel chunk: the per-batch arrays, and per
    round its raw words, its pair bytes with a contiguous copy of the
    words holding them, its scores, the tally's bool plane (padded like
    the pair bytes to whole words), its three packed bit planes of n/8 B
    each, and what the score takes besides.  The planes the tally counts
    from the packed ones are formed after the pairs and scores are freed.

    The guessing kernel takes 1 B per round for its round-major pair
    copy, which is freed before its round-major scores are copied into
    the result, and 64 B per batch for its int64 buffers: four pair keys,
    the top key, the round's key and index, and the row offsets.  The
    collective kernel takes 8 B per round for an int64 copy of the pairs
    and 8 B per batch for the sequence index.
    """
    _, m = _raw_words(n, kernel.coins, kernel.uniforms)
    plane_bytes = -(-n // 8)
    pair_bytes = 8 * plane_bytes
    per_batch = _SEED_ROW_BYTES + _TALLY_ROW_BYTES + kernel.batch_bytes
    return per_batch + 8 * m + 3 * pair_bytes + (1 + kernel.round_bytes) * n + 3 * plane_bytes


def _find_kernel(strategy):
    return _KERNELS.get(type(strategy))


def _popcount_rows(plane: np.ndarray) -> np.ndarray:
    """The set bits of each row of a packed bit plane."""
    return np.bitwise_count(plane).sum(axis=1, dtype=np.int64)


def _kernel_tally(kernel: _Kernel, scorer, n: int, seed: int, lo: int, hi: int) -> Tally:
    pairs, uniforms = _chunk_draws(seed, lo, hi, n, kernel.coins, kernel.uniforms)
    scores = kernel.score(scorer, pairs, uniforms)
    del uniforms  # the tally needs only pairs and scores
    # Bit planes, eight rounds a byte: a pair's high and low bit, and the
    # score.  Each is packed from one bool plane whose rows are padded with
    # zeros to whole bytes; every plane counted below has a zero high or
    # low bit or score there, so pair 0, whose bits are both zero, is what
    # the other pairs leave.  The padded plane is packed whole, not along
    # its rows: packbits loops over rows, which dominates at small n.
    width = -(-n // 8)  # bytes of a packed row
    padded = np.zeros((hi - lo, 8 * width), dtype=bool)
    bits = padded[:, :n]
    bits[...] = scores
    del scores
    scored = np.packbits(padded).reshape(hi - lo, width)
    np.greater_equal(pairs, 2, out=bits)
    high = np.packbits(padded).reshape(hi - lo, width)
    np.bitwise_and(pairs, 1, out=bits, casting="unsafe")
    low = np.packbits(padded).reshape(hi - lo, width)
    del pairs, padded, bits
    score_counts = np.empty((hi - lo, 4), dtype=np.int64)
    pair_counts = np.empty((hi - lo, 4), dtype=np.int64)
    for p, plane in enumerate((~high & low, high & ~low, high & low), start=1):
        pair_counts[:, p] = _popcount_rows(plane)
        plane &= scored
        score_counts[:, p] = _popcount_rows(plane)
    pair_counts[:, 0] = n - pair_counts[:, 1:].sum(axis=1)
    score_counts[:, 0] = _popcount_rows(scored) - score_counts[:, 1:].sum(axis=1)
    return Tally(lo, score_counts, pair_counts)


def _general_tally(strategy, n: int, seed: int, lo: int, hi: int) -> Tally:
    score_counts = np.empty((hi - lo, 4), dtype=np.int64)
    pair_counts = np.empty((hi - lo, 4), dtype=np.int64)
    for row, i in enumerate(range(lo, hi)):
        score_counts[row], pair_counts[row] = pair_tallies(run_batch(strategy, n, seed, i))
    return Tally(lo, score_counts, pair_counts)


def _iter_tallies(plan: SimulationPlan, force_general: bool = False) -> Iterator[Tally]:
    """Tallies of all batches in batch order, one per chunk, via kernel or general engine."""
    strategy = plan.factory()
    n, batches, seed = plan.n, plan.batches, plan.seed
    kernel = None if force_general else _find_kernel(strategy)

    if kernel is None:
        rows = max(1, _CHUNK_BYTES // _TALLY_ROW_BYTES)
        for lo in range(0, batches, rows):
            yield _general_tally(strategy, n, seed, lo, min(lo + rows, batches))
        return

    scorer = strategy if kernel.prepare is None else kernel.prepare(strategy, n)
    rows = max(1, _CHUNK_BYTES // _row_bytes(n, kernel))
    for lo in range(0, batches, rows):
        yield _kernel_tally(kernel, scorer, n, seed, lo, min(lo + rows, batches))


def iter_batch_counts(plan: SimulationPlan, force_general: bool = False) -> Iterable[BatchCounts]:
    """Per-batch tallies in batch order, via kernel or general engine: the
    chunk tallies one batch at a time."""
    for tally in _iter_tallies(plan, force_general):
        counts = zip(tally.score_counts.tolist(), tally.pair_counts.tolist())
        for b, (scores, totals) in enumerate(counts, start=tally.first):
            yield BatchCounts(b, tuple(scores), tuple(totals))


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


def _k_sums(k: np.ndarray) -> tuple[int, int]:
    """Σk and Σk² of a chunk's scoring-round counts, exactly."""
    top = int(k.max())
    if top * top * len(k) < 2 ** 63:
        return int(k.sum()), int(k @ k)
    values = k.tolist()
    return sum(values), sum(v * v for v in values)


def _add_in_order(total: float, values: np.ndarray) -> float:
    """``total`` plus each value in turn, rounding after every addition as
    a Python loop does; ``np.sum`` adds pairwise and rounds differently."""
    terms = np.empty(len(values) + 1)
    terms[0] = total
    terms[1:] = values
    return float(np.add.accumulate(terms, out=terms)[-1])


def estimate(plan: SimulationPlan, batch_sink: Callable[[Tally], None] | None = None) -> EstimateReport:
    """Run all batches and aggregate; identical plans give identical reports.

    Batches are folded one chunk at a time, with the same roundings, in
    the same batch order, as one batch at a time.  ``batch_sink``, if
    given, receives every chunk's :class:`Tally` in batch order (e.g. to
    stream a per-batch CSV).
    """
    n, r = plan.n, plan.batches
    # The decimal delta, not the binary float: Fraction(0.3) < 3/10 would
    # count a batch with Y_N = 3.3 exactly as Y_N > 3.3.
    delta = Fraction(str(plan.delta))
    # Y_N > 3 + delta  <=>  scoring rounds k > n (3 + delta) / 4  <=>  k > its floor.
    k_cut = math.floor(n * (3 + delta) / 4)
    x_cut = (3 + delta) / (1 - delta)
    # Rounding is monotone, so a float X_N above (below) the rounded cut
    # is above (below) the cut; only equal floats need the exact compare.
    x_cut_float = float(x_cut)

    k_sum = 0
    k_sqsum = 0
    y_tail = 0
    defined = 0
    x_sum = 0.0
    x_sqsum = 0.0
    x_tail = 0

    for tally in _iter_tallies(plan):
        if batch_sink is not None:
            batch_sink(tally)
        k = tally.score_counts.sum(axis=1)
        k_chunk, k_sq_chunk = _k_sums(k)
        k_sum += k_chunk
        k_sqsum += k_sq_chunk
        y_tail += int(np.count_nonzero(k > k_cut))
        has_x, x = tally.x()
        if not len(x):
            continue
        defined += len(x)
        x_sum = _add_in_order(x_sum, x)
        x_sqsum = _add_in_order(x_sqsum, x * x)
        x_tail += int(np.count_nonzero(x > x_cut_float))
        tied = np.flatnonzero(x == x_cut_float)
        if len(tied):
            rows = np.flatnonzero(has_x)[tied]
            for scores, totals in zip(tally.score_counts[rows].tolist(), tally.pair_counts[rows].tolist()):
                num, den = x_ratio(scores, totals)
                x_tail += num * x_cut.denominator > x_cut.numerator * den

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
    """Empirical tail frequencies next to their analytic bounds.

    A ratio is 0 when its tail was never seen, and ``None`` (undefined)
    when it was but the bound is so small (it underflows to 0 from about
    N = 445,000 at delta = 0.1) that the ratio is no finite float.
    """

    report: EstimateReport
    y_bound: float
    y_ratio: float | None
    x_bound: float
    x_ratio: float | None


def _tail_ratio(freq: Fraction, bound: float) -> float | None:
    if freq == 0:
        return 0.0
    if bound == 0.0:
        return None
    ratio = float(freq) / bound
    return ratio if math.isfinite(ratio) else None


def compare_tails(report: EstimateReport) -> TailComparison:
    y_bound = f_delta(report.n, report.delta)
    x_bound = x_tail_bound(report.n, report.delta)
    return TailComparison(
        report=report,
        y_bound=y_bound,
        y_ratio=_tail_ratio(report.tail_freq_y, y_bound),
        x_bound=x_bound,
        x_ratio=_tail_ratio(report.tail_freq_x, x_bound),
    )

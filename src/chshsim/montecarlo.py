"""Seeded Monte Carlo simulation of strategies at scale.

Each batch is one n-round experiment with independently uniform setting
pairs.  Batch i draws everything from a dedicated stream,
``Stream(master_seed, i)`` (see :mod:`chshsim.stream`), so results do
not depend on execution order or on how batches are partitioned, and
any single batch can be replayed in isolation.  Within a batch the draw
order is fixed: the n setting pairs first, then whatever tape the
strategy needs.

Batches run in chunks, and everything after the draws works on a whole
chunk at once: a :class:`Tally` of per-pair counts, one row per batch,
feeds both the aggregation in :func:`estimate` and the per-batch CSV
text.  :func:`batch_csv_rows` assembles each slice of that text as one
byte array: counts and batch numbers as digits in numpy, and each
distinct float of the slice formatted once.  For every strategy of the
CLI catalogue a vectorized scoring kernel reproduces the general
round-by-round engine's counts exactly; the engine remains the
fallback for every other strategy and the reference the tests hold the
kernels to.  The kernels seed a whole chunk of batches at once: they
compute each batch's PCG64 state in numpy, by the hashing of
:mod:`chshsim.stream`, without building a ``Stream`` per batch.

A kernel chunk is worked a tile at a time: its batches over a range of
rounds, drawn, counted and scored before the next tile is drawn, so its
working arrays are bounded by the tile, not by n.  One function reads
every tile's words by their positions: it steps a batch that needs at
most ``_STEP_WORDS`` raw words in numpy, eight words of every batch a
call, and draws a longer stream natively, from each batch's seed state
advanced to the tile's words.  Every kernel returns the tile's (B, 4)
score counts and its (B, 4) pair counts, which it counts once: the
chunk's tally is the sum of its tiles'.  The engine owns what a tile
needs of the rounds before it: the stepped streams' lanes, and the
running pair counts that it hands to every kernel; kernels keep
nothing.  Stepped chunks run tiles of ``_TILE_ROUNDS`` rounds, native
ones whole batches, or one batch alone in tiles when it does not fit
the budget.  The draws are bit-identical to the per-batch ``Stream``
the general engine draws from.

This is the package's numpy layer, the only module that imports numpy
when it loads; of numpy's generators it uses only the PCG64 bit
generator.  The CLI imports it for ``simulate`` alone, and the package
resolves its exports on first use; elsewhere numpy is imported only
where the collective tables are built as arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .core import ALL_PAIRS, Transcript
from .bounds import f_delta, x_tail_bound
from .enumerator import collective_playout, collective_scores, playout
from .stats import pair_tallies, x_from_counts, x_ratio
from .stream import _M32, _M64, _M128, _PCG_MULT, Stream, _generate_state, _mix_in, _seed_pool
from .strategies import (
    CONSTANT_PLUS_ASSIGNMENT,
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


class _SimulationPlanFields(NamedTuple):
    factory: Callable[[], SequentialStrategy | CollectiveStrategy]
    n: int
    batches: int
    seed: int
    delta: float
    strategy_name: str


class SimulationPlan(_SimulationPlanFields):
    """One simulation request: r batches of n rounds from one master seed."""

    __slots__ = ()

    def __new__(cls, factory, n, batches, seed=0, delta=0.1, strategy_name=""):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if batches < 1:
            raise ValueError(f"batches must be >= 1, got {batches}")
        if seed < 0:
            raise ValueError(f"seed: expected non-negative integer, got {seed}")
        if not 0 < delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        return super().__new__(cls, factory, n, batches, seed, delta, strategy_name)


def run_batch(strategy, n: int, seed: int, batch_index: int = 0) -> Transcript:
    """Simulate one batch from ``Stream(seed, batch_index)``, its pairs and
    then the strategy's tape; identical arguments give identical transcripts."""
    stream = Stream(seed, batch_index)
    pairs = [ALL_PAIRS[i] for i in stream.integers(0, 4, size=n, dtype="uint8")]
    if isinstance(strategy, CollectiveStrategy):
        return collective_playout(strategy, pairs)
    return playout(strategy, pairs, stream)


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
        return 4 * np.einsum("ij->i", self.score_counts) / n

    def x(self) -> tuple[np.ndarray, np.ndarray]:
        """Which batches have X_N defined, and X_N of those in batch order.

        Each value is the float of the exact rational.  A batch whose
        denominator may reach 2^51 (by a float estimate of it, good to
        three roundings) is worked out in Python ints.  The pairs are
        worked a column at a time: numpy reduces rows of four slowly.
        """
        pairs = self.pair_counts.T
        has_x = (pairs[0] != 0) & (pairs[1] != 0) & (pairs[2] != 0) & (pairs[3] != 0)
        scores = self.score_counts.compress(has_x, axis=0).T
        totals = self.pair_counts.compress(has_x, axis=0).T
        small = np.multiply(totals[0], totals[1], dtype=np.float64) * totals[2] * totals[3] < _FLOAT_EXACT_DEN / 2
        if small.all():
            num, den = x_ratio(scores, totals)
            return has_x, num / den
        x = np.empty(totals.shape[1])
        num, den = x_ratio(scores[:, small], totals[:, small])
        x[small] = num / den
        big = ~small
        x[big] = [
            num / den
            for num, den in itertools.starmap(x_ratio, zip(scores[:, big].T.tolist(), totals[:, big].T.tolist()))
        ]
        return has_x, x


#: Rows of per-batch CSV text built at once: a 2,000-batch chunk is one
#: slice.  A slice's text is one byte array, a column a row, of
#: ``batch,seed,n,`` and at most 210 B after it (two floats' reprs of up
#: to 23 B and eight counts of up to 19 digits; at n <= 6 about 60 B).  At
#: its peak a slice holds about three times that array: its row-major copy
#: and then the kept bytes, their ``bytes`` and their ``str``.  Its digits
#: come a column at a time, through (rows,) int64 temporaries.
_CSV_SLICE_ROWS = 4096

#: Decimal digits of 0..9999 as ASCII, a row a digit place, thousands
#: first: place p holds each digit 10^p times in turn.  Built in bytes, as
#: int64 arithmetic would hold about 1 MB of temporaries at import.
_DIGITS = np.array([np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), 10 ** p), 10 ** (3 - p)) for p in (3, 2, 1, 0)])
_DIGITS.flags.writeable = False


def _put_digits(field: np.ndarray, values: np.ndarray) -> None:
    """Write the non-negative int64 ``values`` in decimal down the columns of
    ``field``, a (width, rows) byte array as wide as the largest value
    needs: right-aligned, four places a gather from ``_DIGITS``, and
    leading zeros as NUL bytes, which the writer drops."""
    width = len(field)
    for k, end in enumerate(range(width, 0, -4)):
        start = max(0, end - 4)
        group = values // 10 ** (4 * k) % 10_000 if width > 4 else values
        np.take(_DIGITS[4 - (end - start) :], group, axis=1, out=field[start:end])
    for place in range(width - 1):
        field[place] *= values >= 10 ** (width - 1 - place)


def _float_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A NUL-padded (width, 1 + distinct) byte table whose column 0 is
    empty and whose later columns are the distinct floats' reprs, and
    the column of each value."""
    distinct, at = np.unique(values, return_inverse=True)
    table = np.array(["", *map(repr, distinct.tolist())], dtype="S")
    return table.view(np.uint8).reshape(len(table), table.itemsize).T, at + 1


def _csv_bytes(part: Tally, n: int, seed_n: np.ndarray) -> np.ndarray:
    """A slice's CSV text as a (row width, rows) byte array, a column a
    row, NUL where a field is shorter than its column's widest."""
    rows = len(part.score_counts)
    y_text, y_at = _float_texts(part.y(n))
    has_x, x = part.x()
    x_text, x_at = _float_texts(x)
    x_of_row = np.zeros(rows, dtype=np.intp)  # column 0, blank, where X is undefined
    x_of_row[has_x] = x_at
    counts = [*part.score_counts.T, *part.pair_counts.T]
    # Each field is followed by one separator, a comma but the last.
    widths = [len(str(part.first + rows - 1)), len(seed_n), len(y_text), 1, len(x_text)]
    maxima = [*part.score_counts.max(axis=0).tolist(), *part.pair_counts.max(axis=0).tolist()]
    widths += [len(str(value)) for value in maxima]
    ends = list(itertools.accumulate(width + 1 for width in widths))
    text = np.empty((ends[-1], rows), dtype=np.uint8)
    text[[end - 1 for end in ends]] = ord(",")
    text[-1] = ord("\n")
    batch, seed_n_field, y_field, defined, x_field, *count_fields = (
        text[end - 1 - width : end - 1] for width, end in zip(widths, ends)
    )
    _put_digits(batch, np.arange(part.first, part.first + rows))
    seed_n_field[:] = seed_n[:, None]
    np.take(y_text, y_at, axis=1, out=y_field)
    _put_digits(defined, has_x.astype(np.intp))
    np.take(x_text, x_of_row, axis=1, out=x_field)
    for field, values in zip(count_fields, counts):
        _put_digits(field, values)
    return text


def batch_csv_rows(tally: Tally, n: int, seed: int) -> Iterator[str]:
    """The tally's per-batch CSV lines, laid out as ``BATCH_CSV_HEADER``
    names them, as text slices of at most ``_CSV_SLICE_ROWS`` lines.

    A slice is assembled as one byte array and decoded once.  Batch
    numbers and counts are written as digits in numpy, each field as
    wide as its largest value and its leading zeros dropped.  Y and X
    come from :meth:`Tally.y` and :meth:`Tally.x` of the slice, so every
    float is the one the whole tally gives; each distinct value is
    written once, as its ``repr``, and gathered into its rows.
    """
    seed_n = np.frombuffer(f"{seed},{n}".encode(), dtype=np.uint8)
    for lo in range(0, len(tally.score_counts), _CSV_SLICE_ROWS):
        hi = lo + _CSV_SLICE_ROWS
        part = Tally(tally.first + lo, tally.score_counts[lo:hi], tally.pair_counts[lo:hi])
        lines = _csv_bytes(part, n, seed_n).T.ravel()
        yield lines[lines != 0].tobytes().decode("ascii")


# --- per-batch streams, a chunk at a time --------------------------------
#
# Batch i's stream is the PCG64 that Stream(seed, i) steps.  Only the
# spawn-index words differ between batches, and SeedSequence's sequence of
# hash constants does not depend on the data, so the pool is mixed once
# for the seed and then for all of a chunk's indices together in uint32
# arithmetic, by the hashing of :mod:`chshsim.stream`.

#: Words of a batch that one numpy call steps, when a read spans more.
_LANES = 8


def _halves(values) -> np.ndarray:
    """128-bit ints as a (2, len, 1) array of their (hi, lo) uint64 halves."""
    return np.array([[[v >> 64] for v in values], [[v & _M64] for v in values]], dtype=np.uint64)


#: A PCG64 state moves j words on by s -> MULT^j s + inc (1 + MULT + ...
#: + MULT^(j-1)) mod 2^128; row j - 1 holds the halves of MULT^j and the sum.
_MULT_POWERS = _halves([pow(_PCG_MULT, j, 1 << 128) for j in range(1, _LANES + 1)])
_MULT_SUMS = _halves([sum(pow(_PCG_MULT, i, 1 << 128) for i in range(j)) & _M128 for j in range(1, _LANES + 1)])


def _affine(s_hi, s_lo, a_hi, a_lo, c_hi=0, c_lo=0):
    """a s + c mod 2^128 on (hi, lo) uint64 halves broadcast to the states'
    shape, four arrays of it alive at most: a PCG64 step when a is MULT and c
    the increment.  s_lo a_lo's high half sums 32-bit halves' products."""
    a0, a1 = a_lo & _M32, a_lo >> 32
    s0, s1 = s_lo & _M32, s_lo >> 32
    mid = s0 * a0 >> 32
    s0 = s0 * a1
    hi = s1 * a1
    s1 = s1 * a0
    mid += s1
    s0 += np.bitwise_and(mid, _M32, out=s1)
    s0 >>= 32
    mid >>= 32
    hi += mid
    hi += s0
    hi += np.multiply(s_lo, a_hi, out=mid)
    hi += np.multiply(s_hi, a_lo, out=mid)
    lo = np.multiply(s_lo, a_lo, out=mid)
    lo += c_lo
    hi += c_hi
    hi += lo < c_lo
    return hi, lo


def _pcg64_states(seed: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64 states and increments of batches lo..hi-1, as ``Stream(seed, i)``
    sets them: the (hi, lo) uint64 halves of the states, then of the increments."""
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
    return *_affine(s_hi, s_lo, *_MULT_POWERS[:, 0, 0], inc_hi, inc_lo), inc_hi, inc_lo


def _raw_words(n: int, coins: bool, uniforms: bool) -> tuple[int, int]:
    """Where a batch's uniforms start in its uint64 words, and how many words it draws.

    integers(0, 4, n, uint8) takes ceil(n/4) uint32 words, as does the
    coin tape; a uint64 gives two uint32 words, and random() takes whole
    uint64 words after them.
    """
    uint32_words = -(-n // 4) * (2 if coins else 1)
    start = -(-uint32_words // 2)
    return start, start + (n if uniforms else 0)


#: Most raw words per batch that are stepped in numpy, coin words included:
#: the lanes jump over every word up to the last.  In lanes a word costs
#: 18-20 ns a batch, a native read 4.5-5 us a batch at 112-144 words: they
#: break even near 320 words, on a loaded 2-core x86 machine.
_STEP_WORDS = 128

#: Raw words one ``random_raw`` call returns at most.
_RAW_PIECE = 1 << 16


def _lane_width(m: int) -> int:
    return _LANES if m > _LANES else 1


def _lanes(s_hi, s_lo, inc_hi, inc_lo, width: int):
    """Stepped streams' lanes and increment c, (hi, lo) halves of shape
    (width, B) and (1, B), and pos = 0, from the seed states and increments:
    lane j holds the state that outputs a batch's word pos + j.  A jump moves
    every lane ``width`` words on, by a = MULT^width and c = inc (1 + ... +
    MULT^(width-1))."""
    c_hi, c_lo = _affine(inc_hi, inc_lo, *_MULT_SUMS[:, :width]) if width > 1 else (inc_hi[None], inc_lo[None])
    l_hi, l_lo = _affine(s_hi, s_lo, *_MULT_POWERS[:, :width], c_hi, c_lo)
    return l_hi, l_lo, c_hi[width - 1 :].copy(), c_lo[width - 1 :].copy(), 0


def _stepped_words(lanes, first: int, count: int):
    """Every batch's raw words first..first + count - 1, one row per batch,
    and the lanes after them, which carry pos, the word lane 0 holds, not
    past ``first``, and jump only while the next word lies past them.  A
    word is its lane's XSL-RR output (xored halves rotated right by the top
    six bits)."""
    s_hi, s_lo, c_hi, c_lo, pos = lanes
    width = len(s_hi)
    a_hi, a_lo = _MULT_POWERS[:, width - 1, 0]
    block = np.empty((s_hi.shape[1], count), dtype=np.uint64)
    at = first  # the next word to read
    while at < first + count:
        while at >= pos + width:
            s_hi, s_lo = _affine(s_hi, s_lo, a_hi, a_lo, c_hi, c_lo)
            pos += width
        stop = min(first + count, pos + width)
        held = slice(at - pos, stop - pos)
        x = s_hi[held] ^ s_lo[held]
        rot = s_hi[held] >> 58
        block[:, at - first : stop - first] = (x >> rot | x << (-rot & 63)).T
        del x, rot  # freed before the lanes jump
        at = stop
    return block, (s_hi, s_lo, c_hi, c_lo, pos)


def _read_words(states, pair_first: int, pair_count: int, tape_first: int, tape_count: int, native: bool):
    """Every batch's ``pair_count`` raw words from word ``pair_first`` on and
    ``tape_count`` from word ``tape_first`` on, one row per batch, and the
    states the next tile reads from.  Natively, ``states`` holds the (hi,
    lo) uint64 halves of the seed states, then of the increments, handed
    back unmoved; one PCG64 is set to each batch's in turn and advanced to
    the words.  Stepped, they are lanes (see ``_lanes``), and those after
    the pair words are handed on."""
    if native:
        s_hi, s_lo, inc_hi, inc_lo = states
        words = np.empty((len(s_hi), pair_count), dtype=np.uint64)
        tape = np.empty((len(s_hi), tape_count), dtype=np.uint64)
        gap = tape_first - pair_first - pair_count
        bitgen = np.random.PCG64(0)
        halves = zip(s_hi.tolist(), s_lo.tolist(), inc_hi.tolist(), inc_lo.tolist())
        for row, (sh, sl, ih, il) in enumerate(halves):
            state = {"state": sh << 64 | sl, "inc": ih << 64 | il}
            bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
            if pair_first:  # advance(0) is not free
                bitgen.advance(pair_first)
            _fill(bitgen, words[row])
            if tape_count and gap:
                bitgen.advance(gap)
            _fill(bitgen, tape[row])
        return words, tape, states
    words, lanes = _stepped_words(states, pair_first, pair_count)
    return words, _stepped_words(lanes, tape_first, tape_count)[0], lanes


def _pairs(words: np.ndarray, count: int) -> np.ndarray:
    """The pairs of the first ``count`` rounds whose bytes the words hold.

    Numpy's buffered Lemire method never rejects for ranges 4 and 2, so
    a pair is the top two bits of one byte of a uint32 word, low byte
    first: round i of a uint64 word's eight is its bits 8i + 6 and 8i + 7.
    The words are viewed as bytes in a little-endian copy, which puts the
    bytes in that order whatever the host's byte order.
    """
    return (np.ascontiguousarray(words, dtype="<u8").view(np.uint8) >> 6)[:, :count]


def _masked(words: np.ndarray, count: int) -> np.ndarray:
    """The words that hold ``count`` rounds' pair bytes, those past them zeroed in place."""
    words = words[:, : -(-count // 8)]
    if count % 8:
        words[:, -1] &= (1 << 8 * (count % 8)) - 1
    return words


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The words as the integers ``x >> 11`` whose ``random()`` is
    ``(x >> 11) * 2**-53``, shifted in place."""
    words >>= 11
    return words


def _fill(bitgen, words: np.ndarray) -> None:
    """The stream's next raw words, in pieces that bound the copy's temporary."""
    for a in range(0, len(words), _RAW_PIECE):
        words[a : a + _RAW_PIECE] = bitgen.random_raw(min(_RAW_PIECE, len(words) - a))


def _tile_draws(seed: int, lo: int, hi: int, n: int, rounds: int, coins: bool = False, uniforms: bool = False):
    """Setting pairs and uniforms of batches lo..hi-1, one row per batch,
    a tile of ``rounds`` rounds at a time: yields (r0, words, uniforms)
    for rounds r0, r0 + 1, ... of each batch, the words those that hold
    the tile's pair bytes (see ``_pairs``), with the bytes past its last
    round zeroed.  ``rounds`` is a multiple of 8, so that a tile's pair
    bytes start a word, unless it covers n.

    Equal to what ``Stream(seed, i)`` gives batch i: ``integers(0, 4, n,
    uint8)``, then (if ``coins``) an ``integers(0, 2, n, uint8)`` tape,
    which is skipped, then (if ``uniforms``) ``random(n)``, else None.  A
    uniform comes as the uint64 word ``x >> 11``, so kernels compare it
    with integer cut points and no float copy of the tape is made.

    A batch that draws at most ``_STEP_WORDS`` words is stepped in numpy,
    in ``_LANES`` lanes if it draws more, else in one, and the lanes after
    its pair words pass from tile to tile.  A longer stream is drawn
    natively: on every tile each batch's PCG64 is set to its seed state
    and advanced to the tile's words.
    """
    if rounds < n and rounds % 8:
        raise ValueError(f"a tile shorter than n must hold a multiple of 8 rounds, got {rounds}")
    start, m = _raw_words(n, coins, uniforms)
    native = m > _STEP_WORDS
    states = _pcg64_states(seed, lo, hi)
    if not native:
        states = _lanes(*states, _lane_width(m))
    for r0 in range(0, n, rounds):
        r1 = min(r0 + rounds, n)
        tape_count = r1 - r0 if uniforms else 0
        *drawn, states = _read_words(states, r0 // 8, -(-r1 // 8) - r0 // 8, start + r0, tape_count, native)
        words = _masked(drawn.pop(0), r1 - r0)
        # Taken out of ``drawn`` as it is handed on: no name here holds
        # the uniforms while the caller works on them.
        yield r0, words, _uniforms(drawn.pop()) if uniforms else None
        del words  # freed before the next tile is drawn


# --- vectorized scoring kernels -------------------------------------------
#
# A kernel is called as score(scorer, words, width, uniforms, r0, counts)
# and returns a tile's (batches, 4) int64 score counts, each batch's
# rounds on each pair that met their target, and its pair counts, which
# it counts once.  It receives the strategy, or what its ``prepare``
# built from the strategy and n once per plan; the tile's pair words
# (see ``_tile_draws``) and its width in rounds; the uniforms its
# strategy draws (as 53-bit integers); the tile's first round r0; and
# the pair counts of the rounds before the tile (zeros when r0 is 0).
# It keeps nothing between tiles.  Kernels are registered per concrete
# strategy type and must reproduce the general engine's counts exactly;
# the test suite asserts this equivalence.


#: The low bit of every byte of a uint64 word.
_BYTE_BITS = 0x0101010101010101

#: Words whose bytes are summed at once as lanes: a lane then holds at
#: most 31, and a word's eight lanes together at most 248, within a byte.
_LANE_WORDS = 31


def _pair_counts(every, high, low, both, out: np.ndarray) -> np.ndarray:
    """The four pairs' counts, written along the last axis of ``out``, from
    the counts of all rounds and of those whose pair j has its high bit
    (j & 2), its low bit (j & 1) and both, by inclusion and exclusion."""
    np.subtract(low, both, out=out[..., 1])
    np.subtract(high, both, out=out[..., 2])
    out[..., 3] = both
    np.add(out[..., 1], high, out=out[..., 0])
    np.subtract(every, out[..., 0], out=out[..., 0])
    return out


def _byte_sums(part: np.ndarray, bits, group: int) -> np.ndarray:
    """Per row of a slab of words, the sums of their bytes' bit 7 (H), bit
    6 (L) and H ^ L; then, if ``bits`` (bytes of 0 or 1) is given, the
    sums, over the bytes whose bit is set, of H, of H ^ L and of H & ~L,
    and the sum of ``bits``.  The words are shifted once, into two planes
    that are masked in place.  Each group of ``group`` words (at most
    ``_LANE_WORDS``) is summed as lanes, which one multiply adds into the
    top byte; ``einsum`` sums short rows several times faster than
    ``np.add.reduce``."""
    planes = np.empty((2, *part.shape), dtype=np.uint64)
    high, low = planes
    np.right_shift(part, 7, out=high)
    high &= _BYTE_BITS
    np.right_shift(part, 6, out=low)
    low &= _BYTE_BITS
    groups = planes.reshape(2, len(part), -1, group)
    scored = bits is not None
    lanes = np.empty((3 + 4 * scored, *groups.shape[1:3]), dtype=np.uint64)
    np.einsum("...j->...", groups, out=lanes[:2])
    low ^= high
    np.einsum("...j->...", groups[1], out=lanes[2])
    if scored:
        high &= bits
        low &= bits
        np.einsum("...j->...", groups, out=lanes[3:5])
        high &= low
        np.einsum("...j->...", groups[0], out=lanes[5])
        np.einsum("...j->...", bits.reshape(groups.shape[1:]), out=lanes[6])
    lanes *= _BYTE_BITS
    lanes >>= 56
    return np.einsum("...j->...", lanes)


def _word_counts(words: np.ndarray, rounds: int, scored: np.ndarray | None = None):
    """The (B, 4) int64 counts, by pair, of the first ``rounds`` rounds
    whose pair bytes the words hold; with ``scored``, a tile's score
    bytes (see ``_score_bytes``), the counts of the rounds that scored
    and then those of all rounds, from one pass over the words.  The
    words' bytes past the rounds are zero.

    A pair j's high bit (j & 2) is bit 7 of its byte, its low bit (j & 1)
    bit 6.  They are summed a slab of words a call, in two planes that
    hold at most ``_RAW_PIECE`` words together: slabs of whole groups of
    ``_LANE_WORDS`` words, then one of the words past the last group.
    """
    mask = None if scored is None else scored.view("<u8")
    rows, width = words.shape
    whole, cut = width - width % _LANE_WORDS, max(1, _RAW_PIECE // 2 // _LANE_WORDS) * _LANE_WORDS
    edges = sorted({*range(0, whole, cut), whole, width})  # a slab row's words: whole groups, then the rest
    sums = np.zeros((3 if mask is None else 7, rows), dtype=np.uint64)
    for a, b in zip(edges, edges[1:]):
        step = max(1, _RAW_PIECE // 2 // (b - a))  # rows a slab
        for r in range(0, rows, step):
            bits = None if mask is None else mask[r : r + step, a:b]
            sums[:, r : r + step] += _byte_sums(words[r : r + step, a:b], bits, min(b - a, _LANE_WORDS))
    # H & L is counted twice in H + L and never in H ^ L.
    high, low, either, *scores = sums.view(np.int64)
    pairs = _pair_counts(rounds, high, low, (high + low - either) >> 1, np.empty((rows, 4), dtype=np.int64))
    if mask is None:
        return pairs
    # Of the scored rounds: H & L is H less H & ~L, and L is H ^ L less H & ~L and plus H & L.
    high, either, high_only, every = scores
    both = high - high_only
    return _pair_counts(every, high, either - high_only + both, both, np.empty((rows, 4), dtype=np.int64)), pairs


def _score_bytes(words: np.ndarray) -> np.ndarray:
    """Zeroed score bytes for a tile: a byte a round, which a kernel that
    scores round by round sets to 1 where the round scored, in rows
    padded like the pair bytes to whole words; ``_word_counts`` counts them."""
    return np.zeros((len(words), 8 * words.shape[1]), dtype=np.uint8)


#: The one pair the constant assignment misses: every round of ConstantPlus,
#: guessing's round 1 and model101's rounds but the trigger play it.
_MISSED = CONSTANT_PLUS_ASSIGNMENT.hits.index(0)


def _kernel_constant(strategy, words, width, uniforms, r0, counts):
    pairs = _word_counts(words, width)
    scores = pairs.copy()
    scores[:, _MISSED] = 0
    return scores, pairs


#: Rounds of a guessing segment: its count planes start ``_LEAD`` behind
#: the leader, re-based from exact counts, and a plane reads at most
#: 128 + 124 = 252 at the segment's last block, within a byte; past it
#: the planes are read only by their difference from the start, modulo 256.
_LEAD = 128

#: How far behind the leader a pair's gap is told apart: a pair 4 or more
#: behind before a 4-round block cannot lead before any of its rounds.
_GAP_CAP = 4

#: Blocks whose table indices, int64, guessing gathers at once.
_GATHER_BLOCKS = 16


@functools.cache
def _guessing_tables() -> tuple[np.ndarray, ...]:
    """Guessing's block tables F[L], L = 0..4: the failures, by pair, of L
    rounds from a gap state, each pair's in its byte of a little-endian
    uint32 word, at index state 4^L + pairs.

    A state is the pairs' gaps to the leader's count, each capped at
    ``_GAP_CAP``, in base 5, pair j's gap the digit of 5^j; the rounds'
    pairs are in base 4, the first round's the highest digit.  A round
    fails if its pair is the state's first of least gap (only a state
    with no zero gap, which a kernel never builds, leads with a nonzero
    gap).  A round on a pair of zero gap raises the others' gaps, capped;
    on any other pair it lowers that pair's.  The tables compose this
    one-round rule L times.  They are built on first use, once a process
    (about 850 KB), and read only.
    """
    states = _GAP_CAP + 1
    gaps = np.arange(states ** 4)[:, None] // states ** np.arange(4) % states
    first = gaps.argmin(axis=1)
    after = np.empty((len(gaps), 4), dtype=np.intp)
    fails = np.zeros((len(gaps), 4), dtype="<u4")
    for p in range(4):
        leads = gaps[:, p] == 0
        moved = np.where(leads[:, None], np.minimum(gaps + 1, _GAP_CAP), gaps)
        moved[:, p] = np.where(leads, 0, gaps[:, p] - 1)
        after[:, p] = moved @ states ** np.arange(4)
        fails[first == p, p] = 1 << 8 * p
    tables = [np.zeros(len(gaps), dtype="<u4")]
    for _ in range(4):
        # A block's first round, then the rest from the state it leaves.
        table = tables[-1].reshape(len(gaps), -1)[after]
        table += fails[:, :, None]
        tables.append(table.ravel())
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _kernel_guessing(strategy, words, width, uniforms, r0, counts):
    # A round fails when its pair is the most measured so far, the first
    # of tied pairs, but round 1, which plays the constant assignment.
    # A block is a uint32 word's four rounds: its failures are read from
    # the table F[4] (F[L] for a last block of L rounds) at its state, its
    # pairs' gaps to the leader when it starts, and its pairs' index.  The
    # gaps come at once for every block of a segment of ``_LEAD`` rounds,
    # from count planes laid out block, pair, batch: the exact counts at
    # the segment's start, less the leader's and capped at ``_LEAD``,
    # plus prefix sums of each block's pair counts, one B-wide add a block.
    # The planes' last less first, summed over the segments, less a partial
    # last block's padding (read as pair 0), are the tile's pair counts.
    tables = _guessing_tables()
    n_batches = len(words)
    blocks = -(-width // 4)
    # A block's index gathers its four pairs, round i's at bits 6 - 2i
    # and 7 - 2i: one multiply moves the pair bits of the bytes together.
    index = np.ascontiguousarray(words, dtype="<u8").view("<u4")[:, :blocks] >> 6
    index &= 0x03030303
    index *= 0x40100401
    index >>= 24
    keys = np.ascontiguousarray(index.astype(np.uint8).T)
    del index
    span = min(blocks, _LEAD // 4)
    planes = np.empty((span + 1, 4, n_batches), dtype=np.uint8)
    high = np.empty((span, n_batches), dtype=np.uint8)
    top = np.empty((span, n_batches), dtype=np.uint8)
    caps = np.full(n_batches, _GAP_CAP, dtype=np.uint8)
    state = np.empty((span, n_batches), dtype=np.uint16)
    at = np.empty((min(span, _GATHER_BLOCKS), n_batches), dtype=np.intp)
    failed = np.empty(at.shape, dtype="<u4")
    failures = np.zeros((n_batches, 4), dtype=np.int64)
    seen = counts  # the pair counts before the segment
    for b0 in range(0, blocks, span):
        k = min(span, blocks - b0)
        key = keys[b0 : b0 + k]
        # Each pair's count, raised to the leader's less _LEAD, less that
        # floor: worked in a contiguous copy, which numpy casts unbuffered.
        base = seen.T.copy()
        floor = np.maximum(np.maximum(base[0], base[1]), np.maximum(base[2], base[3]))
        floor -= _LEAD
        np.maximum(base, floor, out=base)
        base -= floor
        planes[0] = base
        # Each block's pair counts, from its index's high and low bits.
        plane = planes[1 : k + 1]
        both, low = plane[:, 3], top[:k]
        np.right_shift(key, 1, out=high[:k])
        high[:k] &= 0x55
        np.bitwise_and(key, 0x55, out=low)
        np.bitwise_count(np.bitwise_and(high[:k], low, out=both), out=both)
        np.bitwise_count(high[:k], out=high[:k])
        np.bitwise_count(low, out=low)
        _pair_counts(4, high[:k], low, both, plane.transpose(0, 2, 1))
        for i in range(k):
            planes[i + 1] += planes[i]
        # The leader's plane, then the state of every block, pair 3's gap first.
        starts = planes[:k]  # the counts before each block
        np.maximum(starts[:, 0], starts[:, 1], out=top[:k])
        np.maximum(top[:k], starts[:, 2], out=top[:k])
        np.maximum(top[:k], starts[:, 3], out=top[:k])
        for j in (3, 2, 1, 0):
            gap = np.subtract(top[:k], starts[:, j], out=high[:k])
            np.minimum(gap, caps, out=gap)
            if j == 3:
                state[:k] = gap
            else:
                state[:k] *= _GAP_CAP + 1
                state[:k] += gap
        # Each block's failures, at most 4 a pair, summed in byte lanes.
        full = k - (b0 + k == blocks and width % 4 > 0)
        lanes = np.zeros(n_batches, dtype="<u4")
        for g0 in range(0, full, len(at)):
            g = min(len(at), full - g0)
            np.left_shift(state[g0 : g0 + g], 8, out=at[:g], dtype=np.intp)
            at[:g] |= key[g0 : g0 + g]
            lanes += np.add.reduce(np.take(tables[4], at[:g], out=failed[:g], mode="clip"), axis=0, dtype="<u4")
        if full < k:
            rounds = width % 4
            lanes += tables[rounds][(state[full].astype(np.intp) << 2 * rounds) | key[full] >> 8 - 2 * rounds]
        failures += lanes.view(np.uint8).reshape(n_batches, 4)
        seen = seen + (planes[k] - planes[0]).T  # at most _LEAD each: exact modulo 256
    pairs = seen - counts
    pairs[:, 0] -= 4 * blocks - width
    if r0 == 0:
        first = (words[:, 0] >> 6 & 3).astype(np.intp)  # round 1's pair
        failures[:, 0] -= first == 0
        failures[:, _MISSED] += first == _MISSED
    return pairs - failures, pairs


#: The round after the pair counts that trigger model101, counted from 0.
_MODEL_101_ROUND = sum(MODEL_101_TRIGGER_COUNTS)

#: What model101's trigger rule adds to the constant assignment's hits, by pair.
_TRIGGER_CHANGE = np.array(MODEL_101_TRIGGER_ASSIGNMENT.hits, dtype=np.int64) - np.not_equal(np.arange(4), _MISSED)


def _kernel_model101(strategy, words, width, uniforms, r0, counts):
    # The constant assignment's counts, and the tile holding round
    # _MODEL_101_ROUND adds to the counts it receives those of its rounds
    # before it, its head, and plays the trigger rule where they match.
    scores, pairs = _kernel_constant(strategy, words, width, uniforms, r0, counts)
    k = _MODEL_101_ROUND - r0  # the trigger round in this tile
    if 0 <= k < width:
        head = _word_counts(_masked(words[:, : -(-k // 8)].copy(), k), k)
        triggered = np.flatnonzero((counts + head == MODEL_101_TRIGGER_COUNTS).all(axis=1))
        if len(triggered):
            played = (words[triggered, k // 8] >> 8 * (k % 8) + 6 & 3).astype(np.intp)
            scores[triggered, played] += _TRIGGER_CHANGE[played]
    return scores, pairs


#: A uniform u = (x >> 11) 2^-53 is below p iff x >> 11 is below p 2^53,
#: an integer: p lies in [1/2, 1), where float64 steps are 2^-53.
_QUANTUM_CUT = int(QUANTUM_SCORE_PROBABILITY * 2 ** 53)


def _kernel_quantum(strategy, words, width, uniforms, r0, counts):
    # Alice's coin tape comes before the uniforms; scores don't use it.
    scored = _score_bytes(words)
    np.less(uniforms, _QUANTUM_CUT, out=scored[:, :width])
    return _word_counts(words, width, scored)


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


def _kernel_stochastic(tables, words, width, uniforms, r0, counts):
    cuts, table = tables
    picks = np.searchsorted(cuts, uniforms, side="right")
    np.minimum(picks, len(cuts) - 1, out=picks)
    picks *= 4
    picks += _pairs(words, width)
    hits = table[picks]
    del picks
    scored = _score_bytes(words)
    scored[:, :width] = hits
    return _word_counts(words, width, scored)


def _kernel_collective(table, words, width, uniforms, r0, counts):
    # A batch's row of the table is its pairs read as a base-4 number.
    scored = _score_bytes(words)
    scored[:, :width] = table[_pairs(words, width) @ 4 ** np.arange(width - 1, -1, -1)]
    return _word_counts(words, width, scored)


class _Kernel(NamedTuple):
    score: Callable
    coins: bool = False  # the strategy draws an n-coin tape after the pairs
    uniforms: bool = False  # ... and then n uniforms, which it scores with
    round_bytes: int = 1  # bytes per round alive at once while a tile is drawn and scored
    batch_bytes: int = 0  # ... and per batch, taken by the score for a tile beside what it is handed
    prepare: Callable | None = None  # (strategy, n) -> what ``score`` receives instead


_KERNELS = {
    ConstantPlus: _Kernel(_kernel_constant, round_bytes=3),
    GuessingModel: _Kernel(_kernel_guessing, round_bytes=3, batch_bytes=640),
    Model101: _Kernel(_kernel_model101, round_bytes=4, batch_bytes=32),
    QuantumSingletSampler: _Kernel(_kernel_quantum, coins=True, uniforms=True, round_bytes=12),
    StochasticSequential: _Kernel(_kernel_stochastic, uniforms=True, round_bytes=20, prepare=_stochastic_tables),
    CollectiveN2: _Kernel(_kernel_collective, round_bytes=12, batch_bytes=8, prepare=collective_scores),
}

#: Bytes of working arrays one chunk may take; it holds at least one
#: batch whatever n is, and one batch too long for it is drawn, scored
#: and tallied a tile of rounds at a time.  Outside it, the first native
#: stream of a process imports numpy.random, 0.74 MiB of Python objects.
_CHUNK_BYTES = 8 << 20

#: Rounds per tile of a chunk whose streams are stepped in numpy: a
#: multiple of 8, and more than the 10 rounds the work budget admits for
#: ``collective_scores``, so the collective kernel, which reads whole runs, gets them.
_TILE_ROUNDS = 128

#: A batch's bytes in its chunk's tally: the score and pair counts a
#: kernel chunk keeps, hands its kernel and gets back for a tile, and the
#: aggregation's per-batch arrays, which a general-engine chunk holds
#: alone.  The CSV sink's arrays span one slice of ``_CSV_SLICE_ROWS``
#: rows, not the chunk: about three copies of its text, each at most
#: 210 B a row past ``batch,seed,n,``.
_TALLY_ROW_BYTES = 256

#: The peak of a kernel chunk's PCG64 seeding per batch, about 250 B of
#: numpy words under tracemalloc.  It ends before the first tile is drawn.
_SEED_ROW_BYTES = 256

#: A stepped chunk's stream bytes per batch and lane: its (hi, lo) halves,
#: and while the lanes jump the lane it becomes and four temporaries; 16 B
#: of increment besides (native: 32 B of states and increments).
_STATE_ROW_BYTES = 64


def _row_bytes(rounds: int, kernel: _Kernel, n: int | None = None) -> int:
    """One batch's share of a kernel chunk of n-round batches (n = ``rounds``
    by default) whose tiles hold ``rounds`` rounds: what is alive at once
    at the chunk's peak, which is either the seeding or a tile.  A tile's
    arrays are counted per round, padded like the pair bytes to whole words.

    Every tile holds its pair words, 1 B a round, while the kernel
    scores it, and every kernel but guessing's counts its pairs with
    ``_word_counts``: in two uint64 planes, 2 B a round (at most
    ``_RAW_PIECE`` words together), and sums and counts (128 B).  That is
    the constant kernel's peak.  Model101 counts its trigger tile's head
    from a copy of its words (1 B a round) and matches it (32 B a
    batch).  The guessing kernel builds its blocks' indices in a uint32
    word a block before it keeps them in a byte a block (2.25 B a round
    with the words), and then holds a segment's buffers, at most 640 B
    a batch: its count planes (33 x 4 B), three byte planes (96 B), its
    states (64 B), ``_GATHER_BLOCKS`` int64 indices and uint32 failures
    (192 B), its failure counts, the exact counts and their re-basing
    (about 170 B).  Its tables, about 850 KB a process, are outside the
    budget.  The quantum kernel holds its uniforms (8 B a round), the pair
    words and its score bytes; the mixture its uniforms, its int64
    assignment picks, the pair words and pairs; the collective kernel an
    int64 copy of its pairs beside the words and pairs.  The tally's
    share holds the (B, 4) counts the engine keeps and hands on, and the
    streams' share, by the lanes a stepped batch keeps, is counted beside
    all of these.
    """
    m = _raw_words(rounds if n is None else n, kernel.coins, kernel.uniforms)[1]
    streams = 32 if m > _STEP_WORDS else _STATE_ROW_BYTES * _lane_width(m) + 16
    tile = streams + 128 + kernel.batch_bytes + kernel.round_bytes * 8 * -(-rounds // 8)
    return _TALLY_ROW_BYTES + max(_SEED_ROW_BYTES, tile)


def _chunk_shape(n: int, kernel: _Kernel) -> tuple[int, int]:
    """Batches per chunk and rounds per tile, so that a chunk's working
    arrays fit ``_CHUNK_BYTES``.

    Streams stepped in numpy pass from tile to tile at no cost, so
    their tiles hold ``_TILE_ROUNDS`` rounds, and their chunks as many
    batches as fit at that length.  Native streams would be set again
    for each tile, so their tiles hold whole batches, unless one batch
    alone does not fit: then it runs alone, in the longest tiles that do.
    """
    m = _raw_words(n, kernel.coins, kernel.uniforms)[1]
    if m <= _STEP_WORDS:
        rounds = min(n, _TILE_ROUNDS)
        return max(1, _CHUNK_BYTES // _row_bytes(rounds, kernel, n)), rounds
    # Each batch's words are read beside a ``random_raw`` piece of them.
    spare = _CHUNK_BYTES - 8 * min(_RAW_PIECE, m)
    rows = spare // _row_bytes(n, kernel)
    if rows > 0:
        return rows, n
    return 1, max(8, (spare - _row_bytes(0, kernel, n)) // (8 * kernel.round_bytes) * 8)


def _find_kernel(strategy):
    return _KERNELS.get(type(strategy))


def _kernel_tally(kernel: _Kernel, scorer, n: int, seed: int, lo: int, hi: int, rounds: int) -> Tally:
    """The tally of batches lo..hi-1, summed over tiles of ``rounds`` rounds."""
    for r0, words, uniforms in _tile_draws(seed, lo, hi, n, rounds, kernel.coins, kernel.uniforms):
        if r0 == 0:  # once the seeding's peak is over
            counts = np.zeros((2, hi - lo, 4), dtype=np.int64)  # score and pair counts of the tiles before
        counts += kernel.score(scorer, words, min(rounds, n - r0), uniforms, r0, counts[1])
        del words, uniforms  # freed before the next tile is drawn
    return Tally(lo, *counts)


def _general_tally(strategy, n: int, seed: int, lo: int, hi: int) -> Tally:
    score_counts = np.empty((hi - lo, 4), dtype=np.int64)
    pair_counts = np.empty((hi - lo, 4), dtype=np.int64)
    for row, i in enumerate(range(lo, hi)):
        score_counts[row], pair_counts[row] = pair_tallies(run_batch(strategy, n, seed, i))
    return Tally(lo, score_counts, pair_counts)


def _iter_tallies(plan: SimulationPlan) -> Iterator[Tally]:
    """Tallies of all batches in batch order, one per chunk, via kernel or general engine."""
    strategy = plan.factory()
    n, batches, seed = plan.n, plan.batches, plan.seed
    kernel = _find_kernel(strategy)

    if kernel is None:
        rows = max(1, _CHUNK_BYTES // _TALLY_ROW_BYTES)
        for lo in range(0, batches, rows):
            yield _general_tally(strategy, n, seed, lo, min(lo + rows, batches))
        return

    scorer = strategy if kernel.prepare is None else kernel.prepare(strategy, n)
    rows, rounds = _chunk_shape(n, kernel)
    for lo in range(0, batches, rows):
        yield _kernel_tally(kernel, scorer, n, seed, lo, min(lo + rows, batches), rounds)


def iter_batch_counts(plan: SimulationPlan) -> Iterable[BatchCounts]:
    """Per-batch tallies in batch order, via kernel or general engine: the
    chunk tallies one batch at a time."""
    for tally in _iter_tallies(plan):
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


class EstimateReport(NamedTuple):
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


class TailComparison(NamedTuple):
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

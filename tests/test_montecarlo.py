"""Tests for the Monte Carlo machinery: streams, kernels, aggregation."""

import csv
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs
from hypothesis.extra import numpy as hnp

import oracles
from general_engine import bincounts, general_batch_counts, kernel_counts, pair_words, whole_run_counts
from guessing_last_tie import GuessingLastTie
from chshsim import montecarlo
from chshsim.core import ALL_PAIRS
from chshsim.enumerator import exact_expectations, playout
from chshsim.montecarlo import (
    BATCH_CSV_HEADER,
    BatchCounts,
    SimulationPlan,
    Tally,
    batch_csv_rows,
    batch_x,
    compare_tails,
    estimate,
    iter_batch_counts,
    run_batch,
    wilson_interval,
)
from chshsim.montecarlo import (
    _chunk_shape,
    _find_kernel,
    _kernel_guessing,
    _kernel_model101,
    _row_bytes,
    _se_y,
    _tile_draws,
)
from chshsim.stats import round_score, y_statistic
from chshsim.strategies import (
    QUANTUM_SCORE_PROBABILITY,
    REGISTRY,
    CollectiveN2,
    ConstantPlus,
    DeterministicAssignment,
    Model101,
    StochasticLHV,
    collective_n2,
    constant_plus,
    from_stochastic,
    guessing_model,
    model_101,
    quantum_singlet_sampler,
)

MIXTURE = StochasticLHV(
    (
        (Fraction(1, 4), DeterministicAssignment(1, 1, 1, 1)),
        (Fraction(1, 4), DeterministicAssignment(1, -1, -1, 1)),
        (Fraction(1, 2), DeterministicAssignment(-1, -1, -1, -1)),
    )
)

FACTORIES = {
    "constant-plus": constant_plus,
    "guessing": guessing_model,
    "model101": model_101,
    "quantum": quantum_singlet_sampler,
    "stochastic-lhv": lambda: from_stochastic(MIXTURE),
}


def test_plan_validation():
    with pytest.raises(ValueError):
        SimulationPlan(factory=constant_plus, n=0, batches=10)
    with pytest.raises(ValueError):
        SimulationPlan(factory=constant_plus, n=10, batches=0)
    with pytest.raises(ValueError):
        SimulationPlan(factory=constant_plus, n=10, batches=10, delta=0.0)


def test_run_batch_deterministic():
    t1 = run_batch(constant_plus(), 80, seed=9)
    t2 = run_batch(constant_plus(), 80, seed=9)
    assert t1 == t2
    assert run_batch(constant_plus(), 80, seed=10) != t1
    assert run_batch(constant_plus(), 80, seed=9, batch_index=1) != t1


def test_run_batch_constant_outcomes():
    t = run_batch(constant_plus(), 200, seed=4)
    assert all(r.a == 1 and r.b == 1 for r in t.rounds)
    scoring = sum(1 for r in t.rounds if r.pair != ALL_PAIRS[3])
    assert y_statistic(t) == Fraction(4 * scoring, 200)


def test_run_batch_settings_uniform_ish():
    t = run_batch(constant_plus(), 8000, seed=123)
    freqs = [sum(1 for r in t.rounds if r.pair.index == i) / 8000 for i in range(4)]
    for f in freqs:
        assert abs(f - 0.25) < 0.025


def numpy_replay(strategy, n, seed, index):
    """Batch ``index`` played from numpy's own per-batch Generator: its
    pairs, then the strategy's tape, as ``run_batch`` draws them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    pairs = [ALL_PAIRS[i] for i in rng.integers(0, 4, size=n, dtype=np.uint8)]
    return playout(strategy, pairs, rng)


@pytest.mark.parametrize("index", [0, 5, 2 ** 32 + 1])
@pytest.mark.parametrize("name", sorted(FACTORIES) + ["guessing-last-tie"])
def test_run_batch_equals_a_replay_on_numpy_generators(name, index):
    factory = FACTORIES.get(name, GuessingLastTie)
    # The pairs of n = 41 take 11 uint32 words, so a tape starts on the
    # high half of the pairs' last uint64 word.
    for n in (1, 41, 300):
        for seed in (0, 2 ** 128 + 3):
            assert run_batch(factory(), n, seed, index) == numpy_replay(factory(), n, seed, index), (n, seed)


@pytest.mark.parametrize("index, error", [(-1, ValueError), (3.0, TypeError)])
def test_run_batch_refuses_a_batch_index_seed_sequence_refuses(index, error):
    with pytest.raises(error):
        run_batch(constant_plus(), 5, seed=0, batch_index=index)


# The first n at which each strategy's streams are drawn natively: the
# quantum kernel's from 103 rounds, the mixture's from 114, and those of
# the kernels that draw only pairs from 1025.
NATIVE_NS = {"quantum": 103, "stochastic-lhv": 114, "constant-plus": 1025, "guessing": 1025, "model101": 1025}


@pytest.mark.parametrize(
    "name, n, batches",
    [pytest.param(name, 37, 50, id=name) for name in sorted(FACTORIES)]
    + [pytest.param(name, n, 4, id=f"{name}-{n}") for name, n in sorted(NATIVE_NS.items())],
)
def test_kernel_matches_general_engine(name, n, batches):
    factory = FACTORIES[name]
    kernel = _find_kernel(factory())

    def native(rounds):
        return montecarlo._raw_words(rounds, kernel.coins, kernel.uniforms)[1] > montecarlo._STEP_WORDS

    assert native(n) == (n == NATIVE_NS[name]) and not native(NATIVE_NS[name] - 1)
    plan = SimulationPlan(factory=factory, n=n, batches=batches, seed=5, strategy_name=name)
    fast = list(iter_batch_counts(plan))
    slow = general_batch_counts(plan)
    assert fast == slow


def chunk_draws(seed, lo, hi, n, coins=False, uniforms=False, rounds=None):
    """Pairs and uniforms of batches lo..hi-1, their tiles of ``rounds``
    rounds (whole batches by default) joined along the rounds."""
    tiles = list(_tile_draws(seed, lo, hi, n, rounds or n, coins, uniforms))
    assert [r0 for r0, _, _ in tiles] == list(range(0, n, rounds or n))
    widths = [min(rounds or n, n - r0) for r0, _, _ in tiles]
    pairs = np.concatenate([montecarlo._pairs(words, w) for (_, words, _), w in zip(tiles, widths)], axis=1)
    return pairs, np.concatenate([tape for _, _, tape in tiles], axis=1) if uniforms else None


def numpy_batch_draws(seed, index, n, coins):
    """Batch ``index``'s pairs, coin tape (if ``coins``) and uniforms, from numpy's own Generator."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    pairs = rng.integers(0, 4, n, np.uint8)
    coin_tape = rng.integers(0, 2, n, np.uint8) if coins else None
    return pairs, coin_tape, rng.random(n)


# Windows of batch indices: (base, offset, width); indices from 2^32 on
# take a second spawn-key word, and one window straddles 2^32.
INDEX_WINDOWS = hs.tuples(
    hs.sampled_from((0, 2 ** 32 - 3, 2 ** 32, 2 ** 40 + 7, 2 ** 63)),
    hs.integers(0, 50),
    hs.integers(1, 4),
)


# Seeds from 2^128 on have more than four uint32 words, which SeedSequence
# mixes in after its pool; Hypothesis rarely draws them from [0, 2^200).
SEEDS = hs.one_of(hs.integers(0, 2 ** 128 - 1), hs.integers(2 ** 128, 2 ** 200 - 1))


# Up to n = 1,024 a pair-only stream is stepped, in lanes carried from
# tile to tile; tiles of 128 and 136 rounds read 16 and 17 words, and a
# tile is read in whole lane widths and a remainder of any width.
@settings(max_examples=80, deadline=None)
@given(
    seed=SEEDS,
    n=hs.integers(1, 1100),
    window=INDEX_WINDOWS,
    rounds=hs.sampled_from((None, 8, 16, 24, 64, 128, 136)),
)
def test_chunk_draws_equal_numpy_per_batch_generators(seed, n, window, rounds):
    base, offset, width = window
    lo = base + offset
    hi = lo + width
    pairs, none = chunk_draws(seed, lo, hi, n, rounds=rounds)
    quantum_pairs, after_coins = chunk_draws(seed, lo, hi, n, coins=True, uniforms=True, rounds=rounds)
    stochastic_pairs, after_pairs = chunk_draws(seed, lo, hi, n, uniforms=True, rounds=rounds)
    # The coin tape is skipped, not returned.  Its bytes are the ceil(n/4)
    # uint32 words after the pairs' and a coin is a byte's top bit, so
    # reading pairs at a longer n exposes the coins as pair >> 1.
    pad = 4 * -(-n // 4)
    longer, _ = chunk_draws(seed, lo, hi, pad + n, rounds=rounds)
    assert none is None
    for row, index in enumerate(range(lo, hi)):
        want_pairs, want_coins, want_uniforms = numpy_batch_draws(seed, index, n, coins=True)
        _, _, want_uniforms_after_pairs = numpy_batch_draws(seed, index, n, coins=False)
        assert np.array_equal(pairs[row], want_pairs)
        assert np.array_equal(quantum_pairs[row], want_pairs)
        assert np.array_equal(stochastic_pairs[row], want_pairs)
        assert np.array_equal(longer[row, pad:] >> 1, want_coins)
        # Uniforms come as the 53-bit integers that random() scales by 2^-53.
        assert np.array_equal(after_coins[row] * 2.0 ** -53, want_uniforms)
        assert np.array_equal(after_pairs[row] * 2.0 ** -53, want_uniforms_after_pairs)


def test_negative_seed_is_rejected_on_both_engines():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        SimulationPlan(factory=quantum_singlet_sampler, n=5, batches=3, seed=-1)
    # A plan that skipped its own validation (``_replace`` does not run
    # ``__new__``) still reaches each engine's.
    plan = SimulationPlan(factory=quantum_singlet_sampler, n=5, batches=3, seed=0)._replace(seed=-1)
    assert plan.seed == -1
    for engine in (iter_batch_counts, general_batch_counts):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            list(engine(plan))


def native_reserve(n, kernel):
    """What ``_chunk_shape`` sets aside of a native chunk's budget for its
    ``random_raw`` piece; 0 on stepped streams."""
    m = montecarlo._raw_words(n, kernel.coins, kernel.uniforms)[1]
    return 8 * min(montecarlo._RAW_PIECE, m) if m > montecarlo._STEP_WORDS else 0


@settings(max_examples=40, deadline=None)
@given(
    name=hs.sampled_from(sorted(FACTORIES)),
    n=hs.integers(1, 120),
    seed=hs.integers(0, 2 ** 70),
    batches=hs.integers(2, 12),
    tile=hs.sampled_from((8, 16, 40, 128)),
    data=hs.data(),
)
def test_kernel_matches_general_engine_across_chunks(name, n, seed, batches, tile, data):
    factory = FACTORIES[name]
    kernel = _find_kernel(factory())
    plan = SimulationPlan(factory=factory, n=n, batches=batches, seed=seed)
    rows = data.draw(hs.integers(1, batches - 1), label="rows per chunk")
    # Streams stepped in numpy are read a tile at a time; native ones,
    # which the quantum and mixture kernels draw from n = 103 and 114
    # on, a whole batch at a time while one fits the budget.
    native = montecarlo._raw_words(n, kernel.coins, kernel.uniforms)[1] > montecarlo._STEP_WORDS
    rounds = n if native else min(n, tile)
    tiles = []
    tile_draws = montecarlo._tile_draws

    def recording_draws(seed, lo, hi, n, rounds, *args):
        for r0, words, uniforms in tile_draws(seed, lo, hi, n, rounds, *args):
            tiles.append((lo, hi, r0, r0 // 8 + words.shape[1]))
            yield r0, words, uniforms

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_TILE_ROUNDS", tile)
        mp.setattr(montecarlo, "_CHUNK_BYTES", rows * _row_bytes(rounds, kernel, n) + native_reserve(n, kernel))
        mp.setattr(montecarlo, "_tile_draws", recording_draws)
        fast = list(iter_batch_counts(plan))
    assert tiles == [
        (lo, min(lo + rows, batches), r0, -(-min(r0 + rounds, n) // 8))
        for lo in range(0, batches, rows)
        for r0 in range(0, n, rounds)
    ]
    assert fast == general_batch_counts(plan)


def run_outputs(plan):
    """A run's per-batch counts in batch order, its report and its per-batch CSV text."""
    tallies = []
    report = estimate(plan, batch_sink=tallies.append)
    text = "".join(line for tally in tallies for line in batch_csv_rows(tally, plan.n, plan.seed))
    sizes = [len(tally.pair_counts) for tally in tallies]
    assert [tally.first for tally in tallies] == [sum(sizes[:i]) for i in range(len(sizes))]
    scores = np.concatenate([tally.score_counts for tally in tallies])
    totals = np.concatenate([tally.pair_counts for tally in tallies])
    return scores.tolist(), totals.tolist(), report, text


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in sorted(FACTORIES) for n in (9, 101, 150, 1000, 1025)] + [("collective-n2", 2)],
)
def test_tiled_runs_equal_untiled_runs(name, n, monkeypatch):
    factory = FACTORIES.get(name, REGISTRY.get(name))
    kernel = _find_kernel(factory())
    plan = SimulationPlan(factory=factory, n=n, batches=7, seed=2 ** 70 + 9, strategy_name=name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_TILE_ROUNDS", 2 ** 40)
        budget = montecarlo._CHUNK_BYTES - native_reserve(n, kernel)
        assert _chunk_shape(n, kernel) == (max(1, budget // _row_bytes(n, kernel)), n)
        whole = run_outputs(plan)
    # 8-round tiles where the streams are stepped in numpy.  Native
    # streams get the budget of one 40-round batch, which holds none of
    # their whole batches, so each batch runs alone, in tiles of 8 to 64 rounds.
    monkeypatch.setattr(montecarlo, "_TILE_ROUNDS", 8)
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", _row_bytes(40, kernel))
    _, rounds = _chunk_shape(n, kernel)
    assert rounds < n or name == "collective-n2"
    assert run_outputs(plan) == whole


def test_raw_words_drawn_in_pieces_equal_numpy_per_batch_generators(monkeypatch):
    monkeypatch.setattr(montecarlo, "_RAW_PIECE", 5)
    n = 150
    assert montecarlo._raw_words(n, True, True)[1] > montecarlo._STEP_WORDS  # the native path
    pairs, uniforms = chunk_draws(11, 4, 7, n, coins=True, uniforms=True)
    for row, index in enumerate(range(4, 7)):
        want_pairs, _, want_uniforms = numpy_batch_draws(11, index, n, coins=True)
        assert np.array_equal(pairs[row], want_pairs)
        assert np.array_equal(uniforms[row] * 2.0 ** -53, want_uniforms)


@pytest.mark.parametrize("coins, uniforms", [(False, False), (True, True), (False, True)])
def test_chunk_draws_equal_numpy_on_both_sides_of_the_step_threshold(coins, uniforms):
    # Every n whose batch draws _STEP_WORDS - 1, _STEP_WORDS or _STEP_WORDS + 1
    # raw words: those up to _STEP_WORDS are stepped in numpy, the rest native.
    step = montecarlo._STEP_WORDS
    words = {n: montecarlo._raw_words(n, coins, uniforms)[1] for n in range(1, 8 * step + 9)}
    ns = [n for n, m in words.items() if step - 1 <= m <= step + 1]
    assert {words[n] for n in ns} >= {step, step + 1}
    seed, lo, hi = 2 ** 100 + 7, 2 ** 32 - 2, 2 ** 32 + 1
    for n in ns:
        for rounds in (None, 16, 40):
            pairs, tape = chunk_draws(seed, lo, hi, n, coins, uniforms, rounds)
            assert (tape is None) == (not uniforms)
            for row, index in enumerate(range(lo, hi)):
                want_pairs, _, want_uniforms = numpy_batch_draws(seed, index, n, coins)
                assert np.array_equal(pairs[row], want_pairs)
                if uniforms:
                    assert np.array_equal(tape[row] * 2.0 ** -53, want_uniforms)


@pytest.mark.parametrize(
    "name, n",
    [("constant-plus", 1000), ("guessing", 1024), ("quantum", 100), ("stochastic-lhv", 100)]
    + [("quantum", 6), ("stochastic-lhv", 6)]
    + [("model101", n) for n in range(1, 7)],
)
def test_stepped_chunk_jumps_its_lanes_only_to_the_words_it_reads(name, n, monkeypatch):
    # A chunk that reads words 0..m-1 of every batch, its coin words
    # jumped over, moves its lanes of width W ceil(m/W) - 1 times, each
    # jump all W lanes, and none after its last word.  Seeding and lane
    # building are not counted.
    kernel = _find_kernel(FACTORIES[name]())
    m = montecarlo._raw_words(n, kernel.coins, kernel.uniforms)[1]
    assert m <= montecarlo._STEP_WORDS
    width = montecarlo._LANES if m > montecarlo._LANES else 1
    jumps = []
    affine, lanes = montecarlo._affine, montecarlo._lanes

    def counted_affine(s_hi, *args):
        jumps.append(s_hi.shape)
        return affine(s_hi, *args)

    def built_lanes(*args):
        built = lanes(*args)
        jumps.clear()
        return built

    monkeypatch.setattr(montecarlo, "_affine", counted_affine)
    monkeypatch.setattr(montecarlo, "_lanes", built_lanes)
    batches = 5
    _, rounds = _chunk_shape(n, kernel)
    for _ in _tile_draws(11, 0, batches, n, rounds, kernel.coins, kernel.uniforms):
        pass
    assert jumps == [(width, batches)] * (-(-m // width) - 1)


@pytest.mark.parametrize("n, rounds", [(30, 12), (30, 1), (9, 4), (1000, 129)])
def test_tiles_shorter_than_n_must_hold_whole_words_of_pairs(n, rounds):
    # A tile's pair bytes must start a word; a tile as long as n or longer is the whole run.
    with pytest.raises(ValueError, match="multiple of 8 rounds"):
        next(_tile_draws(5, 0, 2, n, rounds))
    for whole in (n, n + 3):
        ((r0, words, _),) = _tile_draws(5, 0, 2, n, whole)
        assert r0 == 0 and words.shape == (2, -(-n // 8))


@pytest.mark.parametrize("coins, uniforms", list(itertools.product((False, True), repeat=2)))
def test_chunk_draws_do_not_depend_on_the_byte_order_of_the_words(coins, uniforms, monkeypatch):
    # The same word values stored big-endian must give the same pair bytes.
    seed, lo, hi = 2 ** 80 + 5, 3, 7
    native = {n: chunk_draws(seed, lo, hi, n, coins, uniforms) for n in (1, 7, 9, 64, 300)}
    as_pairs, as_uniforms = montecarlo._pairs, montecarlo._uniforms
    monkeypatch.setattr(montecarlo, "_pairs", lambda words, count: as_pairs(words.astype(">u8"), count))
    monkeypatch.setattr(montecarlo, "_uniforms", lambda words: as_uniforms(words.astype(">u8")))
    for n, (want_pairs, want_tape) in native.items():
        pairs, tape = chunk_draws(seed, lo, hi, n, coins, uniforms)
        assert np.array_equal(pairs, want_pairs)
        assert (tape is None) == (want_tape is None)
        if uniforms:
            assert np.array_equal(tape, want_tape)


# Round counts on both sides of a byte and of a 64-bit word, so that
# the zeros padding a packed row's last byte and word are exercised, in
# tiles of streams stepped in numpy and in native whole-batch tiles
# (1025 and 1031 rounds, one and seven rounds past 16 words).
TALLY_NS = (1, 7, 8, 9, 63, 64, 65, 1000, 1025, 1031)


def kernel_tally_of_scores(monkeypatch, n, seed, scores):
    """The kernel path's one-chunk tally when its round scores are
    ``scores``, counted as the kernels that score round by round count
    them, and the batches' pairs from numpy's own per-batch Generators."""
    kernel = montecarlo._KERNELS[ConstantPlus]
    _, rounds = _chunk_shape(n, kernel)

    def fixed_scores(scorer, words, width, uniforms, r0, counts):
        assert width == min(n - r0, rounds) and words.shape == (len(scores), -(-width // 8))
        scored = montecarlo._score_bytes(words)
        scored[:, :width] = scores[:, r0 : r0 + width]
        return montecarlo._word_counts(words, scored), montecarlo._word_counts(words, width)

    monkeypatch.setitem(montecarlo._KERNELS, ConstantPlus, kernel._replace(score=fixed_scores))
    plan = SimulationPlan(factory=constant_plus, n=n, batches=len(scores), seed=seed)
    (tally,) = montecarlo._iter_tallies(plan)
    pairs = np.array([numpy_batch_draws(seed, i, n, coins=False)[0] for i in range(len(scores))])
    return tally, pairs


def tallied(pairs, scores):
    """Each row's count of its scored rounds on every pair, from round scores."""
    return np.array([np.bincount(row[hit], minlength=4) for row, hit in zip(pairs, scores)], dtype=np.int64)


def assert_tally_equals_bincounts(tally, pairs, scores):
    n = pairs.shape[1]
    assert tally.first == 0
    assert np.array_equal(tally.pair_counts, bincounts(pairs))
    assert np.array_equal(tally.score_counts, tallied(pairs, scores))
    assert (tally.pair_counts.sum(axis=1) == n).all()
    assert (tally.score_counts <= tally.pair_counts).all()


@pytest.mark.parametrize("n", TALLY_NS)
@pytest.mark.parametrize("fill", [True, False])
def test_kernel_tally_of_constant_scores_equals_bincounts(n, fill, monkeypatch):
    scores = np.full((5, n), fill)
    tally, pairs = kernel_tally_of_scores(monkeypatch, n, 2 ** 80 + 5, scores)
    assert_tally_equals_bincounts(tally, pairs, scores)


@settings(max_examples=40, deadline=None)
@given(
    n=hs.sampled_from(TALLY_NS),
    batches=hs.integers(1, 4),
    seed=hs.integers(0, 2 ** 70),
    data=hs.data(),
)
def test_kernel_tally_of_drawn_scores_equals_bincounts(n, batches, seed, data):
    scores = data.draw(hnp.arrays(np.bool_, (batches, n)), label="scores")
    with pytest.MonkeyPatch.context() as mp:
        tally, pairs = kernel_tally_of_scores(mp, n, seed, scores)
    assert_tally_equals_bincounts(tally, pairs, scores)


@pytest.mark.parametrize("fill", [True, False, None])
def test_kernel_tally_of_one_native_batch_in_tiles_equals_bincounts(fill, monkeypatch):
    # A budget that holds no whole batch: the batch runs alone, on native
    # streams, in tiles of 1000 rounds, not a multiple of 64, the last of 321,
    # each read beside a piece of at most 5 raw words.
    n = 4321
    kernel = montecarlo._KERNELS[ConstantPlus]
    assert montecarlo._raw_words(n, False, False)[1] > montecarlo._STEP_WORDS
    monkeypatch.setattr(montecarlo, "_RAW_PIECE", 5)
    spare = 8 * montecarlo._RAW_PIECE + 1000 * kernel.round_bytes
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", _row_bytes(0, kernel, n) + spare)
    assert _chunk_shape(n, kernel) == (1, 1000)
    scores = np.random.default_rng(3).random((1, n)) < 0.75 if fill is None else np.full((1, n), fill)
    tally, pairs = kernel_tally_of_scores(monkeypatch, n, 2 ** 80 + 5, scores)
    assert_tally_equals_bincounts(tally, pairs, scores)


def test_integer_uniform_cuts_equal_float_compares():
    # The quantum cut is p 2^53 exactly, so x < cut iff x 2^-53 < p.
    cut = montecarlo._QUANTUM_CUT
    assert cut * 2.0 ** -53 == QUANTUM_SCORE_PROBABILITY
    words = np.array([0, cut - 1, cut, cut + 1, 2 ** 53 - 1], dtype=np.uint64)
    assert np.array_equal(words < cut, words * 2.0 ** -53 < QUANTUM_SCORE_PROBABILITY)
    # A mixture's integer cut points pick what its float cumulative weights
    # pick, also for the words on either side of every cut point.
    assignments = (
        DeterministicAssignment(1, 1, 1, 1),
        DeterministicAssignment(1, -1, -1, 1),
        DeterministicAssignment(-1, 1, 1, -1),
        DeterministicAssignment(-1, -1, -1, -1),
    )
    mixture = StochasticLHV(tuple((Fraction(w, 30), a) for w, a in zip((3, 7, 0, 20), assignments)))
    strategy = from_stochastic(mixture)
    cuts, _ = montecarlo._stochastic_tables(strategy)
    edges = np.concatenate([cuts - 1, cuts, cuts + 1, [0, 2 ** 53 - 1]]).astype(np.uint64)
    words = np.concatenate([edges, np.random.default_rng(3).integers(0, 2 ** 53, 10 ** 4, dtype=np.uint64)])
    cumulative = np.cumsum([float(w) for w, _ in mixture.support])
    assert np.array_equal(
        np.searchsorted(cuts, words, side="right"),
        np.searchsorted(cumulative, words * 2.0 ** -53, side="right"),
    )


def test_collective_kernel_matches_general_engine_across_chunks(monkeypatch):
    plan = SimulationPlan(factory=collective_n2, n=2, batches=50, seed=2 ** 80 + 5)
    kernel = _find_kernel(collective_n2())
    assert kernel is not None
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 7 * _row_bytes(2, kernel))
    assert list(iter_batch_counts(plan)) == general_batch_counts(plan)


@pytest.mark.parametrize("name", sorted(REGISTRY) + ["stochastic-lhv"])
def test_no_cli_strategy_reaches_the_general_engine(name, monkeypatch):
    factory = FACTORIES.get(name, REGISTRY.get(name))
    n = 2 if name == "collective-n2" else 5

    def general_engine(*args):
        raise AssertionError("general engine reached")

    monkeypatch.setattr(montecarlo, "run_batch", general_engine)
    assert estimate(SimulationPlan(factory=factory, n=n, batches=20, seed=4)).batches == 20


def test_kernel_matches_general_engine_past_trigger_length():
    plan = SimulationPlan(factory=model_101, n=130, batches=20, seed=8)
    assert list(iter_batch_counts(plan)) == general_batch_counts(plan)


def playout_scores(strategy, pairs):
    """Round scores of each row of a pair matrix, played by the general engine."""
    plays = [playout(strategy, [ALL_PAIRS[i] for i in row]).rounds for row in pairs.tolist()]
    return np.array([[bool(round_score(r)) for r in rounds] for rounds in plays], dtype=bool).reshape(pairs.shape)


def test_model101_kernel_on_crafted_trigger_history():
    trigger = [0] * 33 + [1] * 33 + [2] * 33 + [3]
    rows = np.array(
        [trigger + [3], trigger + [1], [0] * 101], dtype=np.uint8
    )
    scores = playout_scores(Model101(), rows)
    counts = whole_run_counts(_kernel_model101, Model101(), rows)
    assert np.array_equal(counts, tallied(rows, scores))
    # Triggered batch scores the (A2,B2) finale but not an (A1,B2) finale.
    assert scores[0][100]
    assert not scores[1][100]
    constant = whole_run_counts(montecarlo._kernel_constant, ConstantPlus(), rows)
    assert (counts - constant).tolist() == [[0, 0, 0, 1], [0, -1, 0, 0], [0, 0, 0, 0]]
    # The same rows in two tiles, the first ending inside the counted
    # rounds, on the trigger round or after it; the second gets the pair
    # counts of the first.
    for split in (8, 40, 99, 100, 101):
        first = whole_run_counts(_kernel_model101, Model101(), rows[:, :split])
        second = kernel_counts(_kernel_model101, Model101(), rows[:, split:], split, bincounts(rows[:, :split]))
        assert np.array_equal(first + second, counts), split


#: A history that triggers model101 on its round 101: 33 rounds on each
#: of the first three pairs and one on (A2,B2), in any order.
TRIGGER_HISTORY = [0] * 33 + [1] * 33 + [2] * 33 + [3]


@settings(max_examples=120, deadline=None)
@given(
    name=hs.sampled_from(("guessing", "model101")),
    alphabet=hs.sampled_from([(2, 3), (1, 2, 3), (0,)]),
    prefix=hs.one_of(hs.just(0), hs.integers(8, 96), hs.integers(96, 104), hs.integers(128, 140)),
    shape=hs.tuples(hs.integers(1, 4), hs.one_of(hs.integers(1, 120), hs.integers(120, 300))),
    data=hs.data(),
)
def test_tile_scored_from_prefix_counts_equals_whole_run(name, alphabet, prefix, shape, data):
    # A tile T scored with the pair counts of the rounds P before it
    # counts the scores of the last |T| rounds of P + T played whole by
    # the oracle (guessing) or the general engine (model101).  Rows may open
    # with a shuffled trigger history and a round 101 on (A1,B2) or
    # (A2,B2), where model101's rule and the constant assignment differ,
    # or with a run of one pair over the prefix and at least 128 rounds,
    # then 128 rounds of a pair before it: with no prefix or one of 128
    # to 140 rounds, that pair is as far behind where the guessing kernel
    # re-bases its lanes, 128 rounds in or at the tile's start, and then
    # plays every round of the block.
    batches, width = shape
    n = prefix + width
    rows = []
    for _ in range(batches):
        tail = data.draw(hs.lists(hs.sampled_from(alphabet), min_size=n, max_size=n), label="pairs")
        head = []
        opening = data.draw(hs.sampled_from(("none", "trigger", "run")), label="opening")
        if opening == "trigger":
            head = data.draw(hs.permutations(TRIGGER_HISTORY)) + [data.draw(hs.sampled_from((1, 3)))]
        elif opening == "run":
            leader = data.draw(hs.sampled_from((1, 2, 3)), label="leader")
            head = [leader] * max(prefix, 128) + [data.draw(hs.integers(0, leader - 1), label="chaser")] * 128
        rows.append((head + tail)[:n])
    pairs = np.array(rows, dtype=np.uint8)
    score = _find_kernel(FACTORIES[name]()).score
    whole = _guessing_oracle_scores(pairs) if name == "guessing" else playout_scores(Model101(), pairs)
    counts = kernel_counts(score, None, pairs[:, prefix:], prefix, bincounts(pairs[:, :prefix]))
    assert np.array_equal(counts, tallied(pairs[:, prefix:], whole[:, prefix:]))


def test_engine_hands_model101_the_pair_counts_of_earlier_tiles(monkeypatch):
    # Crafted pairs in 8-round tiles: the trigger round falls in the tile
    # from round 97, whose scores depend on the counts the engine hands it.
    rows = np.array(
        [TRIGGER_HISTORY + [3] * 20, TRIGGER_HISTORY[::-1] + [1] * 20, [0] * 120], dtype=np.uint8
    )

    def crafted_draws(seed, lo, hi, n, rounds, *args):
        for r0 in range(0, n, rounds):
            yield r0, pair_words(rows[lo:hi, r0 : r0 + rounds]), None

    monkeypatch.setattr(montecarlo, "_tile_draws", crafted_draws)
    tally = montecarlo._kernel_tally(montecarlo._KERNELS[Model101], Model101(), 120, 0, 0, 3, 8)
    scores = playout_scores(Model101(), rows)
    assert scores[:, 100].tolist() == [True, False, True]  # the first two triggered
    assert_tally_equals_bincounts(tally, rows, scores)


#: A strategy of each type that has a kernel, with the rounds its batches play.
KERNEL_STRATEGIES = {
    type(strategy): (strategy, n)
    for strategy, n in (
        (constant_plus(), 40),
        (guessing_model(), 300),
        (model_101(), 120),
        (quantum_singlet_sampler(), 40),
        (from_stochastic(MIXTURE), 40),
        (collective_n2(), 2),
    )
}


@pytest.mark.parametrize("batches", [1, 5, 300])
@pytest.mark.parametrize("kind", montecarlo._KERNELS, ids=lambda kind: kind.__name__)
def test_engine_hands_every_kernel_the_pair_counts_of_earlier_tiles(kind, batches):
    # Every call of every kernel, in 16-round tiles, receives the (B, 4)
    # int64 counts of its batches' pairs in the rounds before its tile,
    # zeros on the first tile, and returns those of the tile's own rounds
    # beside its score counts.  Three rounds more (but for collective-n2,
    # which plays 2) leave a last tile of 11 or 15 rounds: a partial word
    # and a partial block of guessing's.
    strategy, whole = KERNEL_STRATEGIES[kind]
    kernel = _find_kernel(strategy)
    for n in (whole,) if kind is CollectiveN2 else (whole, whole + 3):
        scorer = strategy if kernel.prepare is None else kernel.prepare(strategy, n)
        calls = []

        def spy(scorer, words, width, uniforms, r0, counts):
            handed = counts.copy()
            scores, own = kernel.score(scorer, words, width, uniforms, r0, counts)
            calls.append((r0, montecarlo._pairs(words, width), handed, scores, own))
            return scores, own

        montecarlo._kernel_tally(kernel._replace(score=spy), scorer, n, 2 ** 70 + 9, 0, batches, 16)
        assert [r0 for r0, *_ in calls] == list(range(0, n, 16))
        pairs = np.concatenate([tile for _, tile, *_ in calls], axis=1)
        for r0, tile, counts, scores, own in calls:
            for handed in (counts, scores, own):
                assert handed.shape == (batches, 4) and handed.dtype == np.int64
            assert np.array_equal(counts, bincounts(pairs[:, :r0])), (n, r0)
            assert np.array_equal(own, bincounts(tile)), (n, r0)


def _guessing_oracle_scores(pairs):
    """Round scores of each row of a pair matrix, from the independent oracle."""
    rows = []
    for row in pairs.tolist():
        outcomes = oracles.guessing_outcomes(row)
        rows.append([oracles.score(p, a, b) == 1 for p, (a, b) in zip(row, outcomes)])
    return np.array(rows, dtype=bool)


def _cycle(alphabet, n):
    return [alphabet[k % len(alphabet)] for k in range(n)]


_RNG = np.random.default_rng(20260)

TIE_HEAVY = {
    "same pair every round": [[p] * 40 for p in range(4)],
    "round robin up and down": [_cycle((0, 1, 2, 3), 1000), _cycle((3, 2, 1, 0), 1000)],
    "round robin, short": [_cycle((0, 1, 2, 3), 9), _cycle((3, 2, 1, 0), 9)],
    "alphabet {2, 3}": [_cycle((2, 3), 60), _cycle((3, 2), 60), *_RNG.choice([2, 3], (4, 60)).tolist()],
    "alphabet {1, 2, 3}": [
        _cycle((1, 2, 3), 60),
        _cycle((3, 2, 1), 60),
        *_RNG.choice([1, 2, 3], (4, 60)).tolist(),
    ],
    "a pair 128 behind catches up": [[3] * 128 + [0] * 200, [2] * 128 + [1] * 200, [1] * 130 + [0] * 198],
    "n = 1": [[p] for p in range(4)],
    "n = 2": [[p, q] for p in range(4) for q in range(4)],
    "one batch": [_RNG.integers(0, 4, 30).tolist()],
}


@pytest.mark.parametrize("rows", TIE_HEAVY.values(), ids=TIE_HEAVY.keys())
def test_guessing_kernel_on_tie_heavy_histories_matches_oracle(rows):
    pairs = np.array(rows, dtype=np.uint8)
    want = tallied(pairs, _guessing_oracle_scores(pairs))
    assert np.array_equal(whole_run_counts(_kernel_guessing, None, pairs), want)


@settings(max_examples=60, deadline=None)
@given(
    alphabet=hs.sampled_from([(0, 1, 2, 3), (2, 3), (1, 2, 3), (0, 3), (1,)]),
    shape=hs.tuples(hs.integers(1, 4), hs.integers(1, 40)),
    data=hs.data(),
)
def test_guessing_kernel_on_drawn_histories_matches_oracle(alphabet, shape, data):
    batches, n = shape
    picks = hs.lists(hs.sampled_from(alphabet), min_size=n, max_size=n)
    pairs = np.array(data.draw(hs.lists(picks, min_size=batches, max_size=batches)), dtype=np.uint8)
    want = tallied(pairs, _guessing_oracle_scores(pairs))
    assert np.array_equal(whole_run_counts(_kernel_guessing, None, pairs), want)


@pytest.mark.parametrize("shift", [0, 2 ** 26, 2 ** 29 - 3, 2 ** 40])
def test_guessing_kernel_scores_depend_only_on_count_differences(shift):
    # Adding the same count to every pair keeps each batch's target.  The
    # kernel re-bases each batch's counts on its leader's, so no count,
    # however large, reaches its byte planes: kept whole, a count of
    # 2^29 - 3 would wrap a uint32 32 count + 24, and 2^40 an int32.
    rng = np.random.default_rng(43)
    pairs = rng.integers(0, 4, (6, 50), dtype=np.uint8)
    counts = rng.integers(0, 5, (6, 4))
    want = kernel_counts(_kernel_guessing, None, pairs, int(counts.sum(axis=1).max()), counts)
    got = kernel_counts(_kernel_guessing, None, pairs, int(counts.sum(axis=1).max()) + 4 * shift, counts + shift)
    assert np.array_equal(got, want)


def block_failures(counts, pairs):
    """Per-pair failures of rounds of ``pairs`` (one row of rounds each)
    from pair counts ``counts``, by the most-measured rule played round by
    round: a round fails when its pair is the first of the most measured."""
    counts = counts.copy()
    failures = np.zeros_like(counts)
    rows = np.arange(len(counts))
    for column in pairs.T:
        failures[rows, column] += column == counts.argmax(axis=1)
        counts[rows, column] += 1
    return failures


def test_guessing_tables_hold_the_per_round_rule_at_every_entry():
    # Entry state 4^L + pairs of F[L]: a state's gaps to the leader, each
    # capped at 4, in base 5 (pair j's the digit of 5^j); the pairs in
    # base 4, the first round's the highest digit; the failures of pair j
    # in byte j of a little-endian uint32.  Every entry equals the rule
    # from counts 4 - gap; where a gap is 0, so that some pair leads, a
    # capped gap gives the same however far behind it is.
    tables = montecarlo._guessing_tables()
    for rounds in range(1, 5):
        table = tables[rounds]
        assert table.shape == (625 * 4 ** rounds,)
        state, sequence = np.divmod(np.arange(len(table)), 4 ** rounds)
        gaps = state[:, None] // 5 ** np.arange(4) % 5
        pairs = sequence[:, None] // 4 ** np.arange(rounds)[::-1] % 4
        got = table.astype("<u4").view(np.uint8).reshape(-1, 4)
        assert np.array_equal(got, block_failures(4 - gaps, pairs)), rounds
        leads = (gaps == 0).any(axis=1)
        for deeper in (1, 3, 60):
            counts = 100 - np.where(gaps == 4, 4 + deeper, gaps)
            assert np.array_equal(got[leads], block_failures(counts, pairs)[leads]), (rounds, deeper)


@pytest.mark.parametrize("n", [*range(1, 10), *range(127, 132), 1021, 1025])
@pytest.mark.parametrize("name", ["constant-plus", "guessing", "model101"])
def test_count_kernels_match_general_engine_whole_and_in_tiles(name, n, monkeypatch):
    # Whole tiles, then stepped streams in 8-round tiles of 2-batch chunks
    # and native ones (n = 1025) a batch alone, in tiles of 200 rounds.
    factory = FACTORIES[name]
    kernel = _find_kernel(factory())
    plan = SimulationPlan(factory=factory, n=n, batches=5, seed=2 ** 70 + 3, strategy_name=name)
    want = general_batch_counts(plan)
    assert list(iter_batch_counts(plan)) == want
    if montecarlo._raw_words(n, False, False)[1] > montecarlo._STEP_WORDS:
        monkeypatch.setattr(montecarlo, "_RAW_PIECE", 5)
        spare = 8 * montecarlo._RAW_PIECE + 200 * kernel.round_bytes
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", _row_bytes(0, kernel, n) + spare)
        assert _chunk_shape(n, kernel) == (1, 200)
    else:
        monkeypatch.setattr(montecarlo, "_TILE_ROUNDS", 8)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 2 * _row_bytes(min(n, 8), kernel, n))
        assert _chunk_shape(n, kernel) == (2, min(n, 8))
    assert list(iter_batch_counts(plan)) == want


#: Words a row of the word count's slabs: two planes of at most _RAW_PIECE words.
SLAB_WORDS = montecarlo._RAW_PIECE // 2


@pytest.mark.parametrize(
    "rounds",
    [1, 7, 8, 9, 248, 255, 256, 257, 300]
    # Rows of 16, 62, a slab less and more one and 196,500 words: a
    # sim-long tile, two whole groups, and slabs of several groups with
    # a remainder or a lone word past them.
    + [8 * words for words in (16, 62, SLAB_WORDS - 1, SLAB_WORDS + 1, 196_500)],
)
def test_word_counts_equal_bincounts(rounds):
    # Runs of one pair, longest at 300 rounds, fill every byte lane of 31
    # and more words; drawn rows and random score bytes count alike.
    rng = np.random.default_rng(rounds)
    pairs = np.concatenate([np.full((4, rounds), np.arange(4)[:, None]), rng.integers(0, 4, (3, rounds))])
    pairs = pairs.astype(np.uint8)
    words = pair_words(pairs)
    assert np.array_equal(montecarlo._word_counts(words, rounds), bincounts(pairs))
    scores = np.array([rng.random(rounds) < 0.5 for _ in pairs])  # the draws of one call, a row at a time
    scores[0] = scores[-1] = True
    scored = montecarlo._score_bytes(words)
    scored[:, :rounds] = scores
    assert np.array_equal(montecarlo._word_counts(words, scored), tallied(pairs, scores))


@pytest.mark.parametrize("batches, n", [(1, 8 * 196_500), (2000, 1000)])
@pytest.mark.parametrize("name", ["constant-plus", "quantum"])
def test_word_counts_reduce_a_slab_of_words_a_call(name, batches, n, monkeypatch):
    # A tile's word counts reduce their byte lanes a slab of words a call:
    # a count makes at most two calls per SLAB_WORDS words of the tile and
    # two more, and the quantum kernel counts twice (scores and pairs).
    # One long native row of 196,500 words takes 7 calls a count, not one
    # per 31 words; 2,000 stepped rows of 16 words one a tile, and 2,000
    # native rows of 125 words 9.
    factory = FACTORIES[name]
    kernel = _find_kernel(factory())
    reductions, tiles = [], []
    byte_sums = montecarlo._byte_sums

    def counted(*args):
        reductions.append(1)
        return byte_sums(*args)

    def spy(scorer, words, width, uniforms, r0, counts):
        reductions.clear()
        result = kernel.score(scorer, words, width, uniforms, r0, counts)
        tiles.append((words.size, len(reductions)))
        return result

    monkeypatch.setattr(montecarlo, "_byte_sums", counted)
    _, rounds = _chunk_shape(n, kernel)
    tally = montecarlo._kernel_tally(kernel._replace(score=spy), factory(), n, 3, 0, batches, rounds)
    assert (tally.pair_counts.sum(axis=1) == n).all()
    assert tiles
    counts = 2 if name == "quantum" else 1
    for size, calls in tiles:
        assert 0 < calls <= counts * (2 * size // SLAB_WORDS + 2), size


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
@pytest.mark.parametrize("name", ["constant-plus", "quantum"])
def test_native_chunks_fit_the_budget_beside_their_raw_piece(name, n):
    # A native chunk's batches, whole or one alone in tiles, are each read
    # beside a random_raw piece of their words, which the budget holds.
    kernel = _find_kernel(FACTORIES[name]())
    m = montecarlo._raw_words(n, kernel.coins, kernel.uniforms)[1]
    assert m > montecarlo._STEP_WORDS
    rows, rounds = _chunk_shape(n, kernel)
    assert rows * _row_bytes(rounds, kernel, n) + 8 * min(montecarlo._RAW_PIECE, m) <= montecarlo._CHUNK_BYTES


def test_guessing_custom_tie_break_uses_general_path():
    assert _find_kernel(GuessingLastTie()) is None
    plan = SimulationPlan(factory=GuessingLastTie, n=20, batches=10, seed=3)
    records = list(iter_batch_counts(plan))
    assert records == general_batch_counts(plan)


def test_estimate_reports_are_reproducible():
    plan = SimulationPlan(factory=guessing_model, n=50, batches=200, seed=17, strategy_name="guessing")
    assert estimate(plan) == estimate(plan)


def test_batches_are_order_independent():
    plan = SimulationPlan(factory=guessing_model, n=25, batches=40, seed=6)
    records = list(iter_batch_counts(plan))
    strategy = guessing_model()
    for index in (31, 7, 0, 39, 18):
        t = run_batch(strategy, 25, seed=6, batch_index=index)
        totals = [0, 0, 0, 0]
        scores = [0, 0, 0, 0]
        for r in t.rounds:
            totals[r.pair.index] += 1
            scores[r.pair.index] += round_score(r)
        assert records[index] == BatchCounts(index, tuple(scores), tuple(totals))


def test_estimate_mean_y_is_exact_rational():
    plan = SimulationPlan(factory=constant_plus, n=10, batches=16, seed=2)
    report = estimate(plan)
    records = list(iter_batch_counts(plan))
    expected = oracles.fold_batches([(r.score_counts, r.pair_counts) for r in records], 10, "0.1")["mean_y"]
    assert report.mean_y == expected
    assert isinstance(report.mean_y, Fraction)


def test_estimate_undefined_x_handling():
    # Three rounds can never cover four pairs, so X is always undefined.
    plan = SimulationPlan(factory=constant_plus, n=3, batches=25, seed=1)
    report = estimate(plan)
    assert report.undefined_count == 25
    assert report.mean_x is None
    assert report.se_x is None
    assert report.tail_freq_x == 0


@pytest.mark.parametrize(
    "n, delta, score_counts, y_tail, x_tail",
    [
        # Y_N = 4 * 33 / 40 = 3.3 = 3 + delta: on the threshold, not beyond it.
        (40, 0.3, (10, 10, 10, 3), 0, 0),
        (40, 0.3, (10, 10, 10, 4), 1, 0),
        # X_N = 3 + 6/11 = 39/11 = (3 + delta) / (1 - delta).
        (44, 0.12, (11, 11, 11, 6), 1, 0),
        (44, 0.12, (11, 11, 11, 7), 1, 1),
    ],
)
def test_estimate_tail_thresholds_exact_at_boundary(monkeypatch, n, delta, score_counts, y_tail, x_tail):
    # 0.3 and 0.12 both exceed their nearest binary floats, so cuts built
    # from Fraction(delta) would count the on-threshold batches as beyond.
    tally = Tally(0, np.array([score_counts]), np.array([(n // 4,) * 4]))
    monkeypatch.setattr(montecarlo, "_iter_tallies", lambda plan: iter([tally]))
    report = estimate(SimulationPlan(factory=constant_plus, n=n, batches=1, delta=delta))
    assert (report.tail_freq_y, report.tail_freq_x) == (y_tail, x_tail)


@hs.composite
def synthetic_runs(draw):
    """(n, decimal delta, per-batch (scores, totals), chunk starts) of a made-up run.

    Balanced splits of n = 30,000 put X_N's denominator at or above 2^51,
    of n = 300,000 above 2^63; near-full scores reach the tails.
    """
    n = draw(hs.sampled_from((3, 4, 7, 40, 44, 30_000, 300_000)), label="n")
    delta = draw(
        hs.one_of(
            hs.sampled_from(("0.1", "0.12", "0.3")),
            hs.integers(1, 10 ** 15 - 1).map(lambda m: f"0.{m:015d}"),
        ),
        label="delta",
    )
    batches = []
    for _ in range(draw(hs.integers(1, 12), label="batches")):
        if draw(hs.booleans()):
            jitter = [draw(hs.integers(-3, 3)) for _ in range(3)]
            totals = [n // 4 + j for j in jitter]
            totals.append(n - sum(totals))
            if min(totals) < 0:
                totals = [0, 0, 0, n]
        else:
            cuts = sorted(draw(hs.integers(0, n)) for _ in range(3))
            totals = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], n - cuts[2]]
        if draw(hs.booleans()):
            scores = [max(0, t - draw(hs.integers(0, 2))) for t in totals]
        else:
            scores = [draw(hs.integers(0, t)) for t in totals]
        batches.append((tuple(scores), tuple(totals)))
    starts = sorted(set(draw(hs.lists(hs.integers(1, len(batches) - 1), max_size=4)))) if len(batches) > 1 else []
    return n, delta, batches, [0, *starts]


def as_tallies(batches, starts):
    bounds = [*starts, len(batches)]
    return [
        Tally(
            lo,
            np.array([s for s, _ in batches[lo:hi]], dtype=np.int64),
            np.array([t for _, t in batches[lo:hi]], dtype=np.int64),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


# X_N on the cut (3 + delta) / (1 - delta) = 39/11 and just above it.
TIED_RUN = (44, "0.12", [((11, 11, 11, 6), (11,) * 4), ((11, 11, 11, 7), (11,) * 4)], [0, 1])


def batch_just_above_x_cut(delta):
    """Counts whose X_N exceeds (3 + delta) / (1 - delta) by less than half
    a float step, so X_N and the cut round to the same float.

    Pairs 1 and 2 occur and score once; pairs 3 and 4 occur t3 and t4
    times, coprime, so s3/t3 + s4/t4 takes every multiple of 1/(t3 t4)
    that the ranges allow.
    """
    cut = (3 + Fraction(delta)) / (1 - Fraction(delta))
    t3, t4 = 2 ** 31 - 1, 2 ** 31 + 11
    m = math.floor((cut - 2) * t3 * t4) + 1
    while True:
        s3 = m * pow(t4, -1, t3) % t3
        s4 = (m - s3 * t4) // t3
        if 0 <= s4 <= t4:
            return (1, 1, s3, s4), (1, 1, t3, t4)
        m += 1


def test_batch_just_above_x_cut_rounds_onto_the_cut():
    scores, totals = batch_just_above_x_cut("0.1")
    x = sum(Fraction(s, t) for s, t in zip(scores, totals))
    assert x > Fraction(31, 9) and float(x) == float(Fraction(31, 9))


ABOVE_CUT = batch_just_above_x_cut("0.1")
ABOVE_CUT_RUN = (sum(ABOVE_CUT[1]), "0.1", [ABOVE_CUT, ABOVE_CUT], [0, 1])


@settings(max_examples=150, deadline=None)
@given(run=synthetic_runs())
@example(run=TIED_RUN)
@example(run=ABOVE_CUT_RUN)
def test_estimate_equals_per_batch_fraction_fold(run):
    n, delta, batches, starts = run
    tallies = as_tallies(batches, starts)
    plan = SimulationPlan(factory=constant_plus, n=n, batches=len(batches), delta=float(delta))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_iter_tallies", lambda plan: iter(tallies))
        report = estimate(plan)
    for field, value in oracles.fold_batches(batches, n, delta).items():
        assert getattr(report, field) == value, field


def csv_text(rows):
    """The reference serialization of per-batch rows: ``csv.writer`` lines."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# Seven batches, so three slices of at most three rows: all rows equal,
# all rows distinct, and rows whose X_N denominator reaches 2^51 (one of
# them just above the cut) beside rows that stay below it or lack X_N.
EQUAL_RUN = (6, "0.1", [((2, 1, 1, 0), (2, 2, 1, 1))] * 7, [0])
DISTINCT_RUN = (6, "0.1", [((k % 4, k // 4, 1, 0), (3, 1, 1, 1)) for k in range(7)], [0])
BIG_DEN_RUN = (
    sum(ABOVE_CUT[1]),
    "0.1",
    [
        ABOVE_CUT,
        ((1, 0, 5, 9), ABOVE_CUT[1]),
        ((7, 0, 0, 0), (sum(ABOVE_CUT[1]), 0, 0, 0)),
        ABOVE_CUT,
        ((9, 1, 1, 0), (sum(ABOVE_CUT[1]) - 3, 1, 1, 1)),
        ((1, 0, 5, 9), ABOVE_CUT[1]),
        ABOVE_CUT,
    ],
    [0],
)


@settings(max_examples=60, deadline=None)
@given(run=synthetic_runs(), seed=hs.sampled_from((0, 2 ** 80 + 5)))
@example(run=TIED_RUN, seed=3)
@example(run=EQUAL_RUN, seed=2 ** 80 + 5)
@example(run=DISTINCT_RUN, seed=0)
@example(run=BIG_DEN_RUN, seed=0)
def test_chunk_csv_rows_equal_batch_csv_row(run, seed):
    n, _, batches, starts = run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "_CSV_SLICE_ROWS", 3)
        for tally in as_tallies(batches, starts):
            rows = [
                oracles.batch_csv_row(tally.first + b, seed, n, *batches[tally.first + b])
                for b in range(len(tally.score_counts))
            ]
            expected = [csv_text(rows[lo:lo + 3]) for lo in range(0, len(rows), 3)]
            assert list(batch_csv_rows(tally, n, seed)) == expected


@pytest.mark.parametrize(
    "name, n",
    [
        ("guessing", 4),
        ("guessing", 1000),
        ("constant-plus", 1000),
        ("model101", 1000),
        ("quantum", 1000),
        ("stochastic-lhv", 300),
        # One batch alone needs far more than the budget; it runs alone,
        # in tiles drawn by native streams.
        ("constant-plus", 10 ** 7),
        ("quantum", 10 ** 7),
    ],
)
def test_chunked_run_peaks_within_twice_the_budget(name, n, tmp_path, monkeypatch):
    """A run streamed to a CSV file peaks within twice its chunk budget.

    The CSV text is built a slice of at most ``_CSV_SLICE_ROWS`` rows at
    a time, and per slice at most one tail string per row is alive
    besides the lines, so its Python objects stay bounded by the slice.
    """
    budget = 2 << 20
    factory = FACTORIES[name]
    kernel = _find_kernel(factory())
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", budget)
    rows, rounds = _chunk_shape(n, kernel)
    assert rows * _row_bytes(rounds, kernel) <= budget
    plan = SimulationPlan(factory=factory, n=n, batches=3 * rows + 1, seed=9)
    chunks = 0
    with open(tmp_path / "batches.csv", "w", newline="") as fp:

        def sink(tally):
            nonlocal chunks
            chunks += 1
            for text in batch_csv_rows(tally, n, plan.seed):
                fp.write(text)

        tracemalloc.start()
        try:
            estimate(plan, batch_sink=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert chunks == 4
    assert peak <= 2 * budget


def fresh_peak(setup, work):
    """The tracemalloc peak of ``work`` in a fresh interpreter that first runs ``setup``."""
    code = f"import tracemalloc\n{setup}\ntracemalloc.start()\n{work}\nprint(tracemalloc.get_traced_memory()[1])"
    env = dict(os.environ, PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_fresh_process_peaks_within_the_budget_plus_the_numpy_random_import():
    # One batch at n = 10^7 runs alone in native tiles that fill the
    # budget.  Its first native stream imports numpy.random, whose Python
    # objects (about 0.74 MiB) the budget does not count.
    imported = fresh_peak("import numpy", "import numpy.random")
    assert imported <= montecarlo._CHUNK_BYTES // 4
    plan = "SimulationPlan(factory=constant_plus, n=10 ** 7, batches=1, seed=2 ** 80 + 5)"
    peak = fresh_peak(
        "from chshsim.montecarlo import SimulationPlan, estimate\nfrom chshsim.strategies import constant_plus",
        f"estimate({plan})",
    )
    assert peak <= montecarlo._CHUNK_BYTES + imported


def test_estimate_quantum_matches_known_mean():
    plan = SimulationPlan(
        factory=quantum_singlet_sampler, n=2000, batches=60, seed=2026, strategy_name="quantum"
    )
    report = estimate(plan)
    assert abs(float(report.mean_y) - (2 + math.sqrt(2))) <= 4 * report.se_y
    assert report.undefined_count == 0


def test_estimate_lhv_strategies_respect_chsh_in_mean():
    for name in ("constant-plus", "guessing", "model101", "stochastic-lhv"):
        plan = SimulationPlan(factory=FACTORIES[name], n=400, batches=60, seed=33, strategy_name=name)
        report = estimate(plan)
        assert float(report.mean_y) <= 3 + 4 * report.se_y


def test_estimate_agrees_with_exact_enumeration():
    plan = SimulationPlan(factory=guessing_model, n=4, batches=4000, seed=77)
    report = estimate(plan)
    exact = exact_expectations(guessing_model(), 4)
    assert abs(float(report.mean_y) - float(exact.e_y)) <= 4 * report.se_y


def test_estimate_collective_runs_via_general_path():
    plan = SimulationPlan(factory=collective_n2, n=2, batches=400, seed=12, strategy_name="collective-n2")
    report = estimate(plan)
    assert report.undefined_count == 400
    assert 2.0 <= float(report.mean_y) <= 4.0


def test_estimate_single_batch_has_no_se():
    plan = SimulationPlan(factory=constant_plus, n=8, batches=1, seed=0)
    report = estimate(plan)
    assert report.se_y is None


def test_se_y_exact_when_float_variance_would_cancel():
    # k = (10^8, 10^8 + 1): (Σk)² > 2^53, sample variance 1/2, so the
    # standard error of mean k is 1/2 and of mean Y_N it is 4/n * 1/2.
    k = (10 ** 8, 10 ** 8 + 1)
    assert _se_y(1, 2, sum(k), sum(v * v for v in k)) == 2.0
    assert _se_y(4, 2, sum(k), sum(v * v for v in k)) == 0.5
    big = 3 * 10 ** 9
    assert _se_y(2, 3, 3 * big, 3 * big * big) == 0.0
    assert _se_y(8, 1, 5, 25) is None
    # A small case against the textbook formula.
    k = (1, 4, 4, 7)
    mean = sum(k) / 4
    var = sum((v - mean) ** 2 for v in k) / 3
    assert _se_y(6, 4, sum(k), sum(v * v for v in k)) == pytest.approx(
        4 / 6 * math.sqrt(var / 4), rel=1e-15
    )


def test_batch_helpers():
    record = BatchCounts(0, (2, 1, 1, 0), (2, 2, 1, 1))
    tally = Tally(0, np.array([record.score_counts]), np.array([record.pair_counts]))
    assert tally.y(6)[0] == float(Fraction(8, 3))
    assert batch_x(record) == Fraction(1) + Fraction(1, 2) + Fraction(1) + Fraction(0)
    undefined = BatchCounts(1, (1, 0, 0, 0), (6, 0, 0, 0))
    assert batch_x(undefined) is None


def test_batch_csv_row_layout():
    tally = Tally(3, np.array([(2, 1, 1, 0), (1, 0, 0, 0)]), np.array([(2, 2, 1, 1), (6, 0, 0, 0)]))
    text = "".join(batch_csv_rows(tally, 6, 42))
    assert text == csv_text([
        oracles.batch_csv_row(3, 42, 6, (2, 1, 1, 0), (2, 2, 1, 1)),
        oracles.batch_csv_row(4, 42, 6, (1, 0, 0, 0), (6, 0, 0, 0)),
    ])
    row, undefined = (line.split(",") for line in text.splitlines())
    assert len(row) == len(undefined) == len(BATCH_CSV_HEADER)
    assert row[:3] == ["3", "42", "6"]
    assert row[4] == "1"
    assert undefined[4] == "0" and undefined[5] == ""


def test_wilson_interval_basics():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0.0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert high == pytest.approx(1.0, abs=1e-12) and low > 0.95
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_tail_compare_consistency():
    plan = SimulationPlan(factory=constant_plus, n=200, batches=500, seed=21, delta=0.1)
    comparison = compare_tails(estimate(plan))
    report = estimate(plan)
    assert comparison.report == report
    assert comparison == compare_tails(report)
    assert comparison.y_ratio == float(report.tail_freq_y) / comparison.y_bound
    assert comparison.x_bound == 5 * comparison.y_bound

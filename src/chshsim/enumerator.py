"""Exact computations by exhaustive enumeration.

Averages deterministic strategies over every possible setting sequence
(4^n of them, all equally likely) to get exact expectations and
distributions: by playing each sequence out, or, for count-driven
strategies, by summing over pair-count vectors.  Also evaluates the
special-case models in closed form and checks no-signaling by brute
force.  Everything returns exact rationals;
Monte Carlo (:mod:`chshsim.montecarlo`) takes over beyond the
enumeration cap.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    ALL_PAIRS,
    EMPTY_VIEW,
    AliceSetting,
    BobSetting,
    InvariantViolation,
    MemoryClass,
    MemoryView,
    OwnSideEntry,
    Round,
    SettingPair,
    Side,
    Transcript,
    _check_pair,
)
from .stats import chsh_value, round_score, x_statistic
from .strategies import (
    CollectiveStrategy,
    CountDriven,
    DeterministicAssignment,
    Model101,
    SequentialStrategy,
    StochasticLHV,
    all_assignments,
)

DEFAULT_ENUM_CAP = 10

#: Ceiling on P(both rounds score) for any model whose round scores are
#: independent with per-round probability at most 3/4.
INDEPENDENT_ROUNDS_CEILING = Fraction(9, 16)


class EnumerationCapError(ValueError):
    """The requested run length exceeds the exhaustive-enumeration cap."""


def _as_pairs(settings) -> tuple[SettingPair, ...]:
    return tuple(_check_pair(s) for s in settings)


def playout(
    strategy: SequentialStrategy, settings, rng=None
) -> Transcript:
    """Drive a sequential strategy through the given setting sequence.

    Each round both responders see their own current setting and a
    memory view of the completed rounds, filtered to the strategy's
    declared memory class.  Collective strategies have their own path,
    :func:`collective_playout`.
    """
    if isinstance(strategy, CollectiveStrategy):
        raise TypeError("collective strategies are played out via collective_playout")
    if not isinstance(strategy, SequentialStrategy):
        raise TypeError(f"not a sequential strategy: {strategy!r}")
    pairs = _as_pairs(settings)
    n = len(pairs)
    memory_class = strategy.memory_class
    if not isinstance(memory_class, MemoryClass):
        raise InvariantViolation(f"strategy declares unknown memory class {memory_class!r}")
    strategy.begin_playout(n, rng)

    rounds: list[Round] = []
    own_alice: list = []
    own_bob: list = []

    for k, pair in enumerate(pairs):
        if memory_class is MemoryClass.NONE:
            view_a = view_b = EMPTY_VIEW
        elif memory_class is MemoryClass.FULL:
            view_a = view_b = MemoryView(MemoryClass.FULL, None, rounds, k)
        else:
            view_a = MemoryView(MemoryClass.OWN_SIDE, Side.ALICE, own_alice, k)
            view_b = MemoryView(MemoryClass.OWN_SIDE, Side.BOB, own_bob, k)
        strategy.begin_round()
        a = strategy.respond_alice(pair.alice, view_a)
        b = strategy.respond_bob(pair.bob, view_b)
        if (a != 1 and a != -1) or (b != 1 and b != -1):
            raise InvariantViolation(f"strategy produced non-outcome ({a!r}, {b!r})")
        rounds.append(Round(k + 1, pair, int(a), int(b)))
        if memory_class is MemoryClass.OWN_SIDE:
            own_alice.append(OwnSideEntry(pair.alice, a))
            own_bob.append(OwnSideEntry(pair.bob, b))

    transcript = Transcript.__new__(Transcript)
    transcript.rounds = tuple(rounds)
    return transcript


def collective_playout(strategy: CollectiveStrategy, settings, rng=None) -> Transcript:
    """Drive a collective strategy: each wing answers its whole run at once."""
    if not isinstance(strategy, CollectiveStrategy):
        raise TypeError(f"not a collective strategy: {strategy!r}")
    pairs = _as_pairs(settings)
    rng_a = rng_b = None
    if rng is not None:
        side_seeds = rng.integers(0, 2 ** 63, size=2)
        rng_a = np.random.default_rng(int(side_seeds[0]))
        rng_b = np.random.default_rng(int(side_seeds[1]))
    a_outs = strategy.respond_alice(tuple(p.alice for p in pairs), rng_a)
    b_outs = strategy.respond_bob(tuple(p.bob for p in pairs), rng_b)
    if len(a_outs) != len(pairs) or len(b_outs) != len(pairs):
        raise InvariantViolation("collective strategy returned wrong-length outcome list")
    rounds = [
        Round(k + 1, pair, int(a), int(b))
        for k, (pair, a, b) in enumerate(zip(pairs, a_outs, b_outs))
    ]
    return Transcript(rounds)


@dataclass(frozen=True)
class ExactResult:
    """Exact expectations over all equally likely setting sequences."""

    n: int
    e_y: Fraction
    e_x_conditional: Fraction | None
    p_undefined: Fraction
    distribution: tuple[tuple[Fraction, Fraction | None, Fraction], ...] | None = None


def exact_expectations(
    strategy: SequentialStrategy,
    n: int,
    cap: int = DEFAULT_ENUM_CAP,
    collect_distribution: bool = False,
) -> ExactResult:
    """Exact expectations over all 4^n setting sequences for a deterministic strategy.

    Returns exact E(Y_N), E(X_N | X_N defined), P(X_N undefined), and
    optionally the full joint distribution of (Y_N, X_N) as a sorted
    tuple of (y, x, probability) entries with x None when undefined.
    Count-driven strategies are summed over pair-count vectors
    (:func:`exact_by_counts`); the distribution, and every other
    strategy, is enumerated sequence by sequence
    (:func:`exact_by_sequences`).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds enumeration cap {cap} (4^n sequences)")
    if strategy.stochastic:
        raise ValueError("exact enumeration requires a deterministic strategy")
    if isinstance(strategy, CountDriven) and not collect_distribution:
        return exact_by_counts(strategy, n)
    return exact_by_sequences(strategy, n, collect_distribution)


def _exact_result(n, score_sum, defined, x_sum, distribution=None) -> ExactResult:
    """Expectations from totals over all 4^n sequences: scoring rounds,
    sequences with X_N defined, and the sum of X_N over those."""
    total_sequences = 4 ** n
    return ExactResult(
        n=n,
        e_y=Fraction(4 * score_sum, n * total_sequences),
        e_x_conditional=(x_sum / defined) if defined else None,
        p_undefined=Fraction(total_sequences - defined, total_sequences),
        distribution=distribution,
    )


def exact_by_sequences(
    strategy: SequentialStrategy, n: int, collect_distribution: bool = False
) -> ExactResult:
    """:func:`exact_expectations` by playing out every one of the 4^n sequences."""
    total_sequences = 4 ** n
    score_sum = 0
    defined = 0
    x_sum = Fraction(0)
    x_cache: dict[tuple, Fraction] = {}
    dist: Counter = Counter()

    for seq in itertools.product(range(4), repeat=n):
        pairs = tuple(ALL_PAIRS[i] for i in seq)
        transcript = playout(strategy, pairs)
        totals = [0, 0, 0, 0]
        scores = [0, 0, 0, 0]
        for i, rnd in zip(seq, transcript.rounds):
            totals[i] += 1
            if i < 3:
                scores[i] += rnd.a == rnd.b
            else:
                scores[i] += rnd.a != rnd.b
        seq_score = scores[0] + scores[1] + scores[2] + scores[3]
        score_sum += seq_score
        x: Fraction | None = None
        if 0 not in totals:
            defined += 1
            key = (*totals, *scores)
            x = x_cache.get(key)
            if x is None:
                x = (
                    Fraction(scores[0], totals[0])
                    + Fraction(scores[1], totals[1])
                    + Fraction(scores[2], totals[2])
                    + Fraction(scores[3], totals[3])
                )
                x_cache[key] = x
            x_sum += x
        if collect_distribution:
            dist[(Fraction(4 * seq_score, n), x)] += 1

    distribution = None
    if collect_distribution:
        distribution = tuple(
            (y, x, Fraction(count, total_sequences))
            for (y, x), count in sorted(
                dist.items(),
                key=lambda item: (item[0][0], item[0][1] is not None, item[0][1] or 0),
            )
        )
    return _exact_result(n, score_sum, defined, x_sum, distribution)


def exact_by_counts(strategy: CountDriven, n: int) -> ExactResult:
    """:func:`exact_expectations` by dynamic programming over pair-count vectors.

    A count-driven strategy plays the same assignment on every path to
    a count vector, so round k needs one state per vector of k counts
    (C(k+3, 3) of them), not one per sequence.  Each state carries the
    number of sequences reaching it and, per pair, the scoring rounds
    summed over those sequences.  At the end a state with all counts
    positive contributes score mass / count to the sum of X_N for each
    pair.  Integers throughout; rationals only in the last step.
    """
    # count vector -> [paths, score mass on ALL_PAIRS[0..3]]
    layer = {(0, 0, 0, 0): [1, 0, 0, 0, 0]}
    for k in range(n):
        following: dict[tuple[int, ...], list[int]] = {}
        for counts, (paths, *mass) in layer.items():
            assignment = strategy.assignment(counts, k)
            for j, pair in enumerate(ALL_PAIRS):
                key = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                state = following.get(key)
                if state is None:
                    state = following[key] = [0, 0, 0, 0, 0]
                state[0] += paths
                for i in range(4):
                    state[i + 1] += mass[i]
                if assignment.satisfies(pair):
                    state[j + 1] += paths
        layer = following

    score_sum = 0
    defined = 0
    mass_by_count: Counter = Counter()  # pair count -> score mass, defined states only
    for counts, (paths, *mass) in layer.items():
        score_sum += sum(mass)
        if 0 not in counts:
            defined += paths
            for count, pair_mass in zip(counts, mass):
                mass_by_count[count] += pair_mass
    x_sum = sum((Fraction(m, c) for c, m in mass_by_count.items()), Fraction(0))
    return _exact_result(n, score_sum, defined, x_sum)


@dataclass(frozen=True)
class CollectiveN2Result:
    """Exact joint law of the two round scores for a collective pair model."""

    n_sequences: int
    event_counts: dict[tuple[int, int], int]
    p_both: Fraction


def exact_collective_n2(strategy: CollectiveStrategy) -> CollectiveN2Result:
    """Enumerate all 16 joint setting sequences of a two-round collective model."""
    events: Counter = Counter()
    n_sequences = 0
    for a_seq in itertools.product(tuple(AliceSetting), repeat=2):
        for b_seq in itertools.product(tuple(BobSetting), repeat=2):
            pairs = tuple(SettingPair(a, b) for a, b in zip(a_seq, b_seq))
            transcript = collective_playout(strategy, pairs)
            s1, s2 = (round_score(rnd) for rnd in transcript.rounds)
            events[(s1, s2)] += 1
            n_sequences += 1
    counts = {key: events.get(key, 0) for key in ((0, 0), (0, 1), (1, 0), (1, 1))}
    return CollectiveN2Result(
        n_sequences=n_sequences,
        event_counts=counts,
        p_both=Fraction(counts[(1, 1)], n_sequences),
    )


def chsh_exhaustive_max() -> tuple[Fraction, tuple[DeterministicAssignment, ...]]:
    """Maximum per-round CHSH value over the 16 deterministic assignments."""
    values = [
        (chsh_value(StochasticLHV.point_mass(a)), a) for a in all_assignments()
    ]
    best = max(v for v, _ in values)
    return best, tuple(a for v, a in values if v == best)


@dataclass(frozen=True)
class Model101Exact:
    """Exact analysis of the rigged-101st-round model."""

    p_trigger: Fraction
    log10_p_trigger: float
    e_conditional: Fraction
    e_x_excess: Fraction


def model101_exact() -> Model101Exact:
    """Exact trigger probability and conditional ratio-statistic gain.

    The trigger history (pair counts 33, 33, 33, 1 after 100 rounds) is
    played out explicitly with each possible 101st setting pair; the
    conditional expectation averages the four equally likely branches.
    """
    trigger_settings = (
        [ALL_PAIRS[0]] * 33 + [ALL_PAIRS[1]] * 33 + [ALL_PAIRS[2]] * 33 + [ALL_PAIRS[3]]
    )
    branch_values = []
    for final_pair in ALL_PAIRS:
        transcript = playout(Model101(), trigger_settings + [final_pair])
        x = x_statistic(transcript)
        if x is None:
            raise InvariantViolation("trigger playout left the ratio statistic undefined")
        branch_values.append(x)
    e_conditional = sum(branch_values, Fraction(0)) / 4

    multinomial = math.comb(100, 33) * math.comb(67, 33) * math.comb(34, 1)
    p_trigger = Fraction(multinomial, 4 ** 100)
    return Model101Exact(
        p_trigger=p_trigger,
        log10_p_trigger=math.log10(float(p_trigger)),
        e_conditional=e_conditional,
        e_x_excess=p_trigger * (e_conditional - 3),
    )


@dataclass(frozen=True)
class SignalingCounterexample:
    """A concrete violation: toggling one wing's setting moved the other wing."""

    settings: tuple[SettingPair, ...]
    round_index: int
    toggled_side: Side
    watched_side: Side
    before: int
    after: int


@dataclass(frozen=True)
class NoSignalingReport:
    passed: bool
    sequences_checked: int
    counterexample: SignalingCounterexample | None = None


PlayoutFunction = Callable[[Sequence[SettingPair]], tuple[Sequence[int], Sequence[int]]]


def _outcome_function(subject, seed) -> PlayoutFunction:
    """Normalize a check subject to a settings -> (a_outcomes, b_outcomes) map.

    Stochastic subjects replay the same fixed random tape on every call,
    so toggles compare like with like.
    """
    if isinstance(subject, SequentialStrategy):
        if subject.stochastic and seed is None:
            raise ValueError("stochastic strategies need a seed for the exact check")

        def run(pairs):
            rng = None if seed is None else np.random.default_rng(np.random.SeedSequence(seed))
            t = playout(subject, pairs, rng)
            return tuple(r.a for r in t.rounds), tuple(r.b for r in t.rounds)

        return run
    if isinstance(subject, CollectiveStrategy):

        def run(pairs):
            rng = None if seed is None else np.random.default_rng(np.random.SeedSequence(seed))
            t = collective_playout(subject, pairs, rng)
            return tuple(r.a for r in t.rounds), tuple(r.b for r in t.rounds)

        return run
    if callable(subject):
        return subject
    raise TypeError(f"cannot check {subject!r} for signaling")


def _toggled(pairs: tuple[SettingPair, ...], k: int, side: Side) -> tuple[SettingPair, ...]:
    pair = pairs[k]
    if side is Side.ALICE:
        flipped = SettingPair(AliceSetting(1 - pair.alice), pair.bob)
    else:
        flipped = SettingPair(pair.alice, BobSetting(1 - pair.bob))
    return pairs[:k] + (flipped,) + pairs[k + 1 :]


def no_signaling_check(
    subject, n: int, cap: int = DEFAULT_ENUM_CAP, seed=None
) -> NoSignalingReport:
    """Exhaustively verify that neither wing reacts to the other's current setting.

    For sequential subjects, toggling round k's setting on one wing must
    leave the other wing's round-k outcome unchanged (later rounds may
    legitimately change through memory).  For collective subjects the
    whole watched wing must be unchanged.  Returns the first violation
    found, if any.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > cap:
        raise EnumerationCapError(f"n={n} exceeds enumeration cap {cap}")
    run = _outcome_function(subject, seed)
    collective = isinstance(subject, CollectiveStrategy)

    checked = 0
    for seq in itertools.product(range(4), repeat=n):
        pairs = tuple(ALL_PAIRS[i] for i in seq)
        base_a, base_b = run(pairs)
        checked += 1
        for k in range(n):
            for toggled_side, watched_base, pick in (
                (Side.BOB, base_a, 0),
                (Side.ALICE, base_b, 1),
            ):
                alt = run(_toggled(pairs, k, toggled_side))[pick]
                watched_side = Side.ALICE if toggled_side is Side.BOB else Side.BOB
                if collective:
                    bad = next(
                        (j for j in range(n) if alt[j] != watched_base[j]), None
                    )
                else:
                    bad = k if alt[k] != watched_base[k] else None
                if bad is not None:
                    return NoSignalingReport(
                        passed=False,
                        sequences_checked=checked,
                        counterexample=SignalingCounterexample(
                            settings=pairs,
                            round_index=bad + 1,
                            toggled_side=toggled_side,
                            watched_side=watched_side,
                            before=watched_base[bad],
                            after=alt[bad],
                        ),
                    )
    return NoSignalingReport(passed=True, sequences_checked=checked)

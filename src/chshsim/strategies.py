"""Catalogue of response models for sequential CHSH experiments.

Includes classical hidden-variable responders (memoryless, with shared
memory, collective) and an ideal quantum singlet sampler.  Sequential
strategies answer one round at a time through a protocol that
structurally enforces locality: a responder is handed its own current
setting plus a :class:`~chshsim.core.MemoryView` no richer than its
declared memory class, and nothing else.

Playout engines drive a strategy as::

    strategy.begin_playout(n, rng)      # once; rng may be None if not stochastic
    for each round:
        strategy.begin_round()
        a = strategy.respond_alice(alice_setting, alice_view)
        b = strategy.respond_bob(bob_setting, bob_view)

``respond_alice`` is always called before ``respond_bob`` within a
round.  One strategy instance serves one playout at a time;
``begin_playout`` resets all per-playout state.
"""

from __future__ import annotations

import csv
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, ClassVar, Sequence, TextIO

import numpy as np

from .core import (
    ALL_PAIRS,
    MINUS,
    PLUS,
    AliceSetting,
    BobSetting,
    InvariantViolation,
    MemoryClass,
    MemoryView,
    SettingPair,
)


@dataclass(frozen=True)
class DeterministicAssignment:
    """A fixed answer to every possible setting in one round.

    There are exactly 16 distinct assignments; they play the role of
    point hidden variables.
    """

    a1: int
    a2: int
    b1: int
    b2: int

    def __post_init__(self):
        for label, value in (("a1", self.a1), ("a2", self.a2), ("b1", self.b1), ("b2", self.b2)):
            if value not in (PLUS, MINUS):
                raise ValueError(f"{label}={value!r} must be +1 or -1")

    # Settings compare with the plain values of A1 and B1: an enum member
    # lookup per call would dominate every playout's responses.
    def alice_outcome(self, setting: AliceSetting) -> int:
        return self.a1 if setting == 0 else self.a2

    def bob_outcome(self, setting: BobSetting) -> int:
        return self.b1 if setting == 0 else self.b2

    def satisfies(self, pair: SettingPair) -> bool:
        """Whether this assignment meets the pair's CHSH target.

        The target is equal outcomes for (A1,B1), (A1,B2), (A2,B1) and
        unequal outcomes for (A2,B2).
        """
        a = self.alice_outcome(pair.alice)
        b = self.bob_outcome(pair.bob)
        return (a == b) if pair.index < 3 else (a != b)


CONSTANT_PLUS_ASSIGNMENT = DeterministicAssignment(PLUS, PLUS, PLUS, PLUS)


@lru_cache(maxsize=1)
def all_assignments() -> tuple[DeterministicAssignment, ...]:
    """All 16 deterministic assignments, in a fixed order."""
    return tuple(
        DeterministicAssignment(a1, a2, b1, b2)
        for a1, a2, b1, b2 in itertools.product((PLUS, MINUS), repeat=4)
    )


@lru_cache(maxsize=None)
def solve_sabotage_assignment(target: SettingPair) -> DeterministicAssignment:
    """The assignment that violates exactly the target pair's CHSH term.

    The other three terms are satisfied.  Of the two solutions (which
    differ by a global sign flip) the one with a1 = +1 is returned, so
    the result is deterministic.
    """
    for assignment in all_assignments():
        if assignment.a1 != PLUS:
            continue
        if all(assignment.satisfies(p) == (p != target) for p in ALL_PAIRS):
            return assignment
    raise InvariantViolation(f"no sabotage assignment for target {target}")


@dataclass(frozen=True)
class StochasticLHV:
    """A finite mixture of deterministic assignments with exact weights."""

    support: tuple[tuple[Fraction, DeterministicAssignment], ...]

    def __post_init__(self):
        support = tuple((Fraction(w), assignment) for w, assignment in self.support)
        object.__setattr__(self, "support", support)
        for weight, _ in support:
            if weight < 0:
                raise ValueError(f"negative weight {weight}")
        total = sum((w for w, _ in support), Fraction(0))
        if total != 1:
            raise ValueError(f"weights must sum to exactly 1, got {total}")

    @classmethod
    def point_mass(cls, assignment: DeterministicAssignment) -> "StochasticLHV":
        return cls(((Fraction(1), assignment),))

    @classmethod
    def uniform(cls, assignments: Sequence[DeterministicAssignment]) -> "StochasticLHV":
        k = len(assignments)
        if k == 0:
            raise ValueError("uniform mixture needs at least one assignment")
        return cls(tuple((Fraction(1, k), a) for a in assignments))


class SequentialStrategy(ABC):
    """A sequential responder with a declared memory class.

    ``stochastic`` marks strategies that consume the injected randomness
    source; ``is_lhv`` marks members of the local-hidden-variable family
    (the quantum sampler is the one catalogue entry that is not).
    """

    memory_class: ClassVar[MemoryClass] = MemoryClass.NONE
    stochastic: ClassVar[bool] = False
    is_lhv: ClassVar[bool] = True

    def begin_playout(self, n: int, rng=None) -> None:
        """Reset per-playout state; stochastic strategies draw their tape here.

        Hidden-variable draws happen in full before any setting of the
        playout is revealed, which is the defining causal constraint of
        the model family.
        """

    def begin_round(self) -> None:
        """Hook called once per round before either responder."""

    @abstractmethod
    def respond_alice(self, setting: AliceSetting, view: MemoryView) -> int:
        """Alice's outcome given her current setting and permitted memory."""

    @abstractmethod
    def respond_bob(self, setting: BobSetting, view: MemoryView) -> int:
        """Bob's outcome given his current setting and permitted memory."""


class CollectiveStrategy(ABC):
    """A responder that answers all rounds of one wing at once.

    Each wing's outcomes may depend on that wing's full list of settings
    but never on the other wing's settings.
    """

    stochastic: ClassVar[bool] = False
    is_lhv: ClassVar[bool] = True

    @abstractmethod
    def respond_alice(self, settings: Sequence[AliceSetting], rng=None) -> tuple[int, ...]:
        """Alice-side outcomes for the whole run, one per round."""

    @abstractmethod
    def respond_bob(self, settings: Sequence[BobSetting], rng=None) -> tuple[int, ...]:
        """Bob-side outcomes for the whole run, one per round."""


class CountDriven(SequentialStrategy):
    """A deterministic strategy that reads nothing of the history but its pair counts.

    After k completed rounds, in which ``ALL_PAIRS[i]`` occurred
    ``counts[i]`` times, both wings answer from ``assignment(counts, k)``.
    The exact enumerator relies on this to sum over count vectors instead
    of setting sequences.  Subclasses whose assignment reads the counts
    declare FULL memory; one with memory class NONE sees an empty history
    in play, so its assignment must ignore both arguments.
    """

    memory_class = MemoryClass.FULL

    def __init__(self):
        self.begin_playout(0)

    def begin_playout(self, n, rng=None):
        self._counts = [0, 0, 0, 0]
        self._round = 0
        self._assignment = self.assignment((0, 0, 0, 0), 0)

    @abstractmethod
    def assignment(self, counts: Sequence[int], k: int) -> DeterministicAssignment:
        """The assignment played after k rounds with these pair counts."""

    def _advance(self, view) -> None:
        """Count the rounds completed since the last call and pick the next assignment."""
        k = len(view)
        counts = self._counts
        for i in range(self._round, k):
            counts[view[i].pair.index] += 1
        self._round = k
        self._assignment = self.assignment(tuple(counts), k)

    def respond_alice(self, setting, view):
        if len(view) != self._round:
            self._advance(view)
        return self._assignment.alice_outcome(setting)

    def respond_bob(self, setting, view):
        if len(view) != self._round:
            self._advance(view)
        return self._assignment.bob_outcome(setting)


class ConstantPlus(CountDriven):
    """Answers +1 to every measurement on either side."""

    memory_class = MemoryClass.NONE

    def assignment(self, counts, k):
        return CONSTANT_PLUS_ASSIGNMENT


class GuessingModel(CountDriven):
    """Sabotages the pair that has been measured most so far.

    Round 1 answers +1 to everything.  From round 2 on, the model finds
    the most-measured pair in the shared history and plays the
    assignment that gives that pair (and only that pair) the wrong kind
    of correlation.  Ties go to the earliest pair in canonical order
    unless a different ``tie_break`` rule is supplied.
    """

    def __init__(self, tie_break: Callable[[Sequence[SettingPair]], SettingPair] | None = None):
        self.tie_break = tie_break
        super().__init__()

    def assignment(self, counts, k):
        if k == 0:
            return CONSTANT_PLUS_ASSIGNMENT
        top = max(counts)
        tied = [ALL_PAIRS[i] for i in range(4) if counts[i] == top]
        target = tied[0] if self.tie_break is None else self.tie_break(tied)
        return solve_sabotage_assignment(target)


#: Assignment Model101 plays on its trigger round: +1 on Alice's side
#: regardless of setting, +1 for B1, -1 for B2.
MODEL_101_TRIGGER_ASSIGNMENT = DeterministicAssignment(PLUS, PLUS, PLUS, MINUS)

#: History pair counts, in canonical order, that arm the trigger.
MODEL_101_TRIGGER_COUNTS = (33, 33, 33, 1)


class Model101(CountDriven):
    """Constant +1 except for one rigged 101st round.

    When the first 100 rounds used (A1,B1), (A1,B2), (A2,B1) exactly 33
    times each and (A2,B2) once, round 101 answers +1 on Alice's side
    and +1/-1 for B1/B2.  In every other situation the model is
    indistinguishable from :class:`ConstantPlus`.
    """

    def assignment(self, counts, k):
        if k == 100 and tuple(counts) == MODEL_101_TRIGGER_COUNTS:
            return MODEL_101_TRIGGER_ASSIGNMENT
        return CONSTANT_PLUS_ASSIGNMENT


#: Probability that one round's outcomes meet the CHSH target under the
#: ideal singlet measurements; four such terms sum to 2 + sqrt(2).
QUANTUM_SCORE_PROBABILITY = (2.0 + math.sqrt(2.0)) / 4.0


class QuantumSingletSampler(SequentialStrategy):
    """Samples the ideal quantum singlet statistics round by round.

    Alice's outcome is a fair coin; Bob's outcome agrees with Alice's
    with probability (2+sqrt(2))/4 for the three correlation-target
    pairs and disagrees with that probability for (A2,B2).  Marginals on
    each side are uniform, but the joint rule reads both current
    settings, so this is a simulation aid, not a hidden-variable model.
    """

    memory_class = MemoryClass.NONE
    stochastic = True
    is_lhv = False

    def __init__(self):
        self._a_tape: list[int] = []
        self._agree_tape: list[bool] = []
        self._round = -1
        self._alice_setting = None

    def begin_playout(self, n, rng=None):
        if rng is None:
            raise ValueError("quantum sampler needs a randomness source")
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        agree = rng.random(n) < QUANTUM_SCORE_PROBABILITY
        self._a_tape = [PLUS if bit else MINUS for bit in bits]
        self._agree_tape = agree.tolist()
        self._round = -1
        self._alice_setting = None

    def begin_round(self):
        self._round += 1
        self._alice_setting = None

    def respond_alice(self, setting, view):
        self._alice_setting = setting
        return self._a_tape[self._round]

    def respond_bob(self, setting, view):
        if self._alice_setting is None:
            raise InvariantViolation("respond_bob called before respond_alice")
        a = self._a_tape[self._round]
        agree = self._agree_tape[self._round]
        pair_index = 2 * self._alice_setting + setting
        if pair_index == 3:
            return -a if agree else a
        return a if agree else -a


class StochasticSequential(SequentialStrategy):
    """Memoryless play from a fixed mixture of deterministic assignments.

    Each round independently draws one assignment according to the
    mixture weights; both wings then answer from it.
    """

    memory_class = MemoryClass.NONE
    stochastic = True

    def __init__(self, lhv: StochasticLHV):
        self.lhv = lhv
        self._cumulative = np.cumsum([float(w) for w, _ in lhv.support])
        self._assignments = tuple(a for _, a in lhv.support)
        self._tape: list[DeterministicAssignment] = []
        self._round = -1

    def begin_playout(self, n, rng=None):
        if rng is None:
            raise ValueError("stochastic play needs a randomness source")
        draws = rng.random(n)
        picks = np.minimum(
            np.searchsorted(self._cumulative, draws, side="right"),
            len(self._assignments) - 1,
        )
        self._tape = [self._assignments[i] for i in picks]
        self._round = -1

    def begin_round(self):
        self._round += 1

    def respond_alice(self, setting, view):
        return self._tape[self._round].alice_outcome(setting)

    def respond_bob(self, setting, view):
        return self._tape[self._round].bob_outcome(setting)


class CollectiveN2(CollectiveStrategy):
    """The two-round collective model with correlated round scores.

    Each wing answers (+1,+1) except for one special own-side setting
    order: Alice answers (+1,-1) to settings (A1,A2) and Bob answers
    (-1,+1) to settings (B2,B1).
    """

    def _respond(self, settings, special, outcomes):
        if len(settings) != 2:
            raise ValueError(f"collective-n2 is defined for exactly 2 rounds, got {len(settings)}")
        if tuple(settings) == special:
            return outcomes
        return (PLUS, PLUS)

    def respond_alice(self, settings, rng=None):
        return self._respond(tuple(settings), (AliceSetting.A1, AliceSetting.A2), (PLUS, MINUS))

    def respond_bob(self, settings, rng=None):
        return self._respond(tuple(settings), (BobSetting.B2, BobSetting.B1), (MINUS, PLUS))


def constant_plus() -> SequentialStrategy:
    """Memoryless strategy answering +1 everywhere."""
    return ConstantPlus()


def guessing_model(tie_break=None) -> SequentialStrategy:
    """Full-memory strategy sabotaging the most-measured pair."""
    return GuessingModel(tie_break)


def model_101() -> SequentialStrategy:
    """Full-memory strategy with the rigged 101st round."""
    return Model101()


def collective_n2() -> CollectiveStrategy:
    """Collective two-round model; both wings answer their run at once."""
    return CollectiveN2()


def quantum_singlet_sampler() -> SequentialStrategy:
    """Ideal quantum singlet statistics (simulation aid, not an LHV)."""
    return QuantumSingletSampler()


def from_stochastic(lhv: StochasticLHV) -> SequentialStrategy:
    """Memoryless sequential play from a stochastic mixture."""
    return StochasticSequential(lhv)


#: CLI strategy names mapped to zero-argument factories.  ``stochastic-lhv``
#: is absent because it needs a parsed weights file; see
#: :func:`make_factory`.
REGISTRY: dict[str, Callable[[], SequentialStrategy | CollectiveStrategy]] = {
    "constant-plus": constant_plus,
    "guessing": guessing_model,
    "model101": model_101,
    "collective-n2": collective_n2,
    "quantum": quantum_singlet_sampler,
}

STRATEGY_NAMES = tuple(REGISTRY) + ("stochastic-lhv",)


def make_factory(name: str, lhv: StochasticLHV | None = None):
    """Resolve a CLI strategy name to a zero-argument factory."""
    if name == "stochastic-lhv":
        if lhv is None:
            raise ValueError("strategy 'stochastic-lhv' requires a weights file")
        return lambda: from_stochastic(lhv)
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; valid names: {', '.join(STRATEGY_NAMES)}"
        ) from None


def parse_weights_csv(fp: TextIO) -> StochasticLHV:
    """Parse a mixture file with rows ``weight,a1,a2,b1,b2``.

    Weights may be exact rationals like ``1/4`` or decimal strings; they
    must sum to exactly 1 after rational parsing.
    """
    reader = csv.reader(fp)
    support = []
    for row in reader:
        if not row or row[0].strip().startswith("#"):
            continue
        if row[0].strip() == "weight":
            continue
        if len(row) != 5:
            raise ValueError(f"malformed weights row: {row!r}")
        weight = Fraction(row[0].strip())
        outcomes = [int(v) for v in row[1:]]
        support.append((weight, DeterministicAssignment(*outcomes)))
    if not support:
        raise ValueError("weights file contains no rows")
    return StochasticLHV(tuple(support))

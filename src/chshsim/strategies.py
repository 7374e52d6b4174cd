"""Catalogue of response models for sequential CHSH experiments.

Includes classical hidden-variable responders (memoryless, with shared
memory, collective) and an ideal quantum singlet sampler; the two
stochastic ones share :class:`_TapePlay`, which states the tape
contract.  Sequential strategies answer one round at a time through a
protocol that structurally enforces locality: a responder is handed its
own current setting plus a :class:`~chshsim.core.MemoryView` no richer
than its declared memory class, and nothing else.

Playout engines drive a strategy as::

    strategy.begin_playout(n, rng)      # once; rng may be None if not stochastic
    for each round:
        strategy.begin_round()
        a = strategy.respond_alice(alice_setting, alice_view)
        b = strategy.respond_bob(bob_setting, bob_view)

``respond_alice`` is always called before ``respond_bob`` within a
round.  One strategy instance serves one playout at a time;
``begin_playout`` resets all per-playout state.

The no-signaling check plays each round of each setting prefix once:
it begins one playout and, where prefixes branch, continues each branch
from ``strategy._snapshot()``, a copy of the state mid-playout.  The
default deep copy suits any strategy that keeps this protocol.  A
strategy may override it with a shallow copy that shares attribute
values only if every round replaces, never mutates in place, what it
changes, and nothing mutates its tapes after ``begin_playout``.

Before it snapshots a prefix's state, the walk calls
``strategy._catch_up(view)`` on it once, with the view Alice's
responder is about to get at that prefix, before ``begin_round``.  The
hook may do only what the strategy's first responder would do from that
view alone, so the prefix's four branches share the work instead of
each repeating it; it never sees a current setting, so it cannot hide
signaling.  The default does nothing.  The responders must not rely on
it: :func:`~chshsim.enumerator.playout` and direct callers never call
it, so a responder still does the same work itself when it is due.

Right after the catch-up the walk may ask the state for keys of its
four children, ``strategy._child_keys()``.  Keys that are not ``None``
promise that two children at the same depth with equal keys play every
continuation identically, so the walk checks the subtree below one of
them and skips the others before it descends into them.  The default,
``None``, promises nothing, and every child is walked in full.
"""

from __future__ import annotations

import bisect
import copy
import csv
import itertools
import math
from abc import ABC, abstractmethod
from fractions import Fraction
from functools import lru_cache
from typing import Callable, ClassVar, NamedTuple, Sequence, TextIO

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
    WINS_ON_EQUAL,
)


class DeterministicAssignment:
    """A fixed answer to every possible setting in one round.

    There are exactly 16 distinct assignments; they play the role of
    point hidden variables.  ``hits[i]`` is 1 where the assignment meets
    the CHSH target of ``ALL_PAIRS[i]`` (``WINS_ON_EQUAL``) and 0 where
    it does not.  The flags are worked out once, at construction, and
    take no part in equality, hashing or repr.  An assignment is immutable.
    Its values live in slots, which the responders of every playout
    read as fast as plain instance attributes (a tuple field's getter
    is slower).
    """

    __slots__ = ("a1", "a2", "b1", "b2", "hits")

    def __init__(self, a1: int, a2: int, b1: int, b2: int):
        for label, value in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2)):
            if value not in (PLUS, MINUS):
                raise ValueError(f"{label}={value!r} must be +1 or -1")
        hits = tuple(int((a == b) == equal) for a, b, equal in zip((a1, a1, a2, a2), (b1, b2, b1, b2), WINS_ON_EQUAL))
        for name, value in zip(self.__slots__, (a1, a2, b1, b2, hits)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _outcomes(self) -> tuple[int, int, int, int]:
        return self.a1, self.a2, self.b1, self.b2

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._outcomes() == other._outcomes()

    def __hash__(self):
        return hash(self._outcomes())

    def __repr__(self):
        a1, a2, b1, b2 = self._outcomes()
        return f"{type(self).__qualname__}(a1={a1!r}, a2={a2!r}, b1={b1!r}, b2={b2!r})"

    def __reduce__(self):
        return type(self), self._outcomes()

    # Settings compare with the plain values of A1 and B1: an enum member
    # lookup per call would dominate every playout's responses.
    def alice_outcome(self, setting: AliceSetting) -> int:
        return self.a1 if setting == 0 else self.a2

    def bob_outcome(self, setting: BobSetting) -> int:
        return self.b1 if setting == 0 else self.b2

    def satisfies(self, pair: SettingPair) -> bool:
        """Whether this assignment meets the pair's CHSH target (``hits``)."""
        return bool(self.hits[pair.index])


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
    hits = tuple(int(p != target) for p in ALL_PAIRS)
    for assignment in all_assignments():
        if assignment.a1 == PLUS and assignment.hits == hits:
            return assignment
    raise InvariantViolation(f"no sabotage assignment for target {target}")


class _StochasticLHVFields(NamedTuple):
    support: tuple[tuple[Fraction, DeterministicAssignment], ...]


class StochasticLHV(_StochasticLHVFields):
    """A finite mixture of deterministic assignments with exact weights."""

    __slots__ = ()

    def __new__(cls, support):
        support = tuple((Fraction(w), assignment) for w, assignment in support)
        for weight, _ in support:
            if weight < 0:
                raise ValueError(f"negative weight {weight}")
        total = sum((w for w, _ in support), Fraction(0))
        if total != 1:
            raise ValueError(f"weights must sum to exactly 1, got {total}")
        return super().__new__(cls, support)

    @classmethod
    def point_mass(cls, assignment: DeterministicAssignment) -> "StochasticLHV":
        return cls(((Fraction(1), assignment),))

    @classmethod
    def uniform(cls, assignments: Sequence[DeterministicAssignment]) -> "StochasticLHV":
        k = len(assignments)
        if k == 0:
            raise ValueError("uniform mixture needs at least one assignment")
        return cls(tuple((Fraction(1, k), a) for a in assignments))


def _shallow_snapshot(strategy):
    """A new instance sharing every attribute value of ``strategy``."""
    twin = object.__new__(type(strategy))
    twin.__dict__.update(strategy.__dict__)
    return twin


class SequentialStrategy(ABC):
    """A sequential responder with a declared memory class.

    ``stochastic`` marks strategies that consume the injected randomness
    source (:class:`_TapePlay`).  Four private hooks serve the no-signaling
    walk: ``_snapshot`` copies the state a setting prefix left,
    ``_catch_up`` lets the state do once per prefix, from Alice's view
    alone and before the snapshots, what each branch's first responder
    would otherwise repeat, and ``_child_keys`` names the children whose
    futures are the same, so the walk checks one subtree for all of them
    (see the module docstring).
    """

    memory_class: ClassVar[MemoryClass] = MemoryClass.NONE
    stochastic: ClassVar[bool] = False

    def begin_playout(self, n: int, rng=None) -> None:
        """Reset per-playout state; a stochastic strategy draws its tape here (``rng``: see ``_TapePlay``)."""

    def begin_round(self) -> None:
        """Hook called once per round before either responder."""

    def _snapshot(self) -> "SequentialStrategy":
        """An independent copy of this strategy's state mid-playout.

        The no-signaling walk plays each setting prefix's next round from
        a snapshot, so a copy must continue exactly as the original would.
        A deep copy does for any strategy that keeps the protocol; a
        subclass may share attribute values with a shallow copy
        (:func:`_shallow_snapshot`) when every round replaces, never
        mutates, what it changes.
        """
        return copy.deepcopy(self)

    def _catch_up(self, view: MemoryView) -> None:
        """Do, once per setting prefix, what the first responder would do from ``view``.

        The no-signaling walk calls this on a prefix's state before
        snapshotting it and before ``begin_round``, with the view Alice's
        responder is about to get.  It sees no current setting.  The
        default does nothing; the responders must still do the same work
        themselves when it has not been done.
        """

    def _child_keys(self):
        """Hashable keys of this caught-up state's four children, in ``ALL_PAIRS`` order, or ``None``.

        Entry q keys the child reached by playing the next round on
        ``ALL_PAIRS[q]`` from this state.  Two children at the same depth
        with equal keys, whatever their parents, must give the same
        outcomes on every continuation of setting pairs.  The no-signaling
        walk reads the keys right after ``_catch_up``, checks the subtree
        below the first child of each key and skips the rest unvisited.
        The default, ``None``, keys nothing, so every prefix is walked.
        """
        return None

    @abstractmethod
    def respond_alice(self, setting: AliceSetting, view: MemoryView) -> int:
        """Alice's outcome given her current setting and permitted memory."""

    @abstractmethod
    def respond_bob(self, setting: BobSetting, view: MemoryView) -> int:
        """Bob's outcome given his current setting and permitted memory."""


class CollectiveStrategy(ABC):
    """A responder that answers all rounds of one wing at once.

    Each wing's run is a function of that wing's full list of settings
    alone: never of the other wing's settings, nor of any randomness, so
    the engines play each setting sequence once.  Exact enumeration
    refuses a subclass that sets ``stochastic``.
    """

    stochastic: ClassVar[bool] = False

    @abstractmethod
    def respond_alice(self, settings: Sequence[AliceSetting]) -> tuple[int, ...]:
        """Alice-side outcomes for the whole run, one per round."""

    @abstractmethod
    def respond_bob(self, settings: Sequence[BobSetting]) -> tuple[int, ...]:
        """Bob-side outcomes for the whole run, one per round."""


class CountDriven(SequentialStrategy):
    """A deterministic strategy that reads nothing of the history but its pair counts.

    After k completed rounds, in which ``ALL_PAIRS[i]`` occurred
    ``counts[i]`` times, both wings answer from ``assignment(counts, k)``.
    The exact enumerator relies on this to sum over count vectors instead
    of setting sequences.  Subclasses whose assignment reads the counts
    declare FULL memory; one with memory class NONE sees an empty history
    in play, so its assignment must ignore both arguments.  The pair
    counts are a tuple replaced each round, so a snapshot may share it.

    Each responder first counts the rounds its view holds beyond the last
    count and picks the next assignment (``_advance``) when the view is
    ahead.  ``_catch_up`` makes the same check, so the no-signaling walk
    advances a prefix's state once and its four snapshots share the
    result; ``playout`` leaves the advance to the responders.  All
    prefixes with equal counts play alike from there on, so a child's key
    (``_child_keys``) is the counts with its pair's count raised by one,
    or the same counts under memory class NONE, whose empty views never
    advance them.  The walk then checks C(n+3, 4) prefixes of a passing
    n-round check, not (4^n - 1)/3, and skips a finished child without
    visiting it.  A subclass whose play reads anything else of the
    history must override the keys, with ``None`` or richer ones; its
    check is then admitted, by predicted work, like a walk without keys.
    """

    memory_class = MemoryClass.FULL
    _snapshot = _shallow_snapshot

    def __init__(self):
        self.begin_playout(0)

    def begin_playout(self, n, rng=None):
        self._counts = (0, 0, 0, 0)
        self._round = 0
        self._assignment = self.assignment((0, 0, 0, 0), 0)

    @abstractmethod
    def assignment(self, counts: Sequence[int], k: int) -> DeterministicAssignment:
        """The assignment played after k rounds with these pair counts."""

    def _advance(self, view) -> None:
        """Count the rounds completed since the last call and pick the next assignment."""
        k = len(view)
        counts = list(self._counts)
        for i in range(self._round, k):
            counts[view[i].pair.index] += 1
        self._counts = counts = tuple(counts)
        self._round = k
        self._assignment = self.assignment(counts, k)

    def _catch_up(self, view):
        if len(view) != self._round:
            self._advance(view)

    def _child_keys(self):
        counts = self._counts
        if self.memory_class._value_ == "none":  # the value: Python 3.11 finds members slowly
            return (counts,) * 4
        c0, c1, c2, c3 = counts
        return (c0 + 1, c1, c2, c3), (c0, c1 + 1, c2, c3), (c0, c1, c2 + 1, c3), (c0, c1, c2, c3 + 1)

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
    of correlation.  Ties go to the earliest pair in canonical order.
    """

    def assignment(self, counts, k):
        if k == 0:
            return CONSTANT_PLUS_ASSIGNMENT
        return solve_sabotage_assignment(ALL_PAIRS[counts.index(max(counts))])


#: Assignment Model101 plays on its trigger round: +1 on Alice's side
#: regardless of setting, +1 for B1, -1 for B2.
MODEL_101_TRIGGER_ASSIGNMENT = DeterministicAssignment(PLUS, PLUS, PLUS, MINUS)

#: History pair counts, in canonical order, that arm the trigger; the
#: trigger round is the one after their sum of rounds.
MODEL_101_TRIGGER_COUNTS = (33, 33, 33, 1)


class Model101(CountDriven):
    """Constant +1 except for one rigged 101st round.

    When the first 100 rounds used (A1,B1), (A1,B2), (A2,B1) exactly 33
    times each and (A2,B2) once, round 101 answers +1 on Alice's side
    and +1/-1 for B1/B2.  In every other situation the model is
    indistinguishable from :class:`ConstantPlus`.
    """

    def assignment(self, counts, k):
        # The counts sum to k, so they fix the round as well.
        if tuple(counts) == MODEL_101_TRIGGER_COUNTS:
            return MODEL_101_TRIGGER_ASSIGNMENT
        return CONSTANT_PLUS_ASSIGNMENT


#: Probability that one round's outcomes meet the CHSH target under the
#: ideal singlet measurements; four such terms sum to 2 + sqrt(2).
QUANTUM_SCORE_PROBABILITY = (2.0 + math.sqrt(2.0)) / 4.0


class _TapePlay(SequentialStrategy):
    """Memoryless play from a tape drawn in full before any setting is revealed.

    That is the defining causal constraint of these models.
    ``begin_playout`` refuses ``rng=None`` with ``ValueError``, draws the
    tape (``_draw``) and resets the round counter that ``begin_round``
    advances.  ``rng`` is duck-typed: a draw may call only
    ``rng.integers(0, k, size=n, dtype="uint8")`` for k in {2, 4} and
    ``rng.random(n)``, and iterate what they return.  The engines pass
    a :class:`~chshsim.stream.Stream`; numpy's ``Generator`` gives the
    same draws from the same seed, and the tests hold the two equal.
    The responders read the tape at the current round and the current
    settings alone, so every state at a given depth plays every
    continuation alike, and every child's key (``_child_keys``) is the
    empty tuple.  The tape is replaced, never mutated, so a snapshot may
    share it.
    """

    memory_class = MemoryClass.NONE
    stochastic = True
    _snapshot = _shallow_snapshot
    _round = -1

    def begin_playout(self, n, rng=None):
        if rng is None:
            raise ValueError(f"{type(self).__name__} needs a randomness source")
        self._draw(n, rng)
        self._round = -1

    @abstractmethod
    def _draw(self, n: int, rng) -> None:
        """Draw this playout's tape of n rounds from ``rng``."""

    def begin_round(self):
        self._round += 1

    def _child_keys(self):
        return ((),) * 4


class QuantumSingletSampler(_TapePlay):
    """Samples the ideal quantum singlet statistics round by round.

    Alice's outcome is a fair coin; with probability (2+sqrt(2))/4 Bob's
    meets the round's CHSH target (``WINS_ON_EQUAL``).  Marginals on each
    side are uniform, but the joint rule reads both current settings,
    so this is a simulation aid, not a hidden-variable model.
    """

    _alice_setting = None

    def _draw(self, n, rng):
        bits = rng.integers(0, 2, size=n, dtype="uint8")
        self._a_tape = [PLUS if bit else MINUS for bit in bits]
        self._score_tape = [u < QUANTUM_SCORE_PROBABILITY for u in rng.random(n)]
        self._alice_setting = None

    def begin_round(self):
        super().begin_round()
        self._alice_setting = None

    def respond_alice(self, setting, view):
        self._alice_setting = setting
        return self._a_tape[self._round]

    def respond_bob(self, setting, view):
        if self._alice_setting is None:
            raise InvariantViolation("respond_bob called before respond_alice")
        a = self._a_tape[self._round]
        scores = self._score_tape[self._round]
        return a if scores == WINS_ON_EQUAL[2 * self._alice_setting + setting] else -a


class StochasticSequential(_TapePlay):
    """Memoryless play from a fixed mixture of deterministic assignments.

    Each round independently draws one assignment according to the
    mixture weights; both wings then answer from it.
    """

    def __init__(self, lhv: StochasticLHV):
        self.lhv = lhv
        self._cumulative = tuple(itertools.accumulate(float(w) for w, _ in lhv.support))
        self._assignments = tuple(a for _, a in lhv.support)

    def _draw(self, n, rng):
        cumulative, last = self._cumulative, len(self._assignments) - 1
        self._tape = [self._assignments[min(bisect.bisect_right(cumulative, u), last)] for u in rng.random(n)]

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

    def respond_alice(self, settings):
        return self._respond(tuple(settings), (AliceSetting.A1, AliceSetting.A2), (PLUS, MINUS))

    def respond_bob(self, settings):
        return self._respond(tuple(settings), (BobSetting.B2, BobSetting.B1), (MINUS, PLUS))


#: The catalogue's classes under their factory names.
constant_plus = ConstantPlus
guessing_model = GuessingModel
model_101 = Model101
collective_n2 = CollectiveN2
quantum_singlet_sampler = QuantumSingletSampler
from_stochastic = StochasticSequential


#: CLI strategy names mapped to their classes, each its own factory.
#: ``stochastic-lhv`` needs a weights file; see :func:`make_factory`.
REGISTRY: dict[str, Callable[[], SequentialStrategy | CollectiveStrategy]] = {
    "constant-plus": ConstantPlus,
    "guessing": GuessingModel,
    "model101": Model101,
    "collective-n2": CollectiveN2,
    "quantum": QuantumSingletSampler,
}

STRATEGY_NAMES = tuple(REGISTRY) + ("stochastic-lhv",)


def make_factory(name: str, lhv: StochasticLHV | None = None):
    """Resolve a CLI strategy name to a zero-argument factory."""
    if name == "stochastic-lhv":
        if lhv is None:
            raise ValueError("strategy 'stochastic-lhv' requires a weights file")
        return lambda: StochasticSequential(lhv)
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
        try:
            weight = Fraction(row[0].strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in weights row: {row!r}") from None
        except ValueError:
            raise ValueError(f"invalid weight in weights row: {row!r}") from None
        try:
            assignment = DeterministicAssignment(*(int(v) for v in row[1:]))
        except ValueError:
            raise ValueError(f"outcomes must be +1 or -1 in weights row: {row!r}") from None
        support.append((weight, assignment))
    if not support:
        raise ValueError("weights file contains no rows")
    return StochasticLHV(tuple(support))

"""Domain vocabulary for sequential CHSH experiments.

Settings, outcomes, the CHSH win rule, rounds, transcripts, and the
memory views that control how much of the past history a responder is
allowed to see; :func:`views` cuts every view from the rounds of a
play.  All types here are immutable values once constructed.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple, Sequence


class InvariantViolation(RuntimeError):
    """An internal consistency guarantee was broken during a computation."""


class AliceSetting(enum.IntEnum):
    """Alice's two measurement choices, ordered A1 < A2."""

    A1 = 0
    A2 = 1


class BobSetting(enum.IntEnum):
    """Bob's two measurement choices, ordered B1 < B2."""

    B1 = 0
    B2 = 1


PLUS = 1
MINUS = -1


class SettingPair(NamedTuple):
    alice: AliceSetting
    bob: BobSetting

    @property
    def index(self) -> int:
        """Position in the canonical order (A1,B1), (A1,B2), (A2,B1), (A2,B2)."""
        return 2 * self.alice + self.bob

    def __str__(self) -> str:
        return f"({self.alice.name},{self.bob.name})"


#: Canonical enumeration order; ALL_PAIRS[i].index == i.
ALL_PAIRS: tuple[SettingPair, ...] = tuple(
    SettingPair(a, b) for a in AliceSetting for b in BobSetting
)

#: The CHSH game's win rule, indexed like ALL_PAIRS: a round on pair i
#: wins on equal outcomes if WINS_ON_EQUAL[i], else on unequal ones.
WINS_ON_EQUAL: tuple[bool, ...] = (True, True, True, False)


class Round(NamedTuple):
    """One completed measurement round; ``index`` is 1-based."""

    index: int
    pair: SettingPair
    a: int
    b: int


class PairCounts(NamedTuple):
    """Tally for one setting pair: rounds played, correlated, anticorrelated."""

    total: int
    correlated: int
    anticorrelated: int


def _check_outcome(value, label: str) -> int:
    if value != PLUS and value != MINUS:
        raise ValueError(f"outcome {label}={value!r} must be +1 or -1")
    return int(value)


def _check_pair(pair) -> SettingPair:
    if (
        isinstance(pair, SettingPair)
        and isinstance(pair.alice, AliceSetting)
        and isinstance(pair.bob, BobSetting)
    ):
        return pair
    alice, bob = pair
    return SettingPair(AliceSetting(alice), BobSetting(bob))


class Transcript:
    """Append-only record of rounds with indices exactly 1..n_total."""

    __slots__ = ("rounds",)

    def __init__(self, rounds: Iterable[Round] = ()):
        rounds = tuple(rounds)
        for expected, rnd in enumerate(rounds, start=1):
            if rnd.index != expected:
                raise ValueError(
                    f"round indices must run 1..{len(rounds)} in order; "
                    f"found index {rnd.index} at position {expected}"
                )
        self.rounds = rounds

    @property
    def n_total(self) -> int:
        return len(self.rounds)

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self) -> Iterator[Round]:
        return iter(self.rounds)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self.rounds == other.rounds

    def __hash__(self) -> int:
        return hash(self.rounds)

    def __repr__(self) -> str:
        return f"Transcript(n_total={self.n_total})"

    def record(self, pair, a, b) -> "Transcript":
        """A new transcript with one more round appended."""
        pair = _check_pair(pair)
        rnd = Round(len(self.rounds) + 1, pair, _check_outcome(a, "a"), _check_outcome(b, "b"))
        new = Transcript.__new__(Transcript)
        new.rounds = self.rounds + (rnd,)
        return new

    def counts(self) -> dict[SettingPair, PairCounts]:
        """Per-pair tallies; totals over all pairs sum to n_total."""
        totals = [0, 0, 0, 0]
        corr = [0, 0, 0, 0]
        for rnd in self.rounds:
            i = rnd.pair.index
            totals[i] += 1
            if rnd.a == rnd.b:
                corr[i] += 1
        return {
            p: PairCounts(totals[i], corr[i], totals[i] - corr[i])
            for i, p in enumerate(ALL_PAIRS)
        }


class MemoryClass(enum.Enum):
    NONE = "none"
    OWN_SIDE = "own-side"
    FULL = "full"


class Side(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


class OwnSideEntry(NamedTuple):
    """What one wing remembers about one of its own past rounds."""

    setting: AliceSetting | BobSetting
    outcome: int


class MemoryView:
    """Bounded read-only window onto the history a responder may consult.

    Cut from a play's rounds by :func:`views`: FULL views expose whole
    rounds, OWN_SIDE views build that wing's (setting, outcome) entry
    from each round as it is read, NONE views are empty.  A view of the
    first k rounds can never reveal anything from round k+1 onward,
    even when the backing sequence keeps growing behind it.
    """

    __slots__ = ("memory_class", "side", "_backing", "_length")

    def __init__(self, memory_class: MemoryClass, side, backing: Sequence, length: int):
        if not 0 <= length <= len(backing):
            raise ValueError("view length exceeds backing history")
        self.memory_class = memory_class
        self.side = side
        self._backing = backing
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int):
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("memory view index out of range")
        if self.side is None:
            return self._backing[i]
        rnd = self._backing[i]
        if self.side._value_ == "alice":  # the value, as in views()
            return OwnSideEntry(rnd.pair.alice, rnd.a)
        return OwnSideEntry(rnd.pair.bob, rnd.b)

    def __iter__(self):
        return map(self.__getitem__, range(self._length))

    def entries(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        who = self.side.value if self.side is not None else "shared"
        return f"MemoryView({self.memory_class.value}, {who}, {self.entries()!r})"


#: The view every memoryless responder receives.
EMPTY_VIEW = MemoryView(MemoryClass.NONE, None, (), 0)


def views(memory_class: MemoryClass, rounds: Sequence[Round], k: int) -> tuple[MemoryView, MemoryView]:
    """Alice's and Bob's views of the first k of ``rounds`` under ``memory_class``.

    FULL gives both wings one shared view of the rounds, OWN_SIDE each
    wing a view of its own entries, NONE both :data:`EMPTY_VIEW`.
    """
    # Values, not members: Python 3.11 finds ``MemoryClass.FULL`` through EnumType.__getattr__, slowly.
    if memory_class._value_ == "full":
        view = MemoryView(memory_class, None, rounds, k)
        return view, view
    if memory_class._value_ == "own-side":
        return MemoryView(memory_class, Side.ALICE, rounds, k), MemoryView(memory_class, Side.BOB, rounds, k)
    return EMPTY_VIEW, EMPTY_VIEW

"""Tests for the core vocabulary: transcripts, counts, and the memory views
that ``playout`` hands each wing."""

import pytest
from hypothesis import given, strategies as hs

from chshsim.core import (
    ALL_PAIRS,
    EMPTY_VIEW,
    AliceSetting,
    BobSetting,
    MemoryClass,
    MemoryView,
    OwnSideEntry,
    Round,
    SettingPair,
    Side,
    Transcript,
)
from chshsim.enumerator import playout
from chshsim.strategies import SequentialStrategy

P11, P12, P21, P22 = ALL_PAIRS


def build(rows):
    t = Transcript()
    for pair, a, b in rows:
        t = t.record(pair, a, b)
    return t


transcript_rows = hs.lists(
    hs.tuples(hs.sampled_from(ALL_PAIRS), hs.sampled_from((1, -1)), hs.sampled_from((1, -1))),
    max_size=30,
)


def test_canonical_pair_order():
    assert [str(p) for p in ALL_PAIRS] == ["(A1,B1)", "(A1,B2)", "(A2,B1)", "(A2,B2)"]
    assert [p.index for p in ALL_PAIRS] == [0, 1, 2, 3]
    assert AliceSetting.A1 < AliceSetting.A2
    assert BobSetting.B1 < BobSetting.B2


def test_record_round_first_round():
    t = Transcript().record(P11, 1, 1)
    assert t.n_total == 1
    table = t.counts()
    assert table[P11] == (1, 1, 0)
    assert all(table[p] == (0, 0, 0) for p in ALL_PAIRS[1:])


def test_record_round_appends_anticorrelated():
    t = build([(P11, 1, 1), (P22, 1, -1)])
    assert t.n_total == 2
    assert t.rounds[1].index == 2
    assert t.counts()[P22].anticorrelated == 1


def test_record_round_count_conservation_one_per_pair():
    t = build([(p, 1, -1) for p in ALL_PAIRS])
    assert sum(c.total for c in t.counts().values()) == 4


def test_record_round_leaves_original_untouched():
    t1 = build([(P11, 1, 1)])
    t2 = t1.record(P21, -1, -1)
    assert t1.n_total == 1
    assert t2.n_total == 2


def test_record_round_rejects_bad_outcome():
    with pytest.raises(ValueError):
        Transcript().record(P11, 0, 1)
    with pytest.raises(ValueError):
        Transcript().record(P11, 1, 2)


def test_counts_mixed_pair():
    t = build([(P22, 1, -1), (P22, -1, -1)])
    assert t.counts()[P22] == (2, 1, 1)


def test_counts_all_plus_two_per_pair():
    t = build([(p, 1, 1) for p in ALL_PAIRS for _ in range(2)])
    assert all(t.counts()[p] == (2, 2, 0) for p in ALL_PAIRS)


def test_transcript_index_validation():
    good = Round(1, P11, 1, 1)
    with pytest.raises(ValueError):
        Transcript([Round(2, P11, 1, 1)])
    with pytest.raises(ValueError):
        Transcript([good, Round(3, P12, 1, 1)])


@given(transcript_rows)
def test_count_conservation(rows):
    t = build(rows)
    table = t.counts()
    assert sum(c.total for c in table.values()) == t.n_total
    for c in table.values():
        assert c.correlated + c.anticorrelated == c.total


class ViewRecorder(SequentialStrategy):
    """Plays a fixed rule of its own setting and round, and keeps each view
    ``playout`` hands it with the entries the view showed at the time."""

    def __init__(self, memory_class):
        self.memory_class = memory_class
        self.alice_views = []
        self.bob_views = []

    def respond_alice(self, setting, view):
        self.alice_views.append((view, view.entries()))
        return -1 if (setting + len(view)) % 3 == 2 else 1

    def respond_bob(self, setting, view):
        self.bob_views.append((view, view.entries()))
        return -1 if (setting + len(view)) % 2 else 1


def played_views(memory_class, settings):
    """The transcript of one playout and the views each wing received."""
    recorder = ViewRecorder(memory_class)
    transcript = playout(recorder, settings)
    return transcript, recorder.alice_views, recorder.bob_views


setting_sequences = hs.lists(hs.sampled_from(ALL_PAIRS), max_size=30)


@given(setting_sequences)
def test_memory_view_none_is_empty(settings):
    _, alice, bob = played_views(MemoryClass.NONE, settings)
    assert len(alice) == len(bob) == len(settings)
    for view, seen in alice + bob:
        assert len(view) == 0
        assert seen == view.entries() == ()


def test_memory_view_own_side_alice():
    _, alice, _ = played_views(MemoryClass.OWN_SIDE, [P12, P21, P11])
    view, seen = alice[2]
    assert seen == view.entries() == (
        OwnSideEntry(AliceSetting.A1, 1),
        OwnSideEntry(AliceSetting.A2, -1),
    )


def test_memory_view_full_upto_zero():
    t, alice, _ = played_views(MemoryClass.FULL, [P11, P22, P12])
    first, third = alice[0][0], alice[2][0]
    assert len(first) == 0
    with pytest.raises(IndexError):
        first[0]
    assert third[1].pair == P22
    assert third[-1] == t.rounds[1]


@given(setting_sequences)
def test_memory_view_full_exposes_rounds(settings):
    t, alice, bob = played_views(MemoryClass.FULL, settings)
    for k, ((view_a, seen_a), (view_b, seen_b)) in enumerate(zip(alice, bob)):
        assert view_a.memory_class is view_b.memory_class is MemoryClass.FULL
        assert seen_a == seen_b == t.rounds[:k]


def test_memory_view_range_errors():
    backing = (Round(1, P11, 1, 1),)
    with pytest.raises(ValueError):
        MemoryView(MemoryClass.FULL, None, backing, 2)
    with pytest.raises(ValueError):
        MemoryView(MemoryClass.FULL, None, backing, -1)
    view = MemoryView(MemoryClass.FULL, None, backing, 1)
    with pytest.raises(IndexError):
        view[1]


def test_memory_view_own_side_requires_side():
    _, alice, bob = played_views(MemoryClass.OWN_SIDE, [P11, P22])
    assert all(view.side is Side.ALICE for view, _ in alice)
    assert all(view.side is Side.BOB for view, _ in bob)
    _, alice, bob = played_views(MemoryClass.FULL, [P11, P22])
    assert all(view.side is None for view, _ in alice + bob)


@given(setting_sequences)
def test_memory_views_are_prefix_monotone(settings):
    # A view handed out in round k still shows k rounds once the playout
    # has recorded the rest behind it.
    for memory_class in MemoryClass:
        _, alice, bob = played_views(memory_class, settings)
        for views in (alice, bob):
            previous = ()
            for view, seen in views:
                assert view.entries() == seen
                assert seen[: len(previous)] == previous
                previous = seen


@given(setting_sequences)
def test_own_side_view_hides_the_other_wing(settings):
    t, alice, bob = played_views(MemoryClass.OWN_SIDE, settings)
    for k, ((view_a, seen_a), (view_b, seen_b)) in enumerate(zip(alice, bob)):
        assert seen_a == tuple(OwnSideEntry(r.pair.alice, r.a) for r in t.rounds[:k])
        assert seen_b == tuple(OwnSideEntry(r.pair.bob, r.b) for r in t.rounds[:k])
        assert all(type(entry.setting) is AliceSetting for entry in seen_a)
        assert all(type(entry.setting) is BobSetting for entry in seen_b)
        # Serialized form mentions no setting of the other wing.
        assert "B1" not in repr(view_a) and "B2" not in repr(view_a)
        assert "A1" not in repr(view_b) and "A2" not in repr(view_b)


def test_empty_view_singleton_reused():
    _, alice, bob = played_views(MemoryClass.NONE, [P11, P22, P12])
    assert all(view is EMPTY_VIEW for view, _ in alice + bob)


def test_view_bounded_even_if_backing_grows():
    backing = [Round(1, P11, 1, 1)]
    view = MemoryView(MemoryClass.FULL, None, backing, 1)
    backing.append(Round(2, P22, -1, -1))
    assert len(view) == 1
    assert view.entries() == (Round(1, P11, 1, 1),)

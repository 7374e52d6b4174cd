"""Tests for the core vocabulary: transcripts, counts, memory views, CSV."""

import io

import pytest
from hypothesis import given, strategies as hs

from chshsim.core import (
    ALL_PAIRS,
    EMPTY_VIEW,
    AliceSetting,
    BobSetting,
    MemoryClass,
    OwnSideEntry,
    Round,
    SettingPair,
    Side,
    Transcript,
    memory_view,
    read_transcript_csv,
    write_transcript_csv,
)

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


def test_memory_view_none_is_empty():
    t = build([(P11, 1, 1), (P22, -1, 1)])
    view = memory_view(t, MemoryClass.NONE, Side.ALICE, 2)
    assert len(view) == 0
    assert view.entries() == ()


def test_memory_view_own_side_alice():
    t = build([(P12, 1, -1), (P21, -1, 1), (P11, 1, 1)])
    view = memory_view(t, MemoryClass.OWN_SIDE, Side.ALICE, 2)
    assert view.entries() == (
        OwnSideEntry(AliceSetting.A1, 1),
        OwnSideEntry(AliceSetting.A2, -1),
    )


def test_memory_view_full_upto_zero():
    t = build([(P11, 1, 1)])
    view = memory_view(t, MemoryClass.FULL, None, 0)
    assert len(view) == 0


def test_memory_view_full_exposes_rounds():
    t = build([(P11, 1, 1), (P22, 1, -1)])
    view = memory_view(t, MemoryClass.FULL, None, 2)
    assert view.entries() == t.rounds
    assert view[1].pair == P22
    assert view[-1] == t.rounds[1]


def test_memory_view_range_errors():
    t = build([(P11, 1, 1)])
    with pytest.raises(ValueError):
        memory_view(t, MemoryClass.FULL, None, 2)
    with pytest.raises(ValueError):
        memory_view(t, MemoryClass.FULL, None, -1)
    view = memory_view(t, MemoryClass.FULL, None, 1)
    with pytest.raises(IndexError):
        view[1]


def test_memory_view_own_side_requires_side():
    t = build([(P11, 1, 1)])
    with pytest.raises(ValueError):
        memory_view(t, MemoryClass.OWN_SIDE, None, 1)


@given(transcript_rows)
def test_memory_views_are_prefix_monotone(rows):
    t = build(rows)
    for cls, side in (
        (MemoryClass.FULL, None),
        (MemoryClass.OWN_SIDE, Side.ALICE),
        (MemoryClass.OWN_SIDE, Side.BOB),
    ):
        previous = ()
        for upto in range(t.n_total + 1):
            entries = memory_view(t, cls, side, upto).entries()
            assert entries[: len(previous)] == previous
            previous = entries


@given(transcript_rows)
def test_own_side_view_hides_the_other_wing(rows):
    t = build(rows)
    alice = memory_view(t, MemoryClass.OWN_SIDE, Side.ALICE, t.n_total)
    for entry in alice:
        assert isinstance(entry.setting, AliceSetting)
        assert not isinstance(entry.setting, BobSetting)
        assert entry._fields == ("setting", "outcome")
    # Serialized form mentions no Bob settings even where outcomes collide.
    assert "B1" not in repr(alice) and "B2" not in repr(alice)


def test_empty_view_singleton_reused():
    t = build([(P11, 1, 1)])
    assert memory_view(t, MemoryClass.NONE, Side.BOB, 1) is EMPTY_VIEW


def test_view_bounded_even_if_backing_grows():
    backing = [Round(1, P11, 1, 1)]
    from chshsim.core import MemoryView

    view = MemoryView(MemoryClass.FULL, None, backing, 1)
    backing.append(Round(2, P22, -1, -1))
    assert len(view) == 1
    assert view.entries() == (Round(1, P11, 1, 1),)


def test_transcript_csv_round_trip():
    t = build([(P11, 1, 1), (P22, 1, -1), (P12, -1, -1)])
    buf = io.StringIO()
    write_transcript_csv(t, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "round,alice_setting,bob_setting,a,b"
    assert text.splitlines()[1] == "1,A1,B1,+1,+1"
    assert read_transcript_csv(io.StringIO(text)) == t


def test_transcript_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        read_transcript_csv(io.StringIO("a,b,c\n"))


def test_transcript_csv_rejects_bad_setting():
    text = "round,alice_setting,bob_setting,a,b\n1,A9,B1,+1,+1\n"
    with pytest.raises(ValueError):
        read_transcript_csv(io.StringIO(text))

"""Tests for the exact CHSH statistics."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as hs

import oracles
from chshsim.core import ALL_PAIRS, EMPTY_VIEW, Round, Transcript
from chshsim.montecarlo import BATCH_CSV_HEADER
from chshsim.stats import (
    BatchStatistics,
    batch_statistics,
    chsh_value,
    pair_tallies,
    round_score,
    x_statistic,
    y_statistic,
)
from chshsim.strategies import DeterministicAssignment, QuantumSingletSampler, StochasticLHV, all_assignments

P11, P12, P21, P22 = ALL_PAIRS


def build(rows):
    t = Transcript()
    for pair, a, b in rows:
        t = t.record(pair, a, b)
    return t


transcript_rows = hs.lists(
    hs.tuples(hs.sampled_from(ALL_PAIRS), hs.sampled_from((1, -1)), hs.sampled_from((1, -1))),
    min_size=1,
    max_size=30,
)


def test_round_score_correlated_target():
    assert round_score(Round(1, P11, 1, 1)) == 1
    assert round_score(Round(1, P11, 1, -1)) == 0


def test_round_score_anticorrelated_target():
    assert round_score(Round(1, P22, 1, -1)) == 1
    assert round_score(Round(1, P22, 1, 1)) == 0


ROUNDS = [(p, a, b) for p in ALL_PAIRS for a in (1, -1) for b in (1, -1)]


def round_score_readings():
    return [(round_score(Round(1, p, a, b)), oracles.score(p.index, a, b)) for p, a, b in ROUNDS]


def pair_tallies_readings():
    runs = [[r] for r in ROUNDS] + [[r, s] for r in ROUNDS for s in ROUNDS]
    return [
        (
            pair_tallies(build(rows)),
            (
                [sum(oracles.score(p.index, a, b) for p, a, b in rows if p == q) for q in ALL_PAIRS],
                [sum(p == q for p, _, _ in rows) for q in ALL_PAIRS],
            ),
        )
        for rows in runs
    ]


class OneRoundTape:
    """An rng that gives a tape strategy Alice's coin for outcome ``a`` and
    a uniform below the singlet's score probability exactly when ``scores``."""

    def __init__(self, a, scores):
        self.a, self.scores = a, scores

    def integers(self, low, high, size, dtype):
        return [int(self.a == 1)]

    def random(self, size):
        return [0.0 if self.scores else 0.999]


def quantum_bob_readings():
    readings = []
    for p in ALL_PAIRS:
        for a in (1, -1):
            for scores in (True, False):
                sampler = QuantumSingletSampler()
                sampler.begin_playout(1, OneRoundTape(a, scores))
                sampler.begin_round()
                played_a = sampler.respond_alice(p.alice, EMPTY_VIEW)
                b = sampler.respond_bob(p.bob, EMPTY_VIEW)
                readings.append(
                    ((played_a, b, oracles.score(p.index, a, b)), (a, oracles.quantum_bob(p.index, a, scores), int(scores)))
                )
    return readings


def batch_csv_header_readings():
    # A pair's score column counts correlated rounds ("c") or anticorrelated ones ("a").
    return [
        (name, ("c" if oracles.score(p.index, 1, 1) else "a") + f"{p.alice + 1}{p.bob + 1}")
        for p, name in zip(ALL_PAIRS, BATCH_CSV_HEADER[6:10])
    ]


WIN_RULE_READERS = {
    "round_score": round_score_readings,
    "pair_tallies": pair_tallies_readings,
    "quantum_bob": quantum_bob_readings,
    "batch_csv_header": batch_csv_header_readings,
}


@pytest.mark.parametrize("reader", WIN_RULE_READERS)
def test_every_reader_of_the_win_rule_agrees_with_the_oracle(reader):
    """Each reading is (what the package gives, what ``oracles.score`` implies), over every input."""
    readings = WIN_RULE_READERS[reader]()
    assert readings
    assert [r for r in readings if r[0] != r[1]] == []


def test_y_single_scoring_round():
    assert y_statistic(build([(P11, 1, 1)])) == 4


def test_y_half_scoring():
    assert y_statistic(build([(P22, 1, 1), (P11, 1, 1)])) == 2


def test_y_unbalanced_all_plus():
    rows = [(P11, 1, 1), (P11, 1, 1), (P12, 1, 1), (P21, 1, 1)]
    assert y_statistic(build(rows)) == 4


def test_y_requires_rounds():
    with pytest.raises(ValueError):
        y_statistic(Transcript())
    with pytest.raises(ValueError):
        x_statistic(Transcript())


def test_x_one_round_per_pair_all_plus():
    t = build([(p, 1, 1) for p in ALL_PAIRS])
    assert x_statistic(t) == 3


def test_x_undefined_when_pair_missing():
    t = build([(P11, 1, 1), (P12, 1, 1), (P21, 1, 1)])
    assert x_statistic(t) is None


def test_x_model101_trigger_branch():
    rows = (
        [(P11, 1, 1)] * 33
        + [(P12, 1, 1)] * 33
        + [(P21, 1, 1)] * 33
        + [(P22, 1, 1), (P22, 1, -1)]
    )
    assert x_statistic(build(rows)) == Fraction(7, 2)


@given(transcript_rows)
def test_y_matches_per_round_score_sum(rows):
    t = build(rows)
    assert y_statistic(t) == Fraction(4 * sum(round_score(r) for r in t.rounds), t.n_total)


@given(transcript_rows)
def test_statistic_bounds(rows):
    t = build(rows)
    assert 0 <= y_statistic(t) <= 4
    x = x_statistic(t)
    if x is not None:
        assert 0 <= x <= 4


@given(hs.lists(hs.tuples(hs.sampled_from((1, -1)), hs.sampled_from((1, -1))), min_size=1, max_size=6))
def test_x_equals_y_when_counts_balanced(outcome_blocks):
    rows = [(p, a, b) for a, b in outcome_blocks for p in ALL_PAIRS]
    t = build(rows)
    assert x_statistic(t) == y_statistic(t)


@given(transcript_rows, transcript_rows)
def test_y_linearity_under_concatenation(rows1, rows2):
    t1, t2 = build(rows1), build(rows2)
    combined = build(rows1 + rows2)
    n1, n2 = t1.n_total, t2.n_total
    expected = (y_statistic(t1) * n1 + y_statistic(t2) * n2) / (n1 + n2)
    assert y_statistic(combined) == expected


def test_chsh_point_mass_constant():
    assert chsh_value(StochasticLHV.point_mass(DeterministicAssignment(1, 1, 1, 1))) == 3


def test_chsh_point_mass_mixed_assignment():
    assert chsh_value(StochasticLHV.point_mass(DeterministicAssignment(1, 1, -1, 1))) == 1


def test_chsh_extremes_over_all_assignments():
    values = [chsh_value(StochasticLHV.point_mass(a)) for a in all_assignments()]
    assert max(values) == 3
    assert min(values) == 1
    expected = sorted(oracles.chsh_of_assignment(a) for a in oracles.all_assignments())
    assert sorted(values) == expected


def test_chsh_uniform_mixture():
    assert chsh_value(StochasticLHV.uniform(all_assignments())) == 2


@given(hs.lists(hs.tuples(hs.integers(0, 20), hs.sampled_from(range(16))), min_size=1, max_size=10))
def test_chsh_value_at_most_three(weighted_picks):
    if all(w == 0 for w, _ in weighted_picks):
        weighted_picks = [(1, weighted_picks[0][1])]
    total = sum(w for w, _ in weighted_picks)
    assignments = all_assignments()
    lhv = StochasticLHV(
        tuple((Fraction(w, total), assignments[i]) for w, i in weighted_picks)
    )
    value = chsh_value(lhv)
    assert 1 <= value <= 3


def test_batch_statistics_consistency():
    rows = [(P11, 1, 1), (P22, -1, -1), (P12, 1, -1), (P21, 1, 1), (P22, 1, -1)]
    t = build(rows)
    stats = batch_statistics(t)
    assert stats.n == 5
    assert stats.y_value == y_statistic(t)
    assert stats.x_value == x_statistic(t)
    assert stats.counts == t.counts()


def test_batch_statistics_undefined_x():
    stats = batch_statistics(build([(P11, 1, 1)]))
    assert stats.x_value is None
    assert stats.y_value == 4


def test_batch_statistics_validation():
    with pytest.raises(ValueError):
        BatchStatistics(n=1, y_value=Fraction(5), x_value=None, counts={})
    with pytest.raises(ValueError):
        batch_statistics(Transcript())

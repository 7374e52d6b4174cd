"""Tests for the strategy catalogue."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as hs

import oracles
from chshsim.core import (
    ALL_PAIRS,
    EMPTY_VIEW,
    AliceSetting,
    BobSetting,
    MemoryClass,
    MemoryView,
    SettingPair,
    Side,
    Transcript,
)
from chshsim.enumerator import playout
from chshsim.strategies import (
    CONSTANT_PLUS_ASSIGNMENT,
    MODEL_101_TRIGGER_ASSIGNMENT,
    QUANTUM_SCORE_PROBABILITY,
    REGISTRY,
    CollectiveN2,
    ConstantPlus,
    DeterministicAssignment,
    GuessingModel,
    Model101,
    QuantumSingletSampler,
    SequentialStrategy,
    StochasticLHV,
    StochasticSequential,
    all_assignments,
    collective_n2,
    constant_plus,
    from_stochastic,
    guessing_model,
    make_factory,
    model_101,
    parse_weights_csv,
    quantum_singlet_sampler,
    solve_sabotage_assignment,
)

P11, P12, P21, P22 = ALL_PAIRS


def full_view_of(rows):
    t = Transcript()
    for pair, a, b in rows:
        t = t.record(pair, a, b)
    return MemoryView(MemoryClass.FULL, None, t.rounds, t.n_total)


def probe_assignment(strategy, view):
    """The assignment a deterministic strategy would play next."""
    strategy.begin_round()
    return DeterministicAssignment(
        a1=strategy.respond_alice(AliceSetting.A1, view),
        a2=strategy.respond_alice(AliceSetting.A2, view),
        b1=strategy.respond_bob(BobSetting.B1, view),
        b2=strategy.respond_bob(BobSetting.B2, view),
    )


def test_sixteen_distinct_assignments():
    assignments = all_assignments()
    assert len(assignments) == 16
    assert len(set(assignments)) == 16


def test_hit_flags_are_the_oracle_scores():
    # Each flag is the oracle's score of the pair's outcomes, and every
    # assignment meets one or three of the four targets, never all four.
    for assignment in all_assignments():
        outcomes = (assignment.a1, assignment.a2, assignment.b1, assignment.b2)
        for pair in ALL_PAIRS:
            expected = oracles.score(pair.index, *oracles.assignment_outcomes(outcomes, pair.index))
            assert assignment.hits[pair.index] == expected, (assignment, pair)
        assert sum(assignment.hits) in (1, 3), assignment
        assert repr(assignment) == "DeterministicAssignment(a1={}, a2={}, b1={}, b2={})".format(*outcomes)


def test_assignment_validation():
    with pytest.raises(ValueError):
        DeterministicAssignment(1, 1, 0, 1)


def test_sabotage_constant_for_a2b2():
    assert solve_sabotage_assignment(P22) == DeterministicAssignment(1, 1, 1, 1)


def test_sabotage_a1b1_unique_solution():
    assert solve_sabotage_assignment(P11) == DeterministicAssignment(1, -1, -1, 1)


def test_sabotage_matches_brute_force_oracle():
    for i, target in enumerate(ALL_PAIRS):
        expected = oracles.sabotage_assignment(i)
        got = solve_sabotage_assignment(target)
        assert (got.a1, got.a2, got.b1, got.b2) == expected


def test_sabotage_violates_exactly_one_term():
    for target in ALL_PAIRS:
        assignment = solve_sabotage_assignment(target)
        violated = [p for p in ALL_PAIRS if not assignment.satisfies(p)]
        assert violated == [target]
        assert assignment.a1 == 1


def test_constant_plus_always_plus():
    strategy = constant_plus()
    strategy.begin_playout(4, None)
    view = full_view_of([(P11, 1, 1)])
    for setting in AliceSetting:
        assert strategy.respond_alice(setting, view) == 1
    for setting in BobSetting:
        assert strategy.respond_bob(setting, view) == 1


def test_guessing_round_one_plays_constant():
    strategy = guessing_model()
    strategy.begin_playout(5, None)
    assert probe_assignment(strategy, full_view_of([])) == CONSTANT_PLUS_ASSIGNMENT


def test_guessing_sabotages_most_measured_pair():
    strategy = guessing_model()
    strategy.begin_playout(5, None)
    history = [(P11, 1, 1)] * 3 + [(P12, 1, 1)]
    got = probe_assignment(strategy, full_view_of(history))
    assert got == DeterministicAssignment(1, -1, -1, 1)


def test_guessing_tie_break_is_canonical_by_default():
    strategy = guessing_model()
    strategy.begin_playout(3, None)
    history = [(P21, 1, 1), (P12, 1, 1)]  # tie between (A1,B2) and (A2,B1)
    got = probe_assignment(strategy, full_view_of(history))
    assert got == solve_sabotage_assignment(P12)


def test_model101_plays_constant_off_trigger():
    strategy = model_101()
    strategy.begin_playout(101, None)
    history = [(P11, 1, 1)] * 50 + [(P12, 1, 1)] * 50
    assert probe_assignment(strategy, full_view_of(history)) == CONSTANT_PLUS_ASSIGNMENT


def test_model101_trigger_round():
    strategy = model_101()
    strategy.begin_playout(101, None)
    history = (
        [(P11, 1, 1)] * 33 + [(P12, 1, 1)] * 33 + [(P21, 1, 1)] * 33 + [(P22, 1, 1)]
    )
    got = probe_assignment(strategy, full_view_of(history))
    assert got == MODEL_101_TRIGGER_ASSIGNMENT == DeterministicAssignment(1, 1, 1, -1)


def test_model101_trigger_needs_exactly_100_rounds():
    strategy = model_101()
    strategy.begin_playout(102, None)
    history = (
        [(P11, 1, 1)] * 33 + [(P12, 1, 1)] * 33 + [(P21, 1, 1)] * 34 + [(P22, 1, 1)]
    )
    assert probe_assignment(strategy, full_view_of(history)) == CONSTANT_PLUS_ASSIGNMENT


def test_collective_n2_alice_outputs():
    strategy = collective_n2()
    assert strategy.respond_alice((AliceSetting.A1, AliceSetting.A1)) == (1, 1)
    assert strategy.respond_alice((AliceSetting.A1, AliceSetting.A2)) == (1, -1)
    assert strategy.respond_alice((AliceSetting.A2, AliceSetting.A1)) == (1, 1)
    assert strategy.respond_alice((AliceSetting.A2, AliceSetting.A2)) == (1, 1)


def test_collective_n2_bob_outputs():
    strategy = collective_n2()
    assert strategy.respond_bob((BobSetting.B2, BobSetting.B1)) == (-1, 1)
    assert strategy.respond_bob((BobSetting.B1, BobSetting.B2)) == (1, 1)


def test_collective_n2_matches_oracle_rule():
    strategy = collective_n2()
    for a0 in (0, 1):
        for a1 in (0, 1):
            expected_a, _ = oracles.collective_n2_outcomes((a0, a1), (0, 0))
            got = strategy.respond_alice((AliceSetting(a0), AliceSetting(a1)))
            assert got == expected_a


def test_collective_n2_rejects_other_lengths():
    strategy = collective_n2()
    with pytest.raises(ValueError):
        strategy.respond_alice((AliceSetting.A1,) * 3)
    with pytest.raises(ValueError):
        strategy.respond_bob((BobSetting.B1,))


def test_quantum_closed_form_sums_to_quantum_maximum():
    assert 4 * QUANTUM_SCORE_PROBABILITY == 2 + math.sqrt(2)


def test_quantum_needs_rng():
    with pytest.raises(ValueError):
        quantum_singlet_sampler().begin_playout(5, None)


def test_quantum_alice_marginal_is_fair_coin():
    n = 20000
    t = playout(quantum_singlet_sampler(), [P22] * n, np.random.default_rng(42))
    plus = sum(1 for r in t.rounds if r.a == 1)
    assert abs(plus / n - 0.5) < 0.02


def test_quantum_score_rate_matches_term_probability():
    t = playout(
        quantum_singlet_sampler(),
        [ALL_PAIRS[i % 4] for i in range(20000)],
        np.random.default_rng(7),
    )
    from chshsim.stats import round_score

    rate = sum(round_score(r) for r in t.rounds) / len(t)
    assert abs(rate - QUANTUM_SCORE_PROBABILITY) < 0.02


def test_stochastic_lhv_point_mass_behaves_as_constant():
    lhv = StochasticLHV.point_mass(DeterministicAssignment(1, 1, 1, 1))
    strategy = from_stochastic(lhv)
    settings = [ALL_PAIRS[i % 4] for i in range(40)]
    t = playout(strategy, settings, np.random.default_rng(3))
    assert all(r.a == 1 and r.b == 1 for r in t.rounds)


def test_stochastic_lhv_weight_validation():
    asg = DeterministicAssignment(1, 1, 1, 1)
    with pytest.raises(ValueError):
        StochasticLHV(((Fraction(1, 2), asg),))
    with pytest.raises(ValueError):
        StochasticLHV(((Fraction(-1, 2), asg), (Fraction(3, 2), asg)))
    StochasticLHV(((Fraction(1, 2), asg), (Fraction(1, 2), asg)))


def test_stochastic_lhv_uniform():
    lhv = StochasticLHV.uniform(all_assignments())
    assert sum(w for w, _ in lhv.support) == 1
    assert len(lhv.support) == 16


def test_stochastic_strategy_needs_rng():
    lhv = StochasticLHV.point_mass(DeterministicAssignment(1, 1, 1, 1))
    with pytest.raises(ValueError):
        from_stochastic(lhv).begin_playout(3, None)


def test_memoryless_strategies_ignore_history():
    for strategy in (constant_plus(),):
        strategy.begin_playout(3, None)
        strategy.begin_round()
        empty = full_view_of([])
        busy = full_view_of([(P22, -1, 1), (P11, 1, -1)])
        assert strategy.respond_alice(AliceSetting.A1, empty) == strategy.respond_alice(
            AliceSetting.A1, busy
        )


class OwnHistoryParity(SequentialStrategy):
    """Test helper: answers the parity of its own wing's past outcomes."""

    memory_class = MemoryClass.OWN_SIDE

    def _parity(self, view):
        out = 1
        for entry in view:
            out *= entry.outcome
        return out

    def respond_alice(self, setting, view):
        return self._parity(view)

    def respond_bob(self, setting, view):
        return -self._parity(view)


def test_own_side_machinery_feeds_each_wing_only_its_history():
    strategy = OwnHistoryParity()
    base = [P11, P22, P12, P21, P11]
    t1 = playout(strategy, base)
    # Change only Bob's settings: Alice's view, hence outcomes, must not move.
    flipped = [SettingPair(p.alice, BobSetting(1 - p.bob)) for p in base]
    t2 = playout(strategy, flipped)
    assert [r.a for r in t1.rounds] == [r.a for r in t2.rounds]
    views_seen = [r.b for r in t1.rounds]
    assert views_seen[0] == -1  # empty history parity, negated


UNIFORM_MIXTURE = StochasticLHV.uniform(all_assignments())

#: Every sequential strategy of the catalogue, by CLI name.
CATALOGUE_SEQUENTIAL = {
    "constant-plus": constant_plus,
    "guessing": guessing_model,
    "model101": model_101,
    "quantum": quantum_singlet_sampler,
    "stochastic-lhv": lambda: from_stochastic(UNIFORM_MIXTURE),
}

TAPE_STRATEGIES = ("quantum", "stochastic-lhv")


def child_keys_after(strategy, pairs, rng):
    """``strategy``'s child keys once it has played ``pairs`` and caught up on the next round's view.

    The view is the one the no-signaling walk hands the state: the full
    history under FULL memory and the empty view under NONE.
    """
    t = playout(strategy, pairs, rng)
    full = strategy.memory_class is MemoryClass.FULL
    strategy._catch_up(MemoryView(MemoryClass.FULL, None, t.rounds, t.n_total) if full else EMPTY_VIEW)
    return strategy._child_keys()


@pytest.mark.parametrize("name", CATALOGUE_SEQUENTIAL)
def test_catalogue_child_keys_after_a_short_playout(name):
    # The keys the no-signaling walk skips equal children by: the pair
    # counts with the child's pair raised by one under memory, the same
    # counts for every child of constant-plus (its empty views never
    # advance them from zero), and the empty tuple for the tape
    # strategies, whose tape is read by round alone.
    for pairs in ([], [P11], [P22, P12, P22], [P21, P11, P21, P22, P21]):
        keys = child_keys_after(CATALOGUE_SEQUENTIAL[name](), pairs, np.random.default_rng(3))
        counts = tuple(sum(p == q for p in pairs) for q in ALL_PAIRS)
        if name in ("guessing", "model101"):
            expected = tuple(tuple(c + (i == j) for i, c in enumerate(counts)) for j in range(4))
        elif name == "constant-plus":
            expected = ((0, 0, 0, 0),) * 4
        else:
            expected = ((),) * 4
        assert keys == expected, pairs


@pytest.mark.parametrize("name", TAPE_STRATEGIES)
def test_tape_strategies_refuse_no_rng_and_replay_a_reused_instance(name):
    # The tape is drawn in begin_playout, which resets the round counter,
    # so one instance replays a seed's playout whatever it played before.
    strategy = CATALOGUE_SEQUENTIAL[name]()
    with pytest.raises(ValueError, match="needs a randomness source"):
        strategy.begin_playout(3, None)
    pairs = [ALL_PAIRS[i % 4] for i in range(9)]
    first = playout(strategy, pairs, np.random.default_rng(5))
    playout(strategy, pairs[:4], np.random.default_rng(6))
    assert playout(strategy, pairs, np.random.default_rng(5)).rounds == first.rounds


def test_catalogue_classes_are_their_own_factories():
    assert (constant_plus, guessing_model, model_101, collective_n2, quantum_singlet_sampler, from_stochastic) == (
        ConstantPlus,
        GuessingModel,
        Model101,
        CollectiveN2,
        QuantumSingletSampler,
        StochasticSequential,
    )
    assert REGISTRY == {
        "constant-plus": ConstantPlus,
        "guessing": GuessingModel,
        "model101": Model101,
        "collective-n2": CollectiveN2,
        "quantum": QuantumSingletSampler,
    }
    factories = [make_factory(name) for name in REGISTRY] + [make_factory("stochastic-lhv", UNIFORM_MIXTURE)]
    for factory in factories:
        first, second = factory(), factory()
        assert type(first) is type(second) and first is not second


def test_make_factory_rejects_unknown_name():
    with pytest.raises(ValueError, match="constant-plus"):
        make_factory("bogus")


def test_make_factory_requires_weights_for_stochastic():
    with pytest.raises(ValueError):
        make_factory("stochastic-lhv")


def test_parse_weights_csv_rationals_and_decimals():
    text = "weight,a1,a2,b1,b2\n1/4,+1,+1,+1,+1\n0.75,1,-1,-1,1\n"
    lhv = parse_weights_csv(io.StringIO(text))
    assert lhv.support[0][0] == Fraction(1, 4)
    assert lhv.support[1][0] == Fraction(3, 4)
    assert lhv.support[1][1] == DeterministicAssignment(1, -1, -1, 1)


def test_parse_weights_csv_rejects_bad_sum():
    with pytest.raises(ValueError):
        parse_weights_csv(io.StringIO("1/4,1,1,1,1\n1/4,1,1,1,-1\n"))


def test_parse_weights_csv_rejects_malformed():
    with pytest.raises(ValueError):
        parse_weights_csv(io.StringIO("1/2,1,1\n"))
    with pytest.raises(ValueError):
        parse_weights_csv(io.StringIO(""))


@given(hs.lists(hs.sampled_from(range(16)), min_size=1, max_size=8), hs.integers(0, 2**32 - 1))
def test_stochastic_playout_only_uses_supported_assignments(picks, seed):
    assignments = all_assignments()
    chosen = [assignments[i] for i in picks]
    lhv = StochasticLHV.uniform(chosen)
    strategy = from_stochastic(lhv)
    t = playout(strategy, [P11, P12, P21, P22], np.random.default_rng(seed))
    for r in t.rounds:
        produced_by = [
            a
            for a in chosen
            if a.alice_outcome(r.pair.alice) == r.a and a.bob_outcome(r.pair.bob) == r.b
        ]
        assert produced_by, r

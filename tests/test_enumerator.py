"""Tests for the exact enumeration oracles."""

from fractions import Fraction

import pytest

import oracles
from chshsim import enumerator
from chshsim.bounds import x_mean_bound
from chshsim.core import ALL_PAIRS, MemoryClass, SettingPair, Side
from chshsim.enumerator import (
    INDEPENDENT_ROUNDS_CEILING,
    EnumerationCapError,
    chsh_exhaustive_max,
    collective_playout,
    exact_by_counts,
    exact_by_sequences,
    exact_collective_n2,
    exact_expectations,
    model101_exact,
    no_signaling_check,
    playout,
)
from chshsim.strategies import (
    CollectiveStrategy,
    DeterministicAssignment,
    SequentialStrategy,
    StochasticLHV,
    collective_n2,
    constant_plus,
    from_stochastic,
    guessing_model,
    model_101,
    quantum_singlet_sampler,
)

P11, P12, P21, P22 = ALL_PAIRS


def test_playout_constant_single_round():
    t = playout(constant_plus(), [P11])
    assert len(t) == 1
    assert t.rounds[0] == (1, P11, 1, 1)


def test_playout_guessing_second_round_sabotages():
    t = playout(guessing_model(), [P11, P11])
    assert (t.rounds[1].a, t.rounds[1].b) == (1, -1)


def test_playout_matches_guessing_oracle_rule():
    import itertools

    for seq in itertools.product(range(4), repeat=4):
        pairs = [ALL_PAIRS[i] for i in seq]
        t = playout(guessing_model(), pairs)
        assert [(r.a, r.b) for r in t.rounds] == oracles.guessing_outcomes(seq)


def test_playout_rejects_collective():
    with pytest.raises(TypeError):
        playout(collective_n2(), [P11, P22])
    with pytest.raises(TypeError):
        collective_playout(constant_plus(), [P11, P22])


def test_playout_accepts_raw_index_tuples():
    t = playout(constant_plus(), [(0, 1), (1, 0)])
    assert t.rounds[0].pair == SettingPair(0, 1)


def test_exact_constant_n4():
    result = exact_expectations(constant_plus(), 4)
    assert result.e_y == 3
    assert result.e_x_conditional == 3
    assert result.p_undefined == Fraction(29, 32)


def test_exact_constant_matches_oracle():
    for n in range(1, 8):
        result = exact_expectations(constant_plus(), n)
        e_y, e_x, p_undef = oracles.exact_over_sequences(oracles.constant_outcomes, n)
        assert result.e_y == e_y
        assert result.e_x_conditional == e_x
        assert result.p_undefined == p_undef


def test_exact_guessing_n4_value():
    result = exact_expectations(guessing_model(), 4)
    assert result.e_x_conditional == Fraction(15, 4)
    assert result.e_y == 3


def test_exact_guessing_matches_oracle():
    for n in range(1, 8):
        result = exact_expectations(guessing_model(), n)
        e_y, e_x, p_undef = oracles.exact_over_sequences(oracles.guessing_outcomes, n)
        assert result.e_y == e_y
        assert result.e_x_conditional == e_x
        assert result.p_undefined == p_undef


COUNT_DRIVEN = {
    "constant-plus": constant_plus,
    "guessing": guessing_model,
    "model101": model_101,
    "guessing-last-tie": lambda: guessing_model(tie_break=lambda tied: tied[-1]),
}


@pytest.mark.parametrize("name", COUNT_DRIVEN)
def test_counts_engine_equals_brute_force(name):
    factory = COUNT_DRIVEN[name]
    for n in range(1, 8):
        by_counts = exact_by_counts(factory(), n)
        brute = exact_by_sequences(factory(), n, collect_distribution=True)
        assert (by_counts.e_y, by_counts.e_x_conditional, by_counts.p_undefined) == (
            brute.e_y,
            brute.e_x_conditional,
            brute.p_undefined,
        ), f"n={n}"
        assert exact_expectations(factory(), n) == by_counts


class EchoesLastRound(SequentialStrategy):
    """Full memory, not count-driven: each wing repeats the other's last outcome."""

    memory_class = MemoryClass.FULL

    def respond_alice(self, setting, view):
        return view[-1].b if len(view) else 1

    def respond_bob(self, setting, view):
        return -view[-1].a if len(view) else 1


def test_engine_follows_strategy_type_and_request(monkeypatch):
    played = []
    real_playout = enumerator.playout

    def counted_playout(strategy, settings, rng=None):
        played.append(strategy)
        return real_playout(strategy, settings, rng)

    monkeypatch.setattr(enumerator, "playout", counted_playout)
    exact_expectations(guessing_model(tie_break=lambda tied: tied[-1]), 5)
    assert played == []
    echo = EchoesLastRound()
    assert exact_expectations(echo, 3) == exact_by_sequences(echo, 3)
    assert len(played) == 2 * 4 ** 3
    guessing = guessing_model()
    exact_expectations(guessing, 3, collect_distribution=True)
    assert played[2 * 4 ** 3 :] == [guessing] * 4 ** 3


def test_guessing_beats_three_in_x_beyond_brute_force_reach():
    # E(X_N | defined) stays above 3, inside the memory-model bound, and
    # its excess shrinks as N grows.
    previous = None
    for n in (12, 16, 20, 24, 32):
        result = exact_expectations(guessing_model(), n, cap=n)
        assert result.e_y == 3, f"n={n}"
        assert 3 < result.e_x_conditional <= x_mean_bound(n, 0.25), f"n={n}"
        assert previous is None or result.e_x_conditional < previous, f"n={n}"
        previous = result.e_x_conditional


def test_exact_x_undefined_below_four_rounds():
    result = exact_expectations(guessing_model(), 3)
    assert result.e_x_conditional is None
    assert result.p_undefined == 1


def test_exact_distribution_sums_to_one():
    result = exact_expectations(guessing_model(), 4, collect_distribution=True)
    probabilities = [p for _, _, p in result.distribution]
    assert sum(probabilities) == 1
    mean_y = sum(y * p for y, _, p in result.distribution)
    assert mean_y == result.e_y
    defined_mass = sum(p for _, x, p in result.distribution if x is not None)
    assert defined_mass == 1 - result.p_undefined
    mean_x = sum(x * p for _, x, p in result.distribution if x is not None)
    assert mean_x / defined_mass == result.e_x_conditional


def test_constant_x_is_three_whenever_defined():
    result = exact_expectations(constant_plus(), 4, collect_distribution=True)
    defined_xs = {x for _, x, _ in result.distribution if x is not None}
    assert defined_xs == {3}


def test_catalogue_e_y_at_most_three_exactly():
    for factory in (constant_plus, guessing_model, model_101):
        for n in (1, 2, 3, 4):
            assert exact_expectations(factory(), n).e_y <= 3


def test_exact_respects_cap():
    with pytest.raises(EnumerationCapError):
        exact_expectations(constant_plus(), 12)
    with pytest.raises(EnumerationCapError):
        exact_expectations(constant_plus(), 4, cap=3)
    with pytest.raises(ValueError):
        exact_expectations(constant_plus(), 0)


def test_exact_rejects_stochastic():
    with pytest.raises(ValueError):
        exact_expectations(quantum_singlet_sampler(), 2)


def test_chsh_exhaustive_max():
    best, argmax = chsh_exhaustive_max()
    assert best == 3
    assert DeterministicAssignment(1, 1, 1, 1) in argmax
    assert len(argmax) == 8
    oracle_max = max(oracles.chsh_of_assignment(a) for a in oracles.all_assignments())
    assert best == oracle_max


def test_collective_n2_exact_probability():
    result = exact_collective_n2(collective_n2())
    assert result.p_both == Fraction(10, 16)
    assert result.event_counts[(1, 1)] == 10
    assert result.n_sequences == 16
    assert sum(result.event_counts.values()) == 16
    assert result.p_both == oracles.collective_n2_both_score_probability()
    assert result.p_both > INDEPENDENT_ROUNDS_CEILING == Fraction(9, 16)


class ConstantCollective(CollectiveStrategy):
    def respond_alice(self, settings, rng=None):
        return tuple(1 for _ in settings)

    def respond_bob(self, settings, rng=None):
        return tuple(1 for _ in settings)


def test_collective_constant_hits_independent_ceiling():
    result = exact_collective_n2(ConstantCollective())
    assert result.p_both == Fraction(9, 16)


def test_model101_exact_values():
    result = model101_exact()
    assert result.e_conditional == Fraction(53, 17)
    assert result.p_trigger == oracles.model101_trigger_probability()
    assert 8.8e-14 < float(result.p_trigger) < 9.0e-14
    assert result.e_x_excess == result.p_trigger * Fraction(2, 17)
    assert result.e_x_excess > 0
    branch_mean = sum(oracles.model101_branch_x_values(), Fraction(0)) / 4
    assert result.e_conditional == branch_mean


def test_model101_log_gamma_cross_check():
    result = model101_exact()
    via_lgamma = oracles.log10_trigger_probability_via_lgamma()
    assert abs(result.log10_p_trigger - via_lgamma) / abs(via_lgamma) < 1e-3


def test_no_signaling_catalogue_passes_small_n():
    for strategy in (constant_plus(), guessing_model(), model_101()):
        report = no_signaling_check(strategy, 3)
        assert report.passed
        assert report.counterexample is None
        assert report.sequences_checked == 64


def test_no_signaling_collective_n2_passes():
    assert no_signaling_check(collective_n2(), 2).passed


def test_no_signaling_stochastic_with_fixed_tape():
    lhv = StochasticLHV.uniform(
        (DeterministicAssignment(1, 1, 1, 1), DeterministicAssignment(-1, -1, -1, -1))
    )
    assert no_signaling_check(from_stochastic(lhv), 2, seed=11).passed
    with pytest.raises(ValueError):
        no_signaling_check(from_stochastic(lhv), 2)


def test_no_signaling_quantum_sampler_fails():
    # The quantum sampler is not an LHV: Bob's rule reads Alice's current
    # setting, and the exact check catches it.
    report = no_signaling_check(quantum_singlet_sampler(), 2, seed=5)
    assert not report.passed
    assert report.counterexample.toggled_side is Side.ALICE
    assert report.counterexample.watched_side is Side.BOB


def alice_copies_bob(pairs):
    """Raw signaling double: Alice's outcome copies Bob's current setting."""
    a = tuple(1 if p.bob == 0 else -1 for p in pairs)
    b = tuple(1 for _ in pairs)
    return a, b


def test_no_signaling_double_fails_with_counterexample():
    report = no_signaling_check(alice_copies_bob, 2)
    assert not report.passed
    ce = report.counterexample
    assert ce.toggled_side is Side.BOB
    assert ce.watched_side is Side.ALICE
    assert ce.before != ce.after
    assert 1 <= ce.round_index <= 2
    # The counterexample is concrete: replaying it reproduces the flip.
    base_a, _ = alice_copies_bob(ce.settings)
    assert base_a[ce.round_index - 1] == ce.before


class BobReadsAlice(SequentialStrategy):
    """Deterministic in-protocol signaler using the shared-instance backchannel."""

    memory_class = MemoryClass.NONE

    def begin_round(self):
        self._alice = None

    def respond_alice(self, setting, view):
        self._alice = setting
        return 1

    def respond_bob(self, setting, view):
        return 1 if self._alice == 0 else -1


def test_no_signaling_catches_backchannel_strategy():
    report = no_signaling_check(BobReadsAlice(), 2)
    assert not report.passed
    assert report.counterexample.toggled_side is Side.ALICE


def test_no_signaling_cap_and_domain():
    with pytest.raises(EnumerationCapError):
        no_signaling_check(constant_plus(), 12)
    with pytest.raises(ValueError):
        no_signaling_check(constant_plus(), 0)
    with pytest.raises(TypeError):
        no_signaling_check(object(), 2)

"""Tests for the exact enumeration oracles."""

import contextlib
import itertools
import math
import sys
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest

import oracles
from general_engine import general_batch_counts, whole_run_counts
from guessing_last_tie import GuessingLastTie
from chshsim import enumerator, montecarlo
from chshsim.bounds import x_mean_bound
from chshsim.core import (
    ALL_PAIRS,
    EMPTY_VIEW,
    InvariantViolation,
    MemoryClass,
    MemoryView,
    Round,
    SettingPair,
    Side,
)
from chshsim.enumerator import (
    EnumerationCapError,
    chsh_exhaustive_max,
    collective_playout,
    collective_scores,
    exact_by_counts,
    exact_collective,
    exact_expectations,
    model101_exact,
    no_signaling_check,
    playout,
)
from chshsim.strategies import (
    CollectiveStrategy,
    CountDriven,
    DeterministicAssignment,
    GuessingModel,
    QuantumSingletSampler,
    SequentialStrategy,
    StochasticLHV,
    all_assignments,
    collective_n2,
    constant_plus,
    from_stochastic,
    guessing_model,
    model_101,
    quantum_singlet_sampler,
)
from chshsim.stream import Stream

P11, P12, P21, P22 = ALL_PAIRS


def wings(transcript):
    """Alice's and Bob's outcomes, one per round."""
    return tuple(r.a for r in transcript.rounds), tuple(r.b for r in transcript.rounds)


def fresh_rng(seed):
    return None if seed is None else np.random.default_rng(np.random.SeedSequence(seed))


def as_oracle_result(report):
    """A no-signaling report in the form :func:`oracles.no_signaling_by_toggling` returns."""
    ce = report.counterexample
    return (
        report.passed,
        report.sequences_checked,
        None
        if ce is None
        else (
            tuple(p.index for p in ce.settings),
            ce.round_index,
            ce.toggled_side.value,
            ce.watched_side.value,
            ce.before,
            ce.after,
        ),
    )


@contextlib.contextmanager
def walked_rounds(monkeypatch):
    """Record each round the no-signaling walk plays as (node, a, b).

    A node is the (prefix, pair) the round was played at, as pair
    indices.  Each played state carries its node, so a snapshot of it
    starts from its parent's prefix; a state not yet played is the root.
    """
    played = []
    real_play_round = enumerator._play_round

    def recorded(strategy, pair, view_a, view_b):
        node = getattr(strategy, "_walked_node", ()) + (pair.index,)
        a, b = real_play_round(strategy, pair, view_a, view_b)
        strategy._walked_node = node
        played.append((node, a, b))
        return a, b

    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "_play_round", recorded)
        yield played


def assert_rounds_replay(walked, n, run):
    """Each walked round gave what ``run`` gives its node's sequence padded with (A1,B1) pairs."""
    assert walked
    for node, a, b in walked:
        outcomes = run(tuple(ALL_PAIRS[i] for i in node + (0,) * (n - len(node))))
        assert (outcomes[0][len(node) - 1], outcomes[1][len(node) - 1]) == (a, b), node


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
        e_y, e_x, p_undef, _ = oracles.exact_over_sequences(oracles.constant_outcomes, n)
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
        e_y, e_x, p_undef, _ = oracles.exact_over_sequences(oracles.guessing_outcomes, n)
        assert result.e_y == e_y
        assert result.e_x_conditional == e_x
        assert result.p_undefined == p_undef


#: The 16 assignments as (a1, a2, b1, b2), built here, not by the package.
ASSIGNMENT_VALUES = tuple(itertools.product((1, -1), repeat=4))


def sixteen_way_index(counts, k):
    """A fixed map of (pair counts, completed rounds) onto the 16 assignments."""
    c0, c1, c2, c3 = counts
    return (k + c1 + 3 * c2 + 9 * c3 + c0 * c3) % 16


class PlaysAllSixteen(CountDriven):
    """Count-driven over all 16 assignments, some meeting one pair's target, some three.

    Each call builds a fresh assignment, equal to but not the package's
    own object, so an engine must key anything it caches by value.
    """

    def assignment(self, counts, k):
        return DeterministicAssignment(*ASSIGNMENT_VALUES[sixteen_way_index(counts, k)])


def plays_all_sixteen_outcomes(pairs):
    """The oracle's rule for :class:`PlaysAllSixteen`, on pair indices."""
    counts = [0, 0, 0, 0]
    outcomes = []
    for k, pair in enumerate(pairs):
        outcomes.append(oracles.assignment_outcomes(ASSIGNMENT_VALUES[sixteen_way_index(counts, k)], pair))
        counts[pair] += 1
    return outcomes


COUNT_DRIVEN = {
    "constant-plus": constant_plus,
    "guessing": guessing_model,
    "model101": model_101,
    "guessing-last-tie": GuessingLastTie,
    "plays-all-sixteen": PlaysAllSixteen,
}

#: The oracle's outcome rule for each count-driven strategy.  Model101
#: plays constant +1 until its 101st round, beyond every n tested here.
ORACLE_RULES = {
    "constant-plus": oracles.constant_outcomes,
    "guessing": oracles.guessing_outcomes,
    "model101": oracles.constant_outcomes,
    "guessing-last-tie": lambda pairs: oracles.guessing_outcomes(pairs, last_of_tied=True),
    "plays-all-sixteen": plays_all_sixteen_outcomes,
}

#: The count-driven strategies whose every assignment misses exactly one target.
ONE_MISS = ("constant-plus", "guessing", "model101", "guessing-last-tie")


def sequence_counts(distribution, n):
    """The distribution as (Y, X) -> number of sequences, as the oracle tables it."""
    return {(y, x): p * 4 ** n for y, x, p in distribution}


@pytest.mark.parametrize("name", COUNT_DRIVEN)
def test_counts_engine_equals_brute_force(name):
    factory = COUNT_DRIVEN[name]
    for n in range(1, 8):
        by_counts = exact_by_counts(factory(), n)
        e_y, e_x, p_undef, table = oracles.exact_over_sequences(ORACLE_RULES[name], n)
        assert (by_counts.e_y, by_counts.e_x_conditional, by_counts.p_undefined) == (
            e_y,
            e_x,
            p_undef,
        ), f"n={n}"
        assert exact_expectations(factory(), n) == by_counts
        swept = exact_expectations(factory(), n, collect_distribution=True)
        assert (swept.e_y, swept.e_x_conditional, swept.p_undefined) == (e_y, e_x, p_undef), f"n={n}"
        assert sequence_counts(swept.distribution, n) == table, f"n={n}"


@pytest.mark.parametrize("name", COUNT_DRIVEN)
def test_counts_engine_equals_state_sweep_beyond_brute_force_reach(name):
    # Past the oracle's reach, the closed-form sums over count states
    # agree with the forward sweep over (pair counts, per-pair scores)
    # states, an independent algorithm.
    for n in (8, 9, 10):
        by_counts = exact_by_counts(COUNT_DRIVEN[name](), n)
        swept = enumerator.exact_distribution(COUNT_DRIVEN[name](), n)
        assert (by_counts.e_y, by_counts.e_x_conditional, by_counts.p_undefined) == (
            swept.e_y,
            swept.e_x_conditional,
            swept.p_undefined,
        ), f"n={n}"


def test_pair_weight_equals_brute_force_over_completions():
    # For every count state (k, c) of n <= 6 rounds and every pair j of
    # the next round, scale·w(n-k-1, c_j+1, z_j) over the scale is the
    # oracle's sum of 1/C_j(N) over the defined completions.
    for n in range(1, 7):
        scale = math.lcm(*range(1, n + 1))
        for k in range(n):
            for counts in itertools.product(range(k + 1), repeat=4):
                if sum(counts) != k:
                    continue
                for j in range(4):
                    missing = sum(1 for i in range(4) if i != j and counts[i] == 0)
                    weight = enumerator._pair_weight(n - k - 1, counts[j] + 1, missing, scale)
                    assert Fraction(weight, scale) == oracles.inverse_count_over_completions(n, counts, j), (n, counts, j)


def test_plays_all_sixteen_reaches_every_assignment_and_moves_e_y():
    # Before round 7 it plays each of the 16 assignments somewhere, so
    # the exact engines see rounds that score on one pair as well as on
    # three, and E(Y) leaves 3.
    played = {
        sixteen_way_index(counts, k)
        for k in range(7)
        for counts in itertools.product(range(k + 1), repeat=4)
        if sum(counts) == k
    }
    assert played == set(range(16))
    assert {sum(oracles.score(p, *oracles.assignment_outcomes(a, p)) for p in range(4)) for a in ASSIGNMENT_VALUES} == {1, 3}
    for n in (3, 7):
        assert exact_by_counts(PlaysAllSixteen(), n).e_y != 3


@pytest.mark.parametrize("name", ONE_MISS)
def test_y_is_four_over_n_times_binomial_three_quarters(name):
    # Each round's assignment meets three of the four targets against a
    # fresh uniform pair, so the scoring rounds are Binomial(N, 3/4).
    for n in range(1, 11):
        result = exact_expectations(COUNT_DRIVEN[name](), n, collect_distribution=True)
        y_law = Counter()
        for y, _, p in result.distribution:
            y_law[y] += p
        binomial = {
            Fraction(4 * k, n): math.comb(n, k) * Fraction(3, 4) ** k * Fraction(1, 4) ** (n - k)
            for k in range(n + 1)
        }
        assert y_law == binomial, f"n={n}"


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
    exact_expectations(GuessingLastTie(), 5)
    assert played == []
    # No engine takes it, so there is no work to predict: refused by
    # type however large n is.
    for n in (3, 12):
        with pytest.raises(TypeError, match="count-driven"):
            exact_expectations(EchoesLastRound(), n)
    with pytest.raises(TypeError, match="count-driven"):
        exact_expectations(EchoesLastRound(), 3, collect_distribution=True)
    exact_expectations(guessing_model(), 3, collect_distribution=True)
    assert played == []


def test_guessing_beats_three_in_x_beyond_brute_force_reach():
    # E(X_N | defined) stays above 3, inside the memory-model bound, and
    # its excess shrinks as N grows.
    previous = None
    for n in (12, 16, 20, 24, 32):
        result = exact_expectations(guessing_model(), n)
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


def over_budget(n, work):
    """The refusal of a computation at n whose predicted work is ``work``."""
    return pytest.raises(EnumerationCapError, match=rf"^n={n} needs {work}, over the work budget of 1,398,100$")


def test_exact_respects_cap():
    with over_budget(75, "1,426,425 count states"):
        exact_expectations(constant_plus(), 75)
    with over_budget(18, r"1,562,275 \(counts, scores\) states"):
        exact_expectations(constant_plus(), 18, collect_distribution=True)
    with pytest.raises(ValueError, match="n must be >= 1"):
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
    result = exact_collective(collective_n2(), 2)
    assert result.p_all == Fraction(10, 16)
    assert result.pattern_counts[1, 1] == 10
    assert result.n == 2
    assert sum(result.pattern_counts.values()) == 16
    assert result.p_all == oracles.collective_n2_both_score_probability()
    assert result.p_all > result.independent_ceiling == Fraction(9, 16)


class ConstantCollective(CollectiveStrategy):
    def respond_alice(self, settings):
        return tuple(1 for _ in settings)

    def respond_bob(self, settings):
        return tuple(1 for _ in settings)


def test_collective_constant_hits_independent_ceiling():
    result = exact_collective(ConstantCollective(), 2)
    assert result.p_all == Fraction(9, 16)


class ThreeRoundCollective(CollectiveStrategy):
    """A deterministic three-round collective strategy on the oracle's rules."""

    def respond_alice(self, settings):
        return oracles.three_round_alice(tuple(int(s) for s in settings))

    def respond_bob(self, settings):
        return oracles.three_round_bob(tuple(int(s) for s in settings))


class CoinCollective(ConstantCollective):
    stochastic = True


def test_exact_collective_three_rounds_equals_brute_force_oracle():
    result = exact_collective(ThreeRoundCollective(), 3)
    want = oracles.collective_pattern_counts(oracles.three_round_alice, oracles.three_round_bob, 3)
    assert result.n == 3
    assert list(result.pattern_counts) == list(itertools.product((0, 1), repeat=3))
    assert result.pattern_counts == {pattern: want.get(pattern, 0) for pattern in result.pattern_counts}
    assert sum(result.pattern_counts.values()) == 64
    assert result.p_all == Fraction(want.get((1, 1, 1), 0), 64)
    assert result.independent_ceiling == Fraction(27, 64)


def test_collective_scores_rows_follow_product_order():
    strategy = ThreeRoundCollective()
    table = collective_scores(strategy, 3)
    assert table.shape == (64, 3) and table.dtype == bool
    for i, pairs in enumerate(itertools.product(range(4), repeat=3)):
        assert i == pairs[0] * 16 + pairs[1] * 4 + pairs[2]
        a = oracles.three_round_alice(tuple(p // 2 for p in pairs))
        b = oracles.three_round_bob(tuple(p % 2 for p in pairs))
        assert table[i].tolist() == [bool(oracles.score(*round_)) for round_ in zip(pairs, a, b)]


def test_collective_kernel_indexes_the_table_by_base_4_sequence():
    strategy = ThreeRoundCollective()
    pairs = np.array(list(itertools.product(range(4), repeat=3))[::-1], dtype=np.uint8)
    counts = whole_run_counts(montecarlo._kernel_collective, collective_scores(strategy, 3), pairs)
    for row, seq in zip(counts.tolist(), pairs.tolist()):
        scored = [0] * 4
        for r in collective_playout(strategy, [ALL_PAIRS[i] for i in seq]).rounds:
            scored[r.pair.index] += oracles.score(r.pair.index, r.a, r.b)
        assert row == scored


def test_collective_kernel_matches_general_engine_at_three_rounds(monkeypatch):
    kernel = montecarlo._KERNELS[type(collective_n2())]
    monkeypatch.setitem(montecarlo._KERNELS, ThreeRoundCollective, kernel)
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 13 * montecarlo._row_bytes(3, kernel))
    plan = montecarlo.SimulationPlan(factory=ThreeRoundCollective, n=3, batches=100, seed=2 ** 70 + 3)
    fast = list(montecarlo.iter_batch_counts(plan))
    assert fast == general_batch_counts(plan)


def test_exact_collective_refusals():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            exact_collective(ThreeRoundCollective(), n)
    with over_budget(11, "4,194,304 sequences"):
        exact_collective(ThreeRoundCollective(), 11)
    with over_budget(11, "4,194,304 sequences"):
        collective_scores(ConstantCollective(), 11)
    with pytest.raises(ValueError, match="deterministic"):
        exact_collective(CoinCollective(), 2)
    with pytest.raises(ValueError, match="exactly 2 rounds, got 3"):
        exact_collective(collective_n2(), 3)


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


@pytest.mark.parametrize(
    "subject",
    [from_stochastic(StochasticLHV.uniform(all_assignments())), quantum_singlet_sampler()],
    ids=["uniform-mixture", "quantum"],
)
def test_stochastic_tape_is_restored_not_rebuilt(subject, monkeypatch):
    # The check builds one Stream and begins one playout; every round it
    # plays must then give what a fresh numpy Generator from the seed
    # gives any whole sequence through that (prefix, pair) node.
    n, seed = 3, 7
    expected = oracles.no_signaling_by_toggling(
        lambda indices: wings(playout(subject, [ALL_PAIRS[i] for i in indices], fresh_rng(seed))), n
    )
    built = []
    begun = []
    stream = enumerator.Stream
    begin_playout = type(subject).begin_playout
    with monkeypatch.context() as patch, walked_rounds(monkeypatch) as played:
        patch.setattr(enumerator, "Stream", lambda *a: built.append(a) or stream(*a))
        patch.setattr(
            type(subject), "begin_playout", lambda self, n, rng=None: begun.append(n) or begin_playout(self, n, rng)
        )
        report = no_signaling_check(subject, n, seed=seed)
    assert len(built) == 1
    assert begun == [n]
    assert as_oracle_result(report) == expected
    assert_rounds_replay(played, n, lambda pairs: wings(playout(subject, pairs, fresh_rng(seed))))


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
    with over_budget(53, "1,469,160 walked rounds"):
        no_signaling_check(constant_plus(), 53)
    with over_budget(11, "5,592,404 walked rounds"):
        no_signaling_check(quantum_singlet_sampler(), 11, seed=0)
    with over_budget(11, "4,194,304 sequences"):
        no_signaling_check(wings_copy_each_other, 11)
    with pytest.raises(ValueError, match="n must be >= 1"):
        no_signaling_check(constant_plus(), 0)
    with pytest.raises(TypeError):
        no_signaling_check(object(), 2)


class SignalsInLastRound(SequentialStrategy):
    """Full memory; in the last round only, Bob reads Alice's current setting."""

    memory_class = MemoryClass.FULL

    def begin_playout(self, n, rng=None):
        self._n = n

    def respond_alice(self, setting, view):
        self._alice = setting
        return 1 if len(view) % 2 == 0 else -1

    def respond_bob(self, setting, view):
        if len(view) == self._n - 1:
            return 1 if self._alice == 0 else -1
        return view[-1].a if len(view) else 1


def signals_late(pairs):
    """Alice's last outcome follows Bob's last setting once Alice opened with A2."""
    a = [1] * len(pairs)
    if pairs[0].alice == 1 and pairs[-1].bob == 1:
        a[-1] = -1
    return tuple(a), tuple(1 for _ in pairs)


def wings_copy_each_other(pairs):
    """Each wing's outcome copies the other wing's current setting."""
    return tuple(1 - 2 * p.bob for p in pairs), tuple(1 - 2 * p.alice for p in pairs)


class CollectiveBobReadsAlice(CollectiveStrategy):
    """Collective backchannel: Bob's whole run flips once Alice ever measures A2."""

    def respond_alice(self, settings):
        self._alice = tuple(settings)
        return tuple(1 for _ in settings)

    def respond_bob(self, settings):
        outcome = -1 if 1 in self._alice else 1
        return tuple(outcome for _ in settings)


def own_side_parity(view):
    """The product of a wing's past outcomes, negated once per past second setting."""
    out = 1
    for entry in view:
        out *= entry.outcome if entry.setting == 0 else -entry.outcome
    return out


class OwnSideParity(SequentialStrategy):
    """Own-side memory: each wing answers from its own past settings and outcomes."""

    memory_class = MemoryClass.OWN_SIDE

    def respond_alice(self, setting, view):
        return own_side_parity(view)

    def respond_bob(self, setting, view):
        return -own_side_parity(view)


class OwnSideBobReadsAlice(OwnSideParity):
    """Own-side memory, but once Bob's own past holds a B2 he also reads
    Alice's current setting through the instance."""

    def respond_alice(self, setting, view):
        self._alice = setting
        return own_side_parity(view)

    def respond_bob(self, setting, view):
        if self._alice == 1 and any(entry.setting == 1 for entry in view):
            return own_side_parity(view)
        return -own_side_parity(view)


class OwnPastInLists(SequentialStrategy):
    """Own-side memory kept in lists the instance appends to each round.

    Each wing answers the parity of its own past second settings, so the
    strategy does not signal; only a snapshot that copies the lists, as
    the default deep copy does, continues each prefix correctly.
    """

    memory_class = MemoryClass.OWN_SIDE

    def begin_playout(self, n, rng=None):
        self._alice_past = []
        self._bob_past = []

    def respond_alice(self, setting, view):
        self._alice_past.append(setting)
        return -1 if self._alice_past[:-1].count(1) % 2 else 1

    def respond_bob(self, setting, view):
        self._bob_past.append(setting)
        return -1 if self._bob_past[:-1].count(1) % 2 else 1


#: The pair counts at which :class:`GuessingSignalsAtCounts` signals.
SIGNAL_COUNTS = (0, 1, 1, 0)


class GuessingSignalsAtCounts(GuessingModel):
    """The guessing model, except that once the pair counts are
    ``SIGNAL_COUNTS`` Bob flips his outcome when Alice's current setting
    is A2.

    Its children's keys are still their pair counts, and truthfully so:
    its play reads nothing else of the history.  The walk first reaches those
    counts at the prefix ((A1,B2), (A2,B1)), after it has skipped the
    subtree of ((A1,B2), (A1,B1)), whose counts equal those of
    ((A1,B1), (A1,B2)).
    """

    def respond_alice(self, setting, view):
        self._alice = setting
        return super().respond_alice(setting, view)

    def respond_bob(self, setting, view):
        b = super().respond_bob(setting, view)
        return -b if self._counts == SIGNAL_COUNTS and self._alice == 1 else b


# subject factory, tape seed; every subject runs at n = 1..4 but collective-n2
NOSIG_SUBJECTS = {
    "constant-plus": (constant_plus, None),
    "guessing": (guessing_model, None),
    "model101": (model_101, None),
    "guessing-last-tie": (COUNT_DRIVEN["guessing-last-tie"], None),
    "plays-all-sixteen": (PlaysAllSixteen, None),
    "guessing-signals-at-counts": (GuessingSignalsAtCounts, None),
    "uniform-mixture": (
        lambda: from_stochastic(StochasticLHV.uniform(all_assignments())), 9
    ),
    "collective-n2": (collective_n2, None),
    "quantum": (quantum_singlet_sampler, 5),
    "bob-reads-alice": (BobReadsAlice, None),
    "signals-in-last-round": (SignalsInLastRound, None),
    "own-side-parity": (OwnSideParity, None),
    "own-side-bob-reads-alice": (OwnSideBobReadsAlice, None),
    "own-past-in-lists": (OwnPastInLists, None),
    "alice-copies-bob": (lambda: alice_copies_bob, None),
    "signals-late": (lambda: signals_late, None),
    "wings-copy-each-other": (lambda: wings_copy_each_other, None),
    "collective-bob-reads-alice": (CollectiveBobReadsAlice, None),
}

#: The keyed subjects by what the keys their states name for their
#: children (``_child_keys``) group prefixes on: the pair counts, or the
#: depth alone.  Every other subject has no keys and is walked in full,
#: except ``quantum``: it keys by depth, but it fails before any subtree
#: comes back clean, so its keyed walk is its full walk's
#: (test_quantum_keyed_walk_is_its_unkeyed_walk).
KEYED_BY = {
    "constant-plus": "depth",
    "guessing": "counts",
    "model101": "counts",
    "guessing-last-tie": "counts",
    "plays-all-sixteen": "counts",
    "guessing-signals-at-counts": "counts",
    "uniform-mixture": "depth",
}


def full_walk_nodes(n):
    """Every (prefix, pair) node of an n-round check, as pair indices."""
    return {node for k in range(1, n + 1) for node in itertools.product(range(4), repeat=k)}


def keyed_walk_nodes(name, n):
    """The (prefix, pair) nodes a passing check of ``name`` plays.

    The walk plays the four children of the first prefix in product
    order of each (depth, key) class.  For the pair counts that is the
    sorted prefix, so the prefixes are those of length k < n with
    nondecreasing pair indices, C(k+3, 3) per depth and C(n+3, 4) in
    all.  A key fixed per depth leaves one prefix per depth, all
    (A1,B1).
    """
    if KEYED_BY.get(name) == "counts":
        prefixes = [p for k in range(n) for p in itertools.combinations_with_replacement(range(4), k)]
        assert len(prefixes) == math.comb(n + 3, 4)
    elif KEYED_BY.get(name) == "depth":
        prefixes = [(0,) * k for k in range(n)]
    else:
        return full_walk_nodes(n)
    return {prefix + (pair,) for prefix in prefixes for pair in range(4)}


@contextlib.contextmanager
def unkeyed(monkeypatch, strategy_type):
    """Run the full walk: ``strategy_type`` keys no child, so no prefix is skipped."""
    with monkeypatch.context() as patch:
        patch.setattr(strategy_type, "_child_keys", lambda self: None)
        yield


@pytest.mark.parametrize("name", NOSIG_SUBJECTS)
def test_no_signaling_check_equals_toggle_and_replay_oracle(name, monkeypatch):
    # Same report as the oracle, with nothing played twice.  The oracle
    # replays through the public engines (a fresh Generator from the
    # seed per call) or the callable itself.  A sequential subject's
    # walk plays each (prefix, pair) node at most once, giving the
    # outcomes a replay through that node gives.  Walked in full, with
    # no child keys, that is all (4^(n+1) - 4)/3 nodes for a passing
    # subject and no more rounds than the oracle's replays for a failing
    # one.  With its keys the walk gives the same report from the nodes
    # of keyed_walk_nodes for a passing subject, and from fewer nodes
    # than the full walk for a failing keyed one.  Collective and
    # callable subjects are counted by sequence, in the collective
    # engine or the callable: all 4^n for a passing subject, no more
    # than the oracle's replays otherwise.
    factory, seed = NOSIG_SUBJECTS[name]
    played = []
    real_collective_playout = enumerator.collective_playout

    def counted_collective_playout(strategy, settings):
        played.append(tuple(p.index for p in settings))
        return real_collective_playout(strategy, settings)

    monkeypatch.setattr(enumerator, "collective_playout", counted_collective_playout)
    for n in (2,) if name == "collective-n2" else range(1, 5):
        subject = factory()
        sequential = isinstance(subject, SequentialStrategy)
        if sequential:

            def run(pairs):
                return wings(playout(subject, pairs, fresh_rng(seed)))

            checked = subject
        elif isinstance(subject, CollectiveStrategy):

            def run(pairs):
                return wings(real_collective_playout(subject, pairs))

            checked = subject
        else:
            run = subject

            def checked(pairs):
                played.append(tuple(p.index for p in pairs))
                return subject(pairs)

        replays = []

        def replay(indices):
            replays.append(indices)
            return run(tuple(ALL_PAIRS[i] for i in indices))

        expected = oracles.no_signaling_by_toggling(
            replay, n, whole_run=isinstance(subject, CollectiveStrategy)
        )
        played.clear()
        with contextlib.ExitStack() as stack:
            if sequential:
                stack.enter_context(unkeyed(monkeypatch, type(subject)))
            walked = stack.enter_context(walked_rounds(monkeypatch))
            report = no_signaling_check(checked, n, seed=seed)
        assert as_oracle_result(report) == expected, f"n={n}"
        if sequential:
            assert played == [], f"n={n}"
            assert_rounds_replay(walked, n, run)
            nodes = [node for node, _, _ in walked]
            assert len(set(nodes)) == len(nodes), f"n={n}"
            if report.passed:
                assert len(nodes) == (4 ** (n + 1) - 4) // 3, f"n={n}"
                assert set(nodes) == full_walk_nodes(n), f"n={n}"
            else:
                assert len(nodes) <= n * len(replays), f"n={n}"

            full_nodes = set(nodes)
            with walked_rounds(monkeypatch) as walked:
                report = no_signaling_check(factory(), n, seed=seed)
            assert as_oracle_result(report) == expected, f"keyed, n={n}"
            assert played == [], f"keyed, n={n}"
            assert_rounds_replay(walked, n, run)
            nodes = [node for node, _, _ in walked]
            assert len(set(nodes)) == len(nodes), f"keyed, n={n}"
            assert set(nodes) <= full_nodes, f"keyed, n={n}"
            if report.passed:
                assert set(nodes) == keyed_walk_nodes(name, n), f"keyed, n={n}"
            elif name in KEYED_BY:
                assert len(nodes) < len(full_nodes), f"keyed, n={n}"
        else:
            assert walked == [], f"n={n}"
            assert len(set(played)) == len(played), f"n={n}"
            if report.passed:
                assert len(played) == 4 ** n, f"n={n}"
            else:
                assert len(played) <= len(replays), f"n={n}"


def test_quantum_keyed_walk_is_its_unkeyed_walk(monkeypatch):
    # The sampler's tape is read by round alone, so it keys every child
    # by depth.  Bob's answer on (A1,B2) always differs from his answer
    # on (A2,B2), so the walk stops at round n of the all-(A1,B1) path,
    # before any subtree has come back clean: no key is consulted.
    for seed in (0, 7):
        for n in range(1, 7):
            walks = []
            for keyed in (False, True):
                with contextlib.ExitStack() as stack:
                    if not keyed:
                        stack.enter_context(unkeyed(monkeypatch, QuantumSingletSampler))
                    walked = stack.enter_context(walked_rounds(monkeypatch))
                    report = no_signaling_check(quantum_singlet_sampler(), n, seed=seed)
                walks.append((report, [node for node, _, _ in walked]))
            (report, nodes), (keyed_report, keyed_nodes) = walks
            assert keyed_report == report, (seed, n)
            assert not report.passed and report.counterexample.round_index == n, (seed, n)
            assert keyed_nodes == nodes, (seed, n)


@pytest.mark.parametrize("name", ("guessing", "own-side-parity", "constant-plus"))
def test_walk_hands_each_node_the_views_playout_hands_its_round(name, monkeypatch):
    # FULL, OWN_SIDE and NONE memory: at every (prefix, pair) node the
    # walk plays, keyed or in full, both wings see the entries that
    # ``playout`` shows them at that round of the node's sequence padded
    # with (A1,B1) pairs.  Nodes are carried by the played states, as in
    # walked_rounds, so a playout's round k is recorded at its first
    # k + 1 pairs.
    factory, _ = NOSIG_SUBJECTS[name]
    seen = []
    real_play_round = enumerator._play_round

    def recorded(strategy, pair, view_a, view_b):
        node = getattr(strategy, "_walked_node", ()) + (pair.index,)
        seen.append((node, view_a.entries(), view_b.entries()))
        strategy._walked_node = node
        return real_play_round(strategy, pair, view_a, view_b)

    monkeypatch.setattr(enumerator, "_play_round", recorded)
    for n in range(1, 5):
        for keyed in (False, True):
            seen.clear()
            with contextlib.ExitStack() as stack:
                if not keyed:
                    stack.enter_context(unkeyed(monkeypatch, type(factory())))
                assert no_signaling_check(factory(), n).passed, (n, keyed)
            walked = list(seen)
            assert any(entries for _, entries, _ in walked) == (n > 1 and name != "constant-plus")
            for node, view_a, view_b in walked:
                seen.clear()
                playout(factory(), [ALL_PAIRS[i] for i in node + (0,) * (n - len(node))])
                assert seen[len(node) - 1] == (node, view_a, view_b), (n, keyed)


@pytest.mark.parametrize(
    "factory, seed",
    [(constant_plus, None), (lambda: from_stochastic(StochasticLHV.uniform(all_assignments())), 7)],
    ids=["constant-plus", "uniform-mixture"],
)
def test_walk_reaches_depth_600_under_the_default_recursion_limit(factory, seed):
    # The walk recurses one frame a depth.  Both subjects key every child
    # by depth, so their walks play 4 rounds a depth.
    subject = factory()
    rng = None if seed is None else Stream(seed)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        report = enumerator._walk_prefixes(subject, subject.memory_class, 600, rng)
    finally:
        sys.setrecursionlimit(limit)
    assert report.passed


def test_no_signaling_reports_late_first_violation():
    for n, first_failure in zip(range(1, 5), (3, 9, 33, 129)):
        report = no_signaling_check(signals_late, n)
        assert report.sequences_checked == first_failure
        assert report.counterexample.round_index == n
        assert report.counterexample.toggled_side is Side.BOB
    report = no_signaling_check(SignalsInLastRound(), 3)
    assert not report.passed
    assert report.counterexample.round_index == 3


def test_no_signaling_plays_each_sequence_once(monkeypatch):
    # Guessing at n = 3 is walked: one playout begun, and, walked in
    # full, 4 + 16 + 64 distinct (prefix, pair) nodes played once each;
    # keyed by its pair counts, four nodes for each of the 1 + 4 + 10
    # count vectors of depth 0..2, 4 * C(6, 4) = 60.
    begun = []
    begin_playout = CountDriven.begin_playout
    for keyed, expected_nodes in ((False, 84), (True, 4 * math.comb(6, 4))):
        begun.clear()
        subject = guessing_model()
        with contextlib.ExitStack() as stack:
            if not keyed:
                stack.enter_context(unkeyed(monkeypatch, GuessingModel))
            patch = stack.enter_context(monkeypatch.context())
            patch.setattr(CountDriven, "begin_playout", lambda self, n, rng=None: begun.append(n) or begin_playout(self, n, rng))
            walked = stack.enter_context(walked_rounds(monkeypatch))
            assert no_signaling_check(subject, 3).passed
        assert begun == [3]
        nodes = [node for node, _, _ in walked]
        assert len(nodes) == expected_nodes, keyed
        assert len(set(nodes)) == expected_nodes, keyed

    calls = []

    def counted_subject(pairs):
        calls.append(pairs)
        return alice_copies_bob(pairs)

    # A signaler stops at its first violation: sequence 1 and its
    # round-1 Bob toggle are all it plays.
    report = no_signaling_check(counted_subject, 4)
    assert not report.passed
    assert report.sequences_checked == 1
    assert len(calls) == 2


@pytest.mark.parametrize("name", ("guessing", "model101", "guessing-last-tie", "plays-all-sixteen"))
def test_walk_advances_each_prefix_state_once(name, monkeypatch):
    # A passing check catches each prefix's state up once, before its
    # four children are played or the node is skipped.  Walked in full:
    # one advance per node of depth 1..n-1, (4^n - 4)/3 in all, while
    # every played round still calls both responders, 2 * (4^(n+1) - 4)/3
    # calls in all.  Keyed by the pair counts: of the 4 * C(k+2, 3)
    # children at depth k of the C(k+2, 3) count vectors walked at depth
    # k - 1, the walk visits, and advances, only the first child of each
    # count vector of depth k, C(k+3, 3) of them: it skips the others
    # by the keys the parents announce.  4 * C(n+3, 4) rounds are played.
    advanced = []
    responded = []
    real_advance = CountDriven._advance
    real_alice = CountDriven.respond_alice
    real_bob = CountDriven.respond_bob
    monkeypatch.setattr(CountDriven, "_advance", lambda self, view: advanced.append(len(view)) or real_advance(self, view))
    monkeypatch.setattr(
        CountDriven, "respond_alice", lambda self, setting, view: responded.append(view) or real_alice(self, setting, view)
    )
    monkeypatch.setattr(
        CountDriven, "respond_bob", lambda self, setting, view: responded.append(view) or real_bob(self, setting, view)
    )
    strategy_type = type(COUNT_DRIVEN[name]())
    for n in range(1, 6):
        advanced.clear()
        responded.clear()
        with unkeyed(monkeypatch, strategy_type):
            assert no_signaling_check(COUNT_DRIVEN[name](), n).passed, f"n={n}"
        assert len(advanced) == (4 ** n - 4) // 3, f"n={n}"
        assert Counter(advanced) == {k: 4 ** k for k in range(1, n)}, f"n={n}"
        assert len(responded) == 2 * (4 ** (n + 1) - 4) // 3, f"n={n}"

        advanced.clear()
        responded.clear()
        assert no_signaling_check(COUNT_DRIVEN[name](), n).passed, f"keyed, n={n}"
        # A count vector is a sorted sequence of pair indices.
        vectors = {k: len({tuple(sorted(p)) for p in itertools.product(range(4), repeat=k)}) for k in range(1, n)}
        assert vectors == {k: math.comb(k + 3, 3) for k in range(1, n)}
        assert Counter(advanced) == vectors, f"keyed, n={n}"
        assert len(responded) == 2 * 4 * math.comb(n + 3, 4), f"keyed, n={n}"


class GuessingWithoutKeys(GuessingModel):
    """The guessing model naming no child keys: its check walks every prefix."""

    def _child_keys(self):
        return None


def passes_every_toggle(pairs):
    """A callable subject whose wings answer +1 throughout."""
    return (1,) * len(pairs), (1,) * len(pairs)


@contextlib.contextmanager
def predictions(monkeypatch):
    """Record the work each entry point predicts, and is admitted to do, before it starts."""
    predicted = []
    real_admit = enumerator._admit

    def recorded(n, work, unit):
        predicted.append(work)
        real_admit(n, work, unit)

    with monkeypatch.context() as patch:
        patch.setattr(enumerator, "_admit", recorded)
        yield predicted


def test_each_prediction_is_the_work_a_passing_run_does(monkeypatch):
    # The count engine asks one assignment per count state, a walk plays
    # one round per node it visits, and a collective table or a scan
    # plays each sequence once.  The distribution's (counts, scores)
    # states are bounded, not counted, by its prediction: which scores
    # a strategy reaches depends on its play.
    playouts = []
    real_collective_playout = enumerator.collective_playout
    monkeypatch.setattr(
        enumerator,
        "collective_playout",
        lambda strategy, settings: playouts.append(settings) or real_collective_playout(strategy, settings),
    )
    for n in range(1, 7):
        for distribution in (False, True):
            subject = guessing_model()
            asked = []
            subject.assignment = lambda counts, k: asked.append(k) or GuessingModel.assignment(subject, counts, k)
            with predictions(monkeypatch) as predicted:
                exact_expectations(subject, n, collect_distribution=distribution)
            if distribution:
                assert predicted == [math.comb(n + 8, 8)] and len(asked) < predicted[0], f"n={n}"
            else:
                assert predicted == [len(asked)] == [math.comb(n + 3, 4)], f"n={n}"

        for factory, rounds in (
            (guessing_model, 4 * math.comb(n + 3, 4)),
            (GuessingWithoutKeys, (4 ** (n + 1) - 4) // 3),
            (OwnSideParity, (4 ** (n + 1) - 4) // 3),
        ):
            with predictions(monkeypatch) as predicted, walked_rounds(monkeypatch) as walked:
                assert no_signaling_check(factory(), n).passed, f"n={n}"
            assert predicted == [len(walked)] == [rounds], (factory, n)

        for check in (collective_scores, no_signaling_check):
            playouts.clear()
            with predictions(monkeypatch) as predicted:
                check(ConstantCollective(), n)
            assert predicted == [len(playouts)] == [4 ** n], (check, n)
        runs = []
        with predictions(monkeypatch) as predicted:
            assert no_signaling_check(lambda pairs: runs.append(pairs) or passes_every_toggle(pairs), n).passed
        assert predicted == [len(runs)] == [4 ** n], f"n={n}"


class Admitted(Exception):
    """Raised by a subject's first piece of work: its request was admitted."""


def trip(*args, **kwargs):
    raise Admitted


def tripped(subject, method):
    """``subject`` whose ``method`` raises :class:`Admitted`."""
    setattr(subject, method, trip)
    return subject


#: Each engine's run of a subject at n, the last n the budget admits,
#: and the work predicted one n up.
BUDGET_EDGES = {
    "count states": (
        lambda n: exact_expectations(tripped(guessing_model(), "assignment"), n),
        74,
        "1,426,425 count states",
    ),
    "(counts, scores) states": (
        lambda n: exact_expectations(tripped(guessing_model(), "assignment"), n, collect_distribution=True),
        17,
        r"1,562,275 \(counts, scores\) states",
    ),
    "keyed walk": (
        lambda n: no_signaling_check(tripped(guessing_model(), "begin_playout"), n),
        52,
        "1,469,160 walked rounds",
    ),
    "count-driven walk without keys": (
        lambda n: no_signaling_check(tripped(GuessingWithoutKeys(), "begin_playout"), n),
        10,
        "5,592,404 walked rounds",
    ),
    "tape walk": (
        lambda n: no_signaling_check(tripped(quantum_singlet_sampler(), "begin_playout"), n, seed=0),
        10,
        "5,592,404 walked rounds",
    ),
    "own-side walk": (
        lambda n: no_signaling_check(tripped(OwnSideParity(), "begin_playout"), n),
        10,
        "5,592,404 walked rounds",
    ),
    "collective table": (
        lambda n: collective_scores(tripped(ConstantCollective(), "respond_alice"), n),
        10,
        "4,194,304 sequences",
    ),
    "collective scan": (
        lambda n: no_signaling_check(tripped(ConstantCollective(), "respond_alice"), n),
        10,
        "4,194,304 sequences",
    ),
    "callable scan": (lambda n: no_signaling_check(trip, n), 10, "4,194,304 sequences"),
}


@pytest.mark.parametrize("name", BUDGET_EDGES)
def test_each_entry_point_admits_up_to_the_budget(name):
    # At the edge the subject's first piece of work is reached; one n up
    # the request is refused before any.
    run, edge, work = BUDGET_EDGES[name]
    with pytest.raises(Admitted):
        run(edge)
    with over_budget(edge + 1, work):
        run(edge + 1)


def test_deepest_admitted_walk_passes(monkeypatch):
    # 52 rounds deep, the deepest walk the budget admits: constant-plus
    # keys each child by its depth, so it plays four rounds a depth.
    with walked_rounds(monkeypatch) as walked:
        assert no_signaling_check(constant_plus(), 52).passed
    assert len(walked) == 208


def view_of(strategy, rounds):
    """The view both responders get after ``rounds``, as :func:`playout` builds it."""
    if strategy.memory_class is MemoryClass.FULL:
        return MemoryView(MemoryClass.FULL, None, rounds, len(rounds))
    return EMPTY_VIEW


def play_on(strategy, rounds, pair):
    """Play one more round after ``rounds``, as :func:`playout` would, and record it."""
    k = len(rounds)
    view = view_of(strategy, rounds)
    a, b = enumerator._play_round(strategy, pair, view, view)
    rounds.append(Round(k + 1, pair, a, b))


#: Every strategy whose snapshot shares its attribute values, with a tape seed.
SHALLOW_SNAPSHOTS = {
    name: NOSIG_SUBJECTS[name]
    for name in (
        "constant-plus",
        "guessing",
        "model101",
        "guessing-last-tie",
        "plays-all-sixteen",
        "uniform-mixture",
        "quantum",
    )
}


@pytest.mark.parametrize("name", SHALLOW_SNAPSHOTS)
def test_snapshot_continues_like_a_fresh_playout(name):
    # A snapshot taken mid-playout and its original, playing different
    # continuations round by round in turn, must each give what a fresh
    # playout of its whole sequence gives; so must a snapshot taken
    # after the state was caught up on the next round's view, as the
    # no-signaling walk takes them.
    factory, seed = SHALLOW_SNAPSHOTS[name]
    prefix = (P22, P11, P22)
    continuations = ((P12, P11, P11, P11), (P21, P11, P12, P11))
    n = len(prefix) + len(continuations[0])
    for caught_up in (False, True):
        original = factory()
        original.begin_playout(n, fresh_rng(seed))
        history = []
        for pair in prefix:
            play_on(original, history, pair)
        if caught_up:
            original._catch_up(view_of(original, history))
        twin = original._snapshot()
        assert type(twin) is type(original) and twin is not original
        runs = ((original, list(history)), (twin, list(history)))
        for k in range(len(continuations[0])):
            for (strategy, rounds), continuation in zip(runs, continuations):
                play_on(strategy, rounds, continuation[k])
        for (_, rounds), continuation in zip(runs, continuations):
            assert tuple(rounds) == playout(factory(), prefix + continuation, fresh_rng(seed)).rounds, caught_up


@pytest.mark.parametrize("name", KEYED_BY)
def test_equal_state_keys_play_every_continuation_alike(name):
    # The one assumption behind the walk's skips, checked by plain
    # playouts: prefixes of one depth whose parents name them equal keys
    # give the same outcomes in every later round of every continuation.
    # Each parent prefix of depth k - 1 is played through `playout` with
    # a fresh Generator from the seed and caught up on the view of its
    # completed rounds; it names the keys of its four children.  Each
    # whole sequence is played once more the same way.  Count keys group
    # the prefixes of depth k >= 1 into C(k+3, 3) classes, depth keys
    # into one.
    factory, seed = NOSIG_SUBJECTS[name]
    n = 5
    runs = {
        sequence: wings(playout(factory(), [ALL_PAIRS[i] for i in sequence], fresh_rng(seed)))
        for sequence in itertools.product(range(4), repeat=n)
    }
    for k in range(1, n):
        groups = defaultdict(list)
        for prefix in itertools.product(range(4), repeat=k - 1):
            parent = factory()
            rounds = list(playout(parent, [ALL_PAIRS[i] for i in prefix], fresh_rng(seed)).rounds)
            parent._catch_up(view_of(parent, rounds))
            child_keys = parent._child_keys()
            assert child_keys is not None and len(child_keys) == 4, prefix
            for pair, key in enumerate(child_keys):
                assert key is not None, (prefix, pair)
                groups[key].append(prefix + (pair,))
        assert len(groups) == (math.comb(k + 3, 3) if KEYED_BY[name] == "counts" else 1), f"k={k}"
        for prefixes in groups.values():
            for tail in itertools.product(range(4), repeat=n - k):
                outcomes = {tuple(wing[k:] for wing in runs[prefix + tail]) for prefix in prefixes}
                assert len(outcomes) == 1, (prefixes, tail)


class NonOutcomeInRoundTwo(SequentialStrategy):
    """Answers +1, except that Bob answers 0 to (A2,B2) in round 2."""

    memory_class = MemoryClass.FULL

    def respond_alice(self, setting, view):
        self._alice = setting
        return 1

    def respond_bob(self, setting, view):
        return 0 if len(view) == 1 and self._alice == 1 and setting == 1 else 1


def test_sequential_non_outcome_is_refused():
    assert playout(NonOutcomeInRoundTwo(), [P22, P21]).rounds[1][2:] == (1, 1)
    with pytest.raises(InvariantViolation, match=r"strategy produced non-outcome \(1, 0\)"):
        playout(NonOutcomeInRoundTwo(), [P11, P22])
    with pytest.raises(InvariantViolation, match=r"strategy produced non-outcome \(1, 0\)"):
        no_signaling_check(NonOutcomeInRoundTwo(), 2)


class NonOutcomeOnB2(CollectiveStrategy):
    """Alice answers +1 throughout; Bob answers 0 wherever his setting is B2."""

    def respond_alice(self, settings):
        return (1,) * len(settings)

    def respond_bob(self, settings):
        return tuple(0 if setting == 1 else 1 for setting in settings)


def test_collective_non_outcome_is_refused():
    assert wings(collective_playout(NonOutcomeOnB2(), [P11, P21])) == ((1, 1), (1, 1))
    # No kernel is registered for the subject: ``estimate`` plays it on the general engine.
    assert montecarlo._find_kernel(NonOutcomeOnB2()) is None
    plan = montecarlo.SimulationPlan(factory=NonOutcomeOnB2, n=5, batches=3, seed=7)
    for run in (
        lambda: collective_playout(NonOutcomeOnB2(), [P11, P22]),
        lambda: exact_collective(NonOutcomeOnB2(), 2),
        lambda: montecarlo.estimate(plan),
        lambda: no_signaling_check(NonOutcomeOnB2(), 2),
    ):
        with pytest.raises(InvariantViolation, match=r"strategy produced non-outcome \(1, 0\)"):
            run()


class UnknownMemoryClass(SequentialStrategy):
    """Declares a memory class that is not a ``MemoryClass``; records each playout it begins."""

    memory_class = "full"

    def __init__(self):
        self.begun = []

    def begin_playout(self, n, rng=None):
        self.begun.append(n)

    def respond_alice(self, setting, view):
        return 1

    def respond_bob(self, setting, view):
        return 1


def test_unknown_memory_class_is_refused_before_any_play():
    strategy = UnknownMemoryClass()
    with pytest.raises(InvariantViolation, match="unknown memory class 'full'"):
        playout(strategy, [P11, P22])
    with pytest.raises(InvariantViolation, match="unknown memory class 'full'"):
        no_signaling_check(strategy, 2)
    assert strategy.begun == []


def test_no_signaling_rejects_malformed_callable_runs():
    with pytest.raises(InvariantViolation):
        no_signaling_check(lambda pairs: ((1,) * len(pairs), (0,) * len(pairs)), 2)
    with pytest.raises(InvariantViolation):
        no_signaling_check(lambda pairs: ((1,), (1,)), 2)

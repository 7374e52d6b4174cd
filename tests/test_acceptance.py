"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold, so a
verbose run shows one line per criterion.  Tolerances are pinned here,
not configurable.
"""

import math
import random
from fractions import Fraction

import pytest

import oracles
from chshsim import cli
from chshsim.bounds import f_delta
from chshsim.enumerator import (
    chsh_exhaustive_max,
    exact_collective,
    exact_expectations,
    model101_exact,
    no_signaling_check,
)
from chshsim.montecarlo import SimulationPlan, estimate
from chshsim.stats import chsh_value
from chshsim.strategies import (
    StochasticLHV,
    all_assignments,
    collective_n2,
    constant_plus,
    from_stochastic,
    guessing_model,
    model_101,
    quantum_singlet_sampler,
)


def ok(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def random_rational_mixture(rng):
    k = rng.randrange(1, 9)
    assignments = all_assignments()
    picks = [rng.randrange(16) for _ in range(k)]
    weights = [rng.randrange(0, 50) for _ in range(k)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return StochasticLHV(
        tuple((Fraction(w, total), assignments[i]) for w, i in zip(weights, picks))
    )


def test_criterion_1_chsh_bound_exact():
    best, argmax = chsh_exhaustive_max()
    assert best == 3
    assert len(argmax) == 8
    rng = random.Random(20260811)
    for _ in range(500):
        assert chsh_value(random_rational_mixture(rng)) <= 3
    ok(1, "CHSH bound exact over assignments and mixtures")


def test_criterion_2_quantum_value():
    # Closed form: four equal term probabilities summing to 2 + sqrt(2).
    from chshsim.strategies import QUANTUM_SCORE_PROBABILITY

    assert 4 * QUANTUM_SCORE_PROBABILITY == 2 + math.sqrt(2)
    plan = SimulationPlan(
        factory=quantum_singlet_sampler, n=10**4, batches=100, seed=2026, strategy_name="quantum"
    )
    report = estimate(plan)
    assert abs(float(report.mean_y) - 3.41421) <= 0.01
    ok(2, "quantum sampler reproduces 2+sqrt(2)")


def test_criterion_3_collective_counterexample_exact():
    result = exact_collective(collective_n2(), 2)
    assert result.p_all == Fraction(10, 16)
    assert result.p_all > result.independent_ceiling == Fraction(9, 16)
    ok(3, "collective model scores 10/16 > 9/16 exactly")


def test_criterion_4_model_101():
    result = model101_exact()
    assert result.e_conditional == Fraction(53, 17)
    assert abs(float(result.e_conditional) - 3.1176) < 1e-3
    assert result.e_x_excess == result.p_trigger * Fraction(2, 17)
    assert result.e_x_excess > 0
    assert result.p_trigger == oracles.model101_trigger_probability()
    assert 8.8e-14 < float(result.p_trigger) < 9.0e-14
    via_lgamma = oracles.log10_trigger_probability_via_lgamma()
    assert abs(result.log10_p_trigger - via_lgamma) / abs(via_lgamma) <= 1e-3
    ok(4, "rigged 101st round gives 53/17 conditionally, positive excess")


def test_criterion_5_guessing_model_beats_three_in_x():
    for n in range(4, 11):
        result = exact_expectations(guessing_model(), n)
        assert result.e_x_conditional > 3, f"n={n}"
        assert result.e_y <= 3, f"n={n}"
        if n == 4:
            assert result.e_x_conditional == Fraction(15, 4)
    ok(5, "guessing model: E(X|defined) > 3 exactly for n=4..10, E(Y) <= 3")


def test_criterion_6_tail_bound_respected():
    bound = f_delta(1000, 0.1)
    assert abs(bound - 0.0413) < 1e-4
    for name, factory in (("constant-plus", constant_plus), ("guessing", guessing_model)):
        plan = SimulationPlan(
            factory=factory, n=1000, batches=10**5, seed=424242, delta=0.1, strategy_name=name
        )
        report = estimate(plan)
        half_width = (report.wilson_y[1] - report.wilson_y[0]) / 2
        freq = float(report.tail_freq_y)
        assert freq <= bound + 4 * half_width, f"{name}: {freq} vs {bound}"
    ok(6, "empirical P(Y > 3.1) within the f bound for both maximizers")


def test_criterion_7_no_signaling_suite():
    mixture = StochasticLHV.uniform(all_assignments())
    for n in range(1, 7):
        for strategy in (constant_plus(), guessing_model(), model_101()):
            assert no_signaling_check(strategy, n).passed, (strategy, n)
        assert no_signaling_check(from_stochastic(mixture), n, seed=9).passed, n
    assert no_signaling_check(collective_n2(), 2).passed

    def signaling_double(pairs):
        return tuple(1 if p.bob == 0 else -1 for p in pairs), tuple(1 for _ in pairs)

    report = no_signaling_check(signaling_double, 3)
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.before != report.counterexample.after
    ok(7, "catalogue passes no-signaling for n<=6; the double fails concretely")


def test_criterion_8_oracle_agreement():
    for factory, name in (
        (constant_plus, "constant-plus"),
        (guessing_model, "guessing"),
        (model_101, "model101"),
    ):
        for n in range(1, 7):
            exact = exact_expectations(factory(), n)
            plan = SimulationPlan(
                factory=factory, n=n, batches=10**5, seed=1000 + n, strategy_name=name
            )
            report = estimate(plan)
            gap = abs(float(report.mean_y) - float(exact.e_y))
            assert gap <= 4 * report.se_y, f"{name} n={n}: gap {gap} vs se {report.se_y}"
    ok(8, "Monte Carlo means match exact enumeration within 4 SE")


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--strategy", "guessing", "--n", "100", "--batches", "50", "--seed", "11"),
        ("simulate", "--strategy", "quantum", "--n", "100", "--batches", "50", "--seed", "11",
         "--format", "csv"),
        ("enumerate", "--strategy", "guessing", "--n", "4", "--distribution"),
        ("enumerate", "--strategy", "collective-n2", "--n", "2"),
        ("bounds", "--n", "1000", "--delta", "0.1", "--epsilon", "0.25"),
        ("table", "--n", "1000", "--delta", "0.1", "--format", "csv"),
        ("nosig", "--strategy", "model101", "--n", "3"),
    ],
    ids=lambda argv: argv[0] + ("-csv" if "csv" in argv else ""),
)
def test_criterion_9_cli_byte_reproducibility(argv, tmp_path):
    first, second = tmp_path / "first.out", tmp_path / "second.out"
    extra1 = ("--out", str(first))
    extra2 = ("--out", str(second))
    if argv[0] == "simulate":
        extra1 += ("--batches-out", str(tmp_path / "first.csv"))
        extra2 += ("--batches-out", str(tmp_path / "second.csv"))
    code1 = cli.main(list(argv + extra1))
    code2 = cli.main(list(argv + extra2))
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()
    if argv[0] == "simulate":
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    ok(9, f"{argv[0]} output is byte-identical across reruns")

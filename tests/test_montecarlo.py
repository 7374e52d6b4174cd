"""Tests for the Monte Carlo machinery: streams, kernels, aggregation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from chshsim import montecarlo
from chshsim.core import ALL_PAIRS
from chshsim.enumerator import exact_expectations, playout
from chshsim.montecarlo import (
    BATCH_CSV_HEADER,
    BatchCounts,
    SimulationPlan,
    batch_csv_row,
    batch_x,
    batch_y,
    compare_tails,
    estimate,
    iter_batch_counts,
    run_batch,
    tail_compare,
    wilson_interval,
)
from chshsim.montecarlo import _kernel_model101
from chshsim.stats import round_score, y_statistic
from chshsim.strategies import (
    DeterministicAssignment,
    Model101,
    StochasticLHV,
    collective_n2,
    constant_plus,
    from_stochastic,
    guessing_model,
    model_101,
    quantum_singlet_sampler,
)

MIXTURE = StochasticLHV(
    (
        (Fraction(1, 4), DeterministicAssignment(1, 1, 1, 1)),
        (Fraction(1, 4), DeterministicAssignment(1, -1, -1, 1)),
        (Fraction(1, 2), DeterministicAssignment(-1, -1, -1, -1)),
    )
)

FACTORIES = {
    "constant-plus": constant_plus,
    "guessing": guessing_model,
    "model101": model_101,
    "quantum": quantum_singlet_sampler,
    "stochastic-lhv": lambda: from_stochastic(MIXTURE),
}


def test_plan_validation():
    with pytest.raises(ValueError):
        SimulationPlan(factory=constant_plus, n=0, batches=10)
    with pytest.raises(ValueError):
        SimulationPlan(factory=constant_plus, n=10, batches=0)
    with pytest.raises(ValueError):
        SimulationPlan(factory=constant_plus, n=10, batches=10, delta=0.0)


def test_run_batch_deterministic():
    t1 = run_batch(constant_plus(), 80, seed=9)
    t2 = run_batch(constant_plus(), 80, seed=9)
    assert t1 == t2
    assert run_batch(constant_plus(), 80, seed=10) != t1
    assert run_batch(constant_plus(), 80, seed=9, batch_index=1) != t1


def test_run_batch_constant_outcomes():
    t = run_batch(constant_plus(), 200, seed=4)
    assert all(r.a == 1 and r.b == 1 for r in t.rounds)
    scoring = sum(1 for r in t.rounds if r.pair != ALL_PAIRS[3])
    assert y_statistic(t) == Fraction(4 * scoring, 200)


def test_run_batch_settings_uniform_ish():
    t = run_batch(constant_plus(), 8000, seed=123)
    freqs = [sum(1 for r in t.rounds if r.pair.index == i) / 8000 for i in range(4)]
    for f in freqs:
        assert abs(f - 0.25) < 0.025


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_kernel_matches_general_engine(name):
    factory = FACTORIES[name]
    plan = SimulationPlan(factory=factory, n=37, batches=50, seed=5, strategy_name=name)
    fast = list(iter_batch_counts(plan))
    slow = list(iter_batch_counts(plan, force_general=True))
    assert fast == slow


def test_kernel_matches_general_engine_past_trigger_length():
    plan = SimulationPlan(factory=model_101, n=130, batches=20, seed=8)
    assert list(iter_batch_counts(plan)) == list(iter_batch_counts(plan, force_general=True))


def test_model101_kernel_on_crafted_trigger_history():
    trigger = [0] * 33 + [1] * 33 + [2] * 33 + [3]
    rows = np.array(
        [trigger + [3], trigger + [1], [0] * 101], dtype=np.uint8
    )
    scores = _kernel_model101(Model101(), rows.copy(), None)
    for row, pairs in zip(scores, rows):
        t = playout(Model101(), [ALL_PAIRS[i] for i in pairs])
        assert row.tolist() == [bool(round_score(r)) for r in t.rounds]
    # Triggered batch scores the (A2,B2) finale but not an (A1,B2) finale.
    assert scores[0][100]
    assert not scores[1][100]


def test_guessing_custom_tie_break_uses_general_path():
    plan = SimulationPlan(
        factory=lambda: guessing_model(tie_break=lambda tied: tied[-1]),
        n=20,
        batches=10,
        seed=3,
    )
    records = list(iter_batch_counts(plan))
    assert records == list(iter_batch_counts(plan, force_general=True))


def test_estimate_reports_are_reproducible():
    plan = SimulationPlan(factory=guessing_model, n=50, batches=200, seed=17, strategy_name="guessing")
    assert estimate(plan) == estimate(plan)


def test_batches_are_order_independent():
    plan = SimulationPlan(factory=guessing_model, n=25, batches=40, seed=6)
    records = list(iter_batch_counts(plan))
    strategy = guessing_model()
    for index in (31, 7, 0, 39, 18):
        t = run_batch(strategy, 25, seed=6, batch_index=index)
        totals = [0, 0, 0, 0]
        scores = [0, 0, 0, 0]
        for r in t.rounds:
            totals[r.pair.index] += 1
            scores[r.pair.index] += round_score(r)
        assert records[index] == BatchCounts(index, tuple(scores), tuple(totals))


def test_estimate_mean_y_is_exact_rational():
    plan = SimulationPlan(factory=constant_plus, n=10, batches=16, seed=2)
    report = estimate(plan)
    records = list(iter_batch_counts(plan))
    expected = sum(batch_y(r, 10) for r in records) / 16
    assert report.mean_y == expected
    assert isinstance(report.mean_y, Fraction)


def test_estimate_undefined_x_handling():
    # Three rounds can never cover four pairs, so X is always undefined.
    plan = SimulationPlan(factory=constant_plus, n=3, batches=25, seed=1)
    report = estimate(plan)
    assert report.undefined_count == 25
    assert report.mean_x is None
    assert report.se_x is None
    assert report.tail_freq_x == 0


@pytest.mark.parametrize(
    "n, delta, score_counts, y_tail, x_tail",
    [
        # Y_N = 4 * 33 / 40 = 3.3 = 3 + delta: on the threshold, not beyond it.
        (40, 0.3, (10, 10, 10, 3), 0, 0),
        (40, 0.3, (10, 10, 10, 4), 1, 0),
        # X_N = 3 + 6/11 = 39/11 = (3 + delta) / (1 - delta).
        (44, 0.12, (11, 11, 11, 6), 1, 0),
        (44, 0.12, (11, 11, 11, 7), 1, 1),
    ],
)
def test_estimate_tail_thresholds_exact_at_boundary(monkeypatch, n, delta, score_counts, y_tail, x_tail):
    # 0.3 and 0.12 both exceed their nearest binary floats, so cuts built
    # from Fraction(delta) would count the on-threshold batches as beyond.
    record = BatchCounts(0, score_counts, (n // 4,) * 4)
    monkeypatch.setattr(montecarlo, "iter_batch_counts", lambda plan, force_general=False: iter([record]))
    report = estimate(SimulationPlan(factory=constant_plus, n=n, batches=1, delta=delta))
    assert (report.tail_freq_y, report.tail_freq_x) == (y_tail, x_tail)


def test_estimate_quantum_matches_known_mean():
    plan = SimulationPlan(
        factory=quantum_singlet_sampler, n=2000, batches=60, seed=2026, strategy_name="quantum"
    )
    report = estimate(plan)
    assert abs(float(report.mean_y) - (2 + math.sqrt(2))) <= 4 * report.se_y
    assert report.undefined_count == 0


def test_estimate_lhv_strategies_respect_chsh_in_mean():
    for name in ("constant-plus", "guessing", "model101", "stochastic-lhv"):
        plan = SimulationPlan(factory=FACTORIES[name], n=400, batches=60, seed=33, strategy_name=name)
        report = estimate(plan)
        assert float(report.mean_y) <= 3 + 4 * report.se_y


def test_estimate_agrees_with_exact_enumeration():
    plan = SimulationPlan(factory=guessing_model, n=4, batches=4000, seed=77)
    report = estimate(plan)
    exact = exact_expectations(guessing_model(), 4)
    assert abs(float(report.mean_y) - float(exact.e_y)) <= 4 * report.se_y


def test_estimate_collective_runs_via_general_path():
    plan = SimulationPlan(factory=collective_n2, n=2, batches=400, seed=12, strategy_name="collective-n2")
    report = estimate(plan)
    assert report.undefined_count == 400
    assert 2.0 <= float(report.mean_y) <= 4.0


def test_estimate_single_batch_has_no_se():
    plan = SimulationPlan(factory=constant_plus, n=8, batches=1, seed=0)
    report = estimate(plan)
    assert report.se_y is None


def test_batch_helpers():
    record = BatchCounts(0, (2, 1, 1, 0), (2, 2, 1, 1))
    assert batch_y(record, 6) == Fraction(8, 3)
    assert batch_x(record) == Fraction(1) + Fraction(1, 2) + Fraction(1) + Fraction(0)
    undefined = BatchCounts(1, (1, 0, 0, 0), (6, 0, 0, 0))
    assert batch_x(undefined) is None


def test_batch_csv_row_layout():
    record = BatchCounts(3, (2, 1, 1, 0), (2, 2, 1, 1))
    row = batch_csv_row(record, 6, 42)
    assert len(row) == len(BATCH_CSV_HEADER)
    assert row[:3] == (3, 42, 6)
    assert row[4] == 1
    undefined = BatchCounts(4, (1, 0, 0, 0), (6, 0, 0, 0))
    row = batch_csv_row(undefined, 6, 42)
    assert row[4] == 0 and row[5] == ""


def test_wilson_interval_basics():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0.0 < high < 0.05
    low, high = wilson_interval(100, 100)
    assert high == pytest.approx(1.0, abs=1e-12) and low > 0.95
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


def test_tail_compare_consistency():
    plan = SimulationPlan(factory=constant_plus, n=200, batches=500, seed=21, delta=0.1)
    comparison = tail_compare(plan)
    report = estimate(plan)
    assert comparison.report == report
    assert comparison == compare_tails(report)
    assert comparison.y_ratio == float(report.tail_freq_y) / comparison.y_bound
    assert comparison.x_bound == 5 * comparison.y_bound

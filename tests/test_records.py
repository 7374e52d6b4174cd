"""The package's record types: fields, construction, repr, immutability, validation."""

import inspect
from fractions import Fraction
from typing import NamedTuple

import pytest

from chshsim.bounds import ModelBounds, ModelBoundsTable
from chshsim.core import ALL_PAIRS, PairCounts, Side
from chshsim.enumerator import (
    CollectiveResult,
    ExactResult,
    Model101Exact,
    NoSignalingReport,
    SignalingCounterexample,
)
from chshsim.montecarlo import EstimateReport, SimulationPlan, TailComparison
from chshsim.stats import BatchStatistics
from chshsim.strategies import DeterministicAssignment, GuessingModel, StochasticLHV


class Record(NamedTuple):
    kind: type
    values: dict  # every field by keyword, in field order
    defaults: dict
    text: str  # the repr
    refusals: tuple  # (overridden fields, the ValueError's message)


ASSIGNMENT = dict(a1=1, a2=1, b1=1, b2=-1)
ASSIGNMENT_TEXT = "DeterministicAssignment(a1=1, a2=1, b1=1, b2=-1)"
PAIR_TEXT = "SettingPair(alice=<AliceSetting.A{}: {}>, bob=<BobSetting.B{}: {}>)"
REPORT = dict(
    strategy="guessing", n=10, batches=2, seed=0, delta=0.1, mean_y=Fraction(5, 2), se_y=0.5,
    mean_x=3.25, se_x=None, undefined_count=1, tail_freq_y=Fraction(1, 2), tail_freq_x=Fraction(0),
    wilson_y=(0.1, 0.9), wilson_x=(0.0, 0.8),
)
REPORT_TEXT = (
    "EstimateReport(strategy='guessing', n=10, batches=2, seed=0, delta=0.1, mean_y=Fraction(5, 2), "
    "se_y=0.5, mean_x=3.25, se_x=None, undefined_count=1, tail_freq_y=Fraction(1, 2), "
    "tail_freq_x=Fraction(0, 1), wilson_y=(0.1, 0.9), wilson_x=(0.0, 0.8))"
)
BOUNDS = dict(e_x=3.0, p_x_tail=None, e_y=3.0, p_y_tail=0.25)
BOUNDS_TEXT = "ModelBounds(e_x=3.0, p_x_tail=None, e_y=3.0, p_y_tail=0.25)"

RECORDS = (
    Record(ModelBounds, BOUNDS, {}, BOUNDS_TEXT, ()),
    Record(
        ModelBoundsTable,
        dict(n=10, delta=0.1, epsilon=0.25, rows={"memoryless": ModelBounds(**BOUNDS)}),
        {},
        f"ModelBoundsTable(n=10, delta=0.1, epsilon=0.25, rows={{'memoryless': {BOUNDS_TEXT}}})",
        (),
    ),
    Record(
        ExactResult,
        dict(n=2, e_y=Fraction(3), e_x_conditional=None, p_undefined=Fraction(1, 4), distribution=None),
        dict(distribution=None),
        "ExactResult(n=2, e_y=Fraction(3, 1), e_x_conditional=None, p_undefined=Fraction(1, 4), distribution=None)",
        (),
    ),
    Record(
        CollectiveResult,
        dict(n=1, pattern_counts={(0,): 1, (1,): 3}, p_all=Fraction(3, 4), independent_ceiling=Fraction(3, 4)),
        {},
        "CollectiveResult(n=1, pattern_counts={(0,): 1, (1,): 3}, p_all=Fraction(3, 4), "
        "independent_ceiling=Fraction(3, 4))",
        (),
    ),
    Record(
        Model101Exact,
        dict(p_trigger=Fraction(1, 8), log10_p_trigger=-0.5, e_conditional=Fraction(13, 4), e_x_excess=Fraction(1, 32)),
        {},
        "Model101Exact(p_trigger=Fraction(1, 8), log10_p_trigger=-0.5, e_conditional=Fraction(13, 4), "
        "e_x_excess=Fraction(1, 32))",
        (),
    ),
    Record(
        SignalingCounterexample,
        dict(
            settings=(ALL_PAIRS[0], ALL_PAIRS[3]), round_index=2, toggled_side=Side.ALICE,
            watched_side=Side.BOB, before=1, after=-1,
        ),
        {},
        f"SignalingCounterexample(settings=({PAIR_TEXT.format(1, 0, 1, 0)}, {PAIR_TEXT.format(2, 1, 2, 1)}), "
        "round_index=2, toggled_side=<Side.ALICE: 'alice'>, watched_side=<Side.BOB: 'bob'>, before=1, after=-1)",
        (),
    ),
    Record(
        NoSignalingReport,
        dict(passed=True, sequences_checked=16, counterexample=None),
        dict(counterexample=None),
        "NoSignalingReport(passed=True, sequences_checked=16, counterexample=None)",
        (),
    ),
    Record(
        BatchStatistics,
        dict(n=4, y_value=Fraction(3), x_value=None, counts={ALL_PAIRS[0]: PairCounts(2, 1, 1)}),
        {},
        f"BatchStatistics(n=4, y_value=Fraction(3, 1), x_value=None, counts={{{PAIR_TEXT.format(1, 0, 1, 0)}: "
        "PairCounts(total=2, correlated=1, anticorrelated=1)})",
        (
            (dict(y_value=Fraction(5)), "y value 5 outside [0, 4]"),
            (dict(y_value=Fraction(-1, 2)), "y value -1/2 outside [0, 4]"),
            (dict(x_value=Fraction(-1)), "x value -1 outside [0, 4]"),
            (dict(x_value=Fraction(9, 2)), "x value 9/2 outside [0, 4]"),
        ),
    ),
    Record(
        DeterministicAssignment,
        ASSIGNMENT,
        {},
        ASSIGNMENT_TEXT,
        (
            (dict(a1=0), "a1=0 must be +1 or -1"),
            (dict(a2=2), "a2=2 must be +1 or -1"),
            (dict(b1=-2), "b1=-2 must be +1 or -1"),
            (dict(b2=0.5), "b2=0.5 must be +1 or -1"),
        ),
    ),
    Record(
        StochasticLHV,
        dict(support=(
            (Fraction(1, 2), DeterministicAssignment(**ASSIGNMENT)),
            (Fraction(1, 2), DeterministicAssignment(1, 1, 1, 1)),
        )),
        {},
        f"StochasticLHV(support=((Fraction(1, 2), {ASSIGNMENT_TEXT}), "
        "(Fraction(1, 2), DeterministicAssignment(a1=1, a2=1, b1=1, b2=1))))",
        (
            (
                dict(support=((Fraction(-1, 2), DeterministicAssignment(**ASSIGNMENT)),
                              (Fraction(3, 2), DeterministicAssignment(**ASSIGNMENT)))),
                "negative weight -1/2",
            ),
            (dict(support=((Fraction(1, 2), DeterministicAssignment(**ASSIGNMENT)),)),
             "weights must sum to exactly 1, got 1/2"),
            (dict(support=()), "weights must sum to exactly 1, got 0"),
        ),
    ),
    Record(
        SimulationPlan,
        dict(factory=GuessingModel, n=10, batches=2, seed=3, delta=0.2, strategy_name="guessing"),
        dict(seed=0, delta=0.1, strategy_name=""),
        "SimulationPlan(factory=<class 'chshsim.strategies.GuessingModel'>, n=10, batches=2, seed=3, "
        "delta=0.2, strategy_name='guessing')",
        (
            (dict(n=0), "n must be >= 1, got 0"),
            (dict(batches=0), "batches must be >= 1, got 0"),
            (dict(seed=-1), "seed: expected non-negative integer, got -1"),
            (dict(delta=0.0), "delta must lie in (0, 1), got 0.0"),
            (dict(delta=1.0), "delta must lie in (0, 1), got 1.0"),
        ),
    ),
    Record(EstimateReport, REPORT, {}, REPORT_TEXT, ()),
    Record(
        TailComparison,
        dict(report=EstimateReport(**REPORT), y_bound=0.5, y_ratio=1.0, x_bound=0.25, x_ratio=None),
        {},
        f"TailComparison(report={REPORT_TEXT}, y_bound=0.5, y_ratio=1.0, x_bound=0.25, x_ratio=None)",
        (),
    ),
)


@pytest.mark.parametrize("case", RECORDS, ids=lambda case: case.kind.__name__)
def test_record_contract(case):
    kind, values = case.kind, case.values
    parameters = inspect.signature(kind).parameters.values()
    assert [p.name for p in parameters] == list(values)
    assert {p.name: p.default for p in parameters if p.default is not p.empty} == case.defaults
    if issubclass(kind, tuple):
        assert kind._fields == tuple(values)

    record = kind(**values)
    assert [getattr(record, name) for name in values] == list(values.values())
    assert kind(*values.values()) == record
    assert repr(record) == case.text

    for name in (*values, "hits", "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, next(iter(values)))

    for overrides, message in case.refusals:
        with pytest.raises(ValueError) as refused:
            kind(**{**values, **overrides})
        assert str(refused.value) == message


def test_assignment_equality_and_hash_ignore_hits():
    assignment, twin = DeterministicAssignment(**ASSIGNMENT), DeterministicAssignment(**ASSIGNMENT)
    assert assignment.hits == (1, 0, 1, 1)
    object.__setattr__(twin, "hits", (0, 0, 0, 0))
    assert twin == assignment and hash(twin) == hash(assignment) == hash((1, 1, 1, -1))
    assert repr(twin) == ASSIGNMENT_TEXT
    assert DeterministicAssignment(1, 1, 1, 1) != assignment
    assert assignment != (1, 1, 1, -1)

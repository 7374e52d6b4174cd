"""Sequential CHSH Bell-test simulator.

Simulation, exact enumeration, and analytic bounds for the linear (Y_N)
and ratio (X_N) CHSH statistics under hidden-variable response models
with and without memory, plus the ideal quantum singlet sampler.

The Monte Carlo exports (``EstimateReport``, ``SimulationPlan``,
``estimate``, ``run_batch``) are resolved on first use, so importing the
package does not load numpy.
"""

from .core import (
    ALL_PAIRS,
    MINUS,
    PLUS,
    AliceSetting,
    BobSetting,
    InvariantViolation,
    MemoryClass,
    MemoryView,
    Round,
    SettingPair,
    Side,
    Transcript,
)
from .strategies import (
    DeterministicAssignment,
    StochasticLHV,
    collective_n2,
    constant_plus,
    from_stochastic,
    guessing_model,
    model_101,
    quantum_singlet_sampler,
    solve_sabotage_assignment,
)
from .stats import BatchStatistics, batch_statistics, chsh_value, round_score, x_statistic, y_statistic
from .bounds import bounds_table, f_delta, x_mean_bound, x_tail_bound
from .enumerator import (
    chsh_exhaustive_max,
    collective_playout,
    exact_collective,
    exact_expectations,
    model101_exact,
    no_signaling_check,
    playout,
)

__version__ = "0.1.0"

_MONTECARLO_EXPORTS = frozenset({"EstimateReport", "SimulationPlan", "estimate", "run_batch"})


def __getattr__(name: str):
    if name in _MONTECARLO_EXPORTS:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

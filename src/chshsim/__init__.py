"""Sequential CHSH Bell-test simulator.

Simulation, exact enumeration, and analytic bounds for the linear (Y_N)
and ratio (X_N) CHSH statistics under hidden-variable response models
with and without memory, plus the ideal quantum singlet sampler.
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
from .montecarlo import EstimateReport, SimulationPlan, estimate, run_batch

__version__ = "0.1.0"

"""A guessing model whose ties go to the last tied pair.

The package's guessing model breaks ties toward the earliest pair in
canonical order and runs on a vectorized kernel.  This variant plays the
same rule with the other tie-break; no kernel knows its type, so
``simulate`` drives it through the general engine, and the exact engines
see just another count-driven strategy.
"""

from chshsim.core import ALL_PAIRS
from chshsim.strategies import CONSTANT_PLUS_ASSIGNMENT, CountDriven, solve_sabotage_assignment


class GuessingLastTie(CountDriven):
    """Sabotages the most-measured pair, the last in canonical order on a tie."""

    def assignment(self, counts, k):
        if k == 0:
            return CONSTANT_PLUS_ASSIGNMENT
        top = max(counts)
        last = max(i for i in range(4) if counts[i] == top)
        return solve_sabotage_assignment(ALL_PAIRS[last])

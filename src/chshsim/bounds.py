"""Analytic tail and expectation bounds for the CHSH statistics.

These are the closed-form upper limits against which simulated and
enumerated frequencies are compared: the Gaussian tail estimate
``f_delta`` for the linear statistic, its 5x counterpart for the ratio
statistic, and the memory-model expectation bound.  Entries that no
known proof covers are reported as ``None`` and rendered as "unknown".
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_3 = math.sqrt(3.0)


def _finite(bound):
    """Make ``bound`` raise ``ValueError`` where it overflows or is not finite:
    such a bound has no float value to report."""

    @functools.wraps(bound)
    def checked(*args, **kwargs):
        try:
            value = bound(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{bound.__name__} is not a finite float for these inputs")
        return value

    return checked


@_finite
def f_delta(n: int, delta: float) -> float:
    """Tail bound on P(Y_N > 3 + delta) under any memory model.

    Equals sqrt(3) / (delta sqrt(2 pi N)) * exp(-delta^2 N / 6).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return (_SQRT_3 / (delta * math.sqrt(n) * _SQRT_2PI)) * math.exp(-delta * delta * n / 6.0)


@_finite
def x_tail_bound(n: int, delta: float) -> float:
    """Tail bound on P(X_N > (3 + delta) / (1 - delta)): five times f_delta."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return 5.0 * f_delta(n, delta)


@_finite
def x_mean_bound(n: int, epsilon: float) -> float:
    """Upper bound on E(X_N) for memory models, any epsilon > 0.

    3 + 5 N^(-1/2+eps) + 5 sqrt(3/(2 pi)) N^(-eps) exp(-N^(2 eps)/6);
    the excess over 3 decays faster than N^(-1/2+eps).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    poly = 5.0 * n ** (-0.5 + epsilon)
    exp_term = 5.0 * math.sqrt(3.0 / (2.0 * math.pi)) * n ** (-epsilon) * math.exp(
        -(n ** (2.0 * epsilon)) / 6.0
    )
    return 3.0 + poly + exp_term


class ModelBounds(NamedTuple):
    """One table row; ``None`` marks entries with no known proof."""

    e_x: float | None
    p_x_tail: float | None
    e_y: float | None
    p_y_tail: float | None


class ModelBoundsTable(NamedTuple):
    """Proven bounds per model class at one (n, delta, epsilon)."""

    n: int
    delta: float
    epsilon: float
    rows: dict[str, ModelBounds]


MODEL_CLASSES = ("memoryless", "one-sided", "collective", "two-sided")


def bounds_table(n: int, delta: float, epsilon: float) -> ModelBoundsTable:
    """The four-row summary of proven bounds.

    Requires delta small enough that (3 + delta) < (3 + 5 delta)(1 - delta),
    i.e. 0 < delta < 1/5, so the ratio-statistic tail event simplifies to
    "exceeds 3 + 5 delta".
    """
    if delta <= 0 or not (3.0 + delta) < (3.0 + 5.0 * delta) * (1.0 - delta):
        raise ValueError(
            f"delta={delta} must satisfy 0 < delta and (3+delta) < (3+5*delta)*(1-delta)"
        )
    f = f_delta(n, delta)
    x_tail = x_tail_bound(n, delta)
    memory_e_x = x_mean_bound(n, epsilon)
    rows = {
        "memoryless": ModelBounds(e_x=3.0, p_x_tail=x_tail, e_y=3.0, p_y_tail=f),
        "one-sided": ModelBounds(e_x=memory_e_x, p_x_tail=x_tail, e_y=3.0, p_y_tail=f),
        "collective": ModelBounds(e_x=None, p_x_tail=None, e_y=3.0, p_y_tail=None),
        "two-sided": ModelBounds(e_x=memory_e_x, p_x_tail=x_tail, e_y=3.0, p_y_tail=f),
    }
    return ModelBoundsTable(n=n, delta=delta, epsilon=epsilon, rows=rows)

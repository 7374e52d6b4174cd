"""Tests for the analytic bound formulas.

``f_delta`` is checked against the Gaussian tail it approximates, with
scipy's survival function as the exact tail; the derived bound values
asserted here were frozen from direct evaluation of the formulas.
"""

import math

import pytest
from scipy.stats import norm

from chshsim.bounds import (
    MODEL_CLASSES,
    bounds_table,
    f_delta,
    x_mean_bound,
    x_tail_bound,
)


def z_of(n, delta):
    """The standard score at which f_delta(n, delta) is the Gaussian tail."""
    return delta * math.sqrt(n / 3)


def test_normal_tail_approx_values():
    for n, delta in ((300, 0.1), (2700, 0.1), (1000, 0.1), (100, 0.5), (19200, 0.1), (50, 0.3)):
        z = z_of(n, delta)
        assert f_delta(n, delta) == pytest.approx(
            math.exp(-0.5 * z * z) / (z * math.sqrt(2 * math.pi)), rel=1e-12, abs=0.0
        )
    assert abs(f_delta(2700, 0.1) - 1.4772e-3) < 1e-6  # z = 3
    assert abs(f_delta(300, 0.1) - 0.24197) < 1e-5  # z = 1


def test_normal_tail_approx_asymptotic_ratio():
    # scipy's survival function stays accurate where 1 - cdf cancels.
    previous = None
    for n in (1200, 4800, 10800, 19200):  # z = 2, 4, 6, 8 at delta = 0.1
        ratio = f_delta(n, 0.1) / norm.sf(z_of(n, 0.1))
        assert ratio >= 1.0
        if previous is not None:
            assert ratio <= previous
        previous = ratio
    assert abs(previous - 1.0) < 0.02


def test_normal_tail_approx_upper_bounds_exact_tail():
    for k in range(2, 13):  # z = k/2 from 1 to 6 at delta = 0.1
        n = 75 * k * k
        assert norm.sf(z_of(n, 0.1)) <= f_delta(n, 0.1)


def test_f_delta_values():
    assert abs(f_delta(1000, 0.1) - 0.041271) < 1e-4
    assert abs(f_delta(100, 0.5) - 2.147e-3) < 1e-5


def test_f_delta_decreases_in_n():
    assert f_delta(4000, 0.1) < f_delta(1000, 0.1)
    values = [f_delta(n, 0.1) for n in (100, 400, 1600, 6400, 25600)]
    assert values == sorted(values, reverse=True)


def test_f_delta_decreases_in_delta():
    values = [f_delta(1000, d) for d in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert values == sorted(values, reverse=True)


def test_f_delta_domain():
    with pytest.raises(ValueError):
        f_delta(0, 0.1)
    with pytest.raises(ValueError):
        f_delta(100, 0.0)
    with pytest.raises(ValueError):
        f_delta(100, -0.1)


def test_x_tail_bound_is_five_f():
    assert abs(x_tail_bound(1000, 0.1) - 0.2064) < 5e-4
    for n, d in ((50, 0.3), (1000, 0.1), (100000, 0.02)):
        assert x_tail_bound(n, d) == 5.0 * f_delta(n, d)


def test_x_tail_bound_vanishes_for_large_n():
    assert x_tail_bound(10**7, 0.1) < 1e-100


def test_x_tail_bound_domain():
    with pytest.raises(ValueError):
        x_tail_bound(100, 0.0)
    with pytest.raises(ValueError):
        x_tail_bound(100, 1.0)


def test_x_mean_bound_values():
    assert abs(x_mean_bound(10**6, 0.25) - 3.1581) < 1e-3
    assert abs(x_mean_bound(10**8, 0.25) - 3.0500) < 1e-3


def test_x_mean_bound_exceeds_three_and_converges():
    previous = None
    for n in (10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9):
        value = x_mean_bound(n, 0.25)
        assert value > 3.0
        if previous is not None:
            assert value < previous
        previous = value
    # At n = 1e9 the excess is 5 n^(-1/4) ~ 0.028 and still shrinking.
    assert previous - 3.0 < 3e-2


def test_x_mean_bound_domain():
    with pytest.raises(ValueError):
        x_mean_bound(0, 0.25)
    with pytest.raises(ValueError):
        x_mean_bound(100, 0.0)


def test_bounds_table_rows():
    table = bounds_table(1000, 0.1, 0.25)
    assert tuple(table.rows) == MODEL_CLASSES
    collective = table.rows["collective"]
    assert collective.e_x is None
    assert collective.p_x_tail is None
    assert collective.p_y_tail is None
    assert all(row.e_y == 3.0 for row in table.rows.values())
    assert abs(table.rows["memoryless"].p_y_tail - 0.04127) < 1e-4
    assert table.rows["memoryless"].e_x == 3.0
    assert table.rows["two-sided"].e_x == x_mean_bound(1000, 0.25)
    assert table.rows["one-sided"] == table.rows["two-sided"]


def test_bounds_table_delta_precondition():
    bounds_table(1000, 0.19, 0.25)
    with pytest.raises(ValueError):
        bounds_table(1000, 0.25, 0.25)
    with pytest.raises(ValueError):
        bounds_table(1000, -0.1, 0.25)

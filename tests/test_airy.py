"""Airy evaluation against independent series / high-precision oracles."""
import math

import mpmath as mp
import numpy as np
import pytest

from airylab.airy import _asym_scaled_pos, ai_values
from airylab.errors import DomainError

mp.mp.dps = 30

# Maclaurin oracle: Ai(0) = 3^(-2/3)/Gamma(2/3) summed independently below
AI_ZERO_VALUE = 0.3550280538878172
FIRST_ZERO = -2.3381074104597670


def maclaurin_oracle(x: float, terms: int = 120) -> float:
    """Independent series evaluation in mpmath arithmetic."""
    xm = mp.mpf(x)
    c1 = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
    c2 = mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf(1) / 3)
    f_term, g_term = mp.mpf(1), xm
    f_sum, g_sum = f_term, g_term
    for k in range(1, terms):
        f_term *= xm ** 3 / ((3 * k) * (3 * k - 1))
        g_term *= xm ** 3 / ((3 * k + 1) * (3 * k))
        f_sum += f_term
        g_sum += g_term
    return float(c1 * f_sum - c2 * g_sum)


def ai(x: float) -> float:
    return float(ai_values(np.array([x]))[0])


def first_zero_by_bisection() -> float:
    """Largest zero of Ai, by sign-change bisection on [-3, -2]."""
    lo, hi = -3.0, -2.0
    flo = ai(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fm = ai(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def scaled(x: float) -> float:
    """Ai(x) exp(+(2/3) x^{3/2}) from the asymptotic branch (x > 8)."""
    return float(_asym_scaled_pos(np.array([x]))[0])


class TestPointValues:
    def test_origin(self):
        assert ai(0.0) == pytest.approx(AI_ZERO_VALUE, abs=1e-15)
        assert ai(0.0) == pytest.approx(maclaurin_oracle(0.0), abs=1e-15)

    def test_first_zero_by_bisection(self):
        zero = first_zero_by_bisection()
        assert zero == pytest.approx(FIRST_ZERO, abs=1e-12)
        assert abs(ai(zero)) < 1e-10

    def test_against_series_oracle_inside_switch(self):
        for x in [-7.5, -5.0, -2.3, -0.7, 0.0, 1.3, 4.0, 7.9]:
            assert ai(x) == pytest.approx(maclaurin_oracle(x), abs=1e-13)

    def test_against_mpmath_through_twenty(self):
        for x in np.linspace(-20.0, 20.0, 81):
            exact = float(mp.airyai(float(x)))
            assert ai(float(x)) == pytest.approx(exact, abs=1e-12)

    def test_branch_overlap_at_switch(self):
        # both branches stay within 1e-12 of truth near the switch point
        for x in [7.99, 8.0, 8.01, -7.99, -8.0, -8.01]:
            exact = float(mp.airyai(x))
            assert ai(x) == pytest.approx(exact, abs=1e-12)

    def test_series_asymptotic_overlap_direct(self):
        # the two evaluation branches agree with each other at the switch
        from airylab.airy import _asym_neg, _asym_scaled_pos, _series

        xs = np.array([8.0])
        series_val = float(_series(xs)[0])
        asym_val = float(_asym_scaled_pos(xs)[0]) * math.exp(-(2.0 / 3.0) * 8.0 ** 1.5)
        assert abs(series_val - asym_val) <= 1e-12
        xs = np.array([-8.0])
        assert abs(float(_series(xs)[0]) - float(_asym_neg(xs)[0])) <= 1e-12

    def test_positive_axis_decay_monotone(self):
        vals = [ai(float(x)) for x in range(1, 11)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestScaledRepresentation:
    def test_log_scaled_valid_far_right(self):
        for x in [25.0, 40.0, 56.0]:
            exact = float(mp.airyai(x) * mp.exp(mp.mpf(2) / 3 * mp.mpf(x) ** mp.mpf("1.5")))
            assert scaled(x) == pytest.approx(exact, rel=1e-12)

    def test_value_and_scaled_consistent(self):
        x = 12.0
        assert ai(x) == pytest.approx(scaled(x) * math.exp(-(2 / 3) * x ** 1.5), rel=1e-13)

    def test_value_positive_and_bounded_on_positive_axis(self):
        for x in np.linspace(0.0, 30.0, 61):
            v = ai(float(x))
            assert 0.0 < v <= AI_ZERO_VALUE + 1e-15


class TestInvariants:
    def test_second_derivative_identity(self):
        # Ai''(x) = x Ai(x), central difference at step 1e-4
        h = 1e-4
        for x in np.linspace(-5.0, 5.0, 41):
            x = float(x)
            d2 = (ai(x + h) - 2 * ai(x) + ai(x - h)) / h ** 2
            assert d2 == pytest.approx(x * ai(x), abs=1e-6)

    def test_rejects_non_finite(self):
        for bad in [math.nan, math.inf, -math.inf]:
            with pytest.raises(DomainError):
                ai(bad)
        with pytest.raises(DomainError):
            ai_values(np.array([1.0, math.nan]))

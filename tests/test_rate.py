"""Rate function against an extended-precision term-by-term oracle."""
import math

import mpmath as mp
import numpy as np
import pytest

from airylab.errors import DomainError
from airylab.rate import phi_minus, phi_minus_scaled

mp.mp.dps = 50


def phi_oracle(z) -> float:
    """Term-by-term evaluation at 50 digits."""
    z = mp.mpf(z)
    pi = mp.pi
    val = (4 / (15 * pi ** 6)) * (1 - pi ** 2 * z) ** mp.mpf("2.5") \
        - 4 / (15 * pi ** 6) + (2 / (3 * pi ** 4)) * z - z ** 2 / (2 * pi ** 2)
    return float(val)


# frozen from phi_oracle
ORACLE_POINTS = {
    -0.25: 1.055169456347709014008e-3,
    -1.0: 5.026283659793057249714e-2,
    -2.0: 3.267051044751467559821e-1,
    -4.0: 2.053311263395472875925,
    -10.0: 22.39256756319827967452,
    -100.0: 8002.490401695136804048,
    -1000.0: 2634237.183200307520197,
}


class TestPointValues:
    def test_zero(self):
        assert phi_minus(0.0) == 0.0

    def test_extended_precision_oracle(self):
        for z, expected in ORACLE_POINTS.items():
            assert phi_minus(z) == pytest.approx(expected, rel=1e-14)

    def test_taylor_regime_matches_oracle(self):
        # raw formula cancels catastrophically here; Taylor path must not
        for z in [-9e-5, -1e-5, -1e-7, -1e-10]:
            assert phi_minus(z) == pytest.approx(phi_oracle(z), rel=1e-10)

    def test_cubic_limit(self):
        # phi/|z|^3 -> 1/12; linear correction pi^2 |z|/8 gives 1.23% at 1e-2
        r2 = phi_minus(-1e-2) / 1e-6
        r3 = phi_minus(-1e-3) / 1e-9
        assert r3 == pytest.approx(1.0 / 12.0, rel=0.01)
        assert r2 == pytest.approx(1.0 / 12.0, rel=0.015)
        assert abs(r3 - 1.0 / 12.0) < abs(r2 - 1.0 / 12.0)


class TestScaled:
    def test_beta_two_reduces(self):
        assert phi_minus_scaled(2.0, -1.0) == phi_minus(-1.0)

    def test_zero_at_origin(self):
        assert phi_minus_scaled(1.0, 0.0) == 0.0

    def test_beta_four_substitution(self):
        assert phi_minus_scaled(4.0, -1.0) == pytest.approx(phi_minus(-4.0) / 32.0, rel=1e-14)

    def test_rejects_bad_beta(self):
        with pytest.raises(DomainError):
            phi_minus_scaled(0.0, -1.0)
        with pytest.raises(DomainError):
            phi_minus_scaled(-2.0, -1.0)

    @pytest.mark.parametrize("beta", [1e-300, 1e-62, 1e155, 1e300])
    def test_beta_outside_the_double_range_is_a_domain_error(self, beta):
        # (2/beta)^5 or (beta/2)^2 overflows
        with pytest.raises(DomainError):
            phi_minus_scaled(beta, -1.0)


class TestShape:
    def test_rejects_positive_z(self):
        with pytest.raises(DomainError):
            phi_minus(1e-8)

    def test_overflowing_depth_is_a_domain_error(self):
        assert math.isfinite(phi_minus(-1e122))
        with pytest.raises(DomainError):
            phi_minus(-1e124)

    def test_monotone_decreasing_in_z(self):
        zs = np.arange(-10.0, 0.0, 1e-3)
        vals = np.array([phi_minus(float(z)) for z in zs])
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals[:-1] >= 0.0)

    def test_tail_exponent(self):
        # phi * |z|^{-5/2} -> 4/(15 pi); z^2 term still costs 5.7% at -100
        target = 4.0 / (15.0 * math.pi)
        r_mid = phi_minus(-100.0) * 100.0 ** -2.5
        r_far = phi_minus(-1000.0) * 1000.0 ** -2.5
        assert r_far == pytest.approx(target, rel=0.05)
        assert r_mid == pytest.approx(target, rel=0.065)
        assert abs(r_far - target) < abs(r_mid - target)

    def test_smooth_finite_differences(self):
        # first and second differences vary continuously across the grid
        zs = np.linspace(-5.0, -1e-3, 2001)
        vals = np.array([phi_minus(float(z)) for z in zs])
        d1 = np.diff(vals)
        d2 = np.diff(d1)
        assert np.all(np.abs(np.diff(d2)) < 1e-4)

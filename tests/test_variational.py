"""Per-level drift cost, closed-form optimizer, the master identity and its level sum."""
import math

import numpy as np
import pytest

from airylab.errors import DomainError
from airylab.mc import spawn_rng
from airylab.rate import phi_minus, phi_minus_scaled
from airylab.variational import (DiscretizationParams, _objective_values, optimal_drift,
                                 riemann_sum_value, variational_value)


def cost(v: float, z: float, beta: float, nu: float) -> float:
    """The module docstring's J(v) = v^2/2 + (2/3pi) ((-z - (2/sqrt(beta)) v - nu)_+)^{3/2}."""
    x = -z - 2.0 / math.sqrt(beta) * v - nu
    return 0.5 * v * v + 2.0 / (3.0 * math.pi) * max(x, 0.0) ** 1.5


def golden_section_min(fn, lo, hi, tol=1e-12):
    """Independent 1-D minimizer."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while b - a > tol:
        if fn(c) < fn(d):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    return 0.5 * (a + b)


class TestDriftObjective:
    """_objective_values, the optimal cost J(v*) at each level."""

    def test_vanishes_when_level_covers_depth(self):
        assert np.all(_objective_values(np.array([1.0, 1.5, 3.7]), -1.0, 2.0) == 0.0)

    def test_direct_substitution(self):
        rng = spawn_rng(5, "optimal-cost")
        for _ in range(100):
            z = float(rng.uniform(-5.0, -0.1))
            beta = float(rng.uniform(0.3, 5.0))
            nu = rng.uniform(0.0, -z, 4)
            expected = [cost(optimal_drift(z, beta, float(n)), z, beta, float(n)) for n in nu]
            # the two sides subtract in another order, so near nu = -z the
            # cancellation in (-z - nu) - (2/sqrt(beta)) v* costs a few digits
            np.testing.assert_allclose(_objective_values(nu, z, beta), expected,
                                       rtol=1e-12, atol=0.0)


class TestOptimalDrift:
    def test_zero_beyond_depth(self):
        assert optimal_drift(-1.0, 2.0, 1.0) == 0.0
        assert optimal_drift(-1.0, 2.0, 3.7) == 0.0
        assert optimal_drift(0.0, 1.0, 0.5) == 0.0

    def test_matches_golden_section(self):
        v_num = golden_section_min(lambda v: cost(v, -1.0, 2.0, 0.0), 0.0, 10.0)
        assert optimal_drift(-1.0, 2.0, 0.0) == pytest.approx(v_num, abs=1e-8)

    # TestParams checks beta = 1e-300 and 1e300, which leave the double range
    @pytest.mark.parametrize("z, beta", [(-1.0, 0.0), (-1.0, -1.0), (0.5, 2.0), (1e-300, 2.0)])
    def test_positive_z_or_beta_not_positive_is_a_domain_error(self, z, beta):
        with pytest.raises(DomainError):
            optimal_drift(z, beta, 0.0)
        with pytest.raises(DomainError):
            optimal_drift(z, beta, np.array([0.0, 0.5]))

    def test_stationarity_random_problems(self):
        rng = spawn_rng(3, "stationarity")
        h = 1e-6
        for _ in range(100):
            z = float(rng.uniform(-5.0, -0.1))
            beta = float(rng.uniform(0.3, 5.0))
            nu = float(rng.uniform(0.0, -z * 0.95))
            v = optimal_drift(z, beta, nu)
            deriv = (cost(v + h, z, beta, nu) - cost(v - h, z, beta, nu)) / (2 * h)
            assert abs(deriv) <= 1e-6

    def test_minimality_random_competitors(self):
        rng = spawn_rng(4, "minimality")
        for _ in range(20):
            z = float(rng.uniform(-4.0, -0.2))
            beta = float(rng.uniform(0.4, 4.0))
            nu = float(rng.uniform(0.0, -z))
            best = cost(optimal_drift(z, beta, nu), z, beta, nu)
            vs = rng.uniform(-3.0, 8.0, 1000)
            assert all(cost(float(v), z, beta, nu) >= best - 1e-12 for v in vs)


class TestMasterIdentity:
    def test_value_zero_at_origin(self):
        assert variational_value(0.0, 2.0) == 0.0

    def test_beta_two_matches_rate(self):
        val = variational_value(-1.0, 2.0)
        assert val == pytest.approx(phi_minus(-1.0), rel=1e-6)

    def test_scaled_rate_across_betas(self):
        for beta in [0.5, 1.0, 4.0]:
            val = variational_value(-2.0, beta)
            assert val == pytest.approx(phi_minus_scaled(beta, -2.0), rel=1e-6)

    def test_grid_of_twenty_pairs(self):
        for beta in [0.5, 1.0, 2.0, 4.0]:
            for z in [-0.25, -1.0, -2.0, -5.0, -10.0]:
                val = variational_value(z, beta)
                target = phi_minus_scaled(beta, z)
                assert abs(val - target) / target <= 1e-6


class TestRiemannSum:
    def test_empty_levels(self):
        params = DiscretizationParams(t=10.0, a=0.0, n=0)
        assert riemann_sum_value(-1.0, 2.0, params) == 0.0

    def test_converges_at_large_t(self):
        params = DiscretizationParams.from_deviation(-1.0, 1e6, 0.0)
        got = riemann_sum_value(-1.0, 2.0, params)
        assert got == pytest.approx(variational_value(-1.0, 2.0), abs=1e-3)

    def test_first_order_in_spacing(self):
        # gap ~ (spacing/2) * objective(0): constant ratio across decades
        limit = variational_value(-1.0, 2.0)
        ratios = []
        for t in [1e3, 1e4, 1e5]:
            params = DiscretizationParams.from_deviation(-1.0, t, 0.0)
            gap = abs(riemann_sum_value(-1.0, 2.0, params) - limit)
            ratios.append(gap / params.level_spacing)
        assert max(ratios) / min(ratios) < 1.3


class TestParams:
    def test_open_interval_for_a(self):
        for bad_a in [-1.0 / 3.0, 2.0 / 3.0, -0.4, 0.7]:
            with pytest.raises(DomainError):
                DiscretizationParams(t=10.0, a=bad_a, n=1)

    def test_level_count_from_deviation(self):
        p = DiscretizationParams.from_deviation(-1.0, 16.0, 0.0)
        assert p.n == math.ceil(16.0 ** (2.0 / 3.0))

    def test_rejects_positive_z(self):
        with pytest.raises(DomainError):
            variational_value(0.5, 2.0)

    def test_riemann_sum_rejects_nonpositive_beta(self):
        params = DiscretizationParams(t=10.0, a=0.0, n=3)
        for beta in (0.0, -1.0):
            with pytest.raises(DomainError):
                riemann_sum_value(-1.0, beta, params)

    @pytest.mark.parametrize("beta", [1e-300, 1e-206, 1e154, 1e300])
    def test_beta_outside_the_double_range_is_a_domain_error(self, beta):
        # beta^{3/2} underflows or (beta pi/2)^2 overflows in the drift formula
        params = DiscretizationParams(t=10.0, a=0.0, n=3)
        for call in (lambda: optimal_drift(-1.0, beta, 0.0),
                     lambda: variational_value(-1.0, beta),
                     lambda: riemann_sum_value(-1.0, beta, params)):
            with pytest.raises(DomainError):
                call()

"""Drift objective, closed-form optimizer, Weyl counting and the master identity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airylab.errors import DomainError
from airylab.mc import spawn_rng
from airylab.rate import phi_minus, phi_minus_scaled
from airylab.variational import (DiscretizationParams, DriftProblem, drift_objective,
                                 linear_statistic_drifted, optimal_drift,
                                 riemann_sum_value, variational_value, weyl_count)


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
    def test_vanishes_when_level_covers_depth(self):
        p = DriftProblem(z=-1.0, beta=2.0, nu=1.5)
        assert drift_objective(0.0, p) == 0.0

    def test_direct_substitution(self):
        p = DriftProblem(z=-1.0, beta=2.0, nu=0.0)
        assert drift_objective(0.0, p) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-15)

    def test_quadratic_when_positive_part_clips(self):
        p = DriftProblem(z=-1.0, beta=2.0, nu=0.0)
        for v in [2.0, 5.0, 11.0]:  # large drifts push X below zero
            assert drift_objective(v, p) == 0.5 * v * v


class TestOptimalDrift:
    def test_zero_beyond_depth(self):
        assert optimal_drift(DriftProblem(z=-1.0, beta=2.0, nu=1.0)) == 0.0
        assert optimal_drift(DriftProblem(z=-1.0, beta=2.0, nu=3.7)) == 0.0
        assert optimal_drift(DriftProblem(z=0.0, beta=1.0, nu=0.5)) == 0.0

    def test_matches_golden_section(self):
        p = DriftProblem(z=-1.0, beta=2.0, nu=0.0)
        v_num = golden_section_min(lambda v: drift_objective(v, p), 0.0, 10.0)
        assert optimal_drift(p) == pytest.approx(v_num, abs=1e-8)

    def test_stationarity_random_problems(self):
        rng = spawn_rng(3, "stationarity")
        h = 1e-6
        for _ in range(100):
            z = float(rng.uniform(-5.0, -0.1))
            beta = float(rng.uniform(0.3, 5.0))
            nu = float(rng.uniform(0.0, -z * 0.95))
            p = DriftProblem(z=z, beta=beta, nu=nu)
            v = optimal_drift(p)
            deriv = (drift_objective(v + h, p) - drift_objective(v - h, p)) / (2 * h)
            assert abs(deriv) <= 1e-6

    def test_minimality_random_competitors(self):
        rng = spawn_rng(4, "minimality")
        for _ in range(20):
            z = float(rng.uniform(-4.0, -0.2))
            beta = float(rng.uniform(0.4, 4.0))
            nu = float(rng.uniform(0.0, -z))
            p = DriftProblem(z=z, beta=beta, nu=nu)
            best = drift_objective(optimal_drift(p), p)
            vs = rng.uniform(-3.0, 8.0, 1000)
            assert all(drift_objective(float(v), p) >= best - 1e-12 for v in vs)


class TestWeylCount:
    def test_zero_below_floor(self):
        assert weyl_count(1.0, 2.0, 3.0) == 0.0

    def test_unit_interval_pi(self):
        assert weyl_count(1.0, 0.0, math.pi) == pytest.approx(1.0, rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-5.0, max_value=200.0),
           st.floats(min_value=-5.0, max_value=50.0),
           st.floats(min_value=0.1, max_value=20.0))
    def test_within_one_of_exact_dirichlet_count(self, lam, shift, xi):
        exact = 0
        k = 1
        while (math.pi * k / xi) ** 2 + shift <= lam:
            exact += 1
            k += 1
        assert abs(weyl_count(lam, shift, xi) - exact) <= 1.0

    def test_monotone_in_lambda(self):
        lams = np.linspace(-1.0, 30.0, 500)
        vals = [weyl_count(float(l), 2.0, 1.5) for l in lams]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestDriftedLinearStatistic:
    def test_zero_when_clipped(self):
        params = DiscretizationParams(t=100.0, a=0.0, n=1)
        assert linear_statistic_drifted(-1.0, 100.0, 2.0, 10.0, 0, params) == 0.0

    def test_direct_substitution(self):
        params = DiscretizationParams(t=100.0, a=0.0, n=1)
        expected = -2.0 * 100.0 ** (4.0 / 3.0) / (3.0 * math.pi)
        got = linear_statistic_drifted(-1.0, 100.0, 2.0, 0.0, 0, params)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_equals_weyl_quadrature(self):
        from scipy.integrate import quad

        rng = spawn_rng(9, "weyl-quadrature")
        for _ in range(50):
            t = float(rng.uniform(1.0, 50.0))
            a = float(rng.uniform(-0.2, 0.5))
            z = float(rng.uniform(-3.0, -0.1))
            beta = float(rng.uniform(0.5, 4.0))
            v = float(rng.uniform(0.0, 1.0))
            j = int(rng.integers(0, 4))
            params = DiscretizationParams(t=t, a=a, n=1)
            xi = params.xi
            shift = 2.0 / math.sqrt(beta) * t ** (2.0 / 3.0) * v + j * xi
            top = -z * t ** (2.0 / 3.0)
            # adaptive quadrature of the counting function over [shift, top]
            if top > shift:
                integral, err = quad(lambda l: weyl_count(l, shift, xi), shift, top,
                                     epsabs=1e-11, epsrel=1e-11, limit=200)
                assert err < 1e-9
            else:
                integral = 0.0
            expected = -t ** (1.0 / 3.0) * integral
            got = linear_statistic_drifted(z, t, beta, v, j, params)
            assert got == pytest.approx(expected, abs=1e-8 * (1.0 + abs(expected)))


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

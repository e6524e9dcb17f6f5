"""Kernel evaluation, Nystrom determinant and the point-process cross-check."""
import math

import mpmath as mp
import numpy as np
import pytest

from airylab.errors import DomainError, IncompleteSpectrumError, ResolutionError
from airylab.fredholm import (KernelParams, QuadratureGrid, airy_product_estimate,
                              determinant_vs_point_process, fredholm_det, kernel_eval,
                              kernel_grid, product_log_factors, proxy_f, proxy_psi,
                              sample_sao2_spectra, truncation_threshold)
from airylab.mc import spawn_rng
from airylab.sao import SaoConfig

mp.mp.dps = 30


class TestKernelEval:
    def test_symmetry_exact(self):
        params = KernelParams(s=1.0, t=1.0)
        grid = kernel_grid(params, n_nodes=48)
        for x, y in [(0.1, 2.0), (1.5, 0.4), (3.0, 3.5)]:
            assert kernel_eval(x, y, params, grid) == kernel_eval(y, x, params, grid)

    def test_hard_edge_matches_classical_formula(self):
        # indicator weight reproduces (Ai Ai' - Ai' Ai)/(x - y)
        params = KernelParams(s=1.0, t=1.0)
        grid = kernel_grid(params, n_nodes=48)
        for x, y in [(0.3, 0.7), (1.0, 2.0), (0.05, 1.3)]:
            got = kernel_eval(x, y, params, grid, hard_edge=True)
            exact = float((mp.airyai(x) * mp.airyai(y, 1) - mp.airyai(x, 1) * mp.airyai(y))
                          / (x - y))
            assert got == pytest.approx(exact, abs=1e-13)

    def test_hard_edge_diagonal(self):
        params = KernelParams(s=1.0, t=1.0)
        grid = kernel_grid(params, n_nodes=48)
        x = 0.8
        got = kernel_eval(x, x, params, grid, hard_edge=True)
        exact = float(mp.airyai(x, 1) ** 2 - x * mp.airyai(x) ** 2)
        assert got == pytest.approx(exact, abs=1e-13)

    def test_diagonal_decay(self):
        params = KernelParams(s=1.0, t=1.0)
        grid = kernel_grid(params, n_nodes=48)
        assert kernel_eval(30.0, 30.0, params, grid) < 1e-10

    def test_negative_argument_rejected(self):
        params = KernelParams(s=1.0, t=1.0)
        grid = kernel_grid(params, n_nodes=48)
        with pytest.raises(DomainError):
            kernel_eval(-0.5, 1.0, params, grid)

    def test_invalid_params_rejected(self):
        with pytest.raises(DomainError):
            KernelParams(s=0.0, t=1.0)
        with pytest.raises(DomainError):
            KernelParams(s=1.0, t=-2.0)


class TestQuadratureGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureGrid(nodes=np.array([0.0, 1.0]), weights=np.array([1.0]),
                           r_cut_low=-40.0, r_cut_high=40.0)
        with pytest.raises(DomainError):
            QuadratureGrid(nodes=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]),
                           r_cut_low=-40.0, r_cut_high=40.0)
        with pytest.raises(DomainError):
            QuadratureGrid(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]),
                           r_cut_low=-40.0, r_cut_high=40.0)


class TestDeterminant:
    # frozen from a 192-node run; regression anchor, not an external oracle
    DET_11 = 0.7906901274

    def test_value_in_unit_interval(self):
        params = KernelParams(s=1.0, t=1.0)
        det = fredholm_det(params, kernel_grid(params, n_nodes=48))
        assert 0.0 < det < 1.0
        assert det == pytest.approx(self.DET_11, abs=1e-8)

    def test_refinement_stable(self):
        params = KernelParams(s=1.0, t=1.0)
        d48 = fredholm_det(params, kernel_grid(params, n_nodes=48))
        d96 = fredholm_det(params, kernel_grid(params, n_nodes=96))
        assert d48 == pytest.approx(d96, abs=1e-9)

    def test_small_s_gives_one(self):
        params = KernelParams(s=1e-8, t=1.0)
        det = fredholm_det(params, kernel_grid(params, n_nodes=48))
        assert det == pytest.approx(1.0, abs=1e-6)
        assert det < 1.0

    def test_strictly_decreasing_in_s(self):
        dets = [fredholm_det(KernelParams(s=s, t=1.0),
                             kernel_grid(KernelParams(s=s, t=1.0), n_nodes=48))
                for s in [0.1, 1.0, 10.0]]
        assert dets[0] > dets[1] > dets[2]

    def test_node_floor_enforced(self):
        params = KernelParams(s=1.0, t=1.0)
        with pytest.raises(DomainError):
            fredholm_det(params, kernel_grid(params, n_nodes=20))

    def test_unreachable_gate_raises_resolution_error(self):
        params = KernelParams(s=1.0, t=1.0)
        with pytest.raises(ResolutionError):
            fredholm_det(params, kernel_grid(params, n_nodes=48),
                         convergence_tol=1e-18)

    def test_nystrom_matrix_positive_semidefinite(self):
        from airylab.fredholm import _kernel_matrix

        params = KernelParams(s=1.0, t=1.0)
        grid = kernel_grid(params, n_nodes=64)
        k = _kernel_matrix(grid.nodes, params, grid.r_cut_low, grid.r_cut_high)
        sw = np.sqrt(grid.weights)
        sym = sw[:, None] * k * sw[None, :]
        ev = np.linalg.eigvalsh(sym)
        assert ev.min() > -1e-10


class TestProductSide:
    def test_truncation_threshold_formula(self):
        params = KernelParams(s=1.0, t=1.0)
        lam_star = truncation_threshold(params, 1e-15)
        assert lam_star == pytest.approx(15.0 * math.log(10.0), rel=1e-12)
        # factors strictly above the threshold are within 1e-15 of one
        factor = 1.0 / (1.0 + params.s * math.exp(-params.t13 * (lam_star + 0.5)))
        assert 1.0 - factor <= 1e-15

    def test_product_log_factors_stable(self):
        params = KernelParams(s=2.0, t=1.0)
        ev = np.array([-800.0, 0.0, 5.0])
        val = product_log_factors(ev, params)
        assert math.isfinite(val)
        # the deep eigenvalue contributes ~ -(log s + t^{1/3}|lambda|)
        assert val == pytest.approx(-(math.log(2.0) + 800.0)
                                    - math.log(1.0 + 2.0) - math.log1p(2.0 * math.exp(-5.0)),
                                    rel=1e-12)

    def test_small_s_estimate_near_one(self):
        params = KernelParams(s=1e-8, t=1.0)
        cfg = SaoConfig(beta=2.0, domain_l=16.0, grid_n=2 ** 11, lambda_cap=6.0)
        est = airy_product_estimate(sample_sao2_spectra(cfg, 50, 61), params, 1e-6, 61)
        assert est.mean == pytest.approx(1.0, abs=1e-4)

    def test_beta_restriction(self):
        cfg = SaoConfig(beta=1.0, domain_l=40.0, grid_n=2 ** 12, lambda_cap=35.0)
        with pytest.raises(DomainError):
            determinant_vs_point_process([(1.0, 1.0, 1e-15)], cfg, 10, 62)

    def test_incomplete_cap_rejected(self):
        params = KernelParams(s=1.0, t=1.0)
        cfg = SaoConfig(beta=2.0, domain_l=16.0, grid_n=2 ** 11, lambda_cap=6.0)
        with pytest.raises(IncompleteSpectrumError):
            airy_product_estimate(sample_sao2_spectra(cfg, 10, 63), params, 1e-15, 63)

    def test_det_matches_mc_at_reduced_scale(self):
        # smaller twin of the acceptance identity: one (s, t) point
        cfg = SaoConfig(beta=2.0, domain_l=40.0, grid_n=2 ** 12, lambda_cap=35.0)
        [(det, est, sigma)] = determinant_vs_point_process([(1.0, 1.0, 1e-15)], cfg, 500, 64,
                                                            n_nodes=64)
        assert abs(det - est.mean) <= 3.0 * est.stderr
        assert sigma == abs(det - est.mean) / est.stderr


class TestProxies:
    def test_f_limits(self):
        assert proxy_f(-40.0) == pytest.approx(1.0, abs=1e-15)
        assert proxy_f(5.0) <= math.exp(-math.exp(5.0))
        assert proxy_f(1000.0) == 0.0

    def test_f_monotone(self):
        xs = np.linspace(-30.0, 10.0, 400)
        vals = [proxy_f(float(x)) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_psi_at_zero_argument(self):
        assert proxy_psi(1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_psi_negative_part_bound(self):
        rng = spawn_rng(65, "psi")
        eps = np.finfo(float).eps
        for _ in range(1000):
            a = float(rng.uniform(-5.0, 5.0))
            t = float(rng.uniform(0.1, 30.0))
            z = float(rng.uniform(-5.0, 5.0))
            neg = max(-t * (z + a), 0.0)
            gap = abs(proxy_psi(a, t, z) - neg)
            assert gap <= math.exp(-t * abs(z + a)) + 8.0 * eps * (1.0 + neg)

    def test_psi_no_overflow(self):
        assert math.isfinite(proxy_psi(-1e6, 30.0, 0.0))
        assert proxy_psi(1e6, 30.0, 0.0) == 0.0

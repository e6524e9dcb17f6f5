"""Kernel evaluation, Nystrom determinant and the point-process cross-check."""
import math

import mpmath as mp
import numpy as np
import pytest

from airylab import airy, fredholm
from airylab.airy import ai_values
from airylab.errors import DomainError, IncompleteSpectrumError, ResolutionError
from airylab.fredholm import (KernelParams, QuadratureGrid, airy_product_estimate,
                              clustered_nodes, determinant_vs_point_process, fredholm_det,
                              kernel_eval, kernel_grid, product_log_factors, proxy_f,
                              proxy_psi, sample_sao2_spectra, truncation_threshold)
from airylab.mc import spawn_rng
from airylab.sao import SaoConfig

mp.mp.dps = 30


def airy_kernel(x: float, y: float) -> float:
    """Undeformed Airy kernel: int_0^40 Ai(x+r) Ai(y+r) dr on fredholm's r-panels."""
    r, wr = fredholm._gl_panels(0.0, 40.0)
    return float(np.dot(wr, ai_values(x + r) * ai_values(y + r)))


class TestKernelEval:
    def test_symmetry_exact(self):
        params = KernelParams(s=1.0, t=1.0)
        grid = kernel_grid(params, n_nodes=48)
        for x, y in [(0.1, 2.0), (1.5, 0.4), (3.0, 3.5)]:
            assert kernel_eval(x, y, params, grid) == kernel_eval(y, x, params, grid)

    def test_hard_edge_matches_classical_formula(self):
        # indicator weight reproduces (Ai Ai' - Ai' Ai)/(x - y)
        for x, y in [(0.3, 0.7), (1.0, 2.0), (0.05, 1.3)]:
            got = airy_kernel(x, y)
            exact = float((mp.airyai(x) * mp.airyai(y, 1) - mp.airyai(x, 1) * mp.airyai(y))
                          / (x - y))
            assert got == pytest.approx(exact, abs=1e-13)

    def test_hard_edge_diagonal(self):
        x = 0.8
        got = airy_kernel(x, x)
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
                           r_cut_low=-40.0, r_cut_high=40.0, x_max=1.0)
        with pytest.raises(DomainError):
            QuadratureGrid(nodes=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]),
                           r_cut_low=-40.0, r_cut_high=40.0, x_max=1.0)
        with pytest.raises(DomainError):
            QuadratureGrid(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, -1.0]),
                           r_cut_low=-40.0, r_cut_high=40.0, x_max=1.0)

    def test_x_max_is_required(self):
        with pytest.raises(TypeError):
            QuadratureGrid(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]),
                           r_cut_low=-40.0, r_cut_high=40.0)

    def test_hand_built_grid_refines_on_its_own_domain(self):
        # the last of 64 nodes lies at 15.987; refining on [0, 15.987] in place
        # of [0, 16] moved the determinant by 2e-8, past the 1e-8 gate
        t = 0.5
        nodes, weights = clustered_nodes(64)
        grid = QuadratureGrid(nodes=nodes, weights=weights, r_cut_low=-40.0 / t ** (1.0 / 3.0),
                              r_cut_high=40.0, x_max=16.0)
        det = fredholm_det(KernelParams(s=7.3, t=t), grid)
        assert det == pytest.approx(0.22615639391, abs=1e-10)


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
        for n in (0, -5):
            with pytest.raises(DomainError):
                kernel_grid(params, n_nodes=n)

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


class TestAiryTableMemo:
    """fredholm_det reuses the Airy tables of one r-window across s."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        def empty():
            monkeypatch.setattr(fredholm, "_AIRY_TABLES", fredholm._AiryTables())

        empty()
        return empty

    @staticmethod
    def _grids(t):
        params = KernelParams(s=1.0, t=t)
        g48, g96 = kernel_grid(params, n_nodes=48), kernel_grid(params, n_nodes=96)
        # the same window as kernel_grid, other nodes
        nodes, weights = clustered_nodes(64)
        hand = QuadratureGrid(nodes=nodes, weights=weights, r_cut_low=g48.r_cut_low,
                              r_cut_high=g48.r_cut_high, x_max=g48.x_max)
        return [g48, g96, hand]

    def test_interleaved_windows_keep_the_bits(self, empty_memo, monkeypatch):
        visits = [(t, self._grids(t)) for t in (0.5, 1.0, 2.0, 0.5)]
        s_values = (0.25, 1.0, 7.3, 1e3)
        expected = {}
        for t, grids in visits:
            for k, grid in enumerate(grids):
                for s in s_values:
                    empty_memo()
                    expected[t, k, s] = fredholm_det(KernelParams(s=s, t=t), grid)
        empty_memo()

        calls = []

        def counted(x):
            calls.append(x.shape)
            return airy.ai_values(x)

        monkeypatch.setattr(fredholm, "ai_values", counted)
        for t, grids in visits:
            del calls[:]
            for k, grid in enumerate(grids):
                for s in s_values:
                    assert fredholm_det(KernelParams(s=s, t=t), grid) == expected[t, k, s]
            # coarse and fine tables of each of the three grids, once per visit
            assert len(calls) == 2 * len(grids)
        window, tables = fredholm._AIRY_TABLES.held
        grids = visits[-1][1]
        assert window == (grids[0].r_cut_low, grids[0].r_cut_high)
        fine = [clustered_nodes(2 * g.nodes.size, x_max=g.x_max)[0] for g in grids]
        assert set(tables) == ({(g.nodes.tobytes(), 16) for g in grids}
                               | {(x.tobytes(), 24) for x in fine})
        assert not any(a.flags.writeable for a in tables.values())

    def test_reused_table_against_kernel_eval(self):
        # kernel_eval builds its own Airy values: an s-dependent factor kept
        # in the memo would show at the second s
        grid = kernel_grid(KernelParams(s=1.0, t=1.0), n_nodes=48)
        fredholm_det(KernelParams(s=0.25, t=1.0), grid)
        idx = np.flatnonzero(grid.nodes <= 2.0)[::3]
        for s in (0.25, 40.0):
            params = KernelParams(s=s, t=1.0)
            k = fredholm._kernel_matrix(grid.nodes, params, grid.r_cut_low, grid.r_cut_high)
            for i in idx:
                for j in idx:
                    expected = kernel_eval(grid.nodes[i], grid.nodes[j], params, grid)
                    assert k[i, j] == pytest.approx(expected, rel=1e-12)


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

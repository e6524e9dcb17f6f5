"""Kernel evaluation, Nystrom determinant and the point-process cross-check."""
import itertools
import math
import weakref

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from airylab import airy, fredholm
from airylab.airy import ai_values
from airylab.errors import DomainError, IncompleteSpectrumError, ResolutionError
from airylab.fredholm import (KernelParams, QuadratureGrid, airy_moments, airy_product_estimate,
                              clustered_nodes, determinant_vs_point_process, fredholm_det,
                              kernel_eval, kernel_grid, proxy_f, proxy_psi,
                              sample_sao2_spectra, truncation_threshold)
from airylab.hill import SpectrumSample
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


class TestCachedRules:
    @pytest.mark.parametrize("rule, args", [
        (clustered_nodes, (96, 16.0)), (clustered_nodes, (192,)), (clustered_nodes, (64,)),
        (fredholm._gl_panels, (-40.0 / 0.5 ** (1.0 / 3.0), 40.0)),
        (fredholm._gl_panels, (-40.0, 40.0, 2.0, 24)), (fredholm._gl_panels, (-2.52, 14.0)),
    ])
    def test_cached_rule_is_the_fresh_one_and_read_only(self, rule, args):
        cached = rule(*args)
        assert rule(*args) is cached
        for kept, fresh in zip(cached, rule.__wrapped__(*args)):
            assert kept is not fresh and np.array_equal(kept, fresh)
            assert kept.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0.0


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

    @pytest.mark.parametrize("t", [1.0, 8.0])
    def test_x_max_that_puts_every_node_past_the_kernel_is_rejected(self, t):
        # the smallest node reaches 14 + 40/t^{1/3} at this x_max
        params = KernelParams(s=1.0, t=t)
        edge = (14.0 + 40.0 / params.t13) / clustered_nodes(96, 1.0)[0][0]
        assert kernel_grid(params, x_max=0.999 * edge).x_max == 0.999 * edge
        with pytest.raises(DomainError, match="nodes"):
            kernel_grid(params, x_max=1.001 * edge)

    def test_r_window_of_more_panels_than_the_bound_is_rejected(self):
        # the window [-40/t^{1/3}, 40] spans 512 = 2 * _MAX_PANELS at t = (40/472)^3
        edge = (40.0 / 472.0) ** 3
        grid = kernel_grid(KernelParams(s=1.0, t=1.001 * edge))
        assert fredholm._gl_panels(grid.r_cut_low, grid.r_cut_high)[0].size == 256 * 16
        params = KernelParams(s=1.0, t=0.999 * edge)
        with pytest.raises(DomainError, match="panels"):
            fredholm_det(params, kernel_grid(params))

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
    def empty_memo(self):
        empty = fredholm._window_tables.cache_clear
        empty()
        yield empty
        empty()

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
        grids = visits[-1][1]
        # one window is held, and it is the last one used
        info = fredholm._window_tables.cache_info()
        assert info.currsize == 1
        tables = fredholm._window_tables(grids[0].r_cut_low, grids[0].r_cut_high)
        assert fredholm._window_tables.cache_info().hits == info.hits + 1
        fine = [clustered_nodes(2 * g.nodes.size, x_max=g.x_max)[0] for g in grids]
        assert set(tables) == ({(g.nodes.tobytes(), 16) for g in grids}
                               | {(x.tobytes(), 24) for x in fine})
        assert not any(a.flags.writeable for a in tables.values())

    def test_new_window_frees_the_old_tables_before_building(self, monkeypatch):
        grid = kernel_grid(KernelParams(s=1.0, t=1.0), n_nodes=48)
        fredholm_det(KernelParams(s=1.0, t=1.0), grid)
        old = [weakref.ref(a) for a in
               fredholm._window_tables(grid.r_cut_low, grid.r_cut_high).values()]
        assert len(old) == 2
        alive_at_build = []

        def watched(x):
            alive_at_build.append(sum(ref() is not None for ref in old))
            return airy.ai_values(x)

        monkeypatch.setattr(fredholm, "ai_values", watched)
        params = KernelParams(s=1.0, t=2.0)
        fredholm_det(params, kernel_grid(params, n_nodes=48))
        assert alive_at_build == [0, 0]

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

    @pytest.mark.parametrize("factor_tol", [0.0, -1.0, 1.0, 2.0, math.nan])
    def test_factor_tolerance_outside_the_unit_interval_is_a_domain_error(self, factor_tol):
        with pytest.raises(DomainError):
            truncation_threshold(KernelParams(s=1.0, t=1.0), factor_tol)

    def test_bad_factor_tolerance_rejected_before_any_determinant_or_spectrum(self, monkeypatch):
        def costly(*args, **kwargs):
            raise AssertionError("computed before the factor tolerances were checked")

        monkeypatch.setattr(fredholm, "fredholm_det", costly)
        monkeypatch.setattr(fredholm, "sample_sao2_spectra", costly)
        cfg = SaoConfig(beta=2.0, domain_l=40.0, grid_n=2 ** 12, lambda_cap=35.0)
        with pytest.raises(DomainError):
            determinant_vs_point_process([(1.0, 1.0, 1e-15), (2.0, 0.5, 2.0)], cfg, 10, 62)

    def test_factor_logs_stable(self):
        params = KernelParams(s=2.0, t=1.0)
        ev = np.array([-800.0, 0.0, 5.0])
        val = float(fredholm._factor_logs(params, ev)[0].sum())
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


def linear_mean_oracle(params: KernelParams, lam_star: float) -> float:
    """E[Y] as int rho(lambda) log 1/(1 + s e^{-t^{1/3} lambda}) over [-20, lam_star].

    rho(lambda) = (Ai'^2 - x Ai^2)(-lambda) from scipy.special.airy, on a
    composite 20-point Gauss-Legendre rule with panels of length <= 0.25;
    rho(lambda) < 1e-52 below -20.
    """
    xg, wg = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(-20.0, lam_star, int(math.ceil((lam_star + 20.0) / 0.25)) + 1)
    mids, halves = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    lam = (mids[:, None] + halves[:, None] * xg).ravel()
    w = (halves[:, None] * wg).ravel()
    ai, aip, _, _ = scipy.special.airy(-lam)
    rho = aip ** 2 + lam * ai ** 2
    return float(np.dot(w, rho * -np.log1p(params.s * np.exp(-params.t13 * lam))))


def gram_kernel(lam_star: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and the Airy kernel in Gram form, K(x, y) = int_0^R Ai(x+r) Ai(y+r) dr.

    Ai comes from ai_values; the x and y nodes are Gauss-Legendre panels of
    length 1 and order 20 on [-lam_star, 14], finer than fredholm's, and
    R = 14 + lam_star puts every x + r past 14.
    """
    x, wx = fredholm._gl_panels(-lam_star, 14.0, panel_len=1.0, order=20)
    r, wr = fredholm._gl_panels(0.0, 14.0 + lam_star)
    a = ai_values(x[:, None] + r[None, :])
    return x, wx, (a * wr) @ a.T


ORACLE_CASES = [(1.0, 1.0, 1e-15), (0.5, 1.0, 1e-15), (2.0, 0.5, 1e-12), (64.0, 2.0, 1e-12)]


class TestLinearStatisticMean:
    @pytest.mark.parametrize("s, t, factor_tol", [(1.0, 1.0, 1e-15), (0.5, 1.0, 1e-15),
                                                  (2.0, 0.5, 1e-12), (64.0, 2.0, 1e-12)])
    def test_matches_the_scipy_airy_density(self, s, t, factor_tol):
        params = KernelParams(s=s, t=t)
        lam_star = truncation_threshold(params, factor_tol)
        assert airy_moments(params, lam_star).y_mean == pytest.approx(
            linear_mean_oracle(params, lam_star), rel=1e-12)

    @pytest.mark.parametrize("s, t, factor_tol", ORACLE_CASES)
    def test_matches_the_gram_form_of_the_airy_kernel(self, s, t, factor_tol):
        # rho(x) = K(x, x) = int_0^inf Ai(x+r)^2 dr, independent of scipy.special.airy
        params = KernelParams(s=s, t=t)
        lam_star = truncation_threshold(params, factor_tol)
        x, wx, k = gram_kernel(lam_star)
        oracle = np.dot(wx * -np.log1p(params.s * np.exp(params.t13 * x)), np.diag(k))
        assert airy_moments(params, lam_star).y_mean == pytest.approx(oracle, rel=1e-10)

    def test_vanishes_with_s_at_the_airy_laplace_slope(self):
        # log(1 + x) = x + O(x^2), so E[Y]/s -> -int rho(lambda) e^{-lambda} d lambda,
        # which is -e^{1/12} / (2 sqrt(pi)) for the Airy process (t = 1)
        slope = -math.exp(1.0 / 12.0) / (2.0 * math.sqrt(math.pi))
        for s in (1e-4, 1e-6, 1e-8):
            params = KernelParams(s=s, t=1.0)
            got = airy_moments(params, truncation_threshold(params, 1e-15 * s)).y_mean
            assert got / s == pytest.approx(slope, rel=2.0 * s)

    def test_decreasing_in_s(self):
        values = []
        for s in np.geomspace(1e-3, 1e3, 13):
            params = KernelParams(s=float(s), t=1.0)
            values.append(airy_moments(params, truncation_threshold(params, 1e-15)).y_mean)
        assert np.all(np.diff(values) < 0.0)
        assert values[-1] < values[0] < 0.0

    def test_no_density_below_the_truncation(self):
        params = KernelParams(s=1e-12, t=1.0)
        assert airy_moments(params, -20.0).y_mean == 0.0


class TestLinearStatisticVariance:
    @pytest.mark.parametrize("s, t, factor_tol", ORACLE_CASES)
    def test_matches_the_gram_form_of_the_airy_kernel(self, s, t, factor_tol):
        params = KernelParams(s=s, t=t)
        lam_star = truncation_threshold(params, factor_tol)
        x, wx, k = gram_kernel(lam_star)
        g = -np.log1p(params.s * np.exp(params.t13 * x))
        oracle = np.dot(wx * g * g, np.diag(k)) - (wx * g) @ k ** 2 @ (wx * g)
        assert airy_moments(params, lam_star).y_variance == pytest.approx(oracle, rel=1e-10)

    def test_no_density_below_the_truncation(self):
        params = KernelParams(s=1e-12, t=1.0)
        assert airy_moments(params, -20.0).y_variance == 0.0


class TestProductSeriesMeans:
    @pytest.mark.parametrize("s, t, factor_tol", ORACLE_CASES)
    def test_matches_the_gram_form_of_the_airy_kernel(self, s, t, factor_tol):
        params = KernelParams(s=s, t=t)
        lam_star = truncation_threshold(params, factor_tol)
        x, wx, k = gram_kernel(lam_star)
        wphi = wx / (1.0 + np.exp(-math.log(params.s) - params.t13 * x))
        s1 = np.dot(wphi, np.diag(k))
        s2 = 0.5 * (s1 ** 2 - wphi @ k ** 2 @ wphi)
        moments = airy_moments(params, lam_star)
        assert (moments.s1_mean, moments.s2_mean) == pytest.approx((s1, s2), rel=1e-10)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_second_order_fredholm_series_matches_the_determinant(self, t):
        # det = 1 - E[S1] + E[S2] - E[S3] + ...; at s = 0.1, E[S2] is 6e-5 to
        # 4e-4 and the terms from E[S3] on are below 1e-6
        params = KernelParams(s=0.1, t=t)
        moments = airy_moments(params, truncation_threshold(params, 1e-15))
        s1, s2 = moments.s1_mean, moments.s2_mean
        det = fredholm_det(params, kernel_grid(params))
        assert abs(det - (1.0 - s1 + s2)) <= 2e-6
        assert abs(det - (1.0 - s1)) > 100 * abs(det - (1.0 - s1 + s2))

    def test_nothing_below_the_truncation(self):
        params = KernelParams(s=1e-12, t=1.0)
        moments = airy_moments(params, -20.0)
        assert (moments.s1_mean, moments.s2_mean) == (0.0, 0.0)


class TestControlVariate:
    def _spectra(self, n: int, seed: int) -> list[SpectrumSample]:
        rng = spawn_rng(seed, "hand-built spectra")
        return [SpectrumSample(eigenvalues=rng.uniform(-3.0, 30.0, int(rng.integers(0, 25))),
                               cap=36.0) for _ in range(n)]

    def test_mean_and_stderr_of_the_control_variate_samples(self):
        params = KernelParams(s=2.0, t=0.5)
        spectra = self._spectra(40, 65)
        est = airy_product_estimate(spectra, params, 1e-12, 65)
        lam_star = truncation_threshold(params, 1e-12)
        moments = airy_moments(params, lam_star)
        s1_mean, s2_mean = moments.s1_mean, moments.s2_mean
        y_mean, y_var = moments.y_mean, moments.y_variance
        kept = [sp.eigenvalues[sp.eigenvalues <= lam_star] for sp in spectra]
        factors = [1.0 / (1.0 + params.s * np.exp(-params.t13 * ev)) for ev in kept]
        ps = np.array([f.prod() for f in factors])
        s1 = np.array([(1.0 - f).sum() for f in factors])
        s2 = np.array([sum((1.0 - f[i]) * (1.0 - f[j]) for i in range(f.size)
                           for j in range(i + 1, f.size)) for f in factors])
        d = np.log(ps) - y_mean
        cv = ps + (s1 - s1_mean) - (s2 - s2_mean)
        assert est.mean == pytest.approx(
            ps.mean() + (s1.mean() - s1_mean) - (s2.mean() - s2_mean), rel=1e-14)
        assert est.stderr == pytest.approx(cv.std(ddof=1) / math.sqrt(cv.size), rel=1e-12)
        assert est.plain.mean == pytest.approx(ps.mean(), rel=1e-14)
        assert est.plain.stderr == pytest.approx(ps.std(ddof=1) / math.sqrt(ps.size), rel=1e-12)
        assert est.linear_gap.mean == pytest.approx(d.mean(), rel=1e-12)
        assert est.quadratic_gap.mean == pytest.approx((d ** 2).mean() - y_var, rel=1e-12)
        assert est.quadratic_gap.stderr == pytest.approx(
            (d ** 2).std(ddof=1) / math.sqrt(d.size), rel=1e-12)
        assert est.variance_ratio == pytest.approx(cv.var(ddof=1) / ps.var(ddof=1), rel=1e-12)
        assert est.n_samples == 40
        assert est.diagnostics() == {
            "plain_mean": est.plain.mean, "plain_stderr": est.plain.stderr,
            "linear_gap": est.linear_gap.mean, "linear_gap_stderr": est.linear_gap.stderr,
            "quadratic_gap": est.quadratic_gap.mean,
            "quadratic_gap_stderr": est.quadratic_gap.stderr,
            "variance_ratio": est.variance_ratio}

    def test_samples_lie_within_the_bonferroni_bounds(self):
        # P + S1 - S2 - 1 = -S3 + S4 - ... lies in [-S3, 0] for factors in (0, 1)
        params = KernelParams(s=2.0, t=0.5)
        lam_star = truncation_threshold(params, 1e-12)
        moments = airy_moments(params, lam_star)
        top = 1.0 - moments.s1_mean + moments.s2_mean
        for sp in self._spectra(40, 69):
            est = airy_product_estimate([sp, sp], params, 1e-12, 69)
            phi = 1.0 - 1.0 / (1.0 + params.s * np.exp(
                -params.t13 * sp.eigenvalues[sp.eigenvalues <= lam_star]))
            s3 = sum(a * b * c for a, b, c in itertools.combinations(phi, 3))
            assert top - s3 - 1e-12 <= est.mean <= top + 1e-12

    def test_eigenvalues_above_the_truncation_are_ignored(self):
        params = KernelParams(s=1.0, t=1.0)
        lam_star = truncation_threshold(params, 1e-6)
        low = [SpectrumSample(eigenvalues=[-1.0, 0.5, 2.0], cap=20.0),
               SpectrumSample(eigenvalues=[0.1, 1.0], cap=20.0)]
        high = [SpectrumSample(eigenvalues=[*sp.eigenvalues, lam_star + 0.5], cap=20.0)
                for sp in low]
        assert airy_product_estimate(high, params, 1e-6, 66) == \
            airy_product_estimate(low, params, 1e-6, 66)

    def test_same_seed_same_bits(self):
        params = KernelParams(s=1.0, t=1.0)
        cfg = SaoConfig(beta=2.0, domain_l=16.0, grid_n=2 ** 11, lambda_cap=6.0)
        first, again, other = (airy_product_estimate(sample_sao2_spectra(cfg, 30, seed),
                                                     params, 1e-2, seed)
                               for seed in (67, 67, 68))
        assert first == again
        assert (first.mean, first.stderr) != (other.mean, other.stderr)


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

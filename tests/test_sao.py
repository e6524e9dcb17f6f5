"""Stochastic Airy operator: spectra, counting, coupling, Girsanov sampling."""
import math

import numpy as np
import pytest

from airylab import sao
from airylab.errors import ConfigurationError, DomainError
from airylab.hill import (HillConfig, NoisePath, SpectrumSample, hill_spectrum,
                          linear_statistic, riccati_cell_counts, riccati_count_hill,
                          tridiagonal_eigenvalues)
from airylab.mc import estimate_from_log_samples, estimate_from_samples, spawn_rng
from airylab.rate import phi_minus
from airylab.sao import (SaoConfig, ldp_estimate, optimal_drift_profile, riccati_count_sao,
                         sandwich_check, sao_spectrum, weighted_log_samples)
from airylab.variational import DiscretizationParams, optimal_drift

# bisection zeros of Ai (test_airy.first_zero_by_bisection locates the first
# on ai_values; the rest frozen from the same sign-change bisection at 1e-12)
AIRY_LEVELS = [2.338107410459767, 4.087949444130970, 5.520559828095551,
               6.786708090071759]


class TestSpectrum:
    def test_noiseless_matches_airy_levels(self):
        cfg = SaoConfig(beta=2.0, domain_l=40.0, grid_n=2 ** 15, lambda_cap=8.0)
        spec = sao_spectrum(cfg, NoisePath.zeros(cfg.grid_n, cfg.h))
        np.testing.assert_allclose(spec.eigenvalues[:4], AIRY_LEVELS, atol=1e-3)

    def test_huge_beta_approaches_noiseless(self):
        grid_n, L = 2 ** 13, 20.0
        noiseless = SaoConfig(beta=2.0, domain_l=L, grid_n=grid_n, lambda_cap=5.0)
        ev0 = sao_spectrum(noiseless, NoisePath.zeros(grid_n, L / grid_n)).eigenvalues
        cfg = SaoConfig(beta=1e8, domain_l=L, grid_n=grid_n, lambda_cap=5.0)
        path = NoisePath.sample(spawn_rng(5, "huge-beta"), cfg.grid_n, cfg.h)
        ev = sao_spectrum(cfg, path).eigenvalues
        assert ev.size == ev0.size
        np.testing.assert_allclose(ev, ev0, atol=1e-3)

    def test_ground_state_band(self):
        # E[lambda_1] = -E[top Airy point] ~ +1.77 at beta = 2
        cfg = SaoConfig(beta=2.0, domain_l=12.0, grid_n=2 ** 11, lambda_cap=6.0)
        rng = spawn_rng(31, "ground-state")
        samples = np.empty(2000)
        for i in range(samples.size):
            path = NoisePath.sample(rng, cfg.grid_n, cfg.h)
            samples[i] = sao_spectrum(cfg, path).eigenvalues[0]
        est = estimate_from_samples(samples, 31)
        assert 1.4 <= est.mean <= 2.1
        assert est.stderr < 0.05

    def test_boundary_sensitivity(self):
        # doubling the domain leaves eigenvalues below the cap unchanged
        rng = spawn_rng(32, "boundary")
        grid_n, L = 2 ** 12, 20.0
        h = L / grid_n
        inc = rng.standard_normal(2 * grid_n) * math.sqrt(h)
        short_cfg = SaoConfig(beta=2.0, domain_l=L, grid_n=grid_n, lambda_cap=5.0)
        long_cfg = SaoConfig(beta=2.0, domain_l=2 * L, grid_n=2 * grid_n, lambda_cap=5.0)
        ev_short = sao_spectrum(short_cfg, NoisePath(step=h, increments=inc[:grid_n], seed=0)).eigenvalues
        ev_long = sao_spectrum(long_cfg, NoisePath(step=h, increments=inc, seed=0)).eigenvalues
        assert ev_short.size == ev_long.size
        np.testing.assert_allclose(ev_short, ev_long, atol=1e-6)

    def test_domain_must_cover_cap(self):
        with pytest.raises(ConfigurationError):
            SaoConfig(beta=2.0, domain_l=10.0, grid_n=1024, lambda_cap=9.0)

    def test_short_path_rejected(self):
        cfg = SaoConfig(beta=2.0, domain_l=10.0, grid_n=1024, lambda_cap=3.0)
        with pytest.raises(ConfigurationError):
            sao_spectrum(cfg, NoisePath.zeros(512, cfg.h))


def _hill_config(**kwargs) -> HillConfig:
    return HillConfig(j=0, xi=1.0, **kwargs)


def _sao_config(**kwargs) -> SaoConfig:
    return SaoConfig(domain_l=12.0, **kwargs)


class TestConfigChecks:
    """HillConfig and SaoConfig share their grid checks, hill.check_grid."""

    @pytest.mark.parametrize("make", [_hill_config, _sao_config])
    @pytest.mark.parametrize("beta, grid_n, cap, error", [
        (0.0, 64, 5.0, DomainError), (-1.0, 64, 5.0, DomainError),
        (math.nan, 64, 5.0, DomainError),
        (2.0, 15, 5.0, ConfigurationError), (2.0, 64, math.inf, ConfigurationError),
        (2.0, 64, math.nan, ConfigurationError),
    ])
    def test_each_check_raises_its_error(self, make, beta, grid_n, cap, error):
        with pytest.raises(error):
            make(beta=beta, grid_n=grid_n, lambda_cap=cap)

    def test_both_configs_give_one_beta_message(self):
        messages = []
        for make in (_hill_config, _sao_config):
            with pytest.raises(DomainError) as exc:
                make(beta=-1.0, grid_n=64, lambda_cap=5.0)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_sao_length_is_checked_before_the_grid(self):
        # -12 / 16 cells has a finite positive h^2, which the cell-width check passes
        with pytest.raises(ConfigurationError, match="domain_l > 0"):
            SaoConfig(beta=2.0, domain_l=-12.0, grid_n=16, lambda_cap=-1.0)


class TestDriftProfile:
    @pytest.mark.parametrize("z", [-0.25, -1.0, -3.7])
    @pytest.mark.parametrize("beta", [0.5, 2.0, 7.0])
    def test_one_array_call_equals_the_per_level_loop(self, z, beta):
        for t in (1.0, 4.0, 16.0, 1e3):
            for a in (-0.3, 0.0, 0.25, 0.6):
                params = DiscretizationParams.from_deviation(z, t, a)
                spacing = params.level_spacing
                expected = [optimal_drift(z, beta, j * spacing) for j in range(1, params.n + 1)]
                assert np.array_equal(optimal_drift_profile(z, beta, params), expected)

    def test_no_levels_give_an_empty_profile(self):
        params = DiscretizationParams(t=4.0, a=0.0, n=0)
        assert optimal_drift_profile(-1.0, 2.0, params).size == 0


class TestRiccati:
    def test_far_below_spectrum(self):
        cfg = SaoConfig(beta=2.0, domain_l=20.0, grid_n=2 ** 12, lambda_cap=5.0)
        assert riccati_count_sao(-10.0, cfg, NoisePath.zeros(cfg.grid_n, cfg.h)) == 0

    def test_noiseless_counts_between_airy_levels(self):
        cfg = SaoConfig(beta=2.0, domain_l=30.0, grid_n=2 ** 13, lambda_cap=8.0)
        path = NoisePath.zeros(cfg.grid_n, cfg.h)
        for m, lam in enumerate([1.0, 3.2, 4.8, 6.2]):
            assert riccati_count_sao(lam, cfg, path) == m

    def test_agrees_with_matrix(self):
        rng = spawn_rng(33, "sao-riccati")
        cfg = SaoConfig(beta=2.0, domain_l=15.0, grid_n=2 ** 13, lambda_cap=9.0)
        agree = 0
        draws = 60
        for _ in range(draws):
            path = NoisePath.sample(rng, cfg.grid_n, cfg.h)
            lam = float(rng.uniform(-2.0, 8.0))
            rc = riccati_count_sao(lam, cfg, path)
            mc = sao_spectrum(cfg, path).count_below(lam)
            agree += abs(rc - mc) <= 1
        assert agree >= math.ceil(0.95 * draws)

    def test_count_nondecreasing_in_lambda(self):
        cfg = SaoConfig(beta=2.0, domain_l=15.0, grid_n=2 ** 12, lambda_cap=9.0)
        path = NoisePath.sample(spawn_rng(34, "mono"), cfg.grid_n, cfg.h)
        counts = [riccati_count_sao(float(lam), cfg, path)
                  for lam in np.linspace(-3.0, 8.0, 20)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_dual_representation_on_sampled_spectra(self):
        from airylab.hill import counting_integral

        cfg = SaoConfig(beta=2.0, domain_l=14.0, grid_n=2 ** 12, lambda_cap=6.0)
        rng = spawn_rng(36, "dual-sao")
        t, z = 2.0, -1.5
        for _ in range(20):
            spec = sao_spectrum(cfg, NoisePath.sample(rng, cfg.grid_n, cfg.h))
            direct = linear_statistic(spec, z, t)
            dual = counting_integral(spec, z, t)
            assert dual == pytest.approx(direct, rel=1e-6, abs=1e-12)


def reference_ldp_estimate(z, t, beta, n_samples, seed, grid_n, use_importance):
    """ldp_estimate spelled out as one loop with its own matrix assembly and
    Girsanov weights; also returns the weighted log values."""
    threshold = -z * t ** (2.0 / 3.0)
    rng = spawn_rng(seed, "ldp", "importance" if use_importance else "plain")
    params = DiscretizationParams.from_deviation(z, t, 0.0)
    span = params.n * params.xi if use_importance else 0.0
    domain_l = max(threshold, span) + 8.0
    h = domain_l / grid_n
    rates = np.zeros(grid_n)
    if use_importance:
        mid = (np.arange(grid_n) + 0.5) * h
        level_of_cell = np.floor(mid / params.xi).astype(int) + 1
        inside = level_of_cell <= params.n
        drift_arr = np.asarray(optimal_drift_profile(z, beta, params))
        rates[inside] = t ** (2.0 / 3.0) * drift_arr[level_of_cell[inside] - 1]
    nodes = np.arange(1, grid_n) * h
    off = np.full(grid_n - 2, -1.0 / h ** 2)
    half_r2h = 0.5 * float((rates ** 2).sum()) * h
    log_vals = np.empty(n_samples)
    for k in range(n_samples):
        inc = rng.standard_normal(grid_n) * math.sqrt(h) + rates * h
        noise = 2.0 / math.sqrt(beta) * inc / h
        ev = tridiagonal_eigenvalues(2.0 / h ** 2 + nodes + noise[1:], off, threshold)
        s = linear_statistic(SpectrumSample(eigenvalues=ev, cap=threshold), z, t)
        log_vals[k] = s + (-float((rates * inc).sum()) + half_r2h)
    est = estimate_from_log_samples(log_vals, seed)
    return log_vals, (est.log_mean / t ** 2, est.rel_stderr / t ** 2)


class TestReferenceAssembly:
    """Bit-for-bit agreement with a hand-written assembly: 2/h^2 + x + noise
    and x_mid + noise, summed left to right, so a seed keeps its output bytes."""

    def test_sao_bits(self):
        cfg = SaoConfig(beta=2.0, domain_l=40.0, grid_n=2048, lambda_cap=36.0)
        path = NoisePath.sample(spawn_rng(36, "reference-assembly"), cfg.grid_n, cfg.h)
        h = cfg.h
        noise = 2.0 / math.sqrt(cfg.beta) * path.increments / h
        nodes = np.arange(1, cfg.grid_n) * h
        diag = 2.0 / h ** 2 + nodes + noise[1:]
        # the guard has teeth: grouping V with the noise moves some entries
        assert not np.array_equal(diag, 2.0 / h ** 2 + (nodes + noise[1:]))
        off = np.full(cfg.grid_n - 2, -1.0 / h ** 2)
        assert np.array_equal(cfg.operator(path).dirichlet()[0], diag)
        assert np.array_equal(sao_spectrum(cfg, path).eigenvalues,
                              tridiagonal_eigenvalues(diag, off, cfg.lambda_cap))
        rates = (np.arange(cfg.grid_n) + 0.5) * h + noise
        assert np.array_equal(cfg.operator(path).riccati_rates(), rates)
        for lam in np.linspace(-2.0, 30.0, 5):
            assert riccati_count_sao(lam, cfg, path) == int(
                riccati_cell_counts(rates - lam, h).sum())

    @pytest.mark.parametrize("use_importance", [False, True])
    def test_ldp_bits(self, use_importance, monkeypatch):
        seen = []

        def capture(log_vals, seed):
            seen.append(log_vals.copy())
            return estimate_from_log_samples(log_vals, seed)

        monkeypatch.setattr(sao, "estimate_from_log_samples", capture)
        est = ldp_estimate(-1.0, 4.0, 2.0, n_samples=8, seed=57, grid_n=256,
                           use_importance=use_importance)
        log_vals, mean_stderr = reference_ldp_estimate(-1.0, 4.0, 2.0, 8, 57, 256, use_importance)
        assert np.array_equal(seen[0], log_vals)
        assert (est.mean, est.stderr) == mean_stderr


class TestWindowCoupling:
    def test_hill_window_squeeze(self):
        # coupled W(y) = B(y + (j-1) xi): level-j count bounds the window
        # explosion count from below, level-(j-1) count + 1 from above
        rng = spawn_rng(35, "coupling")
        xi = 1.0
        n_windows = 4
        cells = 512
        grid_n = n_windows * cells
        L = n_windows * xi
        h = L / grid_n
        cfg = SaoConfig(beta=2.0, domain_l=L, grid_n=grid_n, lambda_cap=L - 4.0 if L - 4.0 > 0 else 0.0)
        for _ in range(100):
            inc = rng.standard_normal(grid_n) * math.sqrt(h)
            path = NoisePath(step=h, increments=inc, seed=0)
            lam = float(rng.uniform(0.0, 4.0))
            per_cell = riccati_cell_counts(cfg.operator(path).riccati_rates() - lam, h)
            for j in range(1, n_windows + 1):
                window = slice((j - 1) * cells, j * cells)
                window_count = int(per_cell[window].sum())
                sub_inc = inc[window]
                sub_path = NoisePath(step=h, increments=sub_inc, seed=0)
                upper_cfg = HillConfig(j=j, xi=xi, beta=2.0, grid_n=cells, lambda_cap=lam + 1)
                lower_cfg = HillConfig(j=j - 1, xi=xi, beta=2.0, grid_n=cells, lambda_cap=lam + 1)
                n_j = riccati_count_hill(lam, upper_cfg, sub_path)
                n_jm1 = riccati_count_hill(lam, lower_cfg, sub_path)
                assert n_j <= window_count
                assert window_count <= n_jm1 + 1


class _MeanPathRng:
    """Stands in for a Generator whose normal draws are all zero."""

    def standard_normal(self, size):
        return np.zeros(size)


class TestGirsanov:
    def test_zero_drift_identity(self):
        # zero rates give weight 0, and the statistic sees the spectra of
        # 256-cell paths drawn from the stream in order
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=256, lambda_cap=60.0)
        seen = []

        def statistic(spectrum):
            seen.append(spectrum.eigenvalues)
            return 0.0

        logs = weighted_log_samples(cfg, statistic, np.zeros(256), 5,
                                    spawn_rng(7, "zero-drift"))
        assert np.all(logs == 0.0)
        rng = spawn_rng(7, "zero-drift")
        expected = [hill_spectrum(cfg, NoisePath.sample(rng, 256, cfg.h)).eigenvalues
                    for _ in range(5)]
        assert len(seen) == 5 and all(ev.size for ev in seen)
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))

    def test_weight_mean_one_under_drifted_law(self):
        rate = 4.0 ** (2.0 / 3.0) * 0.4
        n = 10 ** 5
        # a cap below every spectrum keeps the solves trivial
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=64, lambda_cap=-1e3)
        logs = weighted_log_samples(cfg, lambda spectrum: 0.0, np.full(64, rate), n,
                                    spawn_rng(8, "weight-mean"))
        est = estimate_from_samples(np.exp(logs), 8)
        assert abs(est.mean - 1.0) <= 3.0 * est.stderr

    def test_mean_path_penalty_matches_quadratic_cost(self):
        # at the mean drifted path the weight exponent is exactly
        # -(1/2) t^{a+4/3} v^2
        t, a, v = 16.0, 0.0, 0.37
        xi = t ** a
        rate = t ** (2.0 / 3.0) * v
        grid_n = 512
        cfg = HillConfig(j=0, xi=xi, beta=2.0, grid_n=grid_n, lambda_cap=0.0)
        [logw] = weighted_log_samples(cfg, lambda spectrum: 0.0, np.full(grid_n, rate), 1,
                                      _MeanPathRng())
        expected = -0.5 * t ** (a + 4.0 / 3.0) * v ** 2
        assert logw == pytest.approx(expected, rel=1e-10)

    def test_levels_beyond_list_have_zero_drift(self, monkeypatch):
        # ldp_estimate drifts level window j = ((j-1) xi, j xi] at rate
        # t^{2/3} v_j and leaves the cells past the last level undrifted
        seen = []

        def capture(config, log_statistic, rates, n_samples, rng):
            seen.append((rates, config.h))
            return np.zeros(n_samples)

        monkeypatch.setattr(sao, "weighted_log_samples", capture)
        t, z = 4.0, -1.0
        ldp_estimate(z, t, 2.0, n_samples=2, seed=9, grid_n=256, use_importance=True)
        [(rates, h)] = seen
        params = DiscretizationParams.from_deviation(z, t, 0.0)
        drifts = optimal_drift_profile(z, 2.0, params)
        mid = (np.arange(rates.size) + 0.5) * h
        for j, v in enumerate(drifts, start=1):
            window = (mid > (j - 1) * params.xi) & (mid <= j * params.xi)
            assert window.any()
            assert np.all(rates[window] == t ** (2.0 / 3.0) * v)
        beyond = mid > params.n * params.xi
        assert beyond.any()
        assert np.all(rates[beyond] == 0.0)


class TestSandwich:
    def test_trivial_when_threshold_below_spectrum(self):
        # z so shallow that the Hill levels and the shifted factor never
        # reach the threshold: every exponent is 0 and the lower bound
        # keeps its e^{-n} prefactor.  The bare operator still dips below
        # zero on ~3% of draws, so the middle only collapses approximately.
        params = DiscretizationParams(t=1.0, a=0.0, n=2)
        lower, middle, upper = sandwich_check(-1e-4, 1.0, 2.0, params, 200, seed=41,
                                              hill_grid_n=64, sao_grid_n=512)
        assert upper.mean == 1.0
        assert upper.stderr == 0.0
        assert middle.mean == pytest.approx(1.0, abs=0.05)
        assert lower.mean == pytest.approx(math.exp(-2.0), rel=0.02)

    def test_ordering_at_desk_scale(self):
        params = DiscretizationParams(t=1.0, a=0.0, n=2)
        lower, middle, upper = sandwich_check(-1.0, 1.0, 2.0, params, 2000, seed=42)
        assert lower.mean <= middle.mean + 3.0 * math.hypot(lower.stderr, middle.stderr)
        assert middle.mean <= upper.mean + 3.0 * math.hypot(middle.stderr, upper.stderr)

    def test_product_of_estimates_matches_joint_product(self):
        # estimating each factor separately multiplies to the same value as
        # pairing the independent samples (within stated error)
        rng_a = spawn_rng(43, "factors", 0)
        rng_b = spawn_rng(43, "factors", 1)
        n = 4000
        cfg = HillConfig(j=0, xi=1.0, beta=2.0, grid_n=128, lambda_cap=1.0)
        vals_a = np.empty(n)
        vals_b = np.empty(n)
        for i in range(n):
            pa = NoisePath.sample(rng_a, 128, 1.0 / 128)
            pb = NoisePath.sample(rng_b, 128, 1.0 / 128)
            vals_a[i] = math.exp(linear_statistic(hill_spectrum(cfg, pa), -1.0, 1.0))
            vals_b[i] = math.exp(linear_statistic(hill_spectrum(cfg, pb), -1.0, 1.0))
        separate = estimate_from_samples(vals_a, 43).mean * estimate_from_samples(vals_b, 43).mean
        joint = estimate_from_samples(vals_a * vals_b, 43)
        assert abs(separate - joint.mean) <= 4.0 * joint.stderr + 1e-12


class TestLdpEstimate:
    def test_weight_health_shows_plain_collapse(self):
        plain = ldp_estimate(-1.0, 16.0, 2.0, n_samples=200, seed=7)
        tilted = ldp_estimate(-1.0, 16.0, 2.0, n_samples=200, seed=7, use_importance=True)
        for est in (plain, tilted):
            assert 1.0 <= est.ess <= est.n_samples
            assert 0.0 < est.max_weight_share <= 1.0
        assert plain.ess / plain.n_samples < tilted.ess / tilted.n_samples

    def test_shallow_deviation_shrinks_toward_zero(self):
        # at fixed t the z -> 0 limit is log E[exp(-t^{1/3} sum lambda_-)],
        # a small negative number (the spectrum keeps ~3% mass below 0);
        # the estimate must sit well inside the z = -1 magnitude
        shallow = ldp_estimate(-1e-3, 1.0, 2.0, n_samples=600, seed=51, grid_n=512,
                               domain_margin=6.0)
        deep = ldp_estimate(-1.0, 1.0, 2.0, n_samples=600, seed=51, grid_n=512,
                            domain_margin=6.0)
        assert -0.03 < shallow.mean <= 0.0
        assert abs(shallow.mean) < abs(deep.mean) / 3.0

    def test_plain_and_importance_agree(self):
        plain = ldp_estimate(-1.0, 1.0, 2.0, n_samples=3000, seed=52, grid_n=1024)
        imp = ldp_estimate(-1.0, 1.0, 2.0, n_samples=3000, seed=53, grid_n=1024,
                           use_importance=True)
        assert abs(plain.mean - imp.mean) <= 3.0 * math.hypot(plain.stderr, imp.stderr)

    def test_importance_estimate_near_rate_at_t16(self):
        est = ldp_estimate(-1.0, 16.0, 2.0, n_samples=2000, seed=54, grid_n=2048,
                           use_importance=True)
        target = -phi_minus(-1.0)
        assert abs(est.mean - target) <= 0.35 * abs(target)

    def test_rejects_small_t(self):
        with pytest.raises(DomainError):
            ldp_estimate(-1.0, 0.5, 2.0, n_samples=10, seed=55)

    def test_plain_mc_underflow_diagnostic(self):
        # deviation deep enough that every plain sample rounds to zero
        from airylab.errors import UnderflowDiagnostic

        with pytest.raises(UnderflowDiagnostic):
            ldp_estimate(-6.0, 16.0, 2.0, n_samples=30, seed=56, grid_n=2048,
                         use_importance=False)

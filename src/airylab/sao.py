"""Stochastic Airy operator: spectra, explosion counting, localization
sandwich and importance-sampled large-deviation estimates.

The operator -d^2/dx^2 + x + (2/sqrt(beta)) B' on [0, domain_l] is
discretized with the same cell-averaged noise convention as the Hill
module, so Riccati counts and matrix counts run on coupled paths.

Importance sampling drifts the Brownian path piecewise per mesoscale level
(window j covers ((j-1) xi, j xi], drift rate t^{2/3} v_j) and reweights
with the exact Gaussian-increment Girsanov factor, which keeps the
estimator unbiased at any resolution.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, UnderflowDiagnostic
from .hill import (CellOperator, HillConfig, NoisePath, SpectrumSample, dirichlet_spectra,
                   linear_statistic, riccati_cell_counts, tridiagonal_eigenvalues)
from .mc import McEstimate, estimate_from_log_samples, product_estimate, spawn_rng
from .variational import DiscretizationParams, DriftProblem, optimal_drift

_DOMAIN_MARGIN_MIN = 4.0


@dataclass(frozen=True)
class SaoConfig:
    """Truncated operator on [0, domain_l] with grid_n cells."""

    beta: float
    domain_l: float
    grid_n: int
    lambda_cap: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise DomainError("SaoConfig requires beta > 0")
        if not self.domain_l > 0.0:
            raise ConfigurationError("SaoConfig requires domain_l > 0")
        if self.grid_n < 16:
            raise ConfigurationError("grid_n must be at least 16")
        if not math.isfinite(self.lambda_cap):
            raise ConfigurationError("lambda_cap must be finite")
        if self.lambda_cap > 0.0 and self.domain_l < self.lambda_cap + _DOMAIN_MARGIN_MIN:
            # eigenfunctions below the cap must decay before the wall; the
            # boundary-sensitivity test validates this margin
            raise ConfigurationError(
                "domain_l too small for lambda_cap: need lambda_cap + "
                f"{_DOMAIN_MARGIN_MIN} <= domain_l")

    @property
    def h(self) -> float:
        return self.domain_l / self.grid_n

    def operator(self, path: NoisePath) -> CellOperator:
        return CellOperator.on_path(lambda x: x, self.beta, self.domain_l, self.grid_n, path)


def sample_path(config: SaoConfig, rng: np.random.Generator) -> NoisePath:
    return NoisePath.sample(rng, config.grid_n, config.h)


def sao_spectrum(config: SaoConfig, path: NoisePath) -> SpectrumSample:
    """Eigenvalues <= lambda_cap, Dirichlet walls at 0 and domain_l."""
    ev = tridiagonal_eigenvalues(*config.operator(path).dirichlet(), config.lambda_cap)
    return SpectrumSample(eigenvalues=ev, cap=config.lambda_cap)


def riccati_count_sao(lam: float, config: SaoConfig, path: NoisePath) -> int:
    q = config.operator(path).riccati_rates() - lam
    return int(riccati_cell_counts(q, config.h).sum())


def weighted_log_samples(config: HillConfig | SaoConfig,
                         log_statistic: Callable[[SpectrumSample], float], rates: np.ndarray,
                         n_samples: int, rng: np.random.Generator, seed: int) -> np.ndarray:
    """log_statistic(spectrum) + log dP_0/dP_drift per path drawn with cell drift rates.

    Paths are drawn here in order and their Dirichlet spectra below
    config.lambda_cap come from dirichlet_spectra.  The weight
    -sum r_i dW_i + (1/2) sum r_i^2 h is exact for Gaussian increments, so
    the mean of exp(value) is the undrifted expectation at any resolution;
    zero rates give weight 0 and plain Monte Carlo.
    """
    h = config.h
    half_r2h = 0.5 * float((rates ** 2).sum()) * h
    log_w = np.empty(n_samples)

    def paths():  # each weight is taken as its path is drawn; no path is kept
        for k in range(n_samples):
            path = NoisePath.sample(rng, rates.size, h, drift_rate=rates, seed=seed)
            log_w[k] = -float((rates * path.increments).sum()) + half_r2h
            yield path

    spectra = dirichlet_spectra(config, paths())
    return np.fromiter(map(log_statistic, spectra), float, n_samples) + log_w


def _hill_level_estimate(level_j: int, z: float, t: float, beta: float, xi: float,
                         n_samples: int, seed: int, grid_n: int) -> McEstimate:
    """E[exp(linear statistic)] of Hill level j."""
    threshold = -z * t ** (2.0 / 3.0)
    config = HillConfig(j=level_j, xi=xi, beta=beta, grid_n=grid_n, lambda_cap=threshold)
    log_vals = weighted_log_samples(
        config, lambda spectrum: linear_statistic(spectrum, z, t),
        np.zeros(grid_n), n_samples, spawn_rng(seed, "sandwich-hill", level_j), seed)
    return estimate_from_log_samples(log_vals, seed)


def _sao_expectation(z: float, t: float, beta: float, n_samples: int, seed: int,
                     grid_n: int, domain_l: float, stream: str,
                     spectrum_shift: float = 0.0) -> McEstimate:
    """E[exp(linear statistic)] over SAO samples, spectrum shifted if asked."""
    threshold = -z * t ** (2.0 / 3.0)
    config = SaoConfig(beta=beta, domain_l=domain_l, grid_n=grid_n,
                       lambda_cap=threshold - spectrum_shift)
    log_vals = weighted_log_samples(
        config, lambda spectrum: linear_statistic(spectrum.shifted(spectrum_shift), z, t),
        np.zeros(grid_n), n_samples, spawn_rng(seed, stream), seed)
    return estimate_from_log_samples(log_vals, seed)


def sandwich_check(z: float, t: float, beta: float, params: DiscretizationParams,
                   n_samples: int, *, seed: int = 0, hill_grid_n: int = 256,
                   sao_grid_n: int = 1024,
                   sao_domain_l: float | None = None) -> tuple[McEstimate, McEstimate, McEstimate]:
    """Lower/middle/upper estimates of the localization sandwich.

    lower  = prod_{j=0}^{n-1} E_j * e^{-n} * E[shifted SAO factor]
    middle = E over the SAO itself
    upper  = prod_{j=1}^{n} E_j

    Plain Monte-Carlo throughout; every factor uses an independent stream.
    """
    n = params.n
    xi = params.xi
    threshold = -z * t ** (2.0 / 3.0)
    if sao_domain_l is None:
        sao_domain_l = max(threshold, 0.0) + 10.0
    hill_est = {
        j: _hill_level_estimate(j, z, t, beta, xi, n_samples, seed, hill_grid_n)
        for j in range(0, n + 1)
    }
    middle = _sao_expectation(z, t, beta, n_samples, seed,
                              sao_grid_n, sao_domain_l, "sandwich-middle")
    shifted = _sao_expectation(z, t, beta, n_samples, seed,
                               sao_grid_n, sao_domain_l, "sandwich-shifted",
                               spectrum_shift=n * xi)
    decay = McEstimate(mean=math.exp(-n), stderr=0.0, n_samples=n_samples, seed=seed)
    lower = product_estimate([hill_est[j] for j in range(0, n)] + [decay, shifted], seed)
    upper = product_estimate([hill_est[j] for j in range(1, n + 1)], seed)
    return lower, middle, upper


def optimal_drift_profile(z: float, beta: float, params: DiscretizationParams) -> list[float]:
    """v_{j,*} for levels j = 1 .. n at the continuum positions nu_j = j t^{a-2/3}."""
    spacing = params.level_spacing
    return [optimal_drift(DriftProblem(z=z, beta=beta, nu=j * spacing))
            for j in range(1, params.n + 1)]


def ldp_estimate(z: float, t: float, beta: float, *, a: float = 0.0,
                 n_samples: int = 1000, seed: int = 0, grid_n: int = 2048,
                 domain_margin: float = 8.0,
                 use_importance: bool = False) -> McEstimate:
    """(1/t^2) log E[exp(linear statistic)] over SAO samples.

    Importance sampling draws the path with per-level drifts v_{j,*}
    (levels from the mesoscale decomposition, n = ceil(-z t^{2/3-a})) and
    reweights exactly, so both modes estimate the same expectation.
    """
    if z > 0.0:
        raise DomainError("ldp_estimate requires z <= 0")
    if not t >= 1.0:
        raise DomainError("ldp_estimate requires t >= 1")
    threshold = -z * t ** (2.0 / 3.0)
    rng = spawn_rng(seed, "ldp", "importance" if use_importance else "plain")
    if use_importance:
        params = DiscretizationParams.from_deviation(z, t, a)
        drifts = optimal_drift_profile(z, beta, params)
        domain_l = max(threshold, params.n * params.xi) + domain_margin
    else:
        domain_l = max(threshold, 0.0) + domain_margin
    config = SaoConfig(beta=beta, domain_l=domain_l, grid_n=grid_n, lambda_cap=threshold)
    rates = np.zeros(grid_n)
    if use_importance:
        mid = (np.arange(grid_n) + 0.5) * config.h
        level_of_cell = np.floor(mid / params.xi).astype(int) + 1
        inside = level_of_cell <= params.n
        rates[inside] = t ** (2.0 / 3.0) * np.asarray(drifts)[level_of_cell[inside] - 1]
    log_vals = weighted_log_samples(
        config, lambda spectrum: linear_statistic(spectrum, z, t), rates, n_samples, rng, seed)
    if not use_importance and np.all(log_vals < -745.0):
        raise UnderflowDiagnostic(
            "every weighted sample underflows; enable importance sampling")
    est = estimate_from_log_samples(log_vals, seed)
    if est.log_mean == -math.inf:
        raise UnderflowDiagnostic("Monte-Carlo mean rounded to zero")
    return McEstimate(mean=est.log_mean / t ** 2,
                      stderr=est.rel_stderr / t ** 2,
                      n_samples=n_samples, seed=seed,
                      ess=est.ess, max_weight_share=est.max_weight_share)

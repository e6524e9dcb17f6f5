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
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, DomainError, ResolutionError, UnderflowDiagnostic
from .hill import (Boundary, CellOperator, HillConfig, NoisePath, SpectrumSample, check_grid,
                   dirichlet_spectra, hill_spectrum, linear_statistic, riccati_count_hill)
# perfbench/bench_trace.py wraps the bindings sao.riccati_cell_counts and
# sao.tridiagonal_eigenvalues
from .hill import riccati_cell_counts, tridiagonal_eigenvalues  # noqa: F401
from .mc import McEstimate, estimate_from_log_samples, product_estimate, spawn_rng
from .variational import DiscretizationParams, optimal_drift

_DOMAIN_MARGIN_MIN = 4.0
# the finite-difference eigenvalue near lambda is low by a relative
# lambda h^2 / 12, so cap h^2 <= 0.1 keeps that error under 1 %
_MAX_CAP_H2 = 0.1


@dataclass(frozen=True)
class SaoConfig:
    """Truncated operator on [0, domain_l] with grid_n cells, Dirichlet walls."""

    boundary: ClassVar[Boundary] = Boundary.DIRICHLET
    beta: float
    domain_l: float
    grid_n: int
    lambda_cap: float

    def __post_init__(self):
        # a negative length would pass check_grid's h^2 test
        if not self.domain_l > 0.0:
            raise ConfigurationError("SaoConfig requires domain_l > 0")
        check_grid(self.beta, self.domain_l, self.grid_n, self.lambda_cap)
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


# the shared routines under their SAO names, which perfbench and the tests call
sao_spectrum = hill_spectrum
riccati_count_sao = riccati_count_hill


def weighted_log_samples(config: HillConfig | SaoConfig,
                         log_statistic: Callable[[SpectrumSample], float], rates: np.ndarray,
                         n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """log_statistic(spectrum) + log dP_0/dP_drift per path drawn with cell drift rates.

    Paths are drawn here in order and their Dirichlet spectra below
    config.lambda_cap come from dirichlet_spectra.  The weight
    -sum r_i dW_i + (1/2) sum r_i^2 h is exact for Gaussian increments, so
    the mean of exp(value) is the undrifted expectation at any resolution;
    zero rates give weight 0 and plain Monte Carlo.  n_samples < 1 is a
    DomainError.
    """
    if n_samples < 1:
        raise DomainError(f"the estimate needs at least one sample, got {n_samples}")
    h = config.h
    half_r2h = 0.5 * float((rates ** 2).sum()) * h
    log_w = np.empty(n_samples)

    def paths():  # each weight is taken as its path is drawn; no path is kept
        for k in range(n_samples):
            path = NoisePath.sample(rng, rates.size, h, drift_rate=rates)
            log_w[k] = -float((rates * path.increments).sum()) + half_r2h
            yield path

    spectra = dirichlet_spectra(config, paths())
    return np.fromiter(map(log_statistic, spectra), float, n_samples) + log_w


def _check_cap_h2(config: HillConfig | SaoConfig) -> None:
    """ResolutionError when the cells are too wide for the cap, cap h^2 > _MAX_CAP_H2.

    The estimators call it before any path is drawn; the message names the
    grid_n that would pass.
    """
    cap_h2 = config.lambda_cap * config.h ** 2
    if cap_h2 > _MAX_CAP_H2:
        needed = math.ceil(config.grid_n * math.sqrt(cap_h2 / _MAX_CAP_H2))
        raise ResolutionError(f"{config.grid_n} cells of width {config.h:.3g} under the cap "
                              f"{config.lambda_cap:.6g} give cap h^2 = {cap_h2:.3g} > "
                              f"{_MAX_CAP_H2}; grid_n = {needed} would pass")


def _plain_expectation(config: HillConfig | SaoConfig, z: float, t: float, n_samples: int,
                       rng: np.random.Generator, seed: int, shift: float = 0.0) -> McEstimate:
    """Plain Monte-Carlo E[exp(linear statistic)], the spectrum shifted by shift.

    UnderflowDiagnostic when every sample's exponential underflows.
    """
    log_vals = weighted_log_samples(
        config, lambda spectrum: linear_statistic(spectrum.shifted(shift), z, t),
        np.zeros(config.grid_n), n_samples, rng)
    if np.all(log_vals < -745.0):
        raise UnderflowDiagnostic("every plain Monte-Carlo sample underflows; "
                                  "importance sampling (sao ldp --importance) reaches this tail")
    return estimate_from_log_samples(log_vals, seed)


def sandwich_check(z: float, t: float, beta: float, params: DiscretizationParams,
                   n_samples: int, *, seed: int = 0, hill_grid_n: int = 256,
                   sao_grid_n: int = 1024) -> tuple[McEstimate, McEstimate, McEstimate]:
    """Lower/middle/upper estimates of the localization sandwich.

    lower  = prod_{j=0}^{n-1} E_j * e^{-n} * E[shifted SAO factor]
    middle = E over the SAO itself
    upper  = prod_{j=1}^{n} E_j

    Plain Monte-Carlo throughout; every factor uses an independent stream.
    Grids too coarse for their caps (_check_cap_h2) are a ResolutionError
    before any path is drawn.
    """
    n = params.n
    xi = params.xi
    threshold = -z * t ** (2.0 / 3.0)
    sao_domain_l = max(threshold, 0.0) + 10.0
    hill_configs = [HillConfig(j=j, xi=xi, beta=beta, grid_n=hill_grid_n, lambda_cap=threshold)
                    for j in range(0, n + 1)]
    sao_streams = [("sandwich-middle", 0.0), ("sandwich-shifted", n * xi)]
    sao_configs = [SaoConfig(beta=beta, domain_l=sao_domain_l, grid_n=sao_grid_n,
                             lambda_cap=threshold - shift) for _, shift in sao_streams]
    for config in hill_configs + sao_configs:
        _check_cap_h2(config)
    hill_est = [
        _plain_expectation(config, z, t, n_samples, spawn_rng(seed, "sandwich-hill", j), seed)
        for j, config in enumerate(hill_configs)
    ]
    middle, shifted = [
        _plain_expectation(config, z, t, n_samples, spawn_rng(seed, stream), seed, shift)
        for config, (stream, shift) in zip(sao_configs, sao_streams)
    ]
    decay = McEstimate(mean=math.exp(-n), stderr=0.0, n_samples=n_samples, seed=seed)
    lower = product_estimate(hill_est[:n] + [decay, shifted], seed)
    upper = product_estimate(hill_est[1:], seed)
    return lower, middle, upper


def optimal_drift_profile(z: float, beta: float, params: DiscretizationParams) -> np.ndarray:
    """v_{j,*} for levels j = 1 .. n at the continuum positions nu_j = j t^{a-2/3}."""
    return optimal_drift(z, beta, params.level_spacing * np.arange(1, params.n + 1))


def ldp_estimate(z: float, t: float, beta: float, *, a: float = 0.0,
                 n_samples: int = 1000, seed: int = 0, grid_n: int = 2048,
                 domain_margin: float = 8.0,
                 use_importance: bool = False) -> McEstimate:
    """(1/t^2) log E[exp(linear statistic)] over SAO samples.

    Importance sampling draws the path with per-level drifts v_{j,*}
    (levels from the mesoscale decomposition, n = ceil(-z t^{2/3-a})) and
    reweights exactly, so both modes estimate the same expectation.  A
    grid whose cells are too wide for the cap -z t^{2/3} (_check_cap_h2)
    is a ResolutionError, raised before any path is drawn.
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
    _check_cap_h2(config)
    if use_importance:
        mid = (np.arange(grid_n) + 0.5) * config.h
        level_of_cell = np.floor(mid / params.xi).astype(int) + 1
        inside = level_of_cell <= params.n
        rates = np.zeros(grid_n)
        rates[inside] = t ** (2.0 / 3.0) * drifts[level_of_cell[inside] - 1]
        log_vals = weighted_log_samples(
            config, lambda spectrum: linear_statistic(spectrum, z, t), rates, n_samples, rng)
        est = estimate_from_log_samples(log_vals, seed)
    else:
        est = _plain_expectation(config, z, t, n_samples, rng, seed)
    if est.log_mean == -math.inf:
        raise UnderflowDiagnostic("Monte-Carlo mean rounded to zero")
    return McEstimate(mean=est.log_mean / t ** 2,
                      stderr=est.rel_stderr / t ** 2,
                      n_samples=n_samples, seed=seed,
                      ess=est.ess, max_weight_share=est.max_weight_share)

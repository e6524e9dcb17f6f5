"""Deformed-Airy-kernel Fredholm determinant and its point-process twin.

det(I - K_{s,t}) on L^2[0, infinity) with

    K_{s,t}(x, y) = int dr Ai(x+r) Ai(y+r) / (1 + s^{-1} e^{-t^{1/3} r})

is evaluated by a Nystrom discretization (exponentially clustered
Gauss-Legendre nodes on [0, x_max], Gauss-Legendre panels for the inner r
integral) gated by refinement convergence.  The costly part of each pass is
the table Ai(x_i + r_j), which depends on the nodes and on the r-window but
not on s; the tables of the last r-window used (one per node set and panel
order, so the coarse and the fine pass) are kept and reused until a call
with another window replaces them.  At 96 nodes and t = 0.5, the widest
default window, the pair takes 2.3 MB.  The same quantity equals the
Airy-point-process expectation E[prod_i 1/(1 + s e^{-t^{1/3} lambda_i})]
over spectra of the beta = 2 stochastic Airy operator, which
airy_product_estimate estimates by Monte Carlo; determinant_vs_point_process
cross-checks the two routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import ai_values
from .errors import DomainError, IncompleteSpectrumError, ResolutionError
from .hill import NoisePath, SpectrumSample, dirichlet_spectra
from .mc import McEstimate, estimate_from_samples, spawn_rng
# perfbench/bench_trace.py wraps the binding fredholm.sao_spectrum
from .sao import SaoConfig, sao_spectrum  # noqa: F401

_R_CUT = 40.0
_X_MAX_DEFAULT = 16.0
_CLUSTER_ALPHA = 2.0
_MIN_NODES = 40


@dataclass(frozen=True)
class KernelParams:
    """Laplace parameter s and time t of the deformed kernel."""

    s: float
    t: float

    def __post_init__(self):
        if not (self.s > 0.0 and self.t > 0.0):
            raise DomainError("kernel parameters require s > 0 and t > 0")

    @property
    def t13(self) -> float:
        return self.t ** (1.0 / 3.0)


@dataclass(frozen=True)
class QuadratureGrid:
    """Nystrom nodes/weights on [0, x_max] plus inner r-integral cutoffs.

    x_max is the domain the nodes were built for, not their last node:
    fredholm_det's refinement pass builds its own nodes on [0, x_max].
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_cut_low: float
    r_cut_high: float
    x_max: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape:
            raise DomainError("nodes and weights must have equal length")
        if np.any(weights <= 0.0):
            raise DomainError("weights must be positive")
        if np.any(np.diff(nodes) <= 0.0):
            raise DomainError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def clustered_nodes(n: int, x_max: float = _X_MAX_DEFAULT,
                    alpha: float = _CLUSTER_ALPHA) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes mapped through an exponential stretch toward 0."""
    if n < 1:
        raise DomainError(f"the node rule needs at least one node, got {n}")
    u, wu = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    den = math.expm1(alpha)
    x = x_max * np.expm1(alpha * u) / den
    dx = x_max * alpha * np.exp(alpha * u) / den
    return x, wu * dx


def kernel_grid(params: KernelParams, n_nodes: int = 96,
                x_max: float = _X_MAX_DEFAULT) -> QuadratureGrid:
    nodes, weights = clustered_nodes(n_nodes, x_max)
    return QuadratureGrid(nodes=nodes, weights=weights,
                          r_cut_low=-_R_CUT / params.t13, r_cut_high=_R_CUT,
                          x_max=x_max)


def _gl_panels(a: float, b: float, panel_len: float = 2.0,
               order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    xg, wg = np.polynomial.legendre.leggauss(order)
    n_pan = max(1, int(math.ceil((b - a) / panel_len)))
    edges = np.linspace(a, b, n_pan + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * xg[None, :]).ravel()
    weights = (halves[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _fermi(r: np.ndarray, params: KernelParams) -> np.ndarray:
    """1 / (1 + s^{-1} e^{-t^{1/3} r}), overflow-safe logistic."""
    u = params.t13 * r + math.log(params.s)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


class _AiryTables:
    """Read-only tables Ai(x_i + r_j) of one r-window.

    A table is keyed by the exact node bytes and the panel order, which with
    the window fix r.  A call with another window empties the memo first, so
    at most one window's tables are held.  Window and tables are replaced as
    one tuple, so a table is never filed under a window it was not built on.
    """

    def __init__(self):
        self.held: tuple = (None, {})

    def table(self, xs: np.ndarray, r: np.ndarray, window: tuple[float, float],
              panel_order: int) -> np.ndarray:
        held_window, tables = self.held
        if held_window != window:
            tables = {}
            self.held = (window, tables)
        key = (xs.tobytes(), panel_order)
        a = tables.get(key)
        if a is None:
            # through the module binding, which perfbench/bench_trace.py wraps
            a = ai_values(xs[:, None] + r[None, :])
            a.flags.writeable = False
            tables[key] = a
        return a


_AIRY_TABLES = _AiryTables()


def _kernel_matrix(xs: np.ndarray, params: KernelParams, r_lo: float, r_hi: float,
                   panel_order: int = 16) -> np.ndarray:
    """K(x_i, x_j) on all node pairs; Gram form keeps it symmetric PSD."""
    r, wr = _gl_panels(r_lo, r_hi, order=panel_order)
    w_eff = wr * _fermi(r, params)
    a = _AIRY_TABLES.table(xs, r, (r_lo, r_hi), panel_order)
    return (a * w_eff[None, :]) @ a.T


def kernel_eval(x: float, y: float, params: KernelParams, grid: QuadratureGrid) -> float:
    """Single kernel entry; symmetric in (x, y) by construction."""
    if x < 0.0 or y < 0.0:
        raise DomainError("kernel_eval requires x, y >= 0")
    r, wr = _gl_panels(grid.r_cut_low, grid.r_cut_high)
    w_eff = wr * _fermi(r, params)
    ax = ai_values(x + r)
    ay = ax if y == x else ai_values(y + r)
    return float(np.dot(w_eff, ax * ay))


def _nystrom_logdet(params: KernelParams, nodes: np.ndarray, weights: np.ndarray,
                    r_lo: float, r_hi: float, panel_order: int = 16) -> tuple[float, float]:
    k = _kernel_matrix(nodes, params, r_lo, r_hi, panel_order=panel_order)
    sw = np.sqrt(weights)
    m = np.eye(nodes.size) - sw[:, None] * k * sw[None, :]
    sign, logdet = np.linalg.slogdet(m)
    return float(sign), float(logdet)


def fredholm_det(params: KernelParams, grid: QuadratureGrid, *,
                 convergence_tol: float = 1e-8) -> float:
    """Nystrom determinant with a refinement convergence gate.

    The value is recomputed on a doubled node set (and a denser inner
    integral); a change above convergence_tol raises ResolutionError.
    Both passes reuse the Airy tables of the previous call when it had the
    same r-window (the same t for kernel_grid) and the same nodes, so a
    sweep over s at fixed t builds them once; the tables of one window, two
    of them, stay held until a call with another window (2.3 MB at 96
    nodes and t = 0.5).  The result is bit-for-bit the one computed afresh.
    """
    n = grid.nodes.size
    if n < _MIN_NODES:
        raise DomainError(f"grid must carry at least {_MIN_NODES} nodes")
    sign1, logdet1 = _nystrom_logdet(params, grid.nodes, grid.weights,
                                     grid.r_cut_low, grid.r_cut_high)
    fine_nodes, fine_weights = clustered_nodes(2 * n, x_max=grid.x_max)
    sign2, logdet2 = _nystrom_logdet(params, fine_nodes, fine_weights,
                                     grid.r_cut_low, grid.r_cut_high, panel_order=24)
    if sign1 <= 0.0 or sign2 <= 0.0:
        raise ResolutionError("Nystrom determinant lost positivity; refine the grid")
    det1, det2 = math.exp(logdet1), math.exp(logdet2)
    if abs(det2 - det1) > convergence_tol:
        raise ResolutionError(
            f"determinant not converged: |{det2} - {det1}| > {convergence_tol}")
    return det2


def product_log_factors(eigenvalues: np.ndarray, params: KernelParams) -> float:
    """log prod_i 1/(1 + s e^{-t^{1/3} lambda_i}), softplus-stable."""
    u = math.log(params.s) - params.t13 * np.asarray(eigenvalues, dtype=float)
    return -float(np.logaddexp(0.0, u).sum())


def truncation_threshold(params: KernelParams, factor_tol: float) -> float:
    """Spectrum level above which each product factor is within factor_tol of 1."""
    return (math.log(params.s) - math.log(factor_tol)) / params.t13


def airy_product_estimate(spectra: list[SpectrumSample], params: KernelParams,
                          factor_tol: float, seed: int) -> McEstimate:
    """Point-process product expectation over precomputed spectra."""
    lam_star = truncation_threshold(params, factor_tol)
    vals = np.empty(len(spectra))
    for i, spec in enumerate(spectra):
        if spec.cap < lam_star:
            raise IncompleteSpectrumError(
                f"factors stay {factor_tol} away from 1 up to {lam_star:.2f}, "
                f"above the spectrum cap {spec.cap}")
        ev = spec.eigenvalues[spec.eigenvalues <= lam_star]
        vals[i] = math.exp(product_log_factors(ev, params))
    return estimate_from_samples(vals, seed)


def sample_sao2_spectra(config: SaoConfig, n_samples: int, seed: int) -> list[SpectrumSample]:
    """n_samples spectra of independent paths from the "laplace-mc" stream."""
    rng = spawn_rng(seed, "laplace-mc")
    paths = (NoisePath.sample(rng, config.grid_n, config.h) for _ in range(n_samples))
    return list(dirichlet_spectra(config, paths))


def determinant_vs_point_process(cases: list[tuple[float, float, float]],
                                 sao_config: SaoConfig, n_samples: int, seed: int, *,
                                 n_nodes: int = 96, x_max: float = _X_MAX_DEFAULT
                                 ) -> list[tuple[float, McEstimate, float]]:
    """(det, Monte-Carlo product, sigma distance) for each (s, t, factor_tol).

    All cases share one batch of SAO spectra.  The identity with the
    Fredholm determinant holds for the beta = 2 operator only; other beta
    values are rejected.
    """
    if sao_config.beta != 2.0:
        raise DomainError("the point-process identity requires beta = 2")
    kernels = [KernelParams(s=s, t=t) for s, t, _ in cases]
    dets = [fredholm_det(params, kernel_grid(params, n_nodes=n_nodes, x_max=x_max))
            for params in kernels]
    spectra = sample_sao2_spectra(sao_config, n_samples, seed)
    rows = []
    for params, det, (_, _, factor_tol) in zip(kernels, dets, cases):
        est = airy_product_estimate(spectra, params, factor_tol, seed)
        sigma = abs(det - est.mean) / est.stderr if est.stderr > 0 else math.inf
        rows.append((det, est, sigma))
    return rows


def proxy_f(x: float) -> float:
    """exp(-e^x): smooth proxy for the indicator of x < 0."""
    if x > 700.0:
        return 0.0
    return math.exp(-math.exp(x))


def proxy_psi(a: float, t: float, z: float) -> float:
    """log(1 + e^{-t(z+a)}); approaches t(z+a)_- for large t."""
    u = -t * (z + a)
    if u > 0:
        return u + math.log1p(math.exp(-u))
    return math.log1p(math.exp(u))

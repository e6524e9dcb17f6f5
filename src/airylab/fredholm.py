"""Deformed-Airy-kernel Fredholm determinant and its point-process twin.

det(I - K_{s,t}) on L^2[0, infinity) with

    K_{s,t}(x, y) = int dr Ai(x+r) Ai(y+r) / (1 + s^{-1} e^{-t^{1/3} r})

is evaluated by a Nystrom discretization (exponentially clustered
Gauss-Legendre nodes on [0, x_max], Gauss-Legendre panels for the inner r
integral) gated by refinement convergence.  The costly part of each pass is
the table Ai(x_i + r_j), which depends on the nodes and on the r-window but
not on s; the tables of the last r-window used (one per node set and panel
order, so the coarse and the fine pass) are kept and reused until a call
with another window frees them, before it builds its own.  At 96 nodes and
t = 0.5, the widest default window, the pair takes 2.3 MB, and
_window_tables.cache_clear() frees it.  The same quantity equals the
Airy-point-process expectation E[P], P = prod_i 1/(1 + s e^{-t^{1/3} lambda_i}),
over spectra of the beta = 2 stochastic Airy operator, which
airy_product_estimate estimates by Monte Carlo; determinant_vs_point_process
cross-checks the two routes.

P is multilinear in its factors' deviations from 1, so it is a finite sum
of their elementary symmetric sums: with
phi(lambda) = 1 - 1/(1 + s e^{-t^{1/3} lambda}),

    P = prod_i (1 - phi(lambda_i)) = 1 - S1 + S2 - S3 + ...,

where S_k is the k-th elementary symmetric sum of the phi(lambda_i).  The
means of S1 and S2 are exact integrals of the Airy kernel's one- and
two-point functions, the first two terms of the Fredholm series of
det(I - K_{s,t}).  So airy_product_estimate averages the second-order
control-variate samples

    P + (S1 - E[S1]) - (S2 - E[S2]),

whose mean is E[P] for any fixed coefficients.  The coefficients are those
of the series, never fitted to the samples, so the estimate stays unbiased;
what is left to sample is -S3 + S4 - ..., which lies in [-S3, 0].  At
criterion 3's points the samples' variance is 1.3e-5 to 0.014 of that of
the first-order control variate P - e^{E[Y]} (Y - E[Y]), Y = log P, and
8e-7 to 1.3e-3 of P's.  They are heavy-tailed, though (kurtosis 150 to
2,200): most of the variance sits in the rare spectra whose lowest
eigenvalue is low, and a batch that misses them reports too small a
stderr.  The same control variates make the estimate blind to errors in
the spectra's one- and two-point functions, so two checks through Y come
with it: mean(Y) - E[Y] against the one-point density and
mean((Y - E[Y])^2) - Var(Y) against the two-point function.  airy_moments
computes E[Y], Var(Y), E[S1] and E[S2] from one Airy kernel.
"""
from __future__ import annotations

import functools
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
# Ai(u)^2 < 1e-31 beyond u = 14, so the integrals of airy_moments stop there
_AIRY_U_MAX = 14.0
# a Gauss-Legendre window of more panels than this is refused: at 256
# panels of length 2 the fine Airy table of 192 nodes holds 9.4 MB, and the
# determinant's r-window [-40/t^{1/3}, 40] fits for t >= 6.1e-4
_MAX_PANELS = 256
# a node rule of more nodes than this is refused: at 1024 the fine pass's
# widest Airy table holds about 100 MB (see kernel_grid)
_MAX_NODES = 1024


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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def clustered_nodes(n: int, x_max: float = _X_MAX_DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes mapped through an exponential stretch toward 0.

    Cached, so the arrays are shared and read-only.
    """
    if n < 1:
        raise DomainError(f"the node rule needs at least one node, got {n}")
    u, wu = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    den = math.expm1(_CLUSTER_ALPHA)
    x = x_max * np.expm1(_CLUSTER_ALPHA * u) / den
    dx = x_max * _CLUSTER_ALPHA * np.exp(_CLUSTER_ALPHA * u) / den
    return _read_only(x, wu * dx)


def kernel_grid(params: KernelParams, n_nodes: int = 96,
                x_max: float = _X_MAX_DEFAULT) -> QuadratureGrid:
    """n_nodes clustered nodes on [0, x_max] and the r-window [-40/t^{1/3}, 40].

    x_max must be finite and positive, and small enough that the smallest
    node lies below 14 + 40/t^{1/3}: beyond that point Ai(x + r)^2 < 1e-31
    for every r of the window, so a grid with every node there sees a zero
    kernel and its determinant reads 1 whatever s is (at 96 nodes and t = 1
    this holds from x_max = 1.11e6 on).  The window may span at most
    _MAX_PANELS = 256 panels of length 2, which takes t >= 6.1e-4.
    n_nodes may be at most _MAX_NODES = 1024: fredholm_det's fine pass then
    uses 2048 nodes, and its widest Airy table (256 panels of order 24)
    holds 2048 x 6144 doubles, about 100 MB.  Each bound is a DomainError,
    raised before any node rule or Airy table is built.
    """
    if n_nodes > _MAX_NODES:
        raise DomainError(f"{n_nodes} nodes asked for; the rule takes at most {_MAX_NODES}")
    if not 0.0 < x_max < math.inf:
        raise DomainError(f"x_max must be finite and positive, got {x_max}")
    nodes, weights = clustered_nodes(n_nodes, x_max)
    r_lo = -_R_CUT / params.t13
    if nodes[0] >= _AIRY_U_MAX - r_lo:
        raise DomainError(f"x_max = {x_max} puts all {n_nodes} nodes beyond "
                          f"{_AIRY_U_MAX - r_lo:.6g}, where Ai(x + r)^2 < 1e-31 "
                          "on the whole r-window")
    return QuadratureGrid(nodes=nodes, weights=weights, r_cut_low=r_lo, r_cut_high=_R_CUT,
                          x_max=x_max)


@functools.lru_cache(maxsize=16)
def _gl_panels(a: float, b: float, panel_len: float = 2.0,
               order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of the given order on each panel of [a, b]; cached, read-only.

    More than _MAX_PANELS panels is a DomainError, raised before any is built.
    """
    if (b - a) / panel_len > _MAX_PANELS:
        raise DomainError(f"the window [{a:.6g}, {b:.6g}] needs more than {_MAX_PANELS} "
                          f"panels of length {panel_len}")
    xg, wg = np.polynomial.legendre.leggauss(order)
    n_pan = max(1, int(math.ceil((b - a) / panel_len)))
    edges = np.linspace(a, b, n_pan + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + halves[:, None] * xg[None, :]).ravel()
    weights = (halves[:, None] * wg[None, :]).ravel()
    return _read_only(nodes, weights)


def _fermi(r: np.ndarray, params: KernelParams) -> np.ndarray:
    """1 / (1 + s^{-1} e^{-t^{1/3} r}), overflow-safe logistic."""
    u = params.t13 * r + math.log(params.s)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


@functools.lru_cache(maxsize=1)
def _window_tables(r_lo: float, r_hi: float) -> dict:
    """The Airy tables of the r-window (r_lo, r_hi), filled by _kernel_matrix.

    A table is keyed by the exact node bytes and the panel order, which with
    the window fix r.  The cache holds one window: a call with another
    window drops the old dict as it returns the new, empty one, so the old
    tables are freed before any table of the new window is built.
    """
    return {}


def _kernel_matrix(xs: np.ndarray, params: KernelParams, r_lo: float, r_hi: float,
                   panel_order: int = 16) -> np.ndarray:
    """K(x_i, x_j) on all node pairs; Gram form keeps it symmetric PSD."""
    r, wr = _gl_panels(r_lo, r_hi, order=panel_order)
    w_eff = wr * _fermi(r, params)
    tables = _window_tables(r_lo, r_hi)
    key = (xs.tobytes(), panel_order)
    a = tables.get(key)
    if a is None:
        # through the module binding, which perfbench/bench_trace.py wraps
        a = tables[key] = ai_values(xs[:, None] + r[None, :])
        a.flags.writeable = False
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
    sweep over s at fixed t builds them once.  The tables of one window,
    two of them (2.3 MB at 96 nodes and t = 0.5), stay held until a call
    with another window frees them before building its own.  The result is
    bit-for-bit the one computed afresh.
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


def _factor_logs(params: KernelParams, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log(1 - phi), phi) at each lam, phi = 1 - 1/(1 + s e^{-t^{1/3} lam}), softplus-stable."""
    u = math.log(params.s) - params.t13 * lam
    g = -np.logaddexp(0.0, u)
    return g, np.exp(u + g)


def truncation_threshold(params: KernelParams, factor_tol: float) -> float:
    """Spectrum level above which each product factor is within factor_tol of 1.

    factor_tol must lie in (0, 1); DomainError otherwise.
    """
    if not 0.0 < factor_tol < 1.0:
        raise DomainError(f"the factor tolerance must lie in (0, 1), got {factor_tol}")
    return (math.log(params.s) - math.log(factor_tol)) / params.t13


@dataclass(frozen=True)
class AiryMoments:
    """Exact Airy-process moments of the statistics of airy_product_estimate.

    Y = log P, S1 and S2 take the eigenvalues lambda_i <= lam_star:
    y_mean = E[Y], y_variance = Var(Y), s1_mean = E[S1], s2_mean = E[S2].
    """

    y_mean: float
    y_variance: float
    s1_mean: float
    s2_mean: float


def airy_moments(params: KernelParams, lam_star: float) -> AiryMoments:
    """E[Y], Var(Y), E[S1] and E[S2] from one Airy kernel on [-lam_star, 14].

    The Airy points are x_i = -lambda_i.  Take f(x) = phi(-x) and
    G(x) = log(1 - f(x)) = -log(1 + s e^{t^{1/3} x}), the Airy kernel in
    Christoffel-Darboux form K(x, y) = (Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y)
    and its diagonal, the one-point density rho(x) = Ai'(x)^2 - x Ai(x)^2:

        E[Y]   = int G rho,
        Var(Y) = int G^2 rho - int int G(x) G(y) K(x, y)^2 dx dy
                 (Soshnikov, Russian Math. Surveys 55, 2000),
        E[S1]  = int f rho,
        E[S2]  = (E[S1]^2 - int int f(x) f(y) K(x, y)^2 dx dy) / 2,

    the last two being the first two terms of the Fredholm series of
    det(I - K_{s,t}).  Every integral runs over [-lam_star, 14] on
    length-2, order-16 Gauss-Legendre panels, with Ai and Ai' from
    scipy.special.airy.
    """
    if -lam_star >= _AIRY_U_MAX:
        return AiryMoments(0.0, 0.0, 0.0, 0.0)
    # imported here so that the commands that never call it do not load scipy.special
    from scipy.special import airy

    x, wx = _gl_panels(-lam_star, _AIRY_U_MAX)
    ai, aip, _, _ = airy(x)
    rho = aip ** 2 - x * ai ** 2
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    k_sq = ((ai[:, None] * aip[None, :] - aip[:, None] * ai[None, :]) / diff) ** 2
    np.fill_diagonal(k_sq, rho ** 2)
    g, f = _factor_logs(params, -x)
    wg, wf = wx * g, wx * f
    s1_mean = float(np.dot(wf, rho))
    return AiryMoments(y_mean=float(np.dot(wg, rho)),
                       y_variance=float(np.dot(wg * g, rho) - wg @ k_sq @ wg),
                       s1_mean=s1_mean,
                       s2_mean=0.5 * (s1_mean ** 2 - float(wf @ k_sq @ wf)))


@dataclass(frozen=True)
class ProductEstimate:
    """Control-variate estimate of E[P] and the plain estimates it came from.

    mean and stderr are those of the samples
    P + (S1 - E[S1]) - (S2 - E[S2]) (see the module docstring); plain is
    the estimate from P alone, linear_gap that of D = Y - E[Y] and
    quadratic_gap that of D^2 - Var(Y).  Both gaps have mean 0 when the
    spectra follow the Airy point process.
    """

    mean: float
    stderr: float
    n_samples: int
    plain: McEstimate
    linear_gap: McEstimate
    quadratic_gap: McEstimate

    @property
    def variance_ratio(self) -> float:
        """Variance of the control-variate samples over that of P."""
        if self.plain.stderr == 0.0:
            return math.nan
        return (self.stderr / self.plain.stderr) ** 2

    def diagnostics(self) -> dict:
        """The plain estimate, the one- and two-point checks and the variance ratio."""
        return {"plain_mean": self.plain.mean, "plain_stderr": self.plain.stderr,
                "linear_gap": self.linear_gap.mean,
                "linear_gap_stderr": self.linear_gap.stderr,
                "quadratic_gap": self.quadratic_gap.mean,
                "quadratic_gap_stderr": self.quadratic_gap.stderr,
                "variance_ratio": self.variance_ratio}


def airy_product_estimate(spectra: list[SpectrumSample], params: KernelParams,
                          factor_tol: float, seed: int) -> ProductEstimate:
    """Control-variate estimate of E[P] over precomputed spectra.

    P, S1, S2 and Y = log P take the eigenvalues up to lam_star =
    truncation_threshold(params, factor_tol), and their exact moments are
    integrated up to the same lam_star, so the control variates S1 - E[S1]
    and S2 - E[S2] have mean 0 exactly and the estimate is unbiased; their
    coefficients are those of the series P = 1 - S1 + S2 - ..., not fitted.
    Each spectrum must reach lam_star.
    """
    lam_star = truncation_threshold(params, factor_tol)
    ys, s1, s2 = np.empty((3, len(spectra)))
    for i, spec in enumerate(spectra):
        if spec.cap < lam_star:
            raise IncompleteSpectrumError(
                f"factors stay {factor_tol} away from 1 up to {lam_star:.2f}, "
                f"above the spectrum cap {spec.cap}")
        g, phi = _factor_logs(params, spec.eigenvalues[spec.eigenvalues <= lam_star])
        ys[i] = g.sum()
        s1[i] = phi.sum()
        s2[i] = 0.5 * (s1[i] ** 2 - np.dot(phi, phi))
    ps = np.exp(ys)
    moments = airy_moments(params, lam_star)
    gaps = ys - moments.y_mean
    cv = estimate_from_samples(ps + (s1 - moments.s1_mean) - (s2 - moments.s2_mean), seed)
    return ProductEstimate(
        mean=cv.mean, stderr=cv.stderr, n_samples=cv.n_samples,
        plain=estimate_from_samples(ps, seed),
        linear_gap=estimate_from_samples(gaps, seed),
        quadratic_gap=estimate_from_samples(gaps ** 2 - moments.y_variance, seed))


def sample_sao2_spectra(config: SaoConfig, n_samples: int, seed: int) -> list[SpectrumSample]:
    """n_samples spectra of independent paths from the "laplace-mc" stream."""
    rng = spawn_rng(seed, "laplace-mc")
    paths = (NoisePath.sample(rng, config.grid_n, config.h) for _ in range(n_samples))
    return list(dirichlet_spectra(config, paths))


def determinant_vs_point_process(cases: list[tuple[float, float, float]],
                                 sao_config: SaoConfig, n_samples: int, seed: int, *,
                                 n_nodes: int = 96, x_max: float = _X_MAX_DEFAULT
                                 ) -> list[tuple[float, ProductEstimate, float]]:
    """(det, Monte-Carlo product, sigma distance) for each (s, t, factor_tol).

    All cases share one batch of SAO spectra.  The identity with the
    Fredholm determinant holds for the beta = 2 operator only; other beta
    values are rejected, as is any factor tolerance outside (0, 1), before
    any determinant or spectrum is computed.
    """
    if sao_config.beta != 2.0:
        raise DomainError("the point-process identity requires beta = 2")
    kernels = [KernelParams(s=s, t=t) for s, t, _ in cases]
    for params, (_, _, factor_tol) in zip(kernels, cases):
        truncation_threshold(params, factor_tol)
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

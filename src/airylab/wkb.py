"""Spectral inequality certifying that constant drifts are optimal.

For f continuous on [0, xi] compare, under periodic boundary conditions,

    H = -d^2/dy^2 + f'   against   H~ = -d^2/dy^2 + (f(xi) - f(0))/xi.

f' is discretized as cell increments of f, which makes trace(H) = trace(H~)
exact at any resolution; the negative-part linear statistics of H are then
bounded by those of H~ for every shift r.  min_partial_sum writes each of
those statistics as a minimum over partial sums of the ordered spectrum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .hill import CellOperator, SpectrumSample


@dataclass(frozen=True)
class PotentialProfile:
    """f sampled at grid_n + 1 equispaced points on [0, xi]."""

    xi: float
    samples: np.ndarray
    grid_n: int

    def __post_init__(self):
        if not self.xi > 0.0:
            raise DomainError("PotentialProfile requires xi > 0")
        samples = np.asarray(self.samples, dtype=float)
        if samples.size != self.grid_n + 1:
            raise ConfigurationError("need grid_n + 1 samples of f")
        if self.grid_n < 16:
            raise ConfigurationError("grid_n must be at least 16")
        object.__setattr__(self, "samples", samples)

    @property
    def h(self) -> float:
        return self.xi / self.grid_n

    @property
    def mean_slope(self) -> float:
        return (float(self.samples[-1]) - float(self.samples[0])) / self.xi


def random_profile(rng: np.random.Generator, xi: float = 1.0,
                   grid_n: int = 512) -> PotentialProfile:
    """Piecewise-linear f: 2-16 uniform breakpoints, values in [-5, 5].

    f need not be periodic; non-periodic endpoints are the interesting case.
    """
    n_break = int(rng.integers(2, 17))
    xs = np.sort(rng.uniform(0.0, xi, n_break))
    xs = np.concatenate([[0.0], xs, [xi]])
    ys = rng.uniform(-5.0, 5.0, xs.size)
    grid = np.linspace(0.0, xi, grid_n + 1)
    return PotentialProfile(xi=xi, samples=np.interp(grid, xs, ys), grid_n=grid_n)


def min_partial_sum(a, r: float) -> float:
    """min over N of sum_{i<=N} (a_i + r); equals -sum_i (r + a_i)_- exactly."""
    a = np.asarray(a, dtype=float)
    if a.size and np.any(np.diff(a) < 0.0):
        raise DomainError("min_partial_sum requires an ascending sequence")
    if a.size == 0:
        return 0.0
    partial = np.cumsum(a + r)
    return float(min(0.0, partial.min()))


def periodic_matrices(profile: PotentialProfile) -> tuple[np.ndarray, np.ndarray]:
    """(H, H~) as dense periodic finite-difference matrices."""
    h = profile.h
    rough = CellOperator(h, lambda x: 0.0, np.diff(profile.samples) / h)
    flat = CellOperator(h, lambda x: 0.0, np.full(profile.grid_n, profile.mean_slope))
    return rough.periodic(), flat.periodic()


def periodic_hill_pair(profile: PotentialProfile) -> tuple[SpectrumSample, SpectrumSample]:
    """Full spectra of H (potential f') and H~ (constant mean slope)."""
    rough, flat = periodic_matrices(profile)
    ev_rough = np.linalg.eigvalsh(rough)
    ev_flat = np.linalg.eigvalsh(flat)
    cap = float(max(ev_rough[-1], ev_flat[-1]))
    return (SpectrumSample(eigenvalues=ev_rough, cap=cap),
            SpectrumSample(eigenvalues=ev_flat, cap=cap))


def wkb_compare(profile: PotentialProfile, r: float) -> tuple[float, float, bool]:
    """(-sum (r+lambda_i)_-, same for H~, lhs <= rhs within tolerance)."""
    rough, flat = periodic_hill_pair(profile)
    lhs = min_partial_sum(rough.eigenvalues, r)
    rhs = min_partial_sum(flat.eigenvalues, r)
    tol = 1e-8 * (1.0 + abs(lhs))
    return lhs, rhs, lhs <= rhs + tol


def wkb_trials(rng: np.random.Generator, trials: int,
               grid_n: int) -> tuple[int, float]:
    """(violations, largest lhs - rhs) of wkb_compare over random profiles and r.

    trials < 1 is a DomainError.
    """
    if trials < 1:
        raise DomainError(f"the comparison needs at least one trial, got {trials}")
    violations = 0
    max_gap = -math.inf
    for _ in range(trials):
        profile = random_profile(rng, grid_n=grid_n)
        r = float(rng.uniform(-20.0, 20.0))
        lhs, rhs, holds = wkb_compare(profile, r)
        violations += not holds
        max_gap = max(max_gap, lhs - rhs)
    return violations, max_gap

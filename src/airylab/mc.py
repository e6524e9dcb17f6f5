"""Monte-Carlo bookkeeping: estimates with standard errors and seed streams.

All randomness in the package flows from one root seed through
``spawn_rng(seed, *path)``.  The path is a tuple of small ints or short
strings (command, module, stream index); string components are hashed with
crc32 so the derivation is stable across processes and platforms.
"""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _path_component(item) -> int:
    if isinstance(item, (int, np.integer)):
        return int(item) & 0xFFFFFFFF
    if isinstance(item, str):
        return zlib.crc32(item.encode("utf-8"))
    raise TypeError(f"seed path components must be int or str, got {type(item)!r}")


def spawn_rng(seed: int, *path) -> np.random.Generator:
    """Deterministic child generator for a (seed, path) pair."""
    key = tuple(_path_component(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


@dataclass(frozen=True)
class McEstimate:
    """Mean, standard error and provenance of one Monte-Carlo expectation.

    log_mean/rel_stderr mirror the estimate in log space; they stay finite
    even when the linear mean underflows the double range.  ess (the Kish
    effective sample size (sum w)^2 / sum w^2) and max_weight_share (the
    largest w / sum w) describe the weights of a log-sample estimate; an
    ess far below n_samples means a few samples carry the mean.
    """

    mean: float
    stderr: float
    n_samples: int
    seed: int
    log_mean: float | None = None
    rel_stderr: float | None = None
    ess: float | None = None
    max_weight_share: float | None = None

    def within(self, other: "McEstimate | float", n_sigma: float = 3.0) -> bool:
        """True when the two values agree within n_sigma combined errors."""
        if isinstance(other, McEstimate):
            gap = abs(self.mean - other.mean)
            band = n_sigma * math.hypot(self.stderr, other.stderr)
        else:
            gap = abs(self.mean - float(other))
            band = n_sigma * self.stderr
        return gap <= band


def estimate_from_samples(values: np.ndarray, seed: int) -> McEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise DomainError("cannot estimate from zero samples")
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return McEstimate(mean=mean, stderr=stderr, n_samples=n, seed=seed)


def estimate_from_log_samples(log_values: np.ndarray, seed: int) -> McEstimate:
    """Estimate E[X] from log X samples without under/overflow.

    Shifts by the max exponent before exponentiating; log_mean/rel_stderr
    carry the result even when exp(log_mean) underflows to 0.
    """
    log_values = np.asarray(log_values, dtype=float)
    n = log_values.size
    if n == 0:
        raise DomainError("cannot estimate from zero samples")
    m = float(log_values.max())
    if m == -math.inf:
        return McEstimate(mean=0.0, stderr=0.0, n_samples=n, seed=seed,
                          log_mean=-math.inf, rel_stderr=math.inf)
    shifted = np.exp(log_values - m)
    shifted_mean = float(shifted.mean())
    shifted_se = float(shifted.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    log_mean = m + math.log(shifted_mean)
    rel_stderr = shifted_se / shifted_mean
    scale = math.exp(m)
    total = float(shifted.sum())
    return McEstimate(mean=scale * shifted_mean, stderr=scale * shifted_se,
                      n_samples=n, seed=seed, log_mean=log_mean, rel_stderr=rel_stderr,
                      ess=total * total / float(np.dot(shifted, shifted)),
                      max_weight_share=1.0 / total)  # the largest shifted weight is 1


def product_estimate(factors: list[McEstimate], seed: int) -> McEstimate:
    """Product of independent estimates; relative errors add in quadrature."""
    mean = 1.0
    rel_var = 0.0
    n_min = 0
    for est in factors:
        mean *= est.mean
        if est.mean != 0.0:
            rel_var += (est.stderr / est.mean) ** 2
        n_min = est.n_samples if n_min == 0 else min(n_min, est.n_samples)
    stderr = abs(mean) * math.sqrt(rel_var)
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_min, seed=seed)

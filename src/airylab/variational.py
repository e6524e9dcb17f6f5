"""Constant-drift deviation problem for the level decomposition.

Per level, the cost of forcing the noise to carry drift v against the
spectral payoff is

    J(v) = v^2/2 + (2/3pi) ((-z - (2/sqrt(beta)) v - nu)_+)^{3/2},

minimized in closed form by optimal_drift: with c = (-z - nu)_+, the
minimizer is v* = 4/(pi^2 beta^{3/2}) (sqrt(1 + (beta pi/2)^2 c) - 1).
Integrating the optimal cost J(v*) over the continuum level variable nu in
[0, -z] reproduces the scaled rate function exactly; variational_value
checks that identity numerically and riemann_sum_value realizes the
discrete-level approximation of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rate import phi_minus_scaled

_A_LO = -1.0 / 3.0
_A_HI = 2.0 / 3.0
_VALUE_TOL = 1e-10
_MAX_ORDER = 512
# riemann_sum_value sums over at most this many levels (8 MB a level array)
_MAX_LEVELS = 10 ** 6


@dataclass(frozen=True)
class DiscretizationParams:
    """Mesoscale discretization: interval length xi = t^a, n levels."""

    t: float
    a: float
    n: int

    def __post_init__(self):
        if not self.t > 0.0:
            raise DomainError("DiscretizationParams requires t > 0")
        if not (_A_LO < self.a < _A_HI):
            raise DomainError("mesoscale exponent a must lie strictly in (-1/3, 2/3)")
        if self.n < 0:
            raise DomainError("n must be a natural number")

    @classmethod
    def from_deviation(cls, z: float, t: float, a: float) -> "DiscretizationParams":
        """Level count n = ceil(-z t^{2/3-a}) covering the active range."""
        if z > 0.0:
            raise DomainError("from_deviation requires z <= 0")
        n = int(math.ceil(-z * t ** (2.0 / 3.0 - a)))
        return cls(t=t, a=a, n=n)

    @property
    def xi(self) -> float:
        return self.t ** self.a

    @property
    def level_spacing(self) -> float:
        """Spacing of the continuum level variable: t^{a - 2/3}."""
        return self.t ** (self.a - 2.0 / 3.0)


def _check_drift_domain(z: float, beta: float) -> None:
    """DomainError unless z <= 0 and beta > 0, the domain of the drift formula."""
    if z > 0.0:
        raise DomainError("the drift formula requires z <= 0")
    if not beta > 0.0:
        raise DomainError("the drift formula requires beta > 0")


def _depth_and_drift(z: float, beta: float, nu: float | np.ndarray):
    """(c, v*) of the module docstring; nu may be a float or an array.

    Raises DomainError outside _check_drift_domain and for a beta so small
    or so large that the formula's factors (beta pi/2)^2 and
    4/(pi^2 beta^{3/2}) leave the double range.
    """
    _check_drift_domain(z, beta)
    try:
        k2 = (beta * math.pi / 2.0) ** 2
        scale = 4.0 / (math.pi ** 2 * beta ** 1.5)
    except (OverflowError, ZeroDivisionError):
        k2 = scale = math.inf
    if not (math.isfinite(k2) and math.isfinite(scale)):
        raise DomainError(f"beta = {beta!r} puts the drift formula outside the double range")
    c = np.maximum(-z - nu, 0.0)
    s = np.sqrt(1.0 + k2 * c)
    return c, scale * (s - 1.0)


def optimal_drift(z: float, beta: float, nu: float | np.ndarray) -> float | np.ndarray:
    """Closed-form minimizer v* of the per-level cost J at level nu, a float or an array."""
    return _depth_and_drift(z, beta, nu)[1]


def _objective_values(nu: np.ndarray, z: float, beta: float) -> np.ndarray:
    """The optimal cost J(v*) at each level nu."""
    c, v = _depth_and_drift(z, beta, nu)
    x = np.maximum(c - 2.0 / math.sqrt(beta) * v, 0.0)
    return 0.5 * v * v + 2.0 / (3.0 * math.pi) * x ** 1.5


def variational_value(z: float, beta: float) -> float:
    """Integral of the optimal per-level cost over nu in [0, -z].

    Gauss-Legendre with order doubling up to _MAX_ORDER until the change is
    below _VALUE_TOL (scaled by the value).  The integrand is analytic on
    [0, -z], so the gate triggers at modest order.
    """
    _check_drift_domain(z, beta)
    if z == 0.0:
        return 0.0
    upper = -z
    prev = None
    order = 32
    while order <= _MAX_ORDER:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        nu = 0.5 * upper * (nodes + 1.0)
        w = 0.5 * upper * weights
        val = float(np.dot(w, _objective_values(nu, z, beta)))
        if prev is not None and abs(val - prev) <= _VALUE_TOL * (1.0 + abs(val)):
            return val
        prev = val
        order *= 2
    raise DomainError("variational_value did not converge (analytic integrand expected)")


def riemann_sum_value(z: float, beta: float, params: DiscretizationParams) -> float:
    """Discrete-level approximation: spacing t^{a-2/3} times the level sum.

    Converges first order in the spacing to variational_value as t grows.
    More than _MAX_LEVELS = 10^6 levels (t^{2/3-a} above 10^6 at z = -1)
    is a DomainError, raised before the levels are built.
    """
    _check_drift_domain(z, beta)
    if params.n > _MAX_LEVELS:
        raise DomainError(f"the Riemann sum at t = {params.t} needs more than "
                          f"{_MAX_LEVELS} levels")
    if params.n == 0:
        return 0.0
    spacing = params.level_spacing
    nu = spacing * np.arange(params.n)
    return spacing * float(_objective_values(nu, z, beta).sum())


def variational_report(z: float, beta: float) -> dict:
    """Value, scaled-rate target and their relative gap (the master identity)."""
    val = variational_value(z, beta)
    target = phi_minus_scaled(beta, z)
    rel = abs(val - target) / target if target != 0.0 else abs(val - target)
    return {"variational_value": val, "phi_scaled": target, "rel_err": rel}

"""Airy function Ai on the real line, self-contained.

Evaluation strategy: Maclaurin series for |x| <= 8 accumulated in 80-bit
extended precision (the series cancels badly near the switch point in plain
doubles), asymptotic expansions with optimal truncation beyond.  Absolute
error is below 1e-13 for |x| <= 20; the overlap of the two branches at the
switch point agrees to ~5e-14.

For large positive x the value itself underflows around x ~ 108; the
asymptotic branch computes the scaled value Ai(x) exp(+(2/3) x^{3/2}),
which stays O(x^{-1/4}), and multiplies the exponential back in last.

Each value depends on its own argument only, bit for bit, so an array of
at least _SHARE_MIN_POINTS points is evaluated in two halves through
hill._pool_map, on the pool's threads where it sends them.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .hill import _pool_map

_LD = np.longdouble

# Ai(0) = 3^(-2/3)/Gamma(2/3), -Ai'(0) = 3^(-1/3)/Gamma(1/3)
_AI0 = _LD("0.35502805388781723926006318600418317640")
_AIP0 = _LD("0.25881940379280679840518356018920396348")

_SWITCH = 8.0
_SERIES_KMAX = 90
# a pool round trip costs about 0.1 ms, but the halves' threads hand the
# interpreter lock back and forth between numpy's loops: on 2 Xeon CPUs
# 2^14 points took 5.3 ms here and 7.5 ms shared, 2^15 took 11 ms and 8-11 ms
_SHARE_MIN_POINTS = 2 ** 15

# u_k = Gamma(3k+1/2) / (54^k k! Gamma(k+1/2)) via the three-term ratio
_U = [1.0]
for _k in range(1, 27):
    _U.append(_U[-1] * (6 * _k - 1) * (6 * _k - 3) * (6 * _k - 5) / (216.0 * _k * (2 * _k - 1)))
_U = np.array(_U)


def _series(xs: np.ndarray) -> np.ndarray:
    """Maclaurin series in longdouble; valid (and used) for |x| <= _SWITCH.

    The sum stops once both terms of the element of largest |x| are below
    1e-22.  Each rounded step is monotone in |x|, so those are the largest
    terms of the array and no element stops with a larger term.
    """
    x = xs.astype(_LD)
    x3 = x * x * x
    f_term = np.ones_like(x)
    g_term = x.copy()
    f_sum = f_term.copy()
    g_sum = g_term.copy()
    widest = int(np.argmax(np.abs(x)))
    for k in range(1, _SERIES_KMAX):
        f_term *= x3
        f_term /= _LD((3 * k) * (3 * k - 1))
        g_term *= x3
        g_term /= _LD((3 * k + 1) * (3 * k))
        f_sum += f_term
        g_sum += g_term
        if max(abs(f_term[widest]), abs(g_term[widest])) < 1e-22:
            break
    return (_AI0 * f_sum - _AIP0 * g_sum).astype(float)


def _asym_scaled_pos(xs: np.ndarray) -> np.ndarray:
    """Ai(x) * exp(+zeta) for x >= _SWITCH, zeta = (2/3) x^{3/2}."""
    zeta = (2.0 / 3.0) * xs ** 1.5
    total = np.ones_like(xs)
    term = np.ones_like(xs)
    active = np.ones_like(xs, dtype=bool)
    for k in range(1, _U.size):
        new_term = term * (-_U[k] / _U[k - 1]) / zeta
        # optimal truncation: stop a component once its terms grow again
        active &= np.abs(new_term) < np.abs(term)
        if not active.any():
            break
        term = np.where(active, new_term, 0.0)
        total += term
    return total / (2.0 * math.sqrt(math.pi) * xs ** 0.25)


def _asym_neg(xs: np.ndarray) -> np.ndarray:
    """Oscillatory expansion for x <= -_SWITCH (evaluated at y = -x)."""
    y = -xs
    zeta = (2.0 / 3.0) * y ** 1.5
    p_sum = np.ones_like(y)
    q_sum = _U[1] / zeta
    for k in range(1, 13):
        p_sum += (-1.0) ** k * _U[2 * k] / zeta ** (2 * k)
        q_sum += (-1.0) ** k * _U[2 * k + 1] / zeta ** (2 * k + 1)
    phase = zeta - math.pi / 4.0
    val = np.cos(phase) * p_sum + np.sin(phase) * q_sum
    return val / (math.sqrt(math.pi) * y ** 0.25)


def _ai_here(xs: np.ndarray) -> np.ndarray:
    """Ai at finite xs, computed in this process."""
    out = np.empty_like(xs)
    mid = np.abs(xs) <= _SWITCH
    pos = xs > _SWITCH
    neg = xs < -_SWITCH
    if mid.any():
        out[mid] = _series(xs[mid])
    if pos.any():
        xp = xs[pos]
        out[pos] = _asym_scaled_pos(xp) * np.exp(-(2.0 / 3.0) * xp ** 1.5)
    if neg.any():
        out[neg] = _asym_neg(xs[neg])
    return out


def ai_values(xs: np.ndarray) -> np.ndarray:
    """Vectorized Ai values (plain doubles; underflows to 0 beyond x ~ 108).

    An array of at least _SHARE_MIN_POINTS points goes to _pool_map in
    halves, which are written into one output; the values are those of one
    evaluation here, bit for bit.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and not np.isfinite(xs).all():
        raise DomainError("ai_values requires finite input")
    if xs.size < _SHARE_MIN_POINTS:
        return _ai_here(xs)
    flat = xs.reshape(-1)
    cut = flat.size // 2
    out = np.empty(flat.size)
    out[:cut], out[cut:] = _pool_map(_ai_here, [flat[:cut], flat[cut:]])
    return out.reshape(xs.shape)

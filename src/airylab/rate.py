"""Lower-tail rate function of the KPZ one-point distribution.

phi_minus(z) = 4/(15 pi^6) (1 - pi^2 z)^{5/2} - 4/(15 pi^6)
               + 2/(3 pi^4) z - 1/(2 pi^2) z^2,   z <= 0.

The four terms cancel to third order at z = 0 (phi ~ -z^3/12), so small
|z| is evaluated through the Taylor form instead of the raw expression.
"""
from __future__ import annotations

import math

from .errors import DomainError

_PI2 = math.pi ** 2
_PI4 = math.pi ** 4
_PI6 = math.pi ** 6

_TAYLOR_CUT = 1e-4


def phi_minus(z: float) -> float:
    """Rate of the lower-tail deviation at depth z (z <= 0; 0 at z = 0).

    Raises DomainError where the value overflows a double (z below about -1e123).
    """
    if not math.isfinite(z):
        raise DomainError("phi_minus requires finite z")
    if z > 0.0:
        raise DomainError("phi_minus is defined for z <= 0 (lower tail only)")
    if z == 0.0:
        return 0.0
    w = -z
    if w < _TAYLOR_CUT:
        # phi = w^3/12 - pi^2 w^4/96 + pi^4 w^5/320 - pi^6 w^6/768 + O(w^7)
        return w ** 3 * (1.0 / 12.0 + w * (-_PI2 / 96.0 + w * (_PI4 / 320.0 - w * _PI6 / 768.0)))
    try:
        lead = (1.0 + _PI2 * w) ** 2.5
    except OverflowError:
        raise DomainError(f"phi_minus({z!r}) overflows a double") from None
    return (
        4.0 / (15.0 * _PI6) * lead
        - 4.0 / (15.0 * _PI6)
        - 2.0 / (3.0 * _PI4) * w
        - 1.0 / (2.0 * _PI2) * w * w
    )


def phi_minus_scaled(beta: float, z: float) -> float:
    """(2/beta)^5 phi_minus((beta/2)^2 z); reduces to phi_minus at beta = 2.

    Raises DomainError for a beta so small or so large that (2/beta)^5 or
    (beta/2)^2 overflows a double.
    """
    if not (beta > 0.0) or not math.isfinite(beta):
        raise DomainError("phi_minus_scaled requires beta > 0")
    try:
        scale, z_scaled = (2.0 / beta) ** 5, (beta / 2.0) ** 2 * z
    except OverflowError:
        raise DomainError(f"beta = {beta!r} overflows the scaled rate") from None
    return scale * phi_minus(z_scaled)

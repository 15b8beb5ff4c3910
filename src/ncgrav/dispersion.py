"""Deformed mass shell of the flat (beta = -1/c^2) model and group velocities.

Mode convention: e^{i k.x - i omega t} with omega >= 0; the imaginary time
shifts then produce real factors e^{omega lam}.  The omega < 0 branch is not
treated: every function here raises ValueError for it, as it does when
omega lam is above `U_MAX` (e^{omega lam} overflows), when (c lam)^2
underflows to 0, or when a term of the shell residual passes the float limit
(omega lam just below `U_MAX`, or a subnormal (c lam)^2).  `sweep` is the one
producer of dispersion tables; the CLI only formats its points.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from scipy.optimize import brentq


class EvanescentModeError(ValueError):
    """Shell has no real spatial momentum at this (omega, m)."""


@dataclass(frozen=True)
class DispersionPoint:
    omega: float
    k: float
    m: float
    vg: float
    residual: float


# math.exp overflows above this (about 709.78)
U_MAX = math.log(sys.float_info.max)


def _check_domain(omega, lam, c):
    if omega < 0:
        raise ValueError("omega < 0 branch is not treated")
    if (c * lam) ** 2 == 0:
        raise ValueError("(c lam)^2 underflows to 0 at c = %g, lam = %g"
                         % (c, lam))
    if omega * lam > U_MAX:
        raise ValueError("omega lam = %g is above %.6f, where exp(omega lam) "
                         "overflows" % (omega * lam, U_MAX))


def _shell(omega, m, lam, c, hbar):
    """The shell residual at this omega as a function of k.  The domain
    check, e^{omega lam}, the sinh^2 term and (m c / hbar)^2 are done once
    here, not on each evaluation."""
    _check_domain(omega, lam, c)
    u = omega * lam
    eu = math.exp(u)
    t2 = (2.0 / (c ** 2 * lam ** 2)) * 2.0 * math.sinh(u / 2) ** 2
    t3 = (m * c / hbar) ** 2

    def residual(k):
        t1 = -k ** 2 * eu
        scale = max(abs(t1), abs(t2), abs(t3))
        if scale == 0:
            return 0.0
        res = (t1 + t2 - t3) / scale
        if math.isnan(res):
            raise ValueError("shell residual at omega = %g, lam = %g is not "
                             "finite (a term is nan or beyond the float limit "
                             "%g)" % (omega, lam, sys.float_info.max))
        return res
    return residual


def shell_residual(omega, k, m, lam, c, hbar):
    """Residual of -k^2 e^{omega lam} + (2/(c^2 lam^2))(cosh(omega lam) - 1)
    = (m c / hbar)^2, normalized by the largest term."""
    return _shell(omega, m, lam, c, hbar)(k)


def k_squared_closed(omega, m, lam, c, hbar):
    """k^2 = (1 - e^{-omega lam})^2 / (c lam)^2 - (m c / hbar)^2 e^{-omega lam}."""
    _check_domain(omega, lam, c)
    u = omega * lam
    a = -math.expm1(-u) / (c * lam)  # (1 - e^{-u}) / (c lam), stable
    return a * a - (m * c / hbar) ** 2 * math.exp(-u)


def _propagating_k_squared(omega, m, lam, c, hbar):
    k2 = k_squared_closed(omega, m, lam, c, hbar)
    if k2 < 0:
        raise EvanescentModeError(
            "no propagating mode at omega=%g, m=%g (k^2=%g)" % (omega, m, k2))
    return k2


def solve_k(omega, m, lam, c, hbar):
    """Spatial momentum on the shell by brentq, capped at 100 iterations plus
    log2(bracket / xtol); the test suite checks it against the closed form."""
    _propagating_k_squared(omega, m, lam, c, hbar)
    k_hi = 1.0 / (c * lam) + m * c / hbar + 1.0
    f = _shell(omega, m, lam, c, hbar)
    f0 = f(0.0)
    if f0 <= 0:
        return 0.0
    return brentq(f, 0.0, k_hi, xtol=1e-12, rtol=8.9e-16,
                  maxiter=100 + math.ceil(math.log2(k_hi / 1e-12)))


def group_velocity(omega, m, lam, c, hbar):
    """d omega / d k by implicit differentiation of the shell.  At the
    massless omega = 0 point the shell is stationary; vg is its limit c."""
    k = math.sqrt(_propagating_k_squared(omega, m, lam, c, hbar))
    u = omega * lam
    eu = math.exp(u)
    denom = -k ** 2 * lam * eu + (2.0 / (c ** 2 * lam)) * math.sinh(u)
    if denom == 0:
        if m == 0:
            return c
        raise EvanescentModeError("stationary shell at omega=%g" % omega)
    return 2 * k * eu / denom


def dispersion_point(omega, m, lam, c, hbar):
    k = solve_k(omega, m, lam, c, hbar)
    vg = group_velocity(omega, m, lam, c, hbar)
    return DispersionPoint(omega=omega, k=k, m=m, vg=vg,
                           residual=shell_residual(omega, k, m, lam, c, hbar))


def time_of_flight_delta(omega1, omega2, distance, m, lam, c, hbar):
    """Arrival-time difference over a common distance: L (1/v1 - 1/v2)."""
    v1 = group_velocity(omega1, m, lam, c, hbar)
    v2 = group_velocity(omega2, m, lam, c, hbar)
    return distance * (1.0 / v1 - 1.0 / v2)


def sweep(omegas, m, lam, c, hbar):
    """DispersionPoint per omega; evanescent points carry k = vg = nan."""
    out = []
    for omega in omegas:
        try:
            out.append(dispersion_point(float(omega), m, lam, c, hbar))
        except EvanescentModeError:
            out.append(DispersionPoint(omega=float(omega), k=float("nan"),
                                       m=m, vg=float("nan"),
                                       residual=float("nan")))
    return out

"""Effective inertial/gravitational masses and the constant potential term.

Everything is a function of the dimensionless x = m~ lam (= m/m_p when lam is
the Planck time, with m_p = hbar/(lam c^2)):

    m_I = m (sinh x / x) e^{-x}
    m_G = m (x + e^{-x} - 1) / ((x/2) sinh x)
    V_0 = m c^2 (x / sinh x)(1 - sinh(x/2)/(x/2))

Below x = SMALL_X = 1e-4 the m_G closed form loses digits to cancellation,
so `_mg_ratio`, and `_ratios` (all three ratios, for `effective_params`), take
a 30-digit mpmath branch there rather than truncated series.  The figure-1
columns `mI_over_mp` and `V0_over_mpc2` are numpy closed forms at every x.
The 30-digit branch itself loses m_G digits as x falls, since x + e^{-x} - 1
~ x^2/2 cancels in 30 digits too: m_G/m is off by 1e-11 relative at x = 1e-10,
by 21 % at 1e-15, and is 0.0 from about 1e-16 (at x = 7.7e-20, say).  ROADMAP
item 3 replaces the branch with cancellation-free forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath
import numpy as np

SMALL_X = 1e-4
# math.sinh overflows for x above this (about 710.48)
X_MAX = math.asinh(sys.float_info.max)


@dataclass(frozen=True)
class PlanckUnits:
    lam: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    G: float = 1.0

    def __post_init__(self):
        if min(self.lam, self.c, self.hbar, self.G) <= 0:
            raise ValueError("units must be positive")

    @property
    def m_p(self):
        return self.hbar / (self.lam * self.c ** 2)


@dataclass(frozen=True)
class EffectiveParams:
    x: float
    m_I: float
    m_G: float
    V0: float


def _mg_ratio(x):
    """m_G/m at dimensionless x, cancellation-safe; the one route to m_G."""
    if x > X_MAX:
        raise ValueError("x = m/m_p = %g is above %.6f, where sinh(x) "
                         "overflows" % (x, X_MAX))
    if x < SMALL_X:
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            return float((xm + mpmath.exp(-xm) - 1)
                         / (xm / 2 * mpmath.sinh(xm)))
    x = float(x)  # a numpy scalar would warn where den overflows below
    # x + e^{-x} - 1 written via expm1: the numerator is ~x^2/2 at small x
    den = x / 2 * math.sinh(x)
    if math.isinf(den):
        # x sinh(x) / 2 overflows above x ~ 704.61: divide by each factor
        return (x + math.expm1(-x)) / (x / 2) / math.sinh(x)
    return (x + math.expm1(-x)) / den


def _ratios(x):
    """(m_I/m, m_G/m, V0/(m c^2)) at dimensionless x, cancellation-safe."""
    mg = _mg_ratio(x)  # checks x
    if x < SMALL_X:
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            mi = mpmath.sinh(xm) / xm * mpmath.exp(-xm)
            v0 = xm / mpmath.sinh(xm) * (1 - mpmath.sinh(xm / 2) / (xm / 2))
            return float(mi), mg, float(v0)
    x = float(x)
    mi = math.sinh(x) / x * math.exp(-x)
    v0 = x / math.sinh(x) * (1 - math.sinh(x / 2) / (x / 2))
    return mi, mg, v0


def effective_params(m, units=PlanckUnits()):
    if m <= 0:
        raise ValueError("m must be positive")
    x = m * units.c ** 2 * units.lam / units.hbar  # = m / m_p
    mi, mg, v0 = _ratios(x)
    return EffectiveParams(x=x, m_I=m * mi, m_G=m * mg,
                           V0=m * units.c ** 2 * v0)


# fractions of the Planck scale, as plotted against x = m/m_p
def mI_over_mp(x):
    """= sinh(x) e^{-x} = (1 - e^{-2x})/2."""
    return -np.expm1(-2 * np.asarray(x, dtype=float)) / 2


def mG_over_mp(x):
    x = np.asarray(x, dtype=float)
    return x * np.array([_mg_ratio(v)
                         for v in np.atleast_1d(x)]).reshape(x.shape)


def V0_over_mpc2(x):
    """= x^2/sinh x - x/cosh(x/2)."""
    x = np.asarray(x, dtype=float)
    return x ** 2 / np.sinh(x) - x / np.cosh(x / 2)


def mG_over_mI(x):
    """= 2 e^x (x + e^{-x} - 1) / sinh^2 x."""
    x = np.asarray(x, dtype=float)
    return 2 * np.exp(x) * (x + np.expm1(-x)) / np.sinh(x) ** 2


def figure1_data(x_max=10.0, n_points=500):
    """Rows (x, m_I/m_p, m_G/m_p, V0/(m_p c^2)) on a uniform x grid."""
    if x_max <= 0 or n_points < 2:
        raise ValueError("x_max > 0 and n_points >= 2 required")
    xs = np.linspace(x_max / n_points, x_max, n_points)
    return np.column_stack([xs, mI_over_mp(xs), mG_over_mp(xs),
                            V0_over_mpc2(xs)])


def dark_energy_estimate(m_U, r_U, units=PlanckUnits()):
    """Constant-term energy density -(m_p c^2 / 2) (m_U / (4.5 m_p r_U^3)),
    i.e. a mass density of magnitude m_U / (9 r_U^3); the sign is opposite to
    observed dark energy and is reported as such."""
    if m_U < 0 or r_U <= 0:
        raise ValueError("m_U >= 0 and r_U > 0 required")
    mass_density = m_U / (9.0 * r_U ** 3)
    return {
        "mass_density": mass_density,
        "energy_density": -mass_density * units.c ** 2,
        "sign": "negative (opposite to observed dark energy)",
        "assumes": "all ordinary mass at the V0 minimum depth m_p c^2 / 2 "
                   "per 4.5 m_p of constituent mass",
    }

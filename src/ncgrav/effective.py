"""Effective inertial/gravitational masses and the constant potential term.

Everything is a function of the dimensionless x = m~ lam (= m/m_p when lam is
the Planck time, with m_p = hbar/(lam c^2)):

    m_I = m (sinh x / x) e^{-x}
    m_G = m (x + e^{-x} - 1) / ((x/2) sinh x)
    V_0 = m c^2 (x / sinh x)(1 - sinh(x/2)/(x/2))

The figure-1 columns are computed on whole arrays.  Below x = SMALL_X = 1e-4
(in |x|) the closed forms of m_G and V_0 cancel, so `mG_over_mp` and
`V0_over_mpc2` take short Taylor series there instead (Amelino-Camelia &
Majid, IJMPA 15 (2000) 4301): m_G/m = (1 - x/3 + x^2/12 - x^3/60 + x^4/360)
/ (sinh x / x), and V_0 by the series of (x/sinh x)(1 - sinh(x/2)/(x/2)).
At and above SMALL_X, m_G is the closed form with one `math.expm1` and one
`math.sinh` per element (numpy's ufuncs round differently), and V_0 and
`mI_over_mp` are numpy closed forms.  V_0's closed form still cancels on
about [1e-4, 0.5]: against 60-digit mpmath it is off by up to 5.6e-7
relative on [1e-4, 1e-3], 5.3e-9 on [1e-3, 1e-2] and 5.1e-13 on [0.1, 0.5].

`effective_params` (through `_ratios` and the scalar `_mg_ratio`) keeps the
one mpmath fork left, and the only code that imports mpmath: a 30-digit
branch below SMALL_X.  That branch loses m_G digits as x falls, since
x + e^{-x} - 1 ~ x^2/2 cancels in 30 digits too: m_G/m is off by 1e-11
relative at x = 1e-10, by 21 % at 1e-15, and is 0.0 from about 1e-16 (at
x = 7.7e-20, say).  It stays because the `spectrum` tables are pinned byte
for byte on it; ROADMAP item 3 replaces it once the benchmark checks values
instead of bytes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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


def _libm(fn, x):
    """fn of each element of the 1-d array x, one libm call each."""
    values = x.tolist()
    return np.fromiter(map(fn, values), float, len(values))


def _mg_closed(x):
    """m_G/m on a 1-d array of x outside the series band, as the scalar
    (x + expm1(-x)) / ((x/2) sinh x) gives it bit for bit.  Raises
    ValueError naming the first x above X_MAX."""
    above = x > X_MAX
    if above.any():
        raise ValueError("x = m/m_p = %g is above %.6f, where sinh(x) "
                         "overflows" % (x[above][0], X_MAX))
    # x + e^{-x} - 1 written via expm1: the numerator is ~x^2/2 at small x
    num = x + _libm(math.expm1, -x)
    sinh = _libm(math.sinh, x)
    with np.errstate(over="ignore"):
        den = x / 2 * sinh
    out = num / den
    # x sinh(x) / 2 overflows above x ~ 704.61: divide by each factor
    big = np.isinf(den)
    out[big] = num[big] / (x[big] / 2) / sinh[big]
    return out


def _mg_ratio(x):
    """m_G/m at one x > 0, for `_ratios`: the 30-digit mpmath branch below
    SMALL_X, else the closed form of `mG_over_mp`."""
    if x < SMALL_X:
        import mpmath  # here, so that only this branch loads it
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            return float((xm + mpmath.exp(-xm) - 1)
                         / (xm / 2 * mpmath.sinh(xm)))
    return float(_mg_closed(np.array([x], dtype=float))[0])


def _ratios(x):
    """(m_I/m, m_G/m, V0/(m c^2)) at one x > 0: 30-digit mpmath below
    SMALL_X, double closed forms above."""
    mg = _mg_ratio(x)  # checks x
    if x < SMALL_X:
        import mpmath
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


def _banded(x, series, closed):
    """series(x) where |x| < SMALL_X and closed(x) elsewhere, each on a 1-d
    array; the result has the shape of x (a scalar for a scalar)."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    small = np.abs(flat) < SMALL_X
    if not small.any():
        out = closed(flat)
    else:
        out = np.empty_like(flat)
        out[small] = series(flat[small])
        out[~small] = closed(flat[~small])
    return out.reshape(x.shape)[()]


def _sinhc_series(x2):
    """sinh(x)/x from x^2, below SMALL_X: the first omitted term is below
    1e-27 relative."""
    return 1 + x2 / 6 * (1 + x2 / 20)


def mG_over_mp(x):
    """= x m_G/m."""
    def series(x):
        num = 1 - x * (1 / 3 - x * (1 / 12 - x * (1 / 60 - x / 360)))
        return x * (num / _sinhc_series(x * x))
    return _banded(x, series, lambda x: x * _mg_closed(x))


def V0_over_mpc2(x):
    """= x^2/sinh x - x/cosh(x/2) = x V0/(m c^2)."""
    def series(x):
        # 1 - sinh(y)/y = -(y^2/6)(1 + y^2/20 + ...) at y = x/2
        x2 = x * x
        return x * (-x2 / 24 * (1 + x2 / 80) / _sinhc_series(x2))
    return _banded(x, series,
                   lambda x: x ** 2 / np.sinh(x) - x / np.cosh(x / 2))


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

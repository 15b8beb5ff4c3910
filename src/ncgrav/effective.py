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

`effective_params` (through the scalar `_ratios`) keeps the one mpmath fork
left, and the only code that imports mpmath: one 30-digit block below
SMALL_X for all three ratios.  It loses m_G digits as x falls, since
x + e^{-x} - 1 ~ x^2/2 cancels in 30 digits too: m_G/m is off by 1e-11
relative at x = 1e-10, by 21 % at 1e-15, and is 0.0 from about 1e-16 (at
x = 7.7e-20, say).  It stays because the `spectrum` tables are pinned byte
for byte on it; ROADMAP item 3 replaces it once the benchmark checks values
instead of bytes.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

SMALL_X = 1e-4
# math.sinh overflows for x above this (about 710.48)
X_MAX = math.asinh(sys.float_info.max)


def _normal_scale(scale, what, **pars):
    """scale(), refused with a ValueError naming `what` and pars where it is
    not a positive normal float: it overflows, or underflows to a subnormal
    or to 0."""
    try:
        value = scale()
    except ArithmeticError:  # a square overflows, or a divisor underflows
        value = math.nan
    if not sys.float_info.min <= value < math.inf:
        raise ValueError("%s leaves the normal float range at %s" % (
            what, ", ".join("%s = %r" % item for item in pars.items())))
    return value


# `_require`'s rules: wording, and test ("finite" takes a complex value)
_RULES = {
    "positive": ("must be positive and finite", lambda v: 0 < v < math.inf),
    ">= 0": ("must be >= 0 and finite", lambda v: 0 <= v < math.inf),
    "finite": ("must be finite",
               lambda v: math.isfinite(v.real) and math.isfinite(v.imag)),
}


def _require(where, rule, **values):
    """Raise ValueError("<where>: <name> must be <rule>, got <value!r>") at
    the first of values that breaks the rule of `_RULES`."""
    wording, test = _RULES[rule]
    for name, value in values.items():
        if not test(value):
            raise ValueError("%s: %s %s, got %r"
                             % (where, name, wording, value))


def _require_index(name, value):
    """value as an int where operator.index takes it; a bool, which it also
    takes, or anything else raises ValueError naming the parameter."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r"
                         % (name, value)) from None


@dataclass(frozen=True)
class PlanckUnits:
    lam: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    G: float = 1.0

    def __post_init__(self):
        _require("PlanckUnits", "positive", lam=self.lam, c=self.c,
                 hbar=self.hbar, G=self.G)
        _normal_scale(lambda: self.m_p,
                      "PlanckUnits: the Planck mass hbar/(lam c^2)",
                      lam=self.lam, c=self.c, hbar=self.hbar)

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
    """fn of each element of the 1-d array x, one libm call each (numpy's
    ufuncs round differently); `dispersion` shares it."""
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


def _ratios(x):
    """(m_I/m, m_G/m, V0/(m c^2)) at one x > 0: 30-digit mpmath below
    SMALL_X, double closed forms above, m_G by `_mg_closed` (which refuses
    an x above X_MAX)."""
    if x < SMALL_X:
        import mpmath  # here, so that only this branch loads it
        with mpmath.workdps(30):
            xm = mpmath.mpf(x)
            sinh = mpmath.sinh(xm)
            mi = sinh / xm * mpmath.exp(-xm)
            mg = (xm + mpmath.exp(-xm) - 1) / (xm / 2 * sinh)
            v0 = xm / sinh * (1 - mpmath.sinh(xm / 2) / (xm / 2))
            return float(mi), float(mg), float(v0)
    mg = float(_mg_closed(np.array([x], dtype=float))[0])
    x = float(x)
    mi = math.sinh(x) / x * math.exp(-x)
    v0 = x / math.sinh(x) * (1 - math.sinh(x / 2) / (x / 2))
    return mi, mg, v0


def effective_params(m, units=PlanckUnits()):
    """The effective masses and V_0 at mass m: an m not positive and finite,
    or an x = m/m_p outside the normal floats or above X_MAX, raises
    ValueError naming it.  Every field is finite."""
    _require("effective_params", "positive", m=m)
    x = _normal_scale(lambda: m * units.c ** 2 * units.lam / units.hbar,
                      "effective_params: x = m/m_p", m=m, units=units)
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


def figure1_data(x_max, n_points):
    """Rows (x, m_I/m_p, m_G/m_p, V0/(m_p c^2)) on a uniform x grid of
    n_points up to x_max: an x_max not positive and finite (or above X_MAX)
    or an n_points not an integer >= 2 raises ValueError naming it.  Every
    cell is finite."""
    n_points = _require_index("n_points", n_points)
    _require("figure1_data", "positive", x_max=x_max)
    if n_points < 2:
        raise ValueError("figure1_data: n_points must be >= 2, got %r"
                         % n_points)
    xs = np.linspace(x_max / n_points, x_max, n_points)
    return np.column_stack([xs, mI_over_mp(xs), mG_over_mp(xs),
                            V0_over_mpc2(xs)])


def dark_energy_estimate(m_U, r_U, c=1.0):
    """Constant-term energy density -(m_p c^2 / 2) (m_U / (4.5 m_p r_U^3)),
    i.e. a mass density of magnitude m_U / (9 r_U^3); the sign is opposite to
    observed dark energy and is reported as such; m_p cancels, so c is the
    one constant read.  An m_U not >= 0 and finite, an r_U or c not positive
    and finite, a 9 r_U^3 outside the normal floats, a mass density that
    overflows, or (m_U > 0) an energy density that underflows raises
    ValueError naming it; one that overflows is -inf.  Where c^2 overflows
    (c above about 1.34e154) the density is multiplied by c twice."""
    _require("dark_energy_estimate", "finite", m_U=m_U, r_U=r_U)
    _require("dark_energy_estimate", ">= 0", m_U=m_U)
    _require("dark_energy_estimate", "positive", r_U=r_U, c=c)
    mass_density = m_U / _normal_scale(lambda: 9.0 * r_U ** 3,
                                       "dark_energy_estimate: 9 r_U^3",
                                       r_U=r_U)
    if mass_density == math.inf:
        raise ValueError("dark_energy_estimate: the mass density m_U/(9 "
                         "r_U^3) overflows at m_U = %r, r_U = %r"
                         % (m_U, r_U))
    try:
        energy_density = -mass_density * c ** 2
    except OverflowError:  # c^2 overflows; the energy density need not
        energy_density = -(mass_density * c) * c
    if m_U > 0 and -energy_density < sys.float_info.min:
        raise ValueError("dark_energy_estimate: the energy density -m_U c^2/"
                         "(9 r_U^3) underflows at m_U = %r, r_U = %r, c = %r"
                         % (m_U, r_U, c))
    return {
        "mass_density": mass_density,
        "energy_density": energy_density,
        "sign": "negative (opposite to observed dark energy)",
        "assumes": "all ordinary mass at the V0 minimum depth m_p c^2 / 2 "
                   "per 4.5 m_p of constituent mass",
    }

"""Radial profiles and the mu/nu first-order ODE system.

The profile functions beta(r), mu(r), nu(r) and the gravitational potential
Phi(r) all live here as ``RadialProfile`` objects: closed forms with
analytic derivatives, their sums and scalings, or the quadrature solutions
of ``mu_nu_numeric``.  The radial
reduction x_i d/dx_i = r d/dr is used throughout (all paper profiles are
spherically symmetric), so the ODE system reads

    r mu' + 2 mu = beta,      r nu' + nu = mu.

The static metric and the weak-field Poisson check, which only the registry
runs, live in `verify` beside their checks.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .effective import _normal_scale, _require_index

# n within POWER_WINDOW of 1 or 2 takes the closed-form power-law family, here
# and in timeops.delta0_power: nearer than that, the generic formulas divide
# by 1 - n or 2 - n and cancel away most of their digits.
POWER_WINDOW = 1e-9


class RadialProfile:
    """Function of radius r > 0: closed-form, or a quadrature.

    The numeric mu, nu of ``mu_nu_numeric`` are quadrature solutions of the
    ODE, looked up on their grid and solved by the same quadrature off it,
    with derivatives from the ODE itself.

    A profile converts r once: its functions receive np.asarray(r,
    dtype=float), so a radius given as ints or a list reaches them as
    float64.  ``structure`` is None or a list of (n, coef) pairs meaning the
    profile is sum coef * r^{-n} (n = 0 is the constant); it is the only
    thing that lets waveops.box_general take the closed-form Delta_0.
    ``constant``, ``power_law`` and ``mu_nu_newton``'s beta set it; sums and
    scalings leave it None and are evaluated pointwise.  A profile built
    without a derivative raises ValueError, naming the order, where that one
    is asked for.
    """

    def __init__(self, fn, deriv=None, deriv2=None, structure=None):
        self._fn = fn
        self._deriv = deriv
        self._deriv2 = deriv2
        self.structure = structure

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, value):
        return cls(lambda r: np.full_like(np.asarray(r, dtype=complex), value),
                   deriv=lambda r: np.zeros_like(np.asarray(r, dtype=complex)),
                   deriv2=lambda r: np.zeros_like(np.asarray(r, dtype=complex)),
                   structure=[(0, value)])

    @classmethod
    def power_law(cls, n, coef=1.0):
        """coef * r^{-n}."""
        return cls(lambda r: coef * r ** (-n),
                   deriv=lambda r: -n * coef * r ** (-n - 1),
                   deriv2=lambda r: n * (n + 1) * coef * r ** (-n - 2),
                   structure=[(n, coef)])

    # -- evaluation ---------------------------------------------------
    def __call__(self, r):
        return self._fn(np.asarray(r, dtype=float))

    def deriv(self, r):
        return self._derivative(self._deriv, "first", r)

    def deriv2(self, r):
        return self._derivative(self._deriv2, "second", r)

    def _derivative(self, fn, order, r):
        if fn is None:
            raise ValueError("the profile was built without a %s derivative"
                             % order)
        return fn(np.asarray(r, dtype=float))

    # -- linear structure --------------------------------------------
    def __add__(self, other):
        return RadialProfile(
            lambda r: self(r) + other(r),
            deriv=lambda r: self.deriv(r) + other.deriv(r),
            deriv2=lambda r: self.deriv2(r) + other.deriv2(r))


# ---------------------------------------------------------------------------
# closed-form mu/nu families
# ---------------------------------------------------------------------------

def mu_nu_closed(n):
    """Particular mu, nu for beta = 1/r^n.

    n = 1: mu = 1/r, nu = ln(r)/r;  n = 2: mu = ln(r)/r^2, nu = -(1+ln r)/r^2;
    otherwise mu = 1/((2-n) r^n), nu = 1/((2-n)(1-n) r^n).  n counts as 1 or
    2 within POWER_WINDOW, the window timeops.delta0_power uses.  The n = 2 nu
    sign is fixed by the ODE r nu' + nu = mu and by the n -> 2 limit of the
    generic family after removing the homogeneous 1/(eps r^2) piece.
    """
    if abs(n - 1) < POWER_WINDOW:
        mu = RadialProfile.power_law(1)
        nu = RadialProfile(lambda r: np.log(r) / r,
                           deriv=lambda r: (1 - np.log(r)) / r ** 2)
        return mu, nu
    if abs(n - 2) < POWER_WINDOW:
        mu = RadialProfile(lambda r: np.log(r) / r ** 2,
                           deriv=lambda r: (1 - 2 * np.log(r)) / r ** 3)
        nu = RadialProfile(lambda r: -(1 + np.log(r)) / r ** 2,
                           deriv=lambda r: (1 + 2 * np.log(r)) / r ** 3)
        return mu, nu
    mu = RadialProfile.power_law(n, 1.0 / (2 - n))
    nu = RadialProfile.power_law(n, 1.0 / ((2 - n) * (1 - n)))
    return mu, nu


def mu_nu_newton(gamma, c):
    """The Newtonian-potential profiles:

    beta = -(1/c^2)(1 + gamma/r),  mu = -(1/c^2)(1/2 + gamma/r),
    nu = -(1/c^2)(1/2 - (gamma/r) ln(gamma/r)).

    beta's structure [(0, -1/c^2), (1, -gamma/c^2)] (a constant plus a 1/r
    power law) lets the wave operators take Delta_0 term by term.  Refused
    by name: gamma or c not positive and finite, or c^2 not a normal float
    (`effective._normal_scale`), where 1/c^2 would not be finite.
    """
    if not (0 < gamma < math.inf and 0 < c < math.inf):
        raise ValueError("gamma and c must be positive")
    c2 = _normal_scale(lambda: c ** 2, "mu_nu_newton: c^2", c=c)
    inv_c2 = 1.0 / c2
    beta = RadialProfile(
        lambda r: -inv_c2 * (1 + gamma / r),
        deriv=lambda r: inv_c2 * gamma / r ** 2,
        deriv2=lambda r: -2 * inv_c2 * gamma / r ** 3,
        structure=[(0, -1 / c2), (1, -gamma / c2)])
    mu = RadialProfile(lambda r: -inv_c2 * (0.5 + gamma / r),
                       deriv=lambda r: inv_c2 * gamma / r ** 2)

    def nu_fn(r):
        g = gamma / r
        return -inv_c2 * (0.5 - g * np.log(g))

    def nu_deriv(r):
        g = gamma / r
        # d/dr [g ln g] = -(g/r)(ln g + 1)
        return -inv_c2 * (g / r) * (np.log(g) + 1)

    nu = RadialProfile(nu_fn, deriv=nu_deriv)
    return beta, mu, nu


def ode_residuals(beta, mu, nu, r):
    """|r mu' + 2 mu - beta| and |r nu' + nu - mu|, relative."""
    r = np.asarray(r, dtype=float)
    res_mu = r * mu.deriv(r) + 2 * mu(r) - beta(r)
    res_nu = r * nu.deriv(r) + nu(r) - mu(r)
    scale_mu = np.maximum(np.abs(beta(r)), 1e-30)
    scale_nu = np.maximum(np.abs(mu(r)), 1e-30)
    return np.abs(res_mu) / scale_mu, np.abs(res_nu) / scale_nu


def mu_nu_table(rmin, rmax, nodes, n=None, gamma=None, c=1.0):
    """The mu-nu table on default_log_grid(rmin, rmax, nodes): a record
    array with one row per radius and the fields r, beta, mu, nu, res_mu and
    res_nu (`ode_residuals`).  The profiles are mu_nu_newton(gamma, c) when
    gamma is given, else beta = 1/r^n with mu_nu_closed(n); giving both, or
    neither, or a grid outside 0 < rmin < rmax < inf, nodes >= 2, or a
    nodes that is not an integer, raises ValueError.  Each profile is
    evaluated on the whole grid; a cell beyond the float range is inf or
    nan, unwarned, for the caller to refuse."""
    if (n is None) == (gamma is None):
        raise ValueError("mu_nu_table takes exactly one profile: n or gamma")
    nodes = _require_index("nodes", nodes)
    if not (0 < rmin < rmax < math.inf and nodes >= 2):
        raise ValueError("mu_nu_table needs 0 < rmin < rmax < inf and nodes "
                         ">= 2, got rmin = %r, rmax = %r, nodes = %r"
                         % (rmin, rmax, nodes))
    if gamma is not None:
        beta, mu, nu = mu_nu_newton(gamma, c)
    else:
        mu, nu = mu_nu_closed(n)
        beta = RadialProfile.power_law(n)
    r = default_log_grid(rmin, rmax, nodes)
    with np.errstate(all="ignore"):
        return np.rec.fromarrays([r, beta(r), mu(r), nu(r),
                                  *ode_residuals(beta, mu, nu, r)],
                                 names="r,beta,mu,nu,res_mu,res_nu")


# Gauss-Legendre order of mu_nu_numeric's panels, and the widest panel (as
# the ratio b/a of its ends) it takes before splitting a gap geometrically
GL_ORDER = 8
PANEL_RATIO = 1.25


@functools.cache
def _gauss_rule():
    # here, so that importing geometry loads no numpy.polynomial
    return np.polynomial.legendre.leggauss(GL_ORDER)


def _panel_integrals(beta, a, b, extra):
    """The integrals of s beta(s) and of beta(s) from a to b, per element of
    the arrays a and b (either order), and beta at the points `extra`, from
    one beta call.  Each gap is split into geometric panels of ratio at most
    PANEL_RATIO, and each panel takes GL_ORDER Gauss-Legendre nodes."""
    x, w = _gauss_rule()
    m = np.maximum(np.ceil(np.abs(np.log(b / a)) / math.log(PANEL_RATIO)),
                   1).astype(int)
    owner = np.repeat(np.arange(a.size), m)
    starts = np.cumsum(m) - m
    j = np.arange(owner.size) - starts[owner]
    a_o, b_o, m_o = a[owner], b[owner], m[owner]
    lo = a_o * (b_o / a_o) ** (j / m_o)
    hi = np.where(j + 1 == m_o, b_o, a_o * (b_o / a_o) ** ((j + 1) / m_o))
    half = (hi - lo) / 2
    nodes = (lo + hi)[:, None] / 2 + half[:, None] * x
    values = np.asarray(beta(np.concatenate([nodes.ravel(), extra])))
    at_nodes = values[:nodes.size].reshape(nodes.shape)
    s_beta = np.add.reduceat(half * ((nodes * at_nodes) @ w), starts)
    plain = np.add.reduceat(half * (at_nodes @ w), starts)
    return s_beta, plain, values[nodes.size:]


def _cumsum(x):
    """np.cumsum with the rounding error of each addition (TwoSum) summed
    apart and added back, so the error does not grow with the length."""
    total = np.cumsum(x)
    before = np.concatenate([np.zeros(1, dtype=total.dtype), total[:-1]])
    step = total - before
    return total + np.cumsum((before - (total - step)) + (x - step))


def mu_nu_numeric(beta, r_ref, mu_ref, nu_ref, r_grid):
    """Solve r mu' + 2 mu = beta, r nu' + nu = mu with mu(r_ref) = mu_ref and
    nu(r_ref) = nu_ref, as quadratures of beta.

    (r^2 mu)' = r beta and (r nu)' = mu give, with I(r) the integral of
    s beta(s) and B(r) that of beta(s) from r_ref to r (the nu line
    integrates by parts),

        mu(r) = (r_ref^2 mu_ref + I(r)) / r^2,
        nu(r) = (r_ref nu_ref + r_ref^2 mu_ref (1/r_ref - 1/r) - I(r)/r
                 + B(r)) / r
              = (r_ref (mu_ref + nu_ref) + B(r) - r mu(r)) / r,

    the last form being the one summed, with the fewest large terms.

    I and B are summed outward from the pin over r_grid and r_ref: each gap
    is split into geometric panels of ratio at most PANEL_RATIO and each
    panel takes GL_ORDER = 8 Gauss-Legendre nodes, exact for polynomials of
    degree 15.  On a panel of width h the error is h^17 (8!)^4 / (17 (16!)^3)
    |f^(16)| (the factor is 1.7e-23), at rounding for f = s^-k with k <= 6
    at ratio 1.25.  The running sums carry each addition's rounding error,
    so they do not lose digits with the grid's length.  What remains is the
    pin's own conditioning: where the solution falls off faster than the
    homogeneous r^-2 (mu) and r^-1 (nu), a relative error eps in the pin
    data grows by the ratio of the two, e.g. (r / r_ref)^(n-1) for nu of
    beta = r^-n, n > 2.

    All of it is done here, with one beta call: the profiles look up mu, nu
    and beta on r_grid (and r_ref).  A radius off that set, inside or outside
    [r_grid[0], r_grid[-1]], is solved by the same quadrature over r_grid,
    r_ref and that radius, not interpolated.  The derivatives are the ODE:
    mu' = (beta - 2 mu)/r and nu' = (mu - nu)/r.  The values are real when
    every imaginary part on the grid is exactly 0 (a real beta with real
    pins), complex otherwise, however small.  A grid that does not increase,
    or a radius or pin that is not finite, raises ValueError naming it."""
    r_grid = np.asarray(r_grid, dtype=float)
    if (r_grid.ndim != 1 or not np.all((r_grid > 0) & (r_grid < math.inf))
            or np.any(np.diff(r_grid) <= 0)):
        raise ValueError("r_grid must be strictly increasing, positive and "
                         "finite")
    if not 0 < r_ref < math.inf:
        raise ValueError("r_ref must be positive and finite, got %r"
                         % (r_ref,))
    r_ref = float(r_ref)
    mu_ref, nu_ref = complex(mu_ref), complex(nu_ref)
    for name, value in (("mu_ref", mu_ref), ("nu_ref", nu_ref)):
        if not cmath.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    pin_mu, pin_nu = r_ref ** 2 * mu_ref, r_ref * (mu_ref + nu_ref)

    def solution(r, s_beta, plain):
        r2_mu = pin_mu + s_beta
        return r2_mu / r ** 2, (pin_nu + plain - r2_mu / r) / r

    radii = np.union1d(r_grid, [r_ref])
    pin = int(np.searchsorted(radii, r_ref))
    gap_sb, gap_b, beta_at = _panel_integrals(beta, radii[:-1], radii[1:],
                                              radii)
    s_beta = np.zeros(radii.size, dtype=complex)
    plain = np.zeros(radii.size, dtype=complex)
    for total, gaps in ((s_beta, gap_sb), (plain, gap_b)):
        total[pin + 1:] = _cumsum(gaps[pin:])
        total[:pin] = -_cumsum(gaps[:pin][::-1])[::-1]
    mu_at, nu_at = solution(radii, s_beta, plain)
    real = np.all(mu_at.imag == 0) and np.all(nu_at.imag == 0)
    cast = np.real if real else np.asarray
    mu_at, nu_at = cast(mu_at), cast(nu_at)
    beta_at = cast(np.asarray(beta_at, dtype=complex))

    def solve(r):
        """mu, nu and beta at r: looked up on the grid, solved off it."""
        flat = r.ravel()
        k = np.minimum(np.searchsorted(radii, flat), radii.size - 1)
        off = radii[k] != flat
        mu, nu, b = mu_at[k], nu_at[k], beta_at[k]
        if off.any():
            x = flat[off]
            if not np.all((x > 0) & (x < math.inf)):
                raise ValueError("mu and nu are defined for finite r > 0")
            # the neighbour on the pin's side, from which x's last panel runs
            near = np.searchsorted(radii, x) - (x > r_ref)
            sb, pb, bx = _panel_integrals(beta, radii[near], x, x)
            mx, nx = solution(x, s_beta[near] + sb, plain[near] + pb)
            mu[off], nu[off] = cast(mx), cast(nx)
            b[off] = cast(np.asarray(bx, dtype=complex))
        return mu.reshape(r.shape), nu.reshape(r.shape), b.reshape(r.shape)

    def d_mu(r):
        mu, _, b = solve(r)
        return (b - 2 * mu) / r

    def d_nu(r):
        mu, nu, _ = solve(r)
        return (mu - nu) / r

    return (RadialProfile(lambda r: solve(r)[0], deriv=d_mu),
            RadialProfile(lambda r: solve(r)[1], deriv=d_nu))


def default_log_grid(rmin, rmax, n):
    return np.geomspace(rmin, rmax, n)

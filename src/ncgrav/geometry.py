"""Radial profiles, the mu/nu first-order ODE system and weak-field checks.

The profile functions beta(r), mu(r), nu(r) and the gravitational potential
Phi(r) all live here as ``RadialProfile`` objects: closed forms with
analytic derivatives, sampled data with spline evaluation, or the quadrature
solutions of ``mu_nu_numeric``.  The radial
reduction x_i d/dx_i = r d/dr is used throughout (all paper profiles are
spherically symmetric), so the ODE system reads

    r mu' + 2 mu = beta,      r nu' + nu = mu.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .timeops import POWER_WINDOW


class SignatureError(ValueError):
    """beta >= 0 somewhere: the static metric loses Lorentzian signature."""


class RadialProfile:
    """Function of radius r > 0: closed-form, sampled, or a quadrature.

    Sampled profiles (``from_samples``, ``from_csv``) are cubic splines
    through CSV data.  The numeric mu, nu of ``mu_nu_numeric`` are not: they
    are quadrature solutions of the ODE, looked up on their grid and solved
    by the same quadrature off it, with derivatives from the ODE itself.

    ``structure`` is None or a list of (n, coef) pairs meaning the profile is
    sum coef * r^{-n} (n = 0 is the constant); it is the only thing that lets
    waveops.box_general take the closed-form Delta_0.  ``constant``,
    ``power_law`` and ``mu_nu_newton``'s beta set it; sampled profiles (from
    ``from_samples`` or ``from_csv``), sums and scalings leave it None and are
    evaluated pointwise.  ``tag`` only describes the profile: it is the CSV
    header text and is never dispatched on.
    """

    def __init__(self, fn, deriv=None, deriv2=None, tag=None, structure=None):
        self._fn = fn
        self._deriv = deriv
        self._deriv2 = deriv2
        self.tag = tag or {"kind": "closed-form"}
        self.structure = structure

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, value):
        return cls(lambda r: np.full_like(np.asarray(r, dtype=complex), value),
                   deriv=lambda r: np.zeros_like(np.asarray(r, dtype=complex)),
                   deriv2=lambda r: np.zeros_like(np.asarray(r, dtype=complex)),
                   tag={"kind": "constant", "value": value},
                   structure=[(0, value)])

    @classmethod
    def power_law(cls, n, coef=1.0):
        """coef * r^{-n}."""
        return cls(lambda r: coef * np.asarray(r, dtype=float) ** (-n),
                   deriv=lambda r: -n * coef * np.asarray(r, dtype=float) ** (-n - 1),
                   deriv2=lambda r: n * (n + 1) * coef
                   * np.asarray(r, dtype=float) ** (-n - 2),
                   tag={"kind": "power-law", "n": n, "coef": coef},
                   structure=[(n, coef)])

    @classmethod
    def from_samples(cls, r, values, tag=None):
        from scipy.interpolate import CubicSpline

        r = np.asarray(r, dtype=float)
        if r.size < 16:
            raise ValueError("sampled profiles need >= 16 nodes")
        if np.any(r <= 0) or np.any(np.diff(r) <= 0):
            raise ValueError("r grid must be strictly increasing and positive")
        values = np.asarray(values)
        if np.iscomplexobj(values):
            sp_re = CubicSpline(r, values.real)
            sp_im = CubicSpline(r, values.imag)
            fn = lambda x: sp_re(x) + 1j * sp_im(x)
            dfn = lambda x: sp_re(x, 1) + 1j * sp_im(x, 1)
            d2fn = lambda x: sp_re(x, 2) + 1j * sp_im(x, 2)
        else:
            sp = CubicSpline(r, values)
            fn = lambda x: sp(x)
            dfn = lambda x: sp(x, 1)
            d2fn = lambda x: sp(x, 2)
        return cls(fn, deriv=dfn, deriv2=d2fn,
                   tag=tag or {"kind": "sampled", "n_nodes": int(r.size)})

    # -- evaluation ---------------------------------------------------
    def __call__(self, r):
        return self._fn(np.asarray(r))

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        if self._deriv is not None:
            return self._deriv(r)
        h = np.maximum(1e-6 * r, 1e-9)
        return (self._fn(r + h) - self._fn(r - h)) / (2 * h)

    def deriv2(self, r):
        r = np.asarray(r, dtype=float)
        if self._deriv2 is not None:
            return self._deriv2(r)
        h = np.maximum(1e-5 * r, 1e-8)
        return (self._fn(r + h) - 2 * self._fn(r) + self._fn(r - h)) / h ** 2

    # -- linear structure --------------------------------------------
    def __add__(self, other):
        return RadialProfile(
            lambda r: self(r) + other(r),
            deriv=lambda r: self.deriv(r) + other.deriv(r),
            deriv2=lambda r: self.deriv2(r) + other.deriv2(r),
            tag={"kind": "sum"})

    def scale(self, c):
        return RadialProfile(
            lambda r: c * self(r),
            deriv=lambda r: c * self.deriv(r),
            deriv2=lambda r: c * self.deriv2(r),
            tag={"kind": "scaled", "base": self.tag, "factor": c})

    # -- CSV round trip ----------------------------------------------
    def to_csv(self, path, r_grid):
        r_grid = np.asarray(r_grid, dtype=float)
        vals = np.asarray(self(r_grid), dtype=complex)
        with open(path, "w") as fh:
            fh.write("# %s\n" % json.dumps(self.tag))
            fh.write("r,value_re,value_im\n")
            for rv, v in zip(r_grid, vals):
                fh.write("%.12e,%.12e,%.12e\n" % (rv, v.real, v.imag))

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            header = fh.readline()
            tag = json.loads(header.lstrip("# ").strip()) if header.startswith("#") \
                else None
            fh.readline()  # column names
            rows = [line.strip().split(",") for line in fh if line.strip()]
        r = np.array([float(row[0]) for row in rows])
        vals = np.array([complex(float(row[1]), float(row[2])) for row in rows])
        if np.all(vals.imag == 0):
            vals = vals.real
        return cls.from_samples(r, vals, tag=tag)


# ---------------------------------------------------------------------------
# closed-form mu/nu families
# ---------------------------------------------------------------------------

def mu_nu_closed(n):
    """Particular mu, nu for beta = 1/r^n.

    n = 1: mu = 1/r, nu = ln(r)/r;  n = 2: mu = ln(r)/r^2, nu = -(1+ln r)/r^2;
    otherwise mu = 1/((2-n) r^n), nu = 1/((2-n)(1-n) r^n).  n counts as 1 or
    2 within timeops.POWER_WINDOW, the window delta0_power uses.  The n = 2 nu
    sign is fixed by the ODE r nu' + nu = mu and by the n -> 2 limit of the
    generic family after removing the homogeneous 1/(eps r^2) piece.
    """
    if abs(n - 1) < POWER_WINDOW:
        mu = RadialProfile.power_law(1)
        nu = RadialProfile(
            lambda r: np.log(np.asarray(r, dtype=float)) / np.asarray(r, dtype=float),
            deriv=lambda r: (1 - np.log(r)) / np.asarray(r, dtype=float) ** 2,
            tag={"kind": "log-over-r"})
        return mu, nu
    if abs(n - 2) < POWER_WINDOW:
        mu = RadialProfile(
            lambda r: np.log(np.asarray(r, dtype=float)) / np.asarray(r, dtype=float) ** 2,
            deriv=lambda r: (1 - 2 * np.log(r)) / np.asarray(r, dtype=float) ** 3,
            tag={"kind": "log-over-r2"})
        nu = RadialProfile(
            lambda r: -(1 + np.log(np.asarray(r, dtype=float)))
            / np.asarray(r, dtype=float) ** 2,
            deriv=lambda r: (1 + 2 * np.log(r)) / np.asarray(r, dtype=float) ** 3,
            tag={"kind": "neg-one-plus-log-over-r2"})
        return mu, nu
    mu = RadialProfile.power_law(n, 1.0 / (2 - n))
    nu = RadialProfile.power_law(n, 1.0 / ((2 - n) * (1 - n)))
    return mu, nu


def mu_nu_newton(gamma, c):
    """The Newtonian-potential profiles:

    beta = -(1/c^2)(1 + gamma/r),  mu = -(1/c^2)(1/2 + gamma/r),
    nu = -(1/c^2)(1/2 - (gamma/r) ln(gamma/r)).

    beta's structure [(0, -1/c^2), (1, -gamma/c^2)] (a constant plus a 1/r
    power law) lets the wave operators take Delta_0 term by term.
    """
    if gamma <= 0 or c <= 0:
        raise ValueError("gamma and c must be positive")
    try:
        c2 = c ** 2
    except OverflowError:
        raise ValueError("c^2 overflows at c = %g" % c) from None
    if c2 == 0:
        raise ValueError("c^2 underflows to 0 at c = %g" % c)
    inv_c2 = 1.0 / c2
    beta = RadialProfile(
        lambda r: -inv_c2 * (1 + gamma / np.asarray(r, dtype=float)),
        deriv=lambda r: inv_c2 * gamma / np.asarray(r, dtype=float) ** 2,
        deriv2=lambda r: -2 * inv_c2 * gamma / np.asarray(r, dtype=float) ** 3,
        tag={"kind": "newtonian-beta", "gamma": gamma, "c": c},
        structure=[(0, -1 / c2), (1, -gamma / c2)])
    mu = RadialProfile(
        lambda r: -inv_c2 * (0.5 + gamma / np.asarray(r, dtype=float)),
        deriv=lambda r: inv_c2 * gamma / np.asarray(r, dtype=float) ** 2,
        tag={"kind": "newtonian-mu", "gamma": gamma, "c": c})

    def nu_fn(r):
        r = np.asarray(r, dtype=float)
        g = gamma / r
        return -inv_c2 * (0.5 - g * np.log(g))

    def nu_deriv(r):
        r = np.asarray(r, dtype=float)
        g = gamma / r
        # d/dr [g ln g] = -(g/r)(ln g + 1)
        return -inv_c2 * (g / r) * (np.log(g) + 1)

    nu = RadialProfile(nu_fn, deriv=nu_deriv,
                       tag={"kind": "newtonian-nu", "gamma": gamma, "c": c})
    return beta, mu, nu


def ode_residuals(beta, mu, nu, r):
    """|r mu' + 2 mu - beta| and |r nu' + nu - mu|, relative."""
    r = np.asarray(r, dtype=float)
    res_mu = r * mu.deriv(r) + 2 * mu(r) - beta(r)
    res_nu = r * nu.deriv(r) + nu(r) - mu(r)
    scale_mu = np.maximum(np.abs(beta(r)), 1e-30)
    scale_nu = np.maximum(np.abs(mu(r)), 1e-30)
    return np.abs(res_mu) / scale_mu, np.abs(res_nu) / scale_nu


def mu_nu_table(r_min, r_max, nodes, n=None, gamma=None, c=1.0):
    """The mu-nu table on default_log_grid(r_min, r_max, nodes): a record
    array with one row per radius and the fields r, beta, mu, nu, res_mu and
    res_nu (`ode_residuals`).  The profiles are mu_nu_newton(gamma, c) when
    gamma is given, else beta = 1/r^n with mu_nu_closed(n); giving both, or
    neither, raises ValueError.  Each profile is evaluated on the whole grid;
    a cell beyond the float range is inf or nan, for the caller to refuse."""
    if (n is None) == (gamma is None):
        raise ValueError("mu_nu_table takes exactly one profile: n or gamma")
    if gamma is not None:
        beta, mu, nu = mu_nu_newton(gamma, c)
    else:
        mu, nu = mu_nu_closed(n)
        beta = RadialProfile.power_law(n)
    r = default_log_grid(r_min, r_max, nodes)
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
    pins), complex otherwise, however small."""
    r_grid = np.asarray(r_grid, dtype=float)
    if (r_grid.ndim != 1 or not r_ref > 0 or not np.all(r_grid > 0)
            or np.any(np.diff(r_grid) <= 0)):
        raise ValueError("r grid must be strictly increasing and positive, "
                         "and r_ref positive")
    r_ref = float(r_ref)
    mu_ref, nu_ref = complex(mu_ref), complex(nu_ref)
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
        r = np.asarray(r, dtype=float)
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
        return (b - 2 * mu) / np.asarray(r, dtype=float)

    def d_nu(r):
        mu, nu, _ = solve(r)
        return (mu - nu) / np.asarray(r, dtype=float)

    return (RadialProfile(lambda r: solve(r)[0], deriv=d_mu,
                          tag={"kind": "numeric-mu"}),
            RadialProfile(lambda r: solve(r)[1], deriv=d_nu,
                          tag={"kind": "numeric-nu"}))


# ---------------------------------------------------------------------------
# finite differences on a (possibly nonuniform) radial grid
# ---------------------------------------------------------------------------

def fd1(values, r):
    """First derivative, 3-point nonuniform centered, one-sided at the ends."""
    values = np.asarray(values)
    r = np.asarray(r, dtype=float)
    out = np.empty_like(values, dtype=complex if np.iscomplexobj(values) else float)
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    out[1:-1] = (-hp / (hm * (hm + hp)) * values[:-2]
                 + (hp - hm) / (hm * hp) * values[1:-1]
                 + hm / (hp * (hm + hp)) * values[2:])
    out[0] = (values[1] - values[0]) / (r[1] - r[0])
    out[-1] = (values[-1] - values[-2]) / (r[-1] - r[-2])
    return out


def fd2(values, r):
    """Second derivative, 3-point nonuniform; copies neighbors at the ends."""
    values = np.asarray(values)
    r = np.asarray(r, dtype=float)
    out = np.empty_like(values, dtype=complex if np.iscomplexobj(values) else float)
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    out[1:-1] = 2 * (hp * values[:-2] - (hm + hp) * values[1:-1] + hm * values[2:]) \
        / (hm * hp * (hm + hp))
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def laplacian_flat_radial(values, r):
    """3D flat Laplacian of a radial function: f'' + (2/r) f'."""
    return fd2(values, r) + 2.0 / np.asarray(r, dtype=float) * fd1(values, r)


# ---------------------------------------------------------------------------
# static metric and weak-field checks
# ---------------------------------------------------------------------------

class StaticMetric:
    """g = (1/beta) dt x dt + dx_i x dx_i with beta < 0."""

    def __init__(self, beta_profile, r_check=None):
        self.beta = beta_profile
        if r_check is not None:
            b = np.asarray(self.beta(r_check)).real
            if np.any(b >= 0):
                raise SignatureError("beta >= 0 on the check grid")

    def phi(self, r):
        b = np.asarray(self.beta(r), dtype=complex)
        return np.sqrt(-1.0 / b).real

    def laplace_beltrami_static(self, values, r):
        """LB operator on time-independent radial f: the conformal-factor form
        |beta|^{1/2} d_i (|beta|^{-1/2} d_i f) on radial functions."""
        r = np.asarray(r, dtype=float)
        w = np.abs(np.asarray(self.beta(r)).real) ** -0.5
        inner = w * fd1(values, r)
        return (fd1(inner, r) + 2.0 / r * inner) / w

    def laplace_beltrami_expanded(self, values, r):
        """Same operator in expanded form: flat Laplacian minus the drift
        (1/(2 beta)) beta' d/dr."""
        r = np.asarray(r, dtype=float)
        b = np.asarray(self.beta(r))
        bp = np.asarray(self.beta.deriv(r))
        return laplacian_flat_radial(values, r) - bp / (2 * b) * fd1(values, r)


# nodes at each end of the grid left out of weak_field_check's maxima
INTERIOR_MARGIN = 3


def weak_field_check(phi_profile, rho_profile, c, G, r_grid):
    """Compare Ricci_00 = phi LB_flat phi against LB_flat Phi and against the
    Poisson source 4 pi G rho, by radial finite differences.

    Boundary-affected nodes (INTERIOR_MARGIN at each end) are excluded from
    the reported maxima.
    """
    r = np.asarray(r_grid, dtype=float)
    Phi = np.asarray(phi_profile(r)).real
    if np.max(np.abs(Phi)) / c ** 2 > 0.1:
        import warnings
        warnings.warn("Phi/c^2 not small: weak-field comparison dubious")
    u = Phi / c ** 2
    if np.any(1 - 2 * u <= 0):
        raise SignatureError("beta >= 0 somewhere on the grid")
    # phi_m = c (1 - 2u)^{-1/2}; carry only the deviation from c so that the
    # finite differences are not quantized at the scale c * eps
    dphi = c * np.expm1(-0.5 * np.log1p(-2 * u))
    phi_m = c + dphi
    sl = slice(INTERIOR_MARGIN, -INTERIOR_MARGIN)
    ricci00 = phi_m * laplacian_flat_radial(dphi, r)
    lap_phi = laplacian_flat_radial(Phi, r)
    rho = np.asarray(rho_profile(r)).real
    poisson_res = lap_phi - 4 * math.pi * G * rho
    scale = max(np.max(np.abs(lap_phi[sl])), 4 * math.pi * G * max(np.max(np.abs(rho)), 0)
                + 1e-300)
    dev = np.abs(ricci00[sl] - lap_phi[sl])
    return {
        "max_ricci00": float(np.max(np.abs(ricci00[sl]))),
        "max_lap_phi": float(np.max(np.abs(lap_phi[sl]))),
        "max_rel_deviation": float(np.max(dev) / scale),
        "max_poisson_residual": float(np.max(np.abs(poisson_res[sl]))),
        "poisson_scale": float(scale),
    }


def default_log_grid(r_min, r_max, n=400):
    return np.geomspace(r_min, r_max, n)

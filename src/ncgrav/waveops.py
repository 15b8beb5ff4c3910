"""Wave operators on separable fields (spatial part x time part).

Three variants of the box operator:

  box_const   : constant beta,  box psi = lap psi(t+il) + 2 Delta0^const psi
  box_general : varying beta,   box psi = Dbar psi(t+il) + 2 Delta0 psi with
                Dbar = lap - (1/2 beta) beta' d/dr
  box_newton  : the weak-field operator for beta = -(1/c^2)(1 + gamma/r),
                box_general on geometry.mu_nu_newton's beta

For box_general the spatial finite difference Delta0 takes the closed forms
when beta.structure lists it as a sum of power laws coef * r^{-n} (n = 0 the
constant): each piece is timeops.delta0_power(f, lam, n) weighted by
coef * r^{-n}.  Profiles without a structure (sums, scalings, quadratures,
other closed forms), or mode = "pointwise", sample psi, beta, mu and nu on
a grid and evaluate the varying finite difference on the whole grid at once
(one timeops.delta0_general call on a GridField).  That is a different
(non-resummed) object on logarithmic profiles -- see the mode flag.

kg_residual subtracts the mass term from a SeparableField box applied to psi.
"""

from __future__ import annotations

import numpy as np

from . import timeops
from .geometry import RadialProfile, mu_nu_newton


class PlaneWave:
    """Spatial factor e^{i k.x}; only |k| matters to the operators here."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = float(k)

    def __repr__(self):
        return "PlaneWave(k=%g)" % self.k


class SeparableField:
    """Finite sum of (spatial part, TimeFunction) products."""

    def __init__(self, terms=None):
        self.terms = list(terms) if terms else []

    @classmethod
    def single(cls, spatial, time_part):
        return cls([(spatial, time_part)])

    def __add__(self, other):
        return SeparableField(self.terms + other.terms)

    def scale(self, c):
        return SeparableField([(sp, f.scale(c)) for sp, f in self.terms])

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def to_grid(self, r):
        """Sample on the nodes r; PlaneWave terms are rejected (use the symbol
        arithmetic instead of sampling an angular function radially)."""
        data = {}
        for sp, f in self.terms:
            if isinstance(sp, PlaneWave):
                raise ValueError("plane-wave term has no radial sampling")
            sp_vals = np.asarray(sp(r), dtype=complex)
            for key, c in f.terms.items():
                data[key] = data.get(key, 0) + c * sp_vals
        return GridField(r, data)


class GridField:
    """psi(r, t) = sum_{p,s} A_{p,s}(r) t^p e^{st} with per-node coefficient
    arrays; closed under stencils with node-dependent weights and imaginary
    time shifts, so timeops.delta0_general evaluates on every node in one
    call.  Fields may share coefficient arrays, never written in place."""

    def __init__(self, r, data=None):
        self.r = np.asarray(r, dtype=float)
        self.data = dict(data) if data else {}

    def __add__(self, other):
        data = dict(self.data)
        for key, arr in other.data.items():
            data[key] = data.get(key, 0) + arr
        return GridField(self.r, data)

    def scale(self, c):
        """c may be a scalar or an array over the nodes."""
        return GridField(self.r, {k: c * v for k, v in self.data.items()})

    def stencil(self, taps, lam):
        """sum_j w_j psi(r, t + i lam a_j(r)) over taps [(w_j, a_j)]; w_j and
        a_j are scalars or arrays over the nodes, real or complex."""
        return GridField(self.r, timeops.stencil_terms(self.data, taps, lam,
                                                       np.exp))

    def evaluate(self, t):
        t = complex(t)
        total = np.zeros(self.r.shape, dtype=complex)
        for (p, s), arr in self.data.items():
            val = arr * t ** p if p else arr
            if s != 0:
                val = val * np.exp(s * t)
            total += val
        return total


DIFF_T_SAMPLES = (0.0, 0.37, -1.2, 2.5)


def field_max_diff(a, b, r):
    """Sup-norm difference over nodes and DIFF_T_SAMPLES, plus the larger of
    the two field norms (for forming relative errors)."""
    ga = a.to_grid(r) if isinstance(a, SeparableField) else a
    gb = b.to_grid(r) if isinstance(b, SeparableField) else b
    diff = max(np.max(np.abs(ga.evaluate(t) - gb.evaluate(t)))
               for t in DIFF_T_SAMPLES)
    scale = max(max(np.max(np.abs(g.evaluate(t))) for g in (ga, gb)
                    for t in DIFF_T_SAMPLES), 1e-300)
    return diff, scale


# ---------------------------------------------------------------------------
# spatial helpers
# ---------------------------------------------------------------------------

def _lap_profile(sp):
    """Flat 3D Laplacian of a radial profile as a new profile."""
    return RadialProfile(lambda r: sp.deriv2(r) + 2.0 / r * sp.deriv(r))


def _drift_profile(sp, beta):
    """-(1/2 beta) beta' d/dr applied to sp, as a profile; sampling it where
    beta = 0 raises ValueError naming those nodes."""
    def drift(r):
        b = np.asarray(beta(r), dtype=complex)
        zero = np.flatnonzero(b == 0)
        if zero.size:
            raise ValueError("box_general divides by beta, which is 0 at "
                             "node(s) %s (r = %s)" % (
                                 zero.tolist(), np.ravel(r)[zero].tolist()))
        return -beta.deriv(r) / (2 * b) * sp.deriv(r)
    return RadialProfile(drift)


# ---------------------------------------------------------------------------
# box variants
# ---------------------------------------------------------------------------

def box_const(psi, beta, lam):
    """Constant-beta wave operator; exact on plane-wave terms, the profile's
    own derivatives on radial terms."""
    out = SeparableField()
    for sp, f in psi.terms:
        shifted = f.shift(1, lam)
        d0_part = timeops.delta0_const(f, lam, beta).scale(2.0)
        if isinstance(sp, PlaneWave):
            out.terms.append((sp, shifted.scale(-sp.k ** 2) + d0_part))
        else:
            out.terms.append((_lap_profile(sp), shifted))
            out.terms.append((sp, d0_part))
    return out


def _delta0_closed_terms(sp, f, lam, structure):
    """2 Delta0 psi for beta = sum coef r^{-n}: one closed-form
    timeops.delta0_power per power law, weighted by coef r^{-n}; separability
    is preserved."""
    return [(RadialProfile(lambda r, _n=n, _c=coef:
                           _c * r ** (-_n) * np.asarray(sp(r), dtype=complex)),
             timeops.delta0_power(f, lam, n).scale(2.0))
            for n, coef in structure]


def box_general(psi, beta, mu, nu, lam, grid=None, mode="auto"):
    """Varying-beta wave operator.

    mode = "auto": a beta with a structure (a sum of power laws, see
    RadialProfile) goes through the closed-form Delta0 of each power law
    (result stays separable); a beta without one, or mode = "pointwise",
    samples psi, mu, nu and beta on `grid` and evaluates the varying finite
    difference on all nodes at once, returning a GridField.  Any other mode
    raises ValueError.
    """
    if mode not in ("auto", "pointwise"):
        raise ValueError('mode must be "auto" or "pointwise", got %r'
                         % (mode,))
    structure = beta.structure if mode == "auto" else None
    dbar = SeparableField()
    for sp, f in psi.terms:
        if isinstance(sp, PlaneWave):
            raise ValueError("box_general needs radial spatial parts")
        shifted = f.shift(1, lam)
        dbar.terms.append((_lap_profile(sp), shifted))
        dbar.terms.append((_drift_profile(sp, beta), shifted))

    if structure is not None:
        out = SeparableField(dbar.terms)
        for sp, f in psi.terms:
            out.terms.extend(_delta0_closed_terms(sp, f, lam, structure))
        return out

    if grid is None:
        raise ValueError("pointwise Delta0 needs an explicit grid")
    grid = np.asarray(grid, dtype=float)
    return dbar.to_grid(grid) + timeops.delta0_general(
        psi.to_grid(grid), lam, mu(grid), nu(grid), beta(grid)).scale(2.0)


def box_newton(psi, gamma, c, lam):
    """Weak-field operator for beta = -(1/c^2)(1 + gamma/r): box_general on
    geometry.mu_nu_newton's beta, whose structure (a constant plus a 1/r
    power law) gives the constant-beta part, the radial drift
    (gamma / (2 r^2 (1 + gamma/r))) d/dr on psi(t+il), and the hybrid term
    -(2 gamma/(c^2 r)) Delta0^hybrid psi(t+il), timeops.delta0_power at n = 1.
    mu_nu_newton refuses a gamma that is not positive (box_const is the
    gamma = 0 operator), and box_general a PlaneWave term.
    """
    return box_general(psi, *mu_nu_newton(gamma, c), lam)


# ---------------------------------------------------------------------------
# the Klein-Gordon residual
# ---------------------------------------------------------------------------

def kg_residual(box, psi, m, hbar, c):
    """box - (m c / hbar)^2 psi, where box is a wave operator applied to the
    SeparableField psi, as a SeparableField."""
    return box - psi.scale((m * c / hbar) ** 2)

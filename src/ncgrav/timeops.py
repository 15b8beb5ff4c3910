"""Finite-difference time operators on exactly-shiftable functions.

``TimeFunction`` holds finite sums c * t^p * exp(s t) with complex c, s.  The
class is closed under d/dt, products, and the imaginary shifts t -> t + i*lam*a,
which makes every operator here exact: no analytic continuation of grid data
is ever needed.  Coefficients are Python complex numbers (per-node numpy
arrays in waveops.GridField).

Each operator is a stencil, a few taps (w, a) that the one kernel
`stencil_terms` applies as sum_j w_j f(t + i lam a_j); a shift is the one-tap
stencil [(1, a)].  With k = 1/(i lam), and f' taps applied to d/dt f:

  d0              k [(1, 0), (-1, -1)]
  delta0_const    (beta/2) k^2 [(1, 1), (1, -1), (-2, 0)]
  delta0_hybrid   k^2 [(-1, 0), (1, -1)],  f' taps k [(1, 0)]
  delta0_power    n = 1: k^2 [(-1, 1), (1, 0)],  f' taps k [(1, 1)]
                  n = 2: k^2 [(1, 2), (-1, 1)],  f' taps k [(-1, 1)]
                  else:  k^2/((2-n)(1-n)) [(1, 1), (1-n, n-1), (n-2, n)]
  delta0_general  k^2 [(nu, 1), (mu, 1 - beta/mu), (-(nu+mu), 1 - beta/(nu+mu))]

Every operator refuses lam below LAM_MIN = 1/sqrt(float max), about 7.5e-155,
where k^2 overflows.  Above it the taps still cancel: on a mode e^{-i omega t}
d0 loses its digits once omega lam is below about 1e-16, where e^{-omega lam}
rounds to 1 (d0 of a mode is then 0).  The closed-form symbols of these
operators on a mode e^{-i omega t} are oracles in `verify`, and so is the
convergence report of the classical limit lam -> 0,
`verify.classical_limit_check`.
"""

from __future__ import annotations

import cmath
import math
import sys
from math import comb

import numpy as np

from .effective import _require
from .geometry import POWER_WINDOW


class DegenerateProfileError(ValueError):
    """mu = 0 or mu + nu = 0: the varying finite difference is undefined."""


def _check_nondegenerate(mu, nu):
    """Raise DegenerateProfileError naming the nodes (flat indices; a scalar
    is node 0) where mu = 0 or mu + nu = 0."""
    bad = np.flatnonzero((np.asarray(mu) == 0) | (np.asarray(mu + nu) == 0))
    if bad.size:
        raise DegenerateProfileError(
            "mu = 0 or mu + nu = 0 at node(s) %s" % bad.tolist())


# the smallest lam the operators take: below it 1/lam^2 passes the float range
LAM_MIN = 1 / math.sqrt(sys.float_info.max)


def _check_lam(op, lam):
    if not LAM_MIN <= lam < math.inf:
        _require(op, "finite", lam=lam)
        raise ValueError("%s requires lam >= LAM_MIN = %.6g (1/lam^2 overflows "
                         "below it), got lam = %r" % (op, LAM_MIN, lam))


def stencil_terms(terms, taps, lam, exp, out=None):
    """Terms {(p, s): c} of sum_j w_j f(t + i lam a_j), f = sum c t^p e^{st},
    over taps [(w_j, a_j)], summed into `out` (a new dict by default).  At
    h = i lam a a term becomes w c e^{sh} sum_q C(p, q) h^{p-q} t^q; w, a and
    c may be per-node numpy arrays (with exp = np.exp)."""
    out = {} if out is None else out
    taps = [(w, 1j * lam * a, isinstance(a, np.ndarray) or a != 0)
            for w, a in taps]
    for (p, s), c in terms.items():
        for w, h, moves in taps:
            val = w * c * exp(s * h) if s != 0 and moves else w * c
            out[p, s] = out.get((p, s), 0) + val
            if moves:  # a zero shift adds only to the t^p term
                for q in range(p - 1, -1, -1):
                    val = val * h
                    out[q, s] = out.get((q, s), 0) + comb(p, q) * val
    return out


class TimeFunction:
    """Finite sum of terms c * t^p * e^{s t}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # {(p, s): c} with p >= 0 int, s complex; zero terms dropped.  The
        # dict is adopted, not copied: no TimeFunction writes its terms.
        terms = {} if terms is None else terms
        if 0 in terms.values():
            terms = {k: c for k, c in terms.items() if c != 0}
        self.terms = terms

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, p):
        return cls({(p, 0j): 1.0})

    @classmethod
    def mode(cls, omega, c=1.0):
        """Plane-wave time factor e^{-i omega t}."""
        return cls({(0, -1j * omega): c})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return TimeFunction(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) - c
        return TimeFunction(out)

    def scale(self, c):
        if c == 0:
            return TimeFunction()
        return TimeFunction({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (p1, s1), c1 in self.terms.items():
            for (p2, s2), c2 in other.terms.items():
                key = (p1 + p2, s1 + s2)
                out[key] = out.get(key, 0) + c1 * c2
        return TimeFunction(out)

    def deriv(self):
        """d/dt."""
        out = {}
        for (p, s), c in self.terms.items():
            if p:
                out[p - 1, s] = out.get((p - 1, s), 0) + p * c
            if s != 0:
                out[p, s] = out.get((p, s), 0) + s * c
        return TimeFunction(out)

    def stencil(self, taps, lam, deriv_taps=()):
        """sum_j w_j f(t + i lam a_j) over taps [(w_j, a_j)], plus that sum
        of f' = d/dt f over deriv_taps."""
        out = stencil_terms(self.deriv().terms, deriv_taps, lam, cmath.exp) \
            if deriv_taps else None
        return TimeFunction(stencil_terms(self.terms, taps, lam, cmath.exp, out))

    def shift(self, a, lam):
        """Exact f(t + i lam a); a may be complex (varying-beta shifts)."""
        if not (cmath.isfinite(a) and math.isfinite(lam)):
            _require("shift", "finite", a=a, lam=lam)
        return TimeFunction(stencil_terms(self.terms, [(1, a)], lam, cmath.exp))

    def evaluate(self, t):
        total = 0j
        for (p, s), c in self.terms.items():
            val = c * t ** p if p else c
            if s != 0:
                val = val * cmath.exp(s * t)
            total = total + val
        return total

    def max_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        bits = ["(%s)%s%s" % (c, "*t^%d" % p if p else "",
                              "*e^(%s t)" % s if s != 0 else "")
                for (p, s), c in sorted(self.terms.items(),
                                        key=lambda kv: (kv[0][0], str(kv[0][1])))]
        return "TimeFunction[%s]" % " + ".join(bits) if bits \
            else "TimeFunction(0)"


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def d0(f, lam):
    """(f(t) - f(t - i lam)) / (i lam)."""
    _check_lam("d0", lam)
    k = 1.0 / (1j * lam)
    return f.stencil([(k, 0), (-k, -1)], lam)


def delta0_const(f, lam, beta):
    """(beta/2) (f(t+i lam) + f(t-i lam) - 2 f) / (i lam)^2."""
    _check_lam("delta0_const", lam)
    _require("delta0_const", "finite", beta=beta)
    w = beta / (2 * (1j * lam) ** 2)
    return f.stencil([(w, 1), (w, -1), (-2 * w, 0)], lam)


def delta0_hybrid(f, lam):
    """(1/(i lam)) (d/dt - d0) f."""
    _check_lam("delta0_hybrid", lam)
    k = 1.0 / (1j * lam)
    return f.stencil([(-k * k, 0), (k * k, -1)], lam, [(k, 0)])


def delta0_power(f, lam, n):
    """Time part of the power-law Delta_0 for beta = 1/r^n; the full
    Delta_0 is this times the radial weight r^{-n}, which the caller applies.

    n = 0 is delta0_const with beta = 1 (mu = nu = beta/2).  n = 1 and n = 2
    (within POWER_WINDOW) dispatch to the closed forms; these are the
    removable-singularity limits of the generic finite-difference formula.
    """
    _check_lam("delta0_power", lam)
    _require("delta0_power", "finite", n=n)
    k = 1.0 / (1j * lam)
    if abs(n - 1) < POWER_WINDOW:
        return f.stencil([(-k * k, 1), (k * k, 0)], lam, [(k, 1)])
    if abs(n - 2) < POWER_WINDOW:
        return f.stencil([(k * k, 2), (-k * k, 1)], lam, [(-k, 1)])
    w = 1.0 / ((1j * lam) ** 2 * (2 - n) * (1 - n))
    return f.stencil([(w, 1), ((1 - n) * w, n - 1), ((n - 2) * w, n)], lam)


def delta0_general(f, lam, mu, nu, beta):
    """Varying-beta finite difference:

    (nu f(t+il) + mu f(t - il(beta/mu - 1)) - (nu+mu) f(t + il(1 - beta/(nu+mu))))
    / (i lam)^2

    f is a TimeFunction with scalar mu, nu, beta (one spatial point), or a
    waveops.GridField with mu, nu, beta sampled on its nodes (all points at
    once).  Non-finite mu, nu or beta is refused naming its nodes, as is a
    finite profile whose shift 1 - beta/mu or 1 - beta/(nu+mu) overflows and
    a degenerate profile (DegenerateProfileError).
    """
    _check_lam("delta0_general", lam)

    def require_finite(name, value):
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            raise ValueError("delta0_general requires a finite %s, not finite"
                             " at node(s) %s" % (name, bad.tolist()))

    for name, value in (("mu", mu), ("nu", nu), ("beta", beta)):
        require_finite(name, value)
    _check_nondegenerate(mu, nu)
    with np.errstate(over="ignore"):
        a_mu, a_sum = 1 - beta / mu, 1 - beta / (nu + mu)
    require_finite("shift 1 - beta/mu", a_mu)
    require_finite("shift 1 - beta/(nu+mu)", a_sum)
    w = 1.0 / (1j * lam) ** 2
    return f.stencil([(w * nu, 1), (w * mu, a_mu), (-w * (nu + mu), a_sum)],
                     lam)


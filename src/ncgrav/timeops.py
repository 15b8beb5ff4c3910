"""Finite-difference time operators on exactly-shiftable functions.

``TimeFunction`` holds finite sums c * t^p * exp(s t) with complex c, s.  The
class is closed under d/dt, products, and the imaginary shifts t -> t + i*lam*a,
which makes every operator here exact: no analytic continuation of grid data
is ever needed.  Coefficients are Python complex numbers (per-node numpy
arrays in waveops.GridField, which shares `shift_terms`).
"""

from __future__ import annotations

import cmath
import json
from math import comb

import numpy as np

TOL = 1e-12


class DegenerateProfileError(ValueError):
    """mu = 0 or mu + nu = 0: the varying finite difference is undefined."""


def _check_nondegenerate(mu, nu):
    """Raise DegenerateProfileError naming the nodes (flat indices; a scalar
    is node 0) where mu = 0 or mu + nu = 0."""
    bad = np.flatnonzero((np.asarray(mu) == 0) | (np.asarray(mu + nu) == 0))
    if bad.size:
        raise DegenerateProfileError(
            "mu = 0 or mu + nu = 0 at node(s) %s" % bad.tolist())


def shift_terms(terms, h, exp):
    """Terms {(p, s): c} of f(t + h) for f = sum c t^p e^{st}.

    Each term becomes c e^{sh} sum_q C(p, q) h^{p-q} t^q.  c and h may be
    per-node numpy arrays (with exp = np.exp); this is the one binomial time
    shift behind TimeFunction.shift and waveops.GridField.shift.
    """
    out = {}
    for (p, s), c in terms.items():
        base = c * exp(s * h) if s != 0 else c
        for q in range(p, -1, -1):
            val = base * comb(p, q) * h ** (p - q)
            key = (q, s)
            out[key] = out.get(key, 0) + val
    return out


class TimeFunction:
    """Finite sum of terms c * t^p * e^{s t}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # {(p, s): c} with p >= 0 int, s complex; zero terms dropped
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def constant(cls, c):
        return cls({(0, 0j): c})

    @classmethod
    def monomial(cls, p, c=1.0):
        return cls({(p, 0j): c})

    @classmethod
    def mode(cls, omega, c=1.0):
        """Plane-wave time factor e^{-i omega t}."""
        return cls({(0, -1j * omega): c})

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return TimeFunction(out)

    def __neg__(self):
        return TimeFunction({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

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
                key = (p - 1, s)
                out[key] = out.get(key, 0) + p * c
            if s != 0:
                key = (p, s)
                out[key] = out.get(key, 0) + s * c
        return TimeFunction(out)

    def shift(self, a, lam):
        """Exact f(t + i lam a); a may be complex (varying-beta shifts)."""
        return TimeFunction(shift_terms(self.terms, 1j * lam * a, cmath.exp))

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

    def isclose(self, other, tol=TOL):
        diff = self - other
        scale = max(self.max_coeff(), other.max_coeff(), 1.0)
        return all(abs(c) <= tol * scale for c in diff.terms.values())

    def to_json(self):
        items = [(float(c.real), float(c.imag), p, float(s.real), float(s.imag))
                 for (p, s), c in sorted(self.terms.items(),
                                         key=lambda kv: (kv[0][0], kv[0][1].real,
                                                         kv[0][1].imag))]
        return json.dumps(items)

    @classmethod
    def from_json(cls, text):
        out = {}
        for cre, cim, p, sre, sim in json.loads(text):
            out[(p, complex(sre, sim))] = complex(cre, cim)
        return cls(out)

    def __repr__(self):
        if not self.terms:
            return "TimeFunction(0)"
        bits = []
        for (p, s), c in sorted(self.terms.items(),
                                key=lambda kv: (kv[0][0], str(kv[0][1]))):
            bit = "(%s)" % c
            if p:
                bit += "*t^%d" % p
            if s != 0:
                bit += "*e^(%s t)" % s
            bits.append(bit)
        return "TimeFunction[" + " + ".join(bits) + "]"


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def d0(f, lam):
    """(f(t) - f(t - i lam)) / (i lam)."""
    if lam <= 0:
        raise ValueError("d0 requires lam > 0; use f.deriv() at lam = 0")
    return (f - f.shift(-1, lam)).scale(1.0 / (1j * lam))


def delta0_const(f, lam, beta):
    """(beta/2) (f(t+i lam) + f(t-i lam) - 2 f) / (i lam)^2."""
    if lam <= 0:
        raise ValueError("delta0_const requires lam > 0")
    num = f.shift(1, lam) + f.shift(-1, lam) - f.scale(2)
    return num.scale(beta / (2 * (1j * lam) ** 2))


def delta0_hybrid(f, lam):
    """(1/(i lam)) (d/dt - d0) f."""
    if lam <= 0:
        raise ValueError("delta0_hybrid requires lam > 0")
    return (f.deriv() - d0(f, lam)).scale(1.0 / (1j * lam))


# n within POWER_WINDOW of 1 or 2 takes the closed-form power-law family, here
# and in geometry.mu_nu_closed: nearer than that, the generic formulas divide
# by 1 - n or 2 - n and cancel away most of their digits.
POWER_WINDOW = 1e-9


def delta0_power(f, lam, n):
    """Time part of the power-law Delta_0 for beta = 1/r^n; the full
    Delta_0 is this times the radial weight r^{-n}, which the caller applies.

    n = 0 is delta0_const with beta = 1 (mu = nu = beta/2).  n = 1 and n = 2
    (within POWER_WINDOW) dispatch to the closed forms; these are the
    removable-singularity limits of the generic finite-difference formula.
    """
    if lam <= 0:
        raise ValueError("delta0_power requires lam > 0")
    if abs(n - 1) < POWER_WINDOW:
        return delta0_hybrid(f.shift(1, lam), lam)
    if abs(n - 2) < POWER_WINDOW:
        return (d0(f.shift(2, lam), lam) - f.shift(1, lam).deriv()).scale(
            1.0 / (1j * lam))
    num = (f.shift(1, lam)
           + f.shift(-(1 - n), lam).scale(1 - n)
           - f.shift(n, lam).scale(2 - n))
    return num.scale(1.0 / ((1j * lam) ** 2 * (2 - n) * (1 - n)))


def delta0_general(f, lam, mu, nu, beta):
    """Varying-beta finite difference:

    (nu f(t+il) + mu f(t - il(beta/mu - 1)) - (nu+mu) f(t + il(1 - beta/(nu+mu))))
    / (i lam)^2

    f is a TimeFunction with scalar mu, nu, beta (one spatial point), or a
    waveops.GridField with mu, nu, beta sampled on its nodes (all points at
    once).
    """
    if lam <= 0:
        raise ValueError("delta0_general requires lam > 0")
    _check_nondegenerate(mu, nu)
    a2 = -(beta / mu - 1)
    a3 = 1 - beta / (nu + mu)
    num = (f.shift(1, lam).scale(nu)
           + f.shift(a2, lam).scale(mu)
           - f.shift(a3, lam).scale(nu + mu))
    return num.scale(1.0 / (1j * lam) ** 2)


# ---------------------------------------------------------------------------
# operator symbols on the pure mode e^{-i omega t}
# ---------------------------------------------------------------------------
# Written as independent closed forms (not by applying the operators), so the
# symbol-consistency tests are a genuine cross-check.  `spectrum` uses these
# three; the power-law and general symbols are oracles in `verify`.

def symbol_d0(omega, lam):
    return (1 - cmath.exp(-omega * lam)) / (1j * lam)


def symbol_delta0_const(omega, lam, beta):
    # -(beta/lam^2)(cosh(omega lam) - 1), written via sinh^2 for stability
    import math
    u = omega * lam
    return -(beta / lam ** 2) * 2 * math.sinh(u / 2) ** 2


def symbol_delta0_hybrid(omega, lam):
    return (1.0 / (1j * lam)) * (-1j * omega
                                 - (1 - cmath.exp(-omega * lam)) / (1j * lam))


# ---------------------------------------------------------------------------
# classical-limit convergence report
# ---------------------------------------------------------------------------

LIMIT_T_SAMPLES = np.linspace(-1.0, 1.0, 21)


def classical_limit_check(op, f, lambdas, target):
    """Error of op(f; lam) against the classical target on LIMIT_T_SAMPLES,
    per lam, with the convergence order fitted from the error decay.

    op: callable f, lam -> TimeFunction;  target: TimeFunction.
    """
    errors = []
    for lam in lambdas:
        g = op(f, lam) - target
        err = max(abs(g.evaluate(complex(tv))) for tv in LIMIT_T_SAMPLES)
        errors.append(err)
    errors = np.asarray(errors)
    lams = np.asarray([float(x) for x in lambdas])
    if np.all(errors < 1e-14):
        order = float("inf")
    else:
        mask = errors > 1e-14
        order = float(np.polyfit(np.log(lams[mask]), np.log(errors[mask]), 1)[0]) \
            if mask.sum() >= 2 else float("nan")
    return {"lambdas": list(lams), "errors": [float(e) for e in errors],
            "fitted_order": order}

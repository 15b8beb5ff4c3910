"""Exact coefficient ring: Gaussian-rational polynomials in the symbols lam, beta.

A ``Coeff`` is a finite sum  sum_{j,k} (a_{jk} + i b_{jk}) lam^j beta^k  with
a, b rational.  All arithmetic is exact; this is the scalar ring under the
noncommutative spacetime algebra, so the calculus identities can be checked as
identities rather than to a tolerance.
"""

from __future__ import annotations

from fractions import Fraction


def _gadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _gmul(u, v):
    # (a+bi)(c+di)
    a, b = u
    c, d = v
    return (a * c - b * d, a * d + b * c)


class Coeff:
    """Polynomial in (lam, beta) over the Gaussian rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: {(lam_pow, beta_pow): (Fraction re, Fraction im)}, zeros dropped
        self.terms = {}
        if terms:
            for key, val in terms.items():
                if val[0] or val[1]:
                    self.terms[key] = val

    @classmethod
    def from_rational(cls, re, im=0):
        re = Fraction(re)
        im = Fraction(im)
        if re == 0 and im == 0:
            return cls()
        return cls({(0, 0): (re, im)})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.from_rational(1)

    @classmethod
    def lam(cls, power=1):
        return cls({(power, 0): (Fraction(1), Fraction(0))})

    @classmethod
    def beta(cls, power=1):
        return cls({(0, power): (Fraction(1), Fraction(0))})

    @classmethod
    def i_lam(cls):
        """The ubiquitous i*lam."""
        return cls({(1, 0): (Fraction(0), Fraction(1))})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for key, val in other.terms.items():
            cur = out.get(key)
            new = _gadd(cur, val) if cur else val
            if new[0] or new[1]:
                out[key] = new
            elif cur:
                del out[key]
        res = Coeff()
        res.terms = out
        return res

    def __neg__(self):
        res = Coeff()
        res.terms = {k: (-a, -b) for k, (a, b) in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Coeff.from_rational(other)
        out = {}
        for (j1, k1), v1 in self.terms.items():
            for (j2, k2), v2 in other.terms.items():
                key = (j1 + j2, k1 + k2)
                prod = _gmul(v1, v2)
                cur = out.get(key)
                new = _gadd(cur, prod) if cur else prod
                out[key] = new
        res = Coeff()
        res.terms = {k: v for k, v in out.items() if v[0] or v[1]}
        return res

    __rmul__ = __mul__

    def scale(self, re, im=0):
        return self * Coeff.from_rational(re, im)

    def div_i_lam(self, power=1):
        """Exact division by (i*lam)**power; raises if not divisible by lam**power."""
        out = {}
        # 1/i = -i, so dividing by (i lam)^p multiplies by (-i)^p lam^-p
        inv_i = {0: (Fraction(1), Fraction(0)),
                 1: (Fraction(0), Fraction(-1)),
                 2: (Fraction(-1), Fraction(0)),
                 3: (Fraction(0), Fraction(1))}[power % 4]
        for (j, k), val in self.terms.items():
            if j < power:
                raise ArithmeticError(
                    "coefficient not divisible by lam^%d: %s" % (power, self))
            out[(j - power, k)] = _gmul(val, inv_i)
        res = Coeff()
        res.terms = out
        return res

    def subs_lam_zero(self):
        """Classical limit lam -> 0."""
        res = Coeff()
        res.terms = {k: v for k, v in self.terms.items() if k[0] == 0}
        return res

    def lam_valuation(self):
        """Smallest power of lam appearing (None for the zero polynomial)."""
        if not self.terms:
            return None
        return min(j for (j, _k) in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (j, k) in sorted(self.terms):
            a, b = self.terms[(j, k)]
            if b == 0:
                num = str(a)
            elif a == 0:
                num = "%si" % b
            else:
                num = "%s%s%si" % (a, "+" if b >= 0 else "-", abs(b))
            piece = "(%s)" % num
            if j:
                piece += "*lam" + ("^%d" % j if j > 1 else "")
            if k:
                piece += "*beta" + ("^%d" % k if k > 1 else "")
            parts.append(piece)
        return " + ".join(parts)

    __repr__ = __str__

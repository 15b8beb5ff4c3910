"""Exact coefficient ring: Gaussian-rational polynomials in the symbols lam, beta.

A ``Coeff`` is a finite sum  sum_{j,k} (a_{jk} + i b_{jk}) lam^j beta^k  with
a, b rational: an element of the scalar ring under the noncommutative
spacetime algebra, held exactly, so the calculus identities can be checked as
identities rather than to a tolerance.

Representation: ``terms`` maps (lam_pow, beta_pow) to a pair of Python ints
(re, im), and ``den`` is one positive int denominator shared by every part, so
the coefficient of lam^j beta^k is (re + i im) / den.  Invariant: no pair is
(0, 0), and den is 1 or shares no common factor with all the numerators; zero
is ``terms == {}`` with den 1.  The form is canonical, so equality compares
terms and den.  ``lowest_terms`` brings int pairs over a denominator to this
form, for ``Coeff`` and for ``exactalg.NCElement`` alike.  ``Fraction``
appears only at the boundary: ``from_rational`` given non-int parts, the
constructor given Fraction parts, and the text of a part.

``Coeff`` is the type of the API boundary, not of the calculus, and it has
no arithmetic: an ``NCElement`` keeps its own flat dict from packed keys to
(re, im) pairs and builds a ``Coeff`` only where a caller asks for one
(``monomial`` takes one; ``coeffs()`` and ``to_text`` return them).  A packed
key is one int of 8-bit fields for beta^k, lam^j, t^n and x_1..x_d, lowest
first; every exponent stays below 64, and one that would reach it raises
``exactalg.ExponentOverflowError`` instead of carrying into the next field.
The ``exactalg`` docstring has the layout, and how ``exterior_d`` and
``mul_elem`` read each term of psi once and write it into the result through
small per-t-degree tables, building no S^+- psi.  The oracles in ``verify``
read its parts as plain int/Fraction symbols.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def lowest_terms(terms, den):
    """(terms, den) with the common factor of den and every numerator divided
    out; terms maps keys to int pairs without (0, 0), den > 0."""
    if den != 1:
        g = den  # zero (no terms) ends with den // den = 1
        for re, im in terms.values():
            g = gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            den //= g
            terms = {k: (re // g, im // g) for k, (re, im) in terms.items()}
    return terms, den


def _coeff(terms, den):
    """Coeff from int pairs without (0, 0) over den > 0, reduced to the
    invariant."""
    res = object.__new__(Coeff)
    res.terms, res.den = lowest_terms(terms, den)
    return res


class Coeff:
    """Polynomial in (lam, beta) over the Gaussian rationals."""

    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        # terms: {(lam_pow, beta_pow): (re, im)}, parts int or Fraction;
        # zero pairs are dropped and the parts brought over one denominator
        parts = {k: (Fraction(a), Fraction(b))
                 for k, (a, b) in (terms or {}).items() if a or b}
        den = lcm(*(p.denominator for v in parts.values() for p in v))
        self.terms = {k: (a.numerator * (den // a.denominator),
                          b.numerator * (den // b.denominator))
                      for k, (a, b) in parts.items()}
        self.den = den

    @classmethod
    def from_rational(cls, re, im=0):
        if type(re) is int and type(im) is int:
            return _coeff({(0, 0): (re, im)} if re or im else {}, 1)
        return cls({(0, 0): (Fraction(re), Fraction(im))})

    @classmethod
    def from_parts(cls, terms, den):
        """Coeff of {(lam_pow, beta_pow): (re, im)} int pairs without (0, 0)
        over den > 0; the dict is adopted, not copied."""
        return _coeff(terms, den)

    @classmethod
    def one(cls):
        return cls.from_rational(1)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        den = self.den

        def part(n):
            return str(n) if den == 1 else str(Fraction(n, den))

        parts = []
        for (j, k) in sorted(self.terms):
            a, b = self.terms[(j, k)]
            if b == 0:
                num = part(a)
            elif a == 0:
                num = "%si" % part(b)
            else:
                num = "%s%s%si" % (part(a), "+" if b >= 0 else "-",
                                   part(abs(b)))
            piece = "(%s)" % num
            if j:
                piece += "*lam" + ("^%d" % j if j > 1 else "")
            if k:
                piece += "*beta" + ("^%d" % k if k > 1 else "")
            parts.append(piece)
        return " + ".join(parts)

    __repr__ = __str__

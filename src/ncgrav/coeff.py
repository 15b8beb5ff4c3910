"""Exact coefficient ring: Gaussian-integer polynomials in lam and beta.

A ``Coeff`` is a finite sum  sum_{j,k} (a_{jk} + i b_{jk}) lam^j beta^k  with
a, b integers: an element of the scalar ring under the noncommutative
spacetime algebra, held exactly, so the laws of the calculus are checked as
equalities rather than to a tolerance.  The structure constants of the
calculus lie in Z[i][lam, beta] (Majid & Ruegg, Phys. Lett. B 334 (1994)
348; Sitarz, Phys. Lett. B 349 (1995) 42), so Gaussian-integer inputs stay
Gaussian-integer under every operation.  Each law the checks test (the
Leibniz rule, the inner form, route agreement, the realization product) is
linear or bilinear over the scalars, so one that holds on Gaussian integers
holds on Gaussian rationals too: multiply the rational inputs by an integer
that makes them integral.

Representation: ``terms`` maps (lam_pow, beta_pow) to a pair of Python ints
(re, im), the coefficient of lam^j beta^k being re + i im.  Invariant: no
pair is (0, 0); zero is ``terms == {}``.  The form is canonical, so equality
compares terms.  A part that is not an integer (what ``operator.index``
takes, but not a bool: `exactalg._int_exponents`' rule for exponents)
raises ValueError naming it.

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
read its parts as plain int symbols.
"""

from __future__ import annotations

from operator import index


def _part(value):
    """value as an int where operator.index takes it; a bool, which it also
    takes, or anything else raises ValueError naming it."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError("a coefficient part must be an integer, got %r"
                         % (value,))
    return index(value)


class Coeff:
    """Polynomial in (lam, beta) over the Gaussian integers."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: {(lam_pow, beta_pow): (re, im)} of integer parts; zero
        # pairs are dropped
        parts = {k: (_part(a), _part(b))
                 for k, (a, b) in (terms or {}).items()}
        self.terms = {k: v for k, v in parts.items() if v[0] or v[1]}

    @classmethod
    def from_rational(cls, re, im=0):
        """The constant re + i im, for integers re and im."""
        return cls({(0, 0): (re, im)})

    @classmethod
    def from_parts(cls, terms):
        """Coeff of {(lam_pow, beta_pow): (re, im)} int pairs without (0, 0);
        the dict is adopted, not copied."""
        res = object.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def one(cls):
        return cls.from_rational(1)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (j, k) in sorted(self.terms):
            a, b = self.terms[(j, k)]
            if b == 0:
                num = str(a)
            elif a == 0:
                num = "%di" % b
            else:
                num = "%d%s%di" % (a, "+" if b >= 0 else "-", abs(b))
            piece = "(%s)" % num
            if j:
                piece += "*lam" + ("^%d" % j if j > 1 else "")
            if k:
                piece += "*beta" + ("^%d" % k if k > 1 else "")
            parts.append(piece)
        return " + ".join(parts)

    __repr__ = __str__

"""Exact production algebra of the bicrossproduct spacetime.

Generators: commuting spatial coordinates x_1..x_d and a time generator t with
[x_i, t] = i lam x_i, plus the 5D first-order calculus spanned by the basis
one-forms dx_1..dx_d, dt and the extra direction theta' (constant beta).

Elements are kept in canonical normal order: spatial powers to the left of
time powers, function coefficients to the left of basis one-forms.

An element is one flat dict ``terms`` mapping (xpow, n, j, k) to a pair of
Python ints (re, im), and one positive int ``den`` shared by the whole
element: the coefficient of x^xpow t^n lam^j beta^k is (re + i im) / den.
Invariant: no pair is (0, 0), and den is 1 or shares no common factor with
all the numerators; zero is ``terms == {}`` with den 1, so equality compares
terms and den.  The structure constants lie in Z[i][lam, beta] (Sitarz, Phys.
Lett. B 349 (1995) 42), so den is nearly always 1, and the product, the
shifts, the derivatives and the one-form actions are int arithmetic on these
pairs with no coefficient object per term.  ``coeff.Coeff`` is the boundary
type: the constructors (``NCElement(d, {(xpow, n): Coeff})`` and
``monomial``) and ``scale`` take it, and ``coeffs()`` and ``to_text`` build
it.

A basis one-form acts on a whole element psi from the left as follows, with
S^+- psi = psi(t +- i lam) and Delta = sum_j d_j^2:

    theta' psi = (S^+ psi) theta'
    dx_i psi   = psi dx_i + i lam S^+(d_i psi) theta'
    dt psi     = (S^- psi) dt - i lam sum_j (d_j psi) dx_j
                 + [(beta/2)(S^+ psi - S^- psi)
                    + (lam^2/2) S^+(Delta psi)] theta'

Each follows by induction on the word x^a t^n from the generator relations
theta' t = (t + i lam) theta', dt t = (t - i lam) dt + i lam beta theta',
dt x_j = x_j dt - i lam dx_j and dx_i x_j = x_j dx_i + i lam delta_ij theta'
(all other pairs commute): x_i passes dx_i leaving i lam theta', which then
meets t^n as (t + i lam)^n; x_j passes dt leaving -i lam dx_j, whose own
theta' terms sum to (lam^2/2) Delta; and t^n passes dt as (t - i lam)^n dt
plus (beta/2)((t + i lam)^n - (t - i lam)^n) theta'.  The oracles in
`verify` apply the relations one generator at a time, on plain int/Fraction
symbols (`verify.normal_order`, `verify.mul_gen`), and read results from here
only through `coeffs()`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm
from operator import add

from .coeff import Coeff, lowest_terms

# one-form basis tags
DT = "dt"
THETA = "theta'"


def dx(i):
    return ("dx", i)


def _form_name(form):
    if form == DT:
        return "dt"
    if form == THETA:
        return "theta'"
    return "dx%d" % form[1]


def _element(d, terms, den=1):
    """NCElement from flat int pairs without (0, 0) over den > 0, reduced to
    the invariant.  The dict is adopted, not copied."""
    if den != 1:
        terms, den = lowest_terms(terms, den)
    out = object.__new__(NCElement)
    out.d, out.terms, out.den = d, terms, den
    return out


def _nonzero(terms):
    return {k: v for k, v in terms.items() if v[0] or v[1]}


class NCElement:
    """Canonical sum of monomials x^xpow t^n lam^j beta^k with Gaussian
    rational coefficients: ``terms`` maps (xpow, n, j, k) to an int pair
    (re, im) over the element's one denominator ``den``."""

    __slots__ = ("d", "terms", "den")

    def __init__(self, d, terms=None):
        # terms: {(xpow, n): Coeff}, brought over one denominator; each Coeff
        # is in lowest terms, so their lcm is too
        coeffs = [(key, c) for key, c in (terms or {}).items() if c]
        den = lcm(*(c.den for _key, c in coeffs))
        self.d = d
        self.terms = {(xpow, n, j, k): (re * f, im * f)
                      for (xpow, n), c in coeffs for f in [den // c.den]
                      for (j, k), (re, im) in c.terms.items()}
        self.den = den

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, d):
        return cls(d)

    @classmethod
    def one(cls, d):
        return cls.monomial(d, (0,) * d, 0)

    @classmethod
    def monomial(cls, d, xpow, tpow, c=None):
        if c is None:
            return _element(d, {(tuple(xpow), tpow, 0, 0): (1, 0)})
        return cls(d, {(tuple(xpow), tpow): c})

    def coeffs(self):
        """{(xpow, n): Coeff}, the coefficient of each monomial x^xpow t^n."""
        parts = {}
        for (xpow, n, j, k), v in self.terms.items():
            parts.setdefault((xpow, n), {})[(j, k)] = v
        return {key: Coeff.from_parts(p, self.den) for key, p in parts.items()}

    # -- ring structure ----------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, NCElement) and self.den == other.den
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def _combine(self, other, sign):
        """self + sign * other."""
        den = self.den
        if other.den == den:
            out = dict(self.terms)
            f = sign
        else:
            den = lcm(den, other.den)
            g, f = den // self.den, sign * (den // other.den)
            out = {k: (a * g, b * g) for k, (a, b) in self.terms.items()}
        for key, (a, b) in other.terms.items():
            cur = out.get(key)
            if cur is None:
                out[key] = (a * f, b * f)
            else:
                a, b = cur[0] + a * f, cur[1] + b * f
                if a or b:
                    out[key] = (a, b)
                else:
                    del out[key]
        return _element(self.d, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        terms = {k: (-a, -b) for k, (a, b) in self.terms.items()}
        return _element(self.d, terms, self.den)

    def _times(self, re, im, dj=0, dk=0, den=1):
        """self * (re + i im) lam^dj beta^dk / den, for a nonzero Gaussian
        integer re + i im and den > 0.  A negative dj divides by lam^-dj,
        which must divide every term."""
        out = {}
        for (xpow, n, j, k), (a, b) in self.terms.items():
            if j + dj < 0:
                raise ArithmeticError("element not divisible by lam^%d: %s"
                                      % (-dj, self.to_text()))
            out[(xpow, n, j + dj, k + dk)] = (a * re - b * im, a * im + b * re)
        return _element(self.d, out, self.den * den)

    def scale(self, c):
        """self * c for an int or Coeff c."""
        if isinstance(c, int):
            c = Coeff.from_rational(c)
        parts = [self._times(re, im, j, k, c.den)
                 for (j, k), (re, im) in c.terms.items()]
        return sum(parts[1:], parts[0]) if parts else NCElement(self.d)

    def __mul__(self, other):
        """Normal-ordered product.  Uses t^n x^b = x^b (t - i lam |b|)^n."""
        right = [(b, m, j, k, re, im, -sum(b))
                 for (b, m, j, k), (re, im) in other.terms.items()]
        out = {}
        get = out.get
        for (a, n, j1, k1), (r1, i1) in self.terms.items():
            for b, m, j2, k2, r2, i2, s in right:
                xpow = tuple(map(add, a, b))
                re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                j, k = j1 + j2, k1 + k2
                for q, p, sr, si in _t_power_shifted(n, s):
                    key = (xpow, q + m, j + p, k)
                    vr, vi = re * sr - im * si, re * si + im * sr
                    cur = get(key)
                    out[key] = ((vr, vi) if cur is None
                                else (cur[0] + vr, cur[1] + vi))
        return _element(self.d, _nonzero(out), self.den * other.den)

    # -- calculus helpers ---------------------------------------------
    def shift_t(self, s):
        """Exact substitution t -> t + s i lam, s an int."""
        if type(s) is not int:  # a rational s would leave non-int parts
            raise TypeError("shift_t takes an int shift, got %r" % (s,))
        out = {}
        get = out.get
        for (xpow, n, j, k), (re, im) in self.terms.items():
            for q, p, sr, si in _t_power_shifted(n, s):
                key = (xpow, q, j + p, k)
                vr, vi = re * sr - im * si, re * si + im * sr
                cur = get(key)
                out[key] = ((vr, vi) if cur is None
                            else (cur[0] + vr, cur[1] + vi))
        return _element(self.d, _nonzero(out), self.den)

    def partial_x(self, i):
        out = {}
        for (xpow, n, j, k), (re, im) in self.terms.items():
            p = xpow[i - 1]
            if p:
                out[(xpow[:i - 1] + (p - 1,) + xpow[i:], n, j, k)] = (re * p,
                                                                      im * p)
        return _element(self.d, out, self.den)

    def d0(self):
        """Finite-difference time derivative (f(t) - f(t - i lam)) / (i lam)."""
        # 1 / (i lam) = -i lam^-1
        return (self - self.shift_t(-1))._times(0, -1, -1)

    def delta0_const(self):
        """(beta/2) (f(t+i lam) + f(t-i lam) - 2 f(t)) / (i lam)^2."""
        # (beta/2) / (i lam)^2 = -beta lam^-2 / 2
        num = self.shift_t(1) + self.shift_t(-1) - self._times(2, 0)
        return num._times(-1, 0, -2, 1, 2)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for (xpow, n), c in sorted(self.coeffs().items()):
            piece = "(%s)" % c
            for i, p in enumerate(xpow, start=1):
                if p:
                    piece += "*x%d" % i + ("^%d" % p if p > 1 else "")
            if n:
                piece += "*t" + ("^%d" % n if n > 1 else "")
            parts.append(piece)
        return " + ".join(parts)

    __repr__ = to_text


@lru_cache(maxsize=4096)
def _t_power_shifted(n, s):
    """(t + s i lam)^n for an int s, as ((q, p, re, im), ...) meaning
    (re + i im) lam^p t^q with p = n - q; zero terms are left out.  Cached:
    the table is shared between callers."""
    out = []
    for q in range(n + 1):
        # C(n, q) (s i lam)^p
        p = n - q
        val = comb(n, q) * s ** p
        if val:  # i^p: 1, i, -1, -i
            re_im = ((val, 0), (0, val), (-val, 0), (0, -val))[p % 4]
            out.append((q, p) + re_im)
    return tuple(out)


class NCOneForm:
    """Sum over the basis {dx_1..dx_d, dt, theta'} with NCElement coefficients
    standing to the left."""

    __slots__ = ("d", "parts")

    def __init__(self, d, parts=None):
        self.d = d
        self.parts = {}
        if parts:
            for w, e in parts.items():
                if not e.is_zero():
                    self.parts[w] = e

    @classmethod
    def zero(cls, d):
        return cls(d)

    def coeff(self, form):
        return self.parts.get(form, NCElement.zero(self.d))

    def __eq__(self, other):
        return isinstance(other, NCOneForm) and self.parts == other.parts

    def __add__(self, other):
        out = dict(self.parts)
        for w, e in other.parts.items():
            new = out[w] + e if w in out else e
            if new.is_zero():
                out.pop(w, None)
            else:
                out[w] = new
        return NCOneForm(self.d, out)

    def __neg__(self):
        return NCOneForm(self.d, {w: -e for w, e in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def lmul(self, elem):
        """elem * self (element coefficients multiply on the left: trivial)."""
        return NCOneForm(self.d, {w: elem * e for w, e in self.parts.items()})

    def mul_elem(self, other):
        """Right-multiply by an NCElement psi.

        omega psi = sum_w e_w (w psi), where each basis one-form w acts on the
        whole of psi (S^+- = shift_t(+-1), Delta = sum_j d_j^2):

            theta' psi = (S^+ psi) theta'
            dx_i psi   = psi dx_i + i lam S^+(d_i psi) theta'
            dt psi     = (S^- psi) dt - i lam sum_j (d_j psi) dx_j
                         + [(beta/2)(S^+ psi - S^- psi)
                            + (lam^2/2) S^+(Delta psi)] theta'

        Each follows from the generator relations by induction on the word
        of a monomial (see the module docstring).  The oracle is
        `verify.normal_order`, which pushes one generator at a time on
        symbols."""
        d = self.d
        up = other.shift_t(1)
        grads = {j: other.partial_x(j) for j in range(1, d + 1)}

        def action(w):
            """w psi as {basis one-form: coefficient}."""
            if w == THETA:
                return {THETA: up}
            if w != DT:
                # i lam S^+(d_i psi)
                return {w: other,
                        THETA: grads[w[1]].shift_t(1)._times(0, 1, 1)}
            down = other.shift_t(-1)
            lap = NCElement.zero(d)
            for j, g in grads.items():
                lap = lap + g.partial_x(j)
            act = {dx(j): g._times(0, -1, 1) for j, g in grads.items()}
            act[DT] = down
            # (beta/2)(S^+ - S^-) psi + (lam^2/2) S^+(Delta psi)
            act[THETA] = ((up - down)._times(1, 0, 0, 1, 2)
                          + lap.shift_t(1)._times(1, 0, 2, 0, 2))
            return act

        out = NCOneForm.zero(d)
        for w, e in self.parts.items():
            out = out + NCOneForm(d, {wp: e * u for wp, u in action(w).items()})
        return out

    def to_text(self):
        if not self.parts:
            return "0"
        order = {DT: 10**6, THETA: 10**6 + 1}
        keys = sorted(self.parts, key=lambda w: order.get(w, w[1] if w != DT else 0)
                      if isinstance(w, str) else w[1])
        return " + ".join("[%s]*%s" % (self.parts[w].to_text(), _form_name(w))
                          for w in keys)

    __repr__ = to_text


def exterior_d(psi):
    """Exterior derivative by the direct formula: spatial gradients, d0 and
    the constant-beta wave operator contracted against theta'.

    Agreement with the Leibniz-rule oracle `verify.exterior_d_leibniz`, which
    works on symbols and shares no arithmetic with this module, is checked by
    the registry check `exactalg.eq-route-agreement` on every monomial of
    degree <= 8."""
    d = psi.d
    parts = {dx(i): psi.partial_x(i) for i in range(1, d + 1)}
    parts[DT] = psi.d0()
    # box^{beta=const} psi = sum_i d^2/dx_i^2 psi(t + i lam) + 2 Delta_0 psi
    box = psi.delta0_const()._times(2, 0)
    shifted = psi.shift_t(1)
    for i in range(1, d + 1):
        box = box + shifted.partial_x(i).partial_x(i)
    parts[THETA] = box._times(0, 1, 1, 0, 2)  # times i lam / 2
    return NCOneForm(d, parts)


def commutator_d(psi):
    """(i/lam) [theta, psi] with theta = dt - beta theta'; must equal d psi."""
    d = psi.d
    minus_beta = _element(d, {((0,) * d, 0, 0, 1): (-1, 0)})
    theta = NCOneForm(d, {DT: NCElement.one(d), THETA: minus_beta})
    comm = theta.mul_elem(psi) - theta.lmul(psi)
    # (i/lam) z = i z lam^-1
    try:
        return NCOneForm(d, {w: e._times(0, 1, -1)
                             for w, e in comm.parts.items()})
    except ArithmeticError as exc:  # pragma: no cover - mul_elem bug guard
        raise AssertionError("[theta, psi] not divisible by lam: %s" % exc)

"""Exact production algebra of the bicrossproduct spacetime.

Generators: commuting spatial coordinates x_1..x_d and a time generator t with
[x_i, t] = i lam x_i, plus the 5D first-order calculus spanned by the basis
one-forms dx_1..dx_d, dt and the extra direction theta' (constant beta).

Elements are kept in canonical normal order: spatial powers to the left of
time powers, function coefficients to the left of basis one-forms.  All
coefficients live in the exact ring ``coeff.Coeff``.

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
plus (beta/2)((t + i lam)^n - (t - i lam)^n) theta'.  The oracle
`verify.normal_order` applies the relations one generator at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .coeff import Coeff

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


class NCElement:
    """Canonical sum of monomials x^a t^n with Coeff coefficients."""

    __slots__ = ("d", "terms")

    def __init__(self, d, terms=None):
        self.d = d
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[key] = c

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, d):
        return cls(d)

    @classmethod
    def scalar(cls, d, c):
        if isinstance(c, int):
            c = Coeff.from_rational(c)
        if not c:
            return cls(d)
        return cls(d, {((0,) * d, 0): c})

    @classmethod
    def one(cls, d):
        return cls.scalar(d, Coeff.one())

    @classmethod
    def x(cls, d, i):
        xpow = [0] * d
        xpow[i - 1] = 1
        return cls(d, {(tuple(xpow), 0): Coeff.one()})

    @classmethod
    def t(cls, d):
        return cls(d, {((0,) * d, 1): Coeff.one()})

    @classmethod
    def monomial(cls, d, xpow, tpow, c=None):
        c = Coeff.one() if c is None else c
        if not c:
            return cls(d)
        return cls(d, {(tuple(xpow), tpow): c})

    # -- ring structure ----------------------------------------------
    def __eq__(self, other):
        return isinstance(other, NCElement) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            cur = out.get(key)
            new = cur + c if cur else c
            if new:
                out[key] = new
            elif cur is not None:
                del out[key]
        return NCElement(self.d, out)

    def __neg__(self):
        return NCElement(self.d, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, int):
            c = Coeff.from_rational(c)
        return NCElement(self.d, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        """Normal-ordered product.  Uses t^n x^b = x^b (t - i lam |b|)^n."""
        out = NCElement(self.d)
        for (a, n), c1 in self.terms.items():
            for (b, m), c2 in other.terms.items():
                xpow = tuple(ai + bi for ai, bi in zip(a, b))
                shift = -sum(b)  # t -> t - i lam |b|
                c = c1 * c2
                for q, sc in _t_power_shifted(n, shift):
                    key = (xpow, q + m)
                    term = c * sc
                    cur = out.terms.get(key)
                    new = cur + term if cur else term
                    if new:
                        out.terms[key] = new
                    elif cur is not None:
                        del out.terms[key]
        return out

    # -- calculus helpers ---------------------------------------------
    def shift_t(self, a):
        """Exact substitution t -> t + a * i * lam, a rational."""
        a = Fraction(a)
        out = NCElement(self.d)
        for (xpow, n), c in self.terms.items():
            for q, sc in _t_power_shifted(n, a):
                key = (xpow, q)
                term = c * sc
                cur = out.terms.get(key)
                new = cur + term if cur else term
                if new:
                    out.terms[key] = new
                elif cur is not None:
                    del out.terms[key]
        return out

    def partial_x(self, i):
        out = {}
        for (xpow, n), c in self.terms.items():
            p = xpow[i - 1]
            if p:
                new = list(xpow)
                new[i - 1] = p - 1
                out[(tuple(new), n)] = c.scale(p)
        return NCElement(self.d, out)

    def d0(self):
        """Finite-difference time derivative (f(t) - f(t - i lam)) / (i lam)."""
        diff = self - self.shift_t(-1)
        return NCElement(self.d, {k: c.div_i_lam(1) for k, c in diff.terms.items()})

    def delta0_const(self):
        """(beta/2) (f(t+i lam) + f(t-i lam) - 2 f(t)) / (i lam)^2."""
        num = self.shift_t(1) + self.shift_t(-1) - self.scale(2)
        half_beta = Coeff.beta().scale(Fraction(1, 2))
        return NCElement(
            self.d, {k: half_beta * c.div_i_lam(2) for k, c in num.terms.items()})

    def subs_lam_zero(self):
        out = {k: c.subs_lam_zero() for k, c in self.terms.items()}
        return NCElement(self.d, out)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for (xpow, n) in sorted(self.terms):
            c = self.terms[(xpow, n)]
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
def _t_power_shifted(n, a):
    """(t + a i lam)^n as ((q, Coeff multiplying t^q), ...).  Cached: the
    Coeffs are shared between callers, who must not mutate them."""
    a = Fraction(a)
    if a == 0:
        return ((n, Coeff.one()),)
    out = []
    for q in range(n + 1):
        # C(n,q) (a i lam)^(n-q)
        p = n - q
        val = Fraction(comb(n, q)) * a ** p
        # (i)^p
        ip = p % 4
        re, im = {0: (val, Fraction(0)), 1: (Fraction(0), val),
                  2: (-val, Fraction(0)), 3: (Fraction(0), -val)}[ip]
        out.append((q, Coeff({(p, 0): (re, im)})))
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

    def is_zero(self):
        return not self.parts

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

    def scale(self, c):
        return NCOneForm(self.d, {w: e.scale(c) for w, e in self.parts.items()})

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
        of a monomial (see the module docstring).  `verify.mul_gen`, which
        pushes one generator at a time, is the oracle."""
        d = self.d
        i_lam = Coeff.i_lam()
        half = Fraction(1, 2)
        up = other.shift_t(1)
        grads = {j: other.partial_x(j) for j in range(1, d + 1)}

        def action(w):
            """w psi as {basis one-form: coefficient}."""
            if w == THETA:
                return {THETA: up}
            if w != DT:
                return {w: other, THETA: grads[w[1]].shift_t(1).scale(i_lam)}
            down = other.shift_t(-1)
            lap = NCElement.zero(d)
            for j, g in grads.items():
                lap = lap + g.partial_x(j)
            act = {dx(j): g.scale(-i_lam) for j, g in grads.items()}
            act[DT] = down
            act[THETA] = ((up - down).scale(Coeff.beta().scale(half))
                          + lap.shift_t(1).scale(Coeff.lam(2).scale(half)))
            return act

        out = NCOneForm.zero(d)
        for w, e in self.parts.items():
            out = out + NCOneForm(d, {wp: e * u for wp, u in action(w).items()})
        return out

    def subs_lam_zero(self):
        return NCOneForm(self.d, {w: e.subs_lam_zero() for w, e in self.parts.items()})

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

    Agreement with the Leibniz-rule oracle `verify.exterior_d_leibniz` is
    checked by the registry check `exactalg.eq-route-agreement` on every
    monomial of degree <= 8."""
    d = psi.d
    out = NCOneForm.zero(d)
    for i in range(1, d + 1):
        gi = psi.partial_x(i)
        if not gi.is_zero():
            out = out + NCOneForm(d, {dx(i): gi})
    p0 = psi.d0()
    if not p0.is_zero():
        out = out + NCOneForm(d, {DT: p0})
    # box^{beta=const} psi = sum_i d^2/dx_i^2 psi(t + i lam) + 2 Delta_0 psi
    box = NCElement.zero(d)
    shifted = psi.shift_t(1)
    for i in range(1, d + 1):
        box = box + shifted.partial_x(i).partial_x(i)
    box = box + psi.delta0_const().scale(2)
    if not box.is_zero():
        half_i_lam = Coeff.i_lam().scale(Fraction(1, 2))
        out = out + NCOneForm(d, {THETA: box.scale(half_i_lam)})
    return out


def commutator_d(psi):
    """(i/lam) [theta, psi] with theta = dt - beta theta'; must equal d psi."""
    d = psi.d
    theta = NCOneForm(d, {DT: NCElement.one(d),
                          THETA: NCElement.scalar(d, -Coeff.beta())})
    comm = theta.mul_elem(psi) - theta.lmul(psi)
    # (i/lam) z = -(z / (i lam))
    try:
        out = NCOneForm(
            d, {w: NCElement(d, {k: -(c.div_i_lam(1)) for k, c in e.terms.items()})
                for w, e in comm.parts.items()})
    except ArithmeticError as exc:  # pragma: no cover - mul_elem bug guard
        raise AssertionError("[theta, psi] not divisible by lam: %s" % exc)
    return out

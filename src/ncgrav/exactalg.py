"""Exact production algebra of the bicrossproduct spacetime.

Generators: commuting spatial coordinates x_1..x_d and a time generator t with
[x_i, t] = i lam x_i, plus the 5D first-order calculus spanned by the basis
one-forms dx_1..dx_d, dt and the extra direction theta' (constant beta).

Elements are kept in canonical normal order: spatial powers to the left of
time powers, function coefficients to the left of basis one-forms.

An element is one flat dict ``terms`` mapping a packed key to a pair of
Python ints (re, im), and one positive int ``den`` shared by the whole
element: the coefficient of x^xpow t^n lam^j beta^k is (re + i im) / den.
Invariant: no pair is (0, 0), and den is 1 or shares no common factor with
all the numerators; zero is ``terms == {}`` with den 1, so equality compares
terms and den.  The structure constants lie in Z[i][lam, beta] (Sitarz, Phys.
Lett. B 349 (1995) 42), so den is nearly always 1, and the product, the
shifts, the derivatives and the one-form actions are int arithmetic on these
pairs with no coefficient object per term.  ``coeff.Coeff`` is the boundary
type: ``monomial`` takes it, and ``coeffs()`` and ``to_text`` build it.  An
element is built only by ``zero``, ``one``, ``monomial`` and arithmetic.

Packed keys.  The key of x^xpow t^n lam^j beta^k is one int of d + 3
fields of FIELD_BITS = 8 bits, lowest first: k, j, n, then x_1..x_d, so the
element's d sets the layout, and ``int.from_bytes``/``int.to_bytes`` pack and
unpack it.  Every exponent of a stored key lies below EXPONENT_LIMIT = 2^6 =
64; the top two bits of each field are headroom.  The operations are key
arithmetic: the product adds two keys, ``_times`` adds a constant, the
one-form actions subtract units of the x_i fields, and the product and the
S^+- shifts add the offsets p (lam unit - t unit) of the cached table
``_shift_offsets``, which is ``_t_power_shifted`` in key form.  A field of
a result is at most the sum of three exponents below the limit (the
product's lam field j1 + j2 + p, with p <= n), which stays below 2^8, so no
field carries into the next; an exponent that reaches the limit sets a
headroom bit, and the operation raises ``ExponentOverflowError`` (an
``OverflowError``) instead of storing it.  A factor with no x and no t is
central, and the product multiplies by it through ``_times``; a factor 1
gives the other factor itself.  Keys are unpacked only at the boundary, by
``coeffs()``, which ``to_text`` reads; it unpacks on each call.  An element
never changes, so results may share elements.

A basis one-form acts on a whole element psi from the left as follows, with
S^+- psi = psi(t +- i lam) and Delta = sum_j d_j^2:

    theta' psi = (S^+ psi) theta'
    dx_i psi   = psi dx_i + i lam d_i(S^+ psi) theta'
    dt psi     = (S^- psi) dt - i lam sum_j (d_j psi) dx_j
                 + [(beta/2)(S^+ psi - S^- psi)
                    + (lam^2/2) Delta(S^+ psi)] theta'

Each follows by induction on the word x^a t^n from the generator relations
theta' t = (t + i lam) theta', dt t = (t - i lam) dt + i lam beta theta',
dt x_j = x_j dt - i lam dx_j and dx_i x_j = x_j dx_i + i lam delta_ij theta'
(all other pairs commute): x_i passes dx_i leaving i lam theta', which then
meets t^n as (t + i lam)^n; x_j passes dt leaving -i lam dx_j, whose own
theta' terms sum to (lam^2/2) Delta; and t^n passes dt as (t - i lam)^n dt
plus (beta/2)((t + i lam)^n - (t - i lam)^n) theta'.  The shift acts on t
only and d_j on x only, so d_j S^+ = S^+ d_j: the theta' and dx_i actions
share the terms of one S^+ psi, and the dx_i actions differentiate them.

One pass per term.  The one-form actions build no intermediate element (no
S^+- psi element, no difference, no Laplacian): each reads every term
c x^a t^n of psi once and writes it into the parts of the result through
small tables for t^n, built from ``_t_power_shifted`` and cached for every
n < EXPONENT_LIMIT.  ``_s_plus_pass`` sums the terms of S^+ psi through
``_shift_offsets(n, 1)``: they are the theta' part of theta' psi, and each
at its key minus one unit of x_i plus one lam unit, with weight i a_i, is
one term of the theta' part of dx_i psi.  ``_one_pass`` writes d psi and
dt psi through three tables each (``_d_tables``, ``_dt_action_tables``):
the dt table holds the shifted powers, the beta table the even (for d) or
odd (for dt) powers of lam in S^+ t^n, and the Laplacian table S^+ t^n
times i lam (for d) or lam^2 (for dt), applied at the key of x^a t^n minus
2 units of x_i with weight a_i (a_i - 1)/2.  The 1/2 of (i lam/2) box and
of (beta/2), (lam^2/2) cancels against a 2 in each table, so every entry is
a Gaussian integer and the theta' part sits over psi's own den, with no
division check.  An exponent is checked only on the result, so d(lam^63 t)
= lam^63 dt and dx_1 (lam^63 x_2 t) = lam^63 x_2 t dx_1, though S^+ psi
holds lam^64, while d(lam^63 t^2) raises (it holds lam^64).

The oracles in `verify` apply the relations one generator at a time, on
plain int/Fraction symbols (`verify.normal_order`, `verify.mul_gen`,
`verify.exterior_d_leibniz`), and read results from here only through
`coeffs()`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb, lcm
from operator import index, or_

from .coeff import Coeff, lowest_terms

# one-form basis tags
DT = "dt"
THETA = "theta'"

# packed-key layout (see the module docstring): one byte per field
FIELD_BITS = 8
EXPONENT_LIMIT = 1 << (FIELD_BITS - 2)
_J, _N, _X = FIELD_BITS, 2 * FIELD_BITS, 3 * FIELD_BITS  # field shifts
_FIELD = (1 << FIELD_BITS) - 1
_J_MASK = _FIELD << _J
_J_UNIT, _N_UNIT = 1 << _J, 1 << _N
_JK_MASK = _N_UNIT - 1
_ONE = {0: (1, 0)}  # the terms of the element 1


class ExponentOverflowError(OverflowError):
    """An exponent reached EXPONENT_LIMIT, the most a packed key holds."""


def _overflow(what, e):
    return ExponentOverflowError(
        "the power of %s reaches %d: packed keys hold exponents below %d "
        "(%d-bit fields with two bits of headroom)"
        % (what, e, EXPONENT_LIMIT, FIELD_BITS))


def _field_names(d):
    return ("beta", "lam", "t") + tuple("x%d" % i for i in range(1, d + 1))


def _int_exponents(xpow, n):
    """(xpow, n) as ints; a bool or non-integer exponent raises ValueError
    naming its field, before `_pack`'s cache, where 2.0 finds a cached 2
    (`effective._require_index`'s rule; effective loads numpy)."""
    powers = []
    for i, e in enumerate((n, *xpow)):
        if isinstance(e, bool) or not hasattr(type(e), "__index__"):
            raise ValueError("the power of %s must be an integer, got %r"
                             % (_field_names(len(xpow))[i + 2], e))
        powers.append(index(e))
    return tuple(powers[1:]), powers[0]


@lru_cache(maxsize=4096)
def _pack(d, xpow, n, j, k):
    """The key of x^xpow t^n lam^j beta^k, for a tuple xpow and exponents
    in 0..EXPONENT_LIMIT - 1.  Cached: an element's monomials recur."""
    fields = (k, j, n, *xpow)
    if len(fields) != d + 3:
        raise ValueError("xpow %r has %d powers, the algebra has d = %d"
                         % (tuple(xpow), len(fields) - 3, d))
    for what, e in zip(_field_names(d), fields):
        if e < 0:
            raise ValueError("the power of %s is %d < 0" % (what, e))
        if e >= EXPONENT_LIMIT:
            raise _overflow(what, e)
    return int.from_bytes(bytes(fields), "little")


@lru_cache(maxsize=4096)
def _x_degree(x):
    """x_1 + .. + x_d of the spatial fields x = key >> _X of a key."""
    return sum(x.to_bytes((x.bit_length() + 7) // 8, "little"))


@lru_cache(maxsize=64)
def _headroom(d):
    """The headroom bits of every field of a d-dimensional key."""
    return int.from_bytes(bytes([_FIELD ^ (EXPONENT_LIMIT - 1)]) * (d + 3),
                          "little")


def _refuse_exponents(keys, d):
    """Raise ExponentOverflowError for the first exponent at the limit."""
    for key in keys:
        for what, e in zip(_field_names(d), key.to_bytes(d + 3, "little")):
            if e >= EXPONENT_LIMIT:
                raise _overflow(what, e)


def dx(i):
    return ("dx", i)


def _form_name(form):
    if form == DT:
        return "dt"
    if form == THETA:
        return "theta'"
    return "dx%d" % form[1]


def _element(d, terms, den=1):
    """NCElement from packed keys to int pairs without (0, 0) over den > 0,
    reduced to the invariant.  The dict is adopted, not copied."""
    if den != 1:
        terms, den = lowest_terms(terms, den)
    out = object.__new__(NCElement)
    out.d, out.terms, out.den = d, terms, den
    return out


class NCElement:
    """Canonical sum of monomials x^xpow t^n lam^j beta^k with Gaussian
    rational coefficients: ``terms`` maps the packed key of (xpow, n, j, k)
    to an int pair (re, im) over the element's one denominator ``den``."""

    __slots__ = ("d", "terms", "den")

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, d):
        return _element(d, {})

    @classmethod
    def one(cls, d):
        return _element(d, dict(_ONE))

    @classmethod
    def monomial(cls, d, xpow, tpow, c=None):
        xpow, tpow = _int_exponents(tuple(xpow), tpow)
        if c is None:
            return _element(d, {_pack(d, xpow, tpow, 0, 0): (1, 0)})
        # c is in lowest terms, so its pairs and den are the element's
        return _element(d, {_pack(d, xpow, tpow, j, k): v
                            for (j, k), v in c.terms.items()}, c.den)

    def coeffs(self):
        """{(xpow, n): Coeff}, the coefficient of each monomial x^xpow t^n."""
        parts = {}
        for key, v in self.terms.items():
            # group by the fields n, x_1..x_d; divmod splits off (j, k)
            jk = divmod(key & _JK_MASK, _J_UNIT)
            parts.setdefault(key >> _N, {})[jk] = v
        out = {}
        for m, p in parts.items():
            n_x = m.to_bytes(self.d + 1, "little")
            out[tuple(n_x[1:]), n_x[0]] = Coeff.from_parts(p, self.den)
        return out

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
        integer re + i im, den > 0, dk >= 0 and dj, dk below EXPONENT_LIMIT.
        A negative dj divides by lam^-dj, which must divide every term."""
        if dj < 0:
            for key in self.terms:
                if key & _J_MASK < -dj << _J:
                    raise ArithmeticError("element not divisible by lam^%d: "
                                          "%s" % (-dj, self.to_text()))
        off = (dj << _J) + dk
        out = {key + off: (a * re - b * im, a * im + b * re)
               for key, (a, b) in self.terms.items()}
        if (dj > 0 or dk > 0) and reduce(or_, out, 0) & _headroom(self.d):
            _refuse_exponents(out, self.d)
        return _element(self.d, out, self.den * den)

    def _times_scalar(self, c):
        """self * c for an element c with no x and no t: c is central, so
        this is one `_times` per term of c, and c = 1 gives self itself."""
        if c.terms == _ONE and c.den == 1:
            return self
        parts = [self._times(re, im, kc >> _J, kc & _FIELD, c.den)
                 for kc, (re, im) in c.terms.items()]
        return sum(parts[1:], parts[0])

    def __mul__(self, other):
        """Normal-ordered product.  Uses t^n x^b = x^b (t - i lam |b|)^n.  A
        factor with no x and no t is central and goes to `_times_scalar`."""
        if not self.terms or not other.terms:
            return _element(self.d, {})
        if max(other.terms) < _N_UNIT:
            return self._times_scalar(other)
        if max(self.terms) < _N_UNIT:
            return other._times_scalar(self)
        right = [(kb, re, im, -_x_degree(kb >> _X))
                 for kb, (re, im) in other.terms.items()]
        out = {}
        get = out.get
        for ka, (r1, i1) in self.terms.items():
            n = (ka >> _N) & _FIELD
            for kb, r2, i2, s in right:
                base = ka + kb
                re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
                for off, sr, si in _shift_offsets(n, s):
                    key = base + off
                    vr, vi = re * sr - im * si, re * si + im * sr
                    cur = get(key)
                    out[key] = ((vr, vi) if cur is None
                                else (cur[0] + vr, cur[1] + vi))
        out = {k: v for k, v in out.items() if v[0] or v[1]}
        if reduce(or_, out, 0) & _headroom(self.d):
            _refuse_exponents(out, self.d)
        return _element(self.d, out, self.den * other.den)

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


def _t_power_shifted(n, s):
    """(t + s i lam)^n for an int s, as ((q, p, re, im), ...) meaning
    (re + i im) lam^p t^q with p = n - q; zero terms are left out.  Its
    callers cache what they build from it."""
    out = []
    for q in range(n + 1):
        # C(n, q) (s i lam)^p
        p = n - q
        val = comb(n, q) * s ** p
        if val:  # i^p: 1, i, -1, -i
            re_im = ((val, 0), (0, val), (-val, 0), (0, -val))[p % 4]
            out.append((q, p) + re_im)
    return tuple(out)


@lru_cache(maxsize=4096)
def _shift_offsets(n, s):
    """`_t_power_shifted(n, s)` as ((off, re, im), ...): lam^p t^(n-p) is
    the key of t^n plus off = p (lam unit - t unit)."""
    step = _J_UNIT - _N_UNIT
    return tuple((p * step, re, im)
                 for _q, p, re, im in _t_power_shifted(n, s))


# The tables of `_one_pass` for t^n (see the module docstring): the dt, the
# beta and the Laplacian table, each ((off, re, im), ...) meaning (re + i im)
# times the term at its key + off.

@lru_cache(maxsize=EXPONENT_LIMIT)
def _d_tables(n):
    """`exterior_d`'s tables for t^n.  With S^+- t^n = sum_p up_p/down_p
    lam^p t^(n-p), read from `_t_power_shifted`:

        dt:     (1 - S^-) t^n / (i lam)       -> i down_p lam^(p-1), p >= 1
        beta:   (i lam / 2) beta (S^+ + S^- - 2) t^n / (i lam)^2
                                              -> -i beta up_p lam^(p-1),
                                                 p >= 2 even
        Delta:  (i lam / 2) d_i^2 S^+         -> i up_p lam^(p+1), with
                                                 weight a_i (a_i - 1)/2"""
    step = _J_UNIT - _N_UNIT
    dt = tuple((p * step - _J_UNIT, -im, re)
               for _q, p, re, im in _t_power_shifted(n, -1) if p)
    up = _t_power_shifted(n, 1)
    beta = tuple((p * step - _J_UNIT + 1, im, -re)
                 for _q, p, re, im in up if p and p % 2 == 0)
    lap = tuple((p * step + _J_UNIT, -im, re) for _q, p, re, im in up)
    return dt, beta, lap


@lru_cache(maxsize=EXPONENT_LIMIT)
def _dt_action_tables(n):
    """The tables of dt t^n in `NCOneForm.mul_elem`, as `_d_tables`:

        dt:     S^- t^n                       -> down_p lam^p
        beta:   (beta / 2)(S^+ - S^-) t^n     -> beta up_p lam^p, p odd
        Delta:  (lam^2 / 2) d_i^2 S^+         -> up_p lam^(p+2), with
                                                 weight a_i (a_i - 1)/2"""
    step = _J_UNIT - _N_UNIT
    dt = tuple((p * step, re, im)
               for _q, p, re, im in _t_power_shifted(n, -1))
    up = _t_power_shifted(n, 1)
    beta = tuple((p * step + 1, re, im) for _q, p, re, im in up if p % 2)
    lap = tuple((p * step + 2 * _J_UNIT, re, im) for _q, p, re, im in up)
    return dt, beta, lap


@lru_cache(maxsize=4096)
def _x_units(x):
    """((i, a_i, unit of field x_(i+1)), ...) for the nonzero powers of the
    spatial fields x = key >> _X of a key."""
    return tuple((i, a, 1 << (_X + i * FIELD_BITS))
                 for i, a in enumerate(x.to_bytes((x.bit_length() + 7) // 8,
                                                  "little")) if a)


def _one_pass(psi, tables, grad_off, gre, gim):
    """The parts {basis one-form: element} of the one-form that `tables`
    (`_d_tables` or `_dt_action_tables`) make of psi, in one pass over its
    terms: the dt and theta' parts from the tables, and the dx_i part
    (gre + i gim) d_i psi at key + grad_off.  An exponent of the result at
    EXPONENT_LIMIT raises; intermediate sums are never stored."""
    d, den = psi.d, psi.den
    dt_part, theta = {}, {}
    grads = [{} for _ in range(d)]
    dget, tget = dt_part.get, theta.get
    for key, (re, im) in psi.terms.items():
        dt_tab, beta_tab, lap_tab = tables((key >> _N) & _FIELD)
        for off, sr, si in dt_tab:
            k2 = key + off
            vr, vi = re * sr - im * si, re * si + im * sr
            cur = dget(k2)
            dt_part[k2] = (vr, vi) if cur is None else (cur[0] + vr,
                                                        cur[1] + vi)
        for off, sr, si in beta_tab:
            k2 = key + off
            vr, vi = re * sr - im * si, re * si + im * sr
            cur = tget(k2)
            theta[k2] = (vr, vi) if cur is None else (cur[0] + vr,
                                                      cur[1] + vi)
        x = key >> _X
        if not x:
            continue
        gr, gi = re * gre - im * gim, re * gim + im * gre
        for i, a, unit in _x_units(x):
            # one term of psi per key: the dx_i part has no collisions
            grads[i][key - unit + grad_off] = (gr * a, gi * a)
            if a > 1:  # d_i^2 x_i^a = 2 C(a, 2) x_i^(a-2)
                base, f = key - 2 * unit, a * (a - 1) // 2
                fr, fi = re * f, im * f
                for off, sr, si in lap_tab:
                    k2 = base + off
                    vr, vi = fr * sr - fi * si, fr * si + fi * sr
                    cur = tget(k2)
                    theta[k2] = (vr, vi) if cur is None else (cur[0] + vr,
                                                              cur[1] + vi)
    return _checked_parts(d, den, {DT: dt_part, THETA: theta}, {
        dx(i): g for i, g in enumerate(grads, start=1)})


def _s_plus_pass(psi, forms):
    """The nonzero theta' parts {w: element} of w psi for the theta' and
    dx_i among `forms`, from one pass over psi's terms through
    `_shift_offsets(n, 1)`, which sums the terms of S^+ psi: theta' takes
    them, and dx_i takes i lam d_i(S^+ psi), each term at its key minus one
    unit of x_i plus one lam unit with weight i a_i (one term per key)."""
    up = {}
    uget = up.get
    for key, (re, im) in psi.terms.items():
        for off, sr, si in _shift_offsets((key >> _N) & _FIELD, 1):
            k2 = key + off
            vr, vi = re * sr - im * si, re * si + im * sr
            cur = uget(k2)
            up[k2] = (vr, vi) if cur is None else (cur[0] + vr, cur[1] + vi)
    up = {k: v for k, v in up.items() if v[0] or v[1]}
    parts = {THETA: up} if THETA in forms else {}
    wants = [w[1] - 1 for w in forms if w != DT and w != THETA]
    if wants:
        grads = [{} if i in wants else None for i in range(psi.d)]
        for key, (re, im) in up.items():
            for i, a, unit in _x_units(key >> _X):
                if grads[i] is not None:
                    grads[i][key - unit + _J_UNIT] = (-im * a, re * a)
        parts.update((dx(i + 1), grads[i]) for i in wants)
    return _checked_parts(psi.d, psi.den, {}, parts)


def _checked_parts(d, den, sums, parts):
    """{w: element over den} of the nonempty parts and sums {w: terms}, with
    the (0, 0) of sums dropped; an exponent at EXPONENT_LIMIT raises."""
    for w, out in sums.items():
        parts[w] = {k: v for k, v in out.items() if v[0] or v[1]}
    bits = 0
    for out in parts.values():
        bits = reduce(or_, out, bits)
    if bits & _headroom(d):
        _refuse_exponents([k for out in parts.values() for k in out], d)
    return {w: _element(d, out, den) for w, out in parts.items() if out}


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

    def coeff(self, form):
        return self.parts.get(form, NCElement.zero(self.d))

    def __eq__(self, other):
        return isinstance(other, NCOneForm) and self.parts == other.parts

    def __add__(self, other):
        out = dict(self.parts)
        for w, e in other.parts.items():
            out[w] = out[w] + e if w in out else e
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
        whole of psi (S^+- psi = psi(t +- i lam), Delta = sum_j d_j^2):

            theta' psi = (S^+ psi) theta'
            dx_i psi   = psi dx_i + i lam d_i(S^+ psi) theta'
            dt psi     = (S^- psi) dt - i lam sum_j (d_j psi) dx_j
                         + [(beta/2)(S^+ psi - S^- psi)
                            + (lam^2/2) Delta(S^+ psi)] theta'

        Each follows from the generator relations by induction on the word
        of a monomial (see the module docstring).  dt psi is one `_one_pass`
        over psi's terms, and the theta' parts of every theta' and dx_i
        action omega has are one `_s_plus_pass`: no element is built before
        the products but the parts of the actions.  The oracle is
        `verify.normal_order`, which pushes one generator at a time."""
        thetas = (_s_plus_pass(other, self.parts)
                  if self.parts.keys() - {DT} else {})
        out = {}
        for w, e in self.parts.items():
            if w == DT:
                # -i lam d_j psi at key - unit_j + lam unit
                act = _one_pass(other, _dt_action_tables, _J_UNIT, 0, -1)
            else:
                act = {} if w == THETA else {w: other}
                if w in thetas:
                    act[THETA] = thetas[w]
            for wp, u in act.items():
                v = e * u
                out[wp] = out[wp] + v if wp in out else v
        return NCOneForm(self.d, out)

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
    the constant-beta wave operator contracted against theta'.  With
    S^+- psi = psi(t +- i lam):

        d0 psi = (psi - S^- psi) / (i lam)
        box psi = sum_i d_i^2 (S^+ psi)
                  + beta (S^+ psi + S^- psi - 2 psi) / (i lam)^2

    and the theta' part is (i lam / 2) box psi.  All of it is one pass over
    psi's terms through `_d_tables` (see the module docstring).

    Agreement with the Leibniz-rule oracle `verify.exterior_d_leibniz`, which
    works on symbols and shares no arithmetic with this module, is checked by
    the registry check `exactalg.eq-route-agreement` on every monomial of
    degree <= 8."""
    return NCOneForm(psi.d, _one_pass(psi, _d_tables, 0, 1, 0))


def commutator_d(psi):
    """(i/lam) [theta, psi] with theta = dt - beta theta'; must equal d psi.
    Its domain is narrower than `exterior_d`'s: [theta, psi] holds one more
    power of lam before the division by lam, so lam^63 t, whose d is
    lam^63 dt, raises ExponentOverflowError here."""
    d = psi.d
    minus_beta = _element(d, {_pack(d, (0,) * d, 0, 0, 1): (-1, 0)})
    theta = NCOneForm(d, {DT: NCElement.one(d), THETA: minus_beta})
    comm = theta.mul_elem(psi) - theta.lmul(psi)
    # (i/lam) z = i z lam^-1
    return NCOneForm(d, {w: e._times(0, 1, -1)
                         for w, e in comm.parts.items()})

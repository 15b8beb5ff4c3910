"""Named self-check registry: every module invariant behind one entry point.

Each check is a function level -> (ok, measured) where level is "fast" or
"full" (full uses more samples and finer grids).  The CLI `verify` subcommand
runs the registry and exits nonzero if anything fails.  The seeded sample
generators `random_element` and `random_tf`, the monomial set `monomials` and
the oracles are shared with the test suite.  The oracles are the second routes
that no production module calls: the Meljanac-Stojic realization of the
product (`realization_product`), and on its plain int symbols the word
reducer `normal_order` (with the generator push `mul_gen`) and the
Leibniz-rule `exterior_d_leibniz`; production results reach them only
through `realization_symbol` and `form_symbol`.  The samples are Gaussian
integers: each identity checked is linear or bilinear over the scalars, so
it holds on Gaussian rationals once it holds on Gaussian integers.  The
five closed-form operator symbols on a mode (`symbol_d0` ...
`symbol_delta0_general`) and the hand-written weak-field operator
`box_newton_oracle` are oracles too.  The code only the checks use lives
here beside them: the effective-parameter reports `series_check` and
`extrema_report` (with `mG_over_mI`; it finds its extrema by the
golden-section search `_golden_min`, so the registry loads no scipy),
`lam_valuation`, `classical_limit_check`, the static metric `StaticMetric`
with the weak-field Poisson check `weak_field_check` and their finite
differences, the test orbital `exp_orbital`, the spectrum's
`virial_check`, and the reduction-residual laboratory
(`reduction_residual` with `_stage_two` and its `ReductionScales`).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import time
from dataclasses import dataclass
from operator import add

import numpy as np

from . import dispersion as D
from . import effective as E
from . import geometry as G
from . import spectrum as S
from . import timeops as T
from . import waveops as W
from .coeff import Coeff
from .exactalg import DT, THETA, NCElement, commutator_d, dx, exterior_d
from .timeops import POWER_WINDOW, TimeFunction as TF, _check_nondegenerate

CHECKS = []


def check(name):
    def wrap(fn):
        CHECKS.append((name, fn))
        return fn
    return wrap


# A product of two random elements has degree <= MONOMIAL_DEGREE.
SAMPLE_DEGREE = 4
MONOMIAL_DEGREE = 2 * SAMPLE_DEGREE


def random_element(rng):
    """Sum of 3 monomials in x1, x2, x3, t of total degree <= SAMPLE_DEGREE,
    coefficients a + b i with a in [-3, 3] and b in [-2, 2]."""
    out = NCElement.zero(3)
    for _ in range(3):
        a = [0, 0, 0]
        for _ in range(rng.randint(0, SAMPLE_DEGREE)):
            a[rng.randrange(3)] += 1
        n = rng.randint(0, SAMPLE_DEGREE - sum(a))
        c = Coeff.from_rational(rng.randint(-3, 3), rng.randint(-2, 2))
        out = out + NCElement.monomial(3, a, n, c)
    return out


def random_tf(rng, nterms=2):
    """Sum of `nterms` terms c t^p e^{s t}: p in 0..2, s and c complex with
    parts uniform in [-0.5, 0.5] and [-1, 1]."""
    out = TF.zero()
    for _ in range(nterms):
        out = out + TF({(rng.randint(0, 2),
                         complex(rng.uniform(-0.5, 0.5),
                                 rng.uniform(-0.5, 0.5))):
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1))})
    return out


def monomials():
    """Every x1^a x2^b x3^c t^n with a + b + c + n <= MONOMIAL_DEGREE,
    coefficient 1 (495 of them)."""
    top = MONOMIAL_DEGREE
    return [NCElement.monomial(3, (a1, a2, a3), n)
            for a1, a2, a3, n in itertools.product(range(top + 1), repeat=4)
            if a1 + a2 + a3 + n <= top]


# -- the Meljanac-Stojic realization: an oracle for the product ---------------
# x_i acts on commuting polynomials in X_1..X_d, T as multiplication by X_i,
# and t as T - i lam sum_j X_j d/dX_j; these operators satisfy
# [x_i, t] = i lam x_i (Meljanac & Stojic, Eur. Phys. J. C 47 (2006) 531).
# Acting on 1, x^a t^n gives X^a T^n, so the normal-ordered symbol of f g is
# f's operator acting on the symbol of g.  A symbol is a dict
# {(a_1, .., a_d, n, lam_pow, beta_pow): (re, im)} of ints;
# nothing here uses exactalg's or coeff's arithmetic.

def realization_symbol(elem):
    """The symbol of an NCElement, read through its coefficients."""
    return {(*xpow, n, j, k): v for (xpow, n), c in elem.coeffs().items()
            for (j, k), v in c.terms.items()}


def form_symbol(form):
    """The one-form symbol {basis form: symbol} of an NCOneForm."""
    return {w: realization_symbol(e) for w, e in form.parts.items()}


def _symbol_add(out, key, re, im):
    old_re, old_im = out.get(key, (0, 0))
    re, im = old_re + re, old_im + im
    if re or im:
        out[key] = (re, im)
    else:
        out.pop(key, None)


def _realize_t(sym, d):
    """t acting on a symbol: T times it, minus i lam sum_j X_j d/dX_j of it."""
    out = {}
    for key, (re, im) in sym.items():
        xs, n, j, k = key[:d], key[d], key[d + 1], key[d + 2]
        _symbol_add(out, (*xs, n + 1, j, k), re, im)
        for a in xs:
            if a:  # X_j d/dX_j X^a = a_j X^a, times -i lam
                _symbol_add(out, (*xs, n, j + 1, k), a * im, -a * re)
    return out


def realization_product(f, g, d):
    """The symbol of f g from the symbols of f and g."""
    out = {}
    for key, (re, im) in f.items():
        acted = g
        for _ in range(key[d]):
            acted = _realize_t(acted, d)
        base = key[:d] + (0,) + key[d + 1:]  # t^n went into acting on g
        for k2, (r2, i2) in acted.items():
            _symbol_add(out, tuple(map(add, base, k2)),
                        re * r2 - im * i2, re * i2 + im * r2)
    return out


def realization_agrees(f, g):
    """True if f * g has the symbol that the realization gives."""
    return realization_symbol(f * g) == realization_product(
        realization_symbol(f), realization_symbol(g), f.d)


# -- the Leibniz-rule d: a word reducer on symbols ----------------------------
# A one-form symbol is {basis form: symbol} with the symbol standing to the
# left of its form.  The reducer pushes one generator at a time past the
# basis one-form with the five bimodule relations, and multiplies by the
# generator through `realization_product`; nothing here uses exactalg's or
# coeff's arithmetic.

def _generator(gen, d):
    """The symbol of the generator 't' or ('x', i)."""
    key = [0] * (d + 3)
    key[d if gen == "t" else gen[1] - 1] = 1
    return {tuple(key): (1, 0)}


def _add_form(out, form):
    """Add the one-form symbol `form` into `out`, in place."""
    for w, sym in form.items():
        part = out.setdefault(w, {})
        for key, (re, im) in sym.items():
            _symbol_add(part, key, re, im)


def _push_rules(form, gen):
    """form * gen = gen * form + sum of sign i lam beta^k form', as a list of
    (form', sign, k): the five bimodule relations."""
    if gen == "t":
        if form == THETA:  # theta' t = (t + i lam) theta'
            return [(THETA, 1, 0)]
        if form == DT:  # dt t = t dt - i lam dt + i lam beta theta'
            return [(DT, -1, 0), (THETA, 1, 1)]
        return []  # [dx_i, t] = 0
    if form == DT:  # dt x_j = x_j dt - i lam dx_j
        return [(dx(gen[1]), -1, 0)]
    if form == dx(gen[1]):  # dx_i x_j = x_j dx_i + i lam delta_ij theta'
        return [(THETA, 1, 0)]
    return []  # theta' and dx_i (i != j) commute with x_j


def mul_gen(form, gen, d):
    """Right-multiply the one-form symbol `form` by a generator ('t' or
    ('x', i)), pushing it left past each basis one-form."""
    g = _generator(gen, d)
    out = {}
    for w, sym in form.items():
        _add_form(out, {w: realization_product(sym, g, d)})
        for wp, sign, k in _push_rules(w, gen):
            part = out.setdefault(wp, {})
            for key, (re, im) in sym.items():
                # (re + i im) sign i lam beta^k
                _symbol_add(part, (*key[:d + 1], key[d + 1] + 1,
                                   key[d + 2] + k), -sign * im, sign * re)
    return {w: sym for w, sym in out.items() if sym}


class TwoFormError(ValueError):
    """Raised when a word contains more than one basis one-form factor."""


def _check_tag(d, g):
    if g in ("t", DT, THETA):
        return
    if (isinstance(g, tuple) and len(g) == 2 and g[0] in ("x", "dx")
            and type(g[1]) is int and 1 <= g[1] <= d):
        return
    raise ValueError("invalid tag %r: expected 't', 'dt', \"theta'\", ('x', i) "
                     "or ('dx', i) with 1 <= i <= %d" % (g, d))


def _is_form(g):
    return g in (DT, THETA) or g[0] == "dx"


def normal_order(d, word):
    """Reduce a word (sequence of generator/one-form tags) to its symbol.

    Tags: ('x', i), 't', ('dx', i), 'dt', "theta'".  The word is read from
    the symbol of 1 on its left.  Returns a symbol if the word has no
    one-form factor, a one-form symbol if it has exactly one; raises
    TwoFormError otherwise (no 2-form relations in this calculus).  Any
    other tag, or an index outside 1..d, raises ValueError.
    """
    for g in word:
        _check_tag(d, g)
    nforms = sum(1 for g in word if _is_form(g))
    if nforms > 1:
        raise TwoFormError("word contains %d one-form factors" % nforms)
    acc = {(0,) * (d + 3): (1, 0)}
    form = None
    for g in word:
        if form is not None:
            form = mul_gen(form, g, d)
        elif _is_form(g):
            form = {g: acc}
        else:
            acc = realization_product(acc, _generator(g, d), d)
    return acc if form is None else form


def _monomial_word(xpow, n):
    word = []
    for i, p in enumerate(xpow, start=1):
        word.extend([("x", i)] * p)
    word.extend(["t"] * n)
    return word


def exterior_d_leibniz(psi, d):
    """d of the symbol `psi` by the Leibniz rule on each monomial word:
    d(g1..gk) = sum_j g1..g_{j-1} d(g_j) g_{j+1}..gk, summed from the left as
    d(u g) = d(u) g + u d(g), so the one-form built so far is pushed past
    each next generator with `mul_gen`.

    Oracle only: the registry and the tests compare it with the symbol of
    `exterior_d`."""
    out = {}
    for key, c in psi.items():
        prefix = {(0,) * (d + 1) + key[d + 1:]: c}
        form = {}
        for g in _monomial_word(key[:d], key[d]):
            form = mul_gen(form, g, d)
            _add_form(form, {DT if g == "t" else dx(g[1]): prefix})
            prefix = realization_product(prefix, _generator(g, d), d)
        _add_form(out, form)
    return {w: sym for w, sym in out.items() if sym}


# -- exact calculus ----------------------------------------------------------

@check("exactalg.leibniz-product-rule")
def _(level):
    rng = random.Random(1)
    n = 200 if level == "full" else 30
    for _ in range(n):
        f, g = random_element(rng), random_element(rng)
        if exterior_d(f * g) != exterior_d(f).mul_elem(g) \
                + exterior_d(g).lmul(f):
            return False, "failed on a random product"
    return True, "%d exact products" % n


@check("exactalg.inner-form-property")
def _(level):
    rng = random.Random(2)
    n = 200 if level == "full" else 30
    for _ in range(n):
        psi = random_element(rng)
        if exterior_d(psi) != commutator_d(psi):
            return False, "d psi != (i/lam)[theta, psi]"
    return True, "%d exact elements" % n


@check("exactalg.eq-route-agreement")
def _(level):
    # Both routes are linear over the central Coeff ring, so agreeing on every
    # monomial of degree <= MONOMIAL_DEGREE means agreeing on every element
    # built from them, products of two random elements included.
    psis = monomials()
    for psi in psis:
        if exterior_d_leibniz(realization_symbol(psi), 3) \
                != form_symbol(exterior_d(psi)):
            return False, "monomial %s" % psi.to_text()
    return True, "%d monomials of degree <= %d" % (len(psis),
                                                    MONOMIAL_DEGREE)


@check("exactalg.realization-oracle")
def _(level):
    rng = random.Random(24)
    psis = monomials()
    partners, n = (3, 200) if level == "full" else (1, 30)
    for psi in psis:
        for _ in range(partners):
            if not realization_agrees(psi, rng.choice(psis)):
                return False, "monomial product %s" % psi.to_text()
    for _ in range(n):
        if not realization_agrees(random_element(rng), random_element(rng)):
            return False, "random product"
    return True, "%d monomial products, %d random pairs" % (
        partners * len(psis), n)


@check("exactalg.normal-order-confluence")
def _(level):
    rng = random.Random(3)
    n = 80 if level == "full" else 20
    gens = ["t", ("x", 1), ("x", 2)]
    for _ in range(n):
        word = [rng.choice(gens) for _ in range(rng.randint(2, 8))]
        pos = rng.randrange(len(word) + 1)
        full = word[:pos] + [rng.choice([DT, THETA, dx(1)])] + word[pos:]
        whole = normal_order(3, full)
        cut = rng.randrange(1, len(full))
        left, right = full[:cut], full[cut:]
        part = normal_order(3, left)
        if any(_is_form(g) for g in left):
            for g in right:
                part = mul_gen(part, g, 3)
        else:  # the one-form factor is in `right`
            part = {w: realization_product(part, sym, 3)
                    for w, sym in normal_order(3, right).items()}
        if part != whole:
            return False, "split reduction disagrees"
    return True, "%d random words" % n


def lam_valuation(c):
    """The smallest power of lam in the Coeff c (None for zero)."""
    return min((j for j, _k in c.terms), default=None)


@check("exactalg.classical-limit-theta-divisible")
def _(level):
    rng = random.Random(4)
    for _ in range(20):
        theta_part = exterior_d(random_element(rng)).coeff(THETA)
        for c in theta_part.coeffs().values():
            if lam_valuation(c) < 1:
                return False, "theta' coefficient survives lam -> 0"
    return True, "20 elements"


# -- time operators ----------------------------------------------------------

@check("timeops.leibniz-constant")
def _(level):
    rng = random.Random(5)
    lam, n = 0.3, (100 if level == "full" else 25)
    worst = 0.0
    for _ in range(n):
        f, g = random_tf(rng), random_tf(rng)
        lhs = T.delta0_const(f * g, lam, 1.0)
        rhs = (T.delta0_const(f, lam, 1.0) * g.shift(1, lam)
               + f.shift(-1, lam) * T.delta0_const(g, lam, 1.0)
               + T.d0(f, lam) * T.d0(g, lam).shift(1, lam))
        diff = lhs - rhs
        worst = max(worst, diff.max_coeff()
                    / max(lhs.max_coeff(), rhs.max_coeff(), 1.0))
    return worst < 1e-12, "max rel dev %.2e over %d pairs" % (worst, n)


@check("timeops.leibniz-hybrid")
def _(level):
    rng = random.Random(6)
    lam, n = 0.3, (100 if level == "full" else 25)
    worst = 0.0
    for _ in range(n):
        f, g = random_tf(rng), random_tf(rng)
        lhs = T.delta0_hybrid(f * g, lam)
        rhs = (T.delta0_hybrid(f, lam) * g
               + f.shift(-1, lam) * T.delta0_hybrid(g, lam)
               + T.d0(f, lam) * g.deriv())
        diff = lhs - rhs
        worst = max(worst, diff.max_coeff()
                    / max(lhs.max_coeff(), rhs.max_coeff(), 1.0))
    return worst < 1e-12, "max rel dev %.2e over %d pairs" % (worst, n)


# The operator symbols on the pure mode e^{-i omega t}, written as closed
# forms (not by applying the operators), so that timeops.symbol-consistency
# is a genuine cross-check; the reduction laboratory expands its stage (ii)
# in the first three.

def symbol_d0(omega, lam):
    return (1 - cmath.exp(-omega * lam)) / (1j * lam)


def symbol_delta0_const(omega, lam, beta):
    # -(beta/lam^2)(cosh(omega lam) - 1), written via sinh^2 for stability
    u = omega * lam
    return -(beta / lam ** 2) * 2 * math.sinh(u / 2) ** 2


def symbol_delta0_hybrid(omega, lam):
    return (1.0 / (1j * lam)) * (-1j * omega
                                 - (1 - cmath.exp(-omega * lam)) / (1j * lam))


def symbol_delta0_power(omega, lam, n):
    if abs(n - 1) < POWER_WINDOW:
        return symbol_delta0_hybrid(omega, lam) * cmath.exp(omega * lam)
    if abs(n - 2) < POWER_WINDOW:
        zeta = cmath.exp(omega * lam)
        return (symbol_d0(omega, lam) * zeta ** 2
                + 1j * omega * zeta) / (1j * lam)
    e = cmath.exp
    num = (e(omega * lam) + (1 - n) * e(-(1 - n) * omega * lam)
           - (2 - n) * e(n * omega * lam))
    return num / ((1j * lam) ** 2 * (2 - n) * (1 - n))


def symbol_delta0_general(omega, lam, mu, nu, beta):
    _check_nondegenerate(mu, nu)
    a2 = -(beta / mu - 1)
    a3 = 1 - beta / (nu + mu)
    e = cmath.exp
    num = (nu * e(omega * lam) + mu * e(omega * lam * a2)
           - (nu + mu) * e(omega * lam * a3))
    return num / (1j * lam) ** 2


@check("timeops.symbol-consistency")
def _(level):
    rng = random.Random(7)
    lam, worst = 0.3, 0.0
    for _ in range(20):
        w = rng.uniform(-2, 2)
        mode = TF.mode(w)
        pairs = [
            (symbol_d0(w, lam), T.d0(mode, lam)),
            (symbol_delta0_const(w, lam, -1.0),
             T.delta0_const(mode, lam, -1.0)),
            (symbol_delta0_hybrid(w, lam), T.delta0_hybrid(mode, lam)),
            (symbol_delta0_power(w, lam, 3),
             T.delta0_power(mode, lam, 3)),
            (symbol_delta0_general(w, lam, 0.4, 0.3, 0.9),
             T.delta0_general(mode, lam, 0.4, 0.3, 0.9)),
        ]
        for sym, applied in pairs:
            diff = applied - TF.mode(w, sym)
            worst = max(worst, diff.max_coeff() / max(abs(sym), 1.0))
    return worst < 1e-12, "max dev %.2e" % worst


@check("timeops.power-special-case-continuity")
def _(level):
    rng = random.Random(8)
    worst = 0.0
    for n0 in (1.0, 2.0):
        for eps in (1e-6, -1e-6):
            f = random_tf(rng)
            near = T.delta0_power(f, 0.3, n0 + eps)
            exact = T.delta0_power(f, 0.3, n0)
            worst = max(worst, (near - exact).max_coeff()
                        / max(exact.max_coeff(), 1.0))
    return worst < 1e-5, "max dev %.2e" % worst


@check("timeops.general-reduces-to-const")
def _(level):
    rng = random.Random(9)
    worst = 0.0
    for _ in range(20):
        f, beta = random_tf(rng), -1.3
        diff = T.delta0_general(f, 0.3, beta / 2, beta / 2, beta) \
            - T.delta0_const(f, 0.3, beta)
        worst = max(worst, diff.max_coeff() / max(f.max_coeff(), 1.0))
    return worst < 1e-12, "max dev %.2e" % worst


LIMIT_T_SAMPLES = np.linspace(-1.0, 1.0, 21)


def classical_limit_check(op, f, lambdas, target):
    """Error of op(f; lam) against the classical target on LIMIT_T_SAMPLES,
    per lam, with the convergence order fitted from the error decay.

    op: callable f, lam -> TimeFunction;  target: TimeFunction.
    """
    errors = np.asarray([max(abs((op(f, lam) - target).evaluate(complex(tv)))
                             for tv in LIMIT_T_SAMPLES) for lam in lambdas])
    lams = np.asarray([float(x) for x in lambdas])
    if np.all(errors < 1e-14):
        order = float("inf")
    else:
        mask = errors > 1e-14
        order = float(np.polyfit(np.log(lams[mask]), np.log(errors[mask]), 1)[0]) \
            if mask.sum() >= 2 else float("nan")
    return {"lambdas": list(lams), "errors": [float(e) for e in errors],
            "fitted_order": order}


@check("timeops.classical-limit-orders")
def _(level):
    rep1 = classical_limit_check(lambda g, lam: T.d0(g, lam),
                                 TF.monomial(3), [0.1, 0.05, 0.025],
                                 TF.monomial(3).deriv())
    f = TF.mode(1.0)
    rep2 = classical_limit_check(
        lambda g, lam: T.delta0_const(g, lam, 1.0), f,
        [0.1, 0.05, 0.025], f.deriv().deriv().scale(0.5))
    ok = 0.8 < rep1["fitted_order"] < 1.3 and rep2["fitted_order"] >= 1
    return ok, "d0 order %.2f, delta0 order %.2f" % (rep1["fitted_order"],
                                                     rep2["fitted_order"])


# -- geometry ----------------------------------------------------------------

@check("geometry.closed-form-ode-residuals")
def _(level):
    radii = G.default_log_grid(0.5, 50.0, 100)
    worst = 0.0
    for n in (1.0, 2.0, 3.0, 0.5, 5.0):
        mu, nu = G.mu_nu_closed(n)
        rm, rn = G.ode_residuals(G.RadialProfile.power_law(n), mu, nu, radii)
        worst = max(worst, rm.max(), rn.max())
    return worst < 1e-10, "max rel residual %.2e" % worst


@check("geometry.newton-ode-residuals")
def _(level):
    beta, mu, nu = G.mu_nu_newton(1.0, 1.0)
    rm, rn = G.ode_residuals(beta, mu, nu, G.default_log_grid(0.5, 50.0, 100))
    worst = max(rm.max(), rn.max())
    return worst < 1e-10, "max rel residual %.2e" % worst


@check("geometry.numeric-matches-closed")
def _(level):
    grid = G.default_log_grid(0.5, 10.0, 200)
    mu1, nu1 = G.mu_nu_closed(1)
    mu, nu = G.mu_nu_numeric(G.RadialProfile.power_law(1), 1.0, 1.0, 0.0, grid)
    worst = max(np.max(np.abs(mu(grid) - mu1(grid))),
                np.max(np.abs(nu(grid) - nu1(grid))))
    return worst < 1e-8, "max dev %.2e" % worst


@check("geometry.mu-nu-linearity")
def _(level):
    grid = G.default_log_grid(0.5, 10.0, 150)
    b1, b2 = G.RadialProfile.power_law(1), G.RadialProfile.constant(0.5)
    mu1, nu1 = G.mu_nu_numeric(b1, 1.0, 1.0, 0.0, grid)
    mu2, nu2 = G.mu_nu_numeric(b2, 1.0, 0.25, 0.25, grid)
    mu12, nu12 = G.mu_nu_numeric(b1 + b2, 1.0, 1.25, 0.25, grid)
    worst = max(np.max(np.abs(mu12(grid) - mu1(grid) - mu2(grid))),
                np.max(np.abs(nu12(grid) - nu1(grid) - nu2(grid))))
    return worst < 1e-10, "max dev %.2e" % worst


# -- the static metric and the weak-field Poisson check -----------------------

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


class StaticMetric:
    """g = (1/beta) dt x dt + dx_i x dx_i with beta < 0."""

    def __init__(self, beta_profile):
        self.beta = beta_profile

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


class SignatureError(ValueError):
    """beta >= 0 somewhere: the static metric loses Lorentzian signature."""


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


@check("geometry.laplace-beltrami-forms")
def _(level):
    beta, _, _ = G.mu_nu_newton(1e-3, 1.0)
    met = StaticMetric(beta)
    r = np.geomspace(0.5, 5.0, 3000 if level == "full" else 1500)
    vals = r * np.exp(-r)
    a = met.laplace_beltrami_static(vals, r)
    b = met.laplace_beltrami_expanded(vals, r)
    worst = np.max(np.abs(a - b)[5:-5]) / np.max(np.abs(b))
    return worst < 1e-5, "max rel dev %.2e" % worst


@check("geometry.weak-field-poisson")
def _(level):
    Gn, c, M, a = 6.674e-11, 3e8, 5.97e24, 2e6
    phi = G.RadialProfile(lambda r: -Gn * M / np.sqrt(r ** 2 + a ** 2))
    rho = G.RadialProfile(
        lambda r: 3 * M * a ** 2 / (4 * np.pi * (r ** 2 + a ** 2) ** 2.5))
    grid = np.geomspace(2e5, 2e8, 6000 if level == "full" else 3000)
    rep = weak_field_check(phi, rho, c, Gn, grid)
    ok = rep["max_poisson_residual"] / rep["poisson_scale"] < 1e-5 \
        and rep["max_rel_deviation"] < 1e-6
    return ok, "poisson %.2e, ricci dev %.2e" % (
        rep["max_poisson_residual"] / rep["poisson_scale"],
        rep["max_rel_deviation"])


# -- wave operators ----------------------------------------------------------

_GRID = G.default_log_grid(0.5, 20.0, 80)


def exp_orbital(a):
    """phi = e^{-r/a} with analytic derivatives (hydrogen-like shape)."""
    return G.RadialProfile(lambda r: np.exp(-r / a),
                           deriv=lambda r: -np.exp(-r / a) / a,
                           deriv2=lambda r: np.exp(-r / a) / a ** 2)


@check("waveops.massless-shell-residual")
def _(level):
    lam, c = 0.05, 1.0
    worst = 0.0
    for w in (0.2, 0.8, 1.5):
        k = -math.expm1(-w * lam) / (c * lam)
        psi = W.SeparableField.single(W.PlaneWave(k), TF.mode(w))
        res = W.kg_residual(W.box_const(psi, -1 / c ** 2, lam), psi, 0.0,
                            1.0, c)
        worst = max(worst, abs(sum(f.evaluate(0.1) for _, f in res.terms)))
    return worst < 1e-12, "max residual %.2e" % worst


@check("waveops.general-const-coherence")
def _(level):
    lam, beta0 = 0.05, -1.0
    psi = W.SeparableField.single(exp_orbital(1.0), TF.mode(0.8))
    bc = W.box_const(psi, beta0, lam)
    half = G.RadialProfile.constant(beta0 / 2)
    bg = W.box_general(psi, G.RadialProfile.constant(beta0), half, half, lam,
                       grid=_GRID, mode="pointwise")
    d, s = W.field_max_diff(bc, bg, _GRID)
    return d / s < 1e-10, "rel dev %.2e" % (d / s)


def box_newton_oracle(psi, gamma, c, lam):
    """The weak-field operator written out by hand: box_const at beta =
    -1/c^2, the radial drift on psi(t+il) and the hybrid term; the second
    route to waveops.box_newton, which is box_general on the Newton beta."""
    out = W.box_const(psi, -1.0 / c ** 2, lam)
    for sp, f in psi.terms:
        if isinstance(sp, W.PlaneWave):
            raise ValueError("box_newton needs radial spatial parts")
        shifted = f.shift(1, lam)
        drift = G.RadialProfile(
            lambda r, _sp=sp: gamma / (2 * r ** 2 * (1 + gamma / r))
            * _sp.deriv(r))
        out.terms.append((drift, shifted))
        hyb_weight = G.RadialProfile(
            lambda r, _sp=sp: -(2 * gamma / c ** 2) / r
            * np.asarray(_sp(r), dtype=complex))
        out.terms.append((hyb_weight, T.delta0_power(f, lam, 1)))
    return out


@check("waveops.newton-general-coherence")
def _(level):
    lam, c, gamma = 0.05, 1.0, 1e-3
    worst = 0.0
    n_fields = 10 if level == "full" else 4
    for i in range(n_fields):
        w = 0.3 + 0.2 * i
        psi = W.SeparableField.single(exp_orbital(1.0), TF.mode(w))
        d, s = W.field_max_diff(W.box_newton(psi, gamma, c, lam),
                                box_newton_oracle(psi, gamma, c, lam), _GRID)
        worst = max(worst, d / s)
    return worst < 1e-8, "rel dev %.2e over %d fields" % (worst, n_fields)


@check("waveops.linearity")
def _(level):
    lam = 0.05
    f1 = W.SeparableField.single(exp_orbital(1.0), TF.mode(0.4))
    f2 = W.SeparableField.single(exp_orbital(1.0), TF.mode(1.0))
    combo = f1 + f2.scale(2.5)
    lhs = W.box_newton(combo, 1e-3, 1.0, lam)
    rhs = W.box_newton(f1, 1e-3, 1.0, lam) \
        + W.box_newton(f2, 1e-3, 1.0, lam).scale(2.5)
    d, s = W.field_max_diff(lhs, rhs, _GRID)
    return d / s < 1e-12, "rel dev %.2e" % (d / s)


# -- dispersion --------------------------------------------------------------

@check("dispersion.solve-k-oracle")
def _(level):
    lam, c, hbar = 0.1, 1.0, 1.0
    worst = 0.0
    n_m = 10 if level == "full" else 3
    for m in np.linspace(0.0, 0.4, n_m):
        for p in D.sweep(np.linspace(0.5, 3.0, 50), m, lam, c, hbar):
            k2 = D.k_squared_closed(p.omega, m, lam, c, hbar)
            if k2 <= 1e-6:
                continue
            worst = max(worst, abs(p.k - math.sqrt(k2)) / math.sqrt(k2))
    return worst < 1e-10, "max rel dev %.2e" % worst


@check("dispersion.vg-massless-closed-form")
def _(level):
    lam, worst = 0.1, 0.0
    for p in D.sweep(np.linspace(0.01, 2.0, 30), 0.0, lam, 1.0, 1.0):
        worst = max(worst, abs(p.vg - math.exp(p.omega * lam)))
    return worst < 1e-8, "max dev %.2e" % worst


@check("dispersion.momentum-bounded")
def _(level):
    lam = 0.1
    k = float(D.sweep([400.0], 0.0, lam, 1.0, 1.0).k[0])
    ok = abs(k - 1.0 / lam) < 1e-8
    return ok, "k(omega->inf) - 1/(c lam) = %.2e" % (k - 1.0 / lam)


# -- effective parameters ----------------------------------------------------

def series_check():
    """Leading small-x coefficients fitted from extended-precision samples:
    m_I/m = 1 - x + ..., m_G/m = 1 - x/3 + ..., V0/(mc^2) = -(x^2)/24 + ..."""
    xs = np.array([1e-6, 2e-6, 3e-6, 4e-6])
    mi, mg, v0 = np.array([E._ratios(x) for x in xs]).T
    c_mi = np.polyfit(xs, (mi - 1), 1)[0]
    c_mg = np.polyfit(xs, (mg - 1), 1)[0]
    c_v0 = np.polyfit(xs ** 2, v0, 1)[0]
    return {"m_I_linear": float(c_mi), "m_G_linear": float(c_mg),
            "V0_quadratic": float(c_v0),
            "expected": (-1.0, -1.0 / 3.0, -1.0 / 24.0)}


_GOLDEN = (math.sqrt(5) - 1) / 2


def _golden_min(f, lo, hi):
    """(x, f(x)) at the minimum of f, unimodal on [lo, hi], by golden-section
    search: the bracket shrinks by the golden ratio per evaluation until it
    is narrower than 1e-10."""
    c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-10:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    return (float(c), float(fc)) if fc < fd else (float(d), float(fd))


def mG_over_mI(x):
    """= 2 e^x (x + e^{-x} - 1) / sinh^2 x."""
    x = np.asarray(x, dtype=float)
    return 2 * np.exp(x) * (x + np.expm1(-x)) / np.sinh(x) ** 2


def extrema_report():
    """Locations and values of the bounds/extrema on x in (0, 50]."""
    v0_x, v0_min = _golden_min(E.V0_over_mpc2, 0.1, 50.0)
    ratio_x, ratio_neg = _golden_min(lambda x: -mG_over_mI(x), 0.1, 50.0)
    return {
        "mI_sup_over_mp": 0.5,
        "mI_at_x10_over_mp": float(E.mI_over_mp(10.0)),
        "V0_argmin": v0_x,
        "V0_min_over_mpc2": v0_min,
        "mG_over_mI_argmax": ratio_x,
        "mG_over_mI_peak": -ratio_neg,
    }


@check("effective.figure1-x1-row")
def _(level):
    mi = E.mI_over_mp(1.0)
    mg = float(E.mG_over_mp(1.0))
    v0 = float(E.V0_over_mpc2(1.0))
    ok = abs(mi - (1 - math.exp(-2)) / 2) < 1e-12 \
        and abs(mg - 2 * math.exp(-1) / math.sinh(1)) < 1e-12 \
        and abs(v0 + 0.0359007557) < 1e-9
    return ok, "x=1: (%.5f, %.5f, %.5f)" % (mi, mg, v0)


@check("effective.extrema")
def _(level):
    rep = extrema_report()
    ok = abs(rep["V0_argmin"] - 4.5) < 0.2 \
        and abs(rep["V0_min_over_mpc2"] + 0.49) < 0.01 \
        and 1.0 < rep["mG_over_mI_argmax"] < 1.6 \
        and abs(rep["mG_over_mI_peak"] - 1.46) < 0.02
    return ok, ("V0 min %.4f @ %.3f; ratio peak %.4f @ %.3f"
                % (rep["V0_min_over_mpc2"], rep["V0_argmin"],
                   rep["mG_over_mI_peak"], rep["mG_over_mI_argmax"]))


@check("effective.series-coefficients")
def _(level):
    rep = series_check()
    ok = abs(rep["m_I_linear"] + 1) < 1e-4 \
        and abs(rep["m_G_linear"] + 1 / 3) < 1e-4 \
        and abs(rep["V0_quadratic"] + 1 / 24) < 1e-4
    return ok, "(%.6f, %.6f, %.6f)" % (rep["m_I_linear"], rep["m_G_linear"],
                                       rep["V0_quadratic"])


@check("effective.bounds")
def _(level):
    xs = np.linspace(1e-3, 100, 500)
    ok = np.all(E.mI_over_mp(xs) <= 0.5) \
        and np.all(np.abs(E.V0_over_mpc2(xs)) <= 0.5)
    return bool(ok), "mI <= mp/2 and |V0| <= mp c^2/2 on (0, 100]"


@check("effective.dark-energy-order")
def _(level):
    rep = E.dark_energy_estimate(1e53, 1e26)
    g_cm3 = rep["mass_density"] * 1e3 / 1e6
    return abs(g_cm3 - 1.1e-29) < 0.05e-29, "%.3e g/cm^3" % g_cm3


# -- spectrum ----------------------------------------------------------------

@check("spectrum.numeric-vs-bohr")
def _(level):
    m_I = m_G = 1.0
    M, Gn, hbar = 1.0, 1e-3, 1.0
    oracle = {s.n: s.E for s in S.bohr_oracle(m_I, m_G, 0.0, M, Gn, hbar, 3)
              if s.l == 0}
    n_nodes = 8000 if level == "full" else 4000
    a = S.bohr_radius(m_I, m_G, M, Gn, hbar)
    grid = np.linspace(a * 40 / n_nodes, a * 40, n_nodes)
    worst = 0.0
    for s in S.solve_radial(m_I, m_G, 0.0, M, Gn, hbar, grid=grid,
                            n_states=3):
        worst = max(worst, abs(s.E - oracle[s.n]) / abs(oracle[s.n]))
    tol = 1e-3 if level == "full" else 5e-3
    return worst < tol, "max rel dev %.2e (%d nodes)" % (worst, n_nodes)


def virial_check(m_I, m_G, V0, M, Gn, hbar):
    """2<T> + <V - V0> on the numeric ground state (Coulomb virial).

    <V - V0> = G dE/dG by Hellmann-Feynman, as H depends on G only through
    V - V0 = -G M m_G / r: the central difference of E at G (1 +- 1e-3), all
    three solves on the default grid at G, so that it is the derivative of
    the discrete Hamiltonian's E.  The kinetic energy is the rest, <T> = E -
    V0 - <V - V0>."""
    grid = S.default_grid(m_I, m_G, M, Gn, hbar, n_max=1)
    step = 1e-3
    E1, lo, hi = (S.solve_radial(m_I, m_G, V0, M, g, hbar, grid=grid,
                                 n_states=1)[0].E
                  for g in (Gn, Gn * (1 - step), Gn * (1 + step)))
    pot = (hi - lo) / (2 * step)
    kin = E1 - V0 - pot
    return {"T": kin, "V": pot, "E1": E1,
            "virial_rel": abs(2 * kin + pot) / abs(pot)}


@check("spectrum.virial")
def _(level):
    rep = virial_check(1.0, 1.0, 0.0, 1.0, 1e-3, 1.0)
    return rep["virial_rel"] < 1e-2, "2T+V over |V|: %.2e" % rep["virial_rel"]


# -- the reduction residual laboratory (units hbar = c = 1) -------------------
# The residual of one physical state at three stages:
#   (i)   the full noncommutative Klein-Gordon residual of
#         psi = Psi e^{-i m~ t}
#   (ii)  the identical quantity re-expanded by the finite-difference Leibniz
#         identities into slow-mode symbols (a bookkeeping identity: (ii) ==
#         (i) to roundoff, with every term explicit and individually ablatable)
#   (iii) the effective Schrodinger residual with the closed-form parameters
# The gap between (i) and (iii), after units conversion, carries exactly the
# dropped slow-variation terms.

@dataclass(frozen=True)
class ReductionScales:
    norm_iii: float
    gap_i_ii: float       # bookkeeping identity, roundoff-level
    gap_i_iii: float      # dropped slow-variation terms, after conversion


def _stage_two(phi_vals, lap_vals, drift_vals, r, m_t, omega, lam, gamma,
               ablate_gamma_psidot=False):
    """Fast-mode/slow-mode expansion of the weak-field operator residual.

    Every factor is an operator symbol on e^{-i m~ t} (fast) or e^{-i Omega t}
    (slow); evaluated at t = 0.  beta0 = -1 in these units.
    """
    beta0 = -1.0
    zeta = math.exp(m_t * lam)
    sigma = math.exp(omega * lam)
    c_f = symbol_delta0_const(m_t, lam, beta0)
    c_g = symbol_delta0_const(omega, lam, beta0)
    p0_f = symbol_d0(m_t, lam)
    p0_g = symbol_d0(omega, lam)
    h_f = symbol_delta0_hybrid(m_t, lam)
    h_g = symbol_delta0_hybrid(omega, lam)

    out = zeta * sigma * (lap_vals + drift_vals)
    out = out + 2 * phi_vals * (c_f * sigma + c_g / zeta
                                + beta0 * p0_f * p0_g * sigma)
    hybrid = h_f + h_g / zeta
    if not ablate_gamma_psidot:
        hybrid = hybrid + p0_f * (-1j * omega)
    out = out - (2 * gamma / r) * phi_vals * zeta * sigma * hybrid
    out = out - m_t ** 2 * phi_vals
    return out


def reduction_residual(m, gamma, lam, omega, phi, grid,
                       ablate_gamma_psidot=False):
    """The ReductionScales of Psi = phi(r) e^{-i omega t}: stage (iii)'s
    residual relative to its terms, and the gaps (i)-(ii) and (i)-(iii).

    phi: RadialProfile with analytic derivatives; units hbar = c = 1, so
    m~ = m and the Compton scale is 1/m.
    """
    grid = np.asarray(grid, dtype=float)
    m_t = m
    # stage (i): full operator via waveops
    psi = W.SeparableField.single(phi, TF.mode(m_t + omega))
    box = W.box_newton(psi, gamma, 1.0, lam)
    r_i = W.kg_residual(box, psi, m, 1.0, 1.0).to_grid(grid).evaluate(0.0)

    # stage (ii): identical operator, term-by-term symbol bookkeeping
    phi_vals = np.asarray(phi(grid), dtype=complex)
    lap_vals = phi.deriv2(grid) + 2.0 / grid * phi.deriv(grid)
    drift_vals = gamma / (2 * grid ** 2 * (1 + gamma / grid)) * phi.deriv(grid)
    r_ii = _stage_two(phi_vals, lap_vals, drift_vals, grid, m_t, omega, lam,
                      gamma, ablate_gamma_psidot=ablate_gamma_psidot)

    # stage (iii): effective Schrodinger residual with closed-form parameters
    pars = E.effective_params(m, E.PlanckUnits(lam=lam))
    GMmG = gamma / 2 * pars.m_G  # gamma = 2 G M / c^2
    r_iii = (omega * phi_vals + lap_vals / (2 * pars.m_I)
             - (pars.V0 - GMmG / grid) * phi_vals)

    x = m_t * lam
    K = (1.0 / (2 * m)) * (x / math.sinh(x))
    norm = lambda v: float(np.max(np.abs(v)))
    scale_iii = max(norm(omega * phi_vals), norm(lap_vals / (2 * pars.m_I)),
                    norm(GMmG / grid * phi_vals), 1e-300)
    return ReductionScales(
        norm_iii=norm(r_iii) / scale_iii,
        gap_i_ii=norm(r_i - r_ii) / max(norm(r_i), 1e-300),
        gap_i_iii=norm(K * r_i - r_iii),
    )


@check("spectrum.reduction-gap-quadratic")
def _(level):
    m, lam, gamma = 1.0, 0.05, 1e-2
    ladder = (1.0, 0.5, 0.25, 0.125) if level == "full" else (1.0, 0.5, 0.25)
    gaps = []
    for s in ladder:
        a = 1e3 / s
        grid = np.linspace(a, 6 * a, 300)
        gaps.append(reduction_residual(m, gamma, lam, 1e-2 * s,
                                       exp_orbital(a), grid).gap_i_iii)
    ratios = [hi / lo for hi, lo in zip(gaps, gaps[1:])]
    ok = all(2.8 < r < 5.2 for r in ratios)
    return ok, "ratios " + ", ".join("%.2f" % r for r in ratios)


@check("spectrum.reduction-ablation-linear")
def _(level):
    m, lam = 1.0, 0.05
    grid = np.linspace(1e3, 6e3, 300)
    devs = [reduction_residual(m, g, lam, 1e-2, exp_orbital(1e3), grid,
                               ablate_gamma_psidot=True).gap_i_ii
            for g in (1e-2, 2e-2)]
    r = devs[1] / devs[0]
    return 1.8 < r < 2.2, "doubling gamma scales deviation by %.3f" % r


def run(level="fast"):
    """Execute the registry at level "fast" or "full"; returns the report
    dict (see CLI for exit code)."""
    if level not in ("fast", "full"):
        raise ValueError('level must be "fast" or "full", got %r' % (level,))
    results = []
    t0 = time.perf_counter()
    for name, fn in CHECKS:
        t = time.perf_counter()
        try:
            ok, measured = fn(level)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, measured = False, "exception: %r" % exc
        results.append({"name": name, "ok": bool(ok), "measured": measured,
                        "seconds": round(time.perf_counter() - t, 3)})
    return {
        "level": level,
        "n_checks": len(results),
        "n_failed": sum(1 for r in results if not r["ok"]),
        "seconds": round(time.perf_counter() - t0, 3),
        "checks": results,
    }

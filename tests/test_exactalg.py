"""Exact identities of the 5D calculus, checked against the verify oracles."""

import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (element, gen_t, gen_x, is_zero, partial_x, scaled,
                      subs_lam_zero)
from ncgrav import exactalg, verify
from ncgrav.coeff import Coeff
from ncgrav.exactalg import (
    DT,
    THETA,
    NCElement,
    NCOneForm,
    commutator_d,
    dx,
    exterior_d,
)
from ncgrav.verify import (
    TwoFormError,
    _monomial_word,
    exterior_d_leibniz,
    form_symbol,
    monomials,
    mul_gen,
    normal_order,
    random_element,
    realization_agrees,
    realization_product,
    realization_symbol,
)

D = 3


def elem(xpow, tpow, c=None):
    return NCElement.monomial(D, xpow, tpow, c)


# Coefficients the tests build: i lam, -i lam and i lam beta.
I_LAM = Coeff.from_parts({(1, 0): (0, 1)})
MINUS_I_LAM = Coeff.from_parts({(1, 0): (0, -1)})
I_LAM_BETA = Coeff.from_parts({(1, 1): (0, 1)})


# Reference model of the coefficient ring: a dict {(lam_pow, beta_pow):
# (int re, int im)} without zero parts, and its text.  It shares no
# code with ncgrav.  Coeff is the ring's boundary type and has no arithmetic;
# the ring arithmetic is that of NCElement on scalars, checked here.
def ref_add(p, q):
    out = dict(p)
    for key, (a, b) in q.items():
        c, e = out.get(key, (0, 0))
        out[key] = (c + a, e + b)
    return {k: v for k, v in out.items() if v != (0, 0)}


def ref_mul(p, q):
    out = {}
    for (j1, k1), (a, b) in p.items():
        for (j2, k2), (c, e) in q.items():
            key = (j1 + j2, k1 + k2)
            out = ref_add(out, {key: (a * c - b * e, a * e + b * c)})
    return out


def ref_str(p):
    def num(a, b):
        if b == 0:
            return str(a)
        if a == 0:
            return "%si" % b
        return "%s%s%si" % (a, "+" if b > 0 else "-", abs(b))
    return " + ".join(
        "(%s)" % num(*p[(j, k)])
        + ("*lam" + ("^%d" % j if j > 1 else "") if j else "")
        + ("*beta" + ("^%d" % k if k > 1 else "") if k else "")
        for j, k in sorted(p)) or "0"


_ints = st.integers(-6, 6)


@st.composite
def coeffs(draw):
    """(Coeff, reference dict): Gaussian-integer parts in -6..6, lam and
    beta powers 0..3; the empty draw is zero."""
    parts = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(_ints, _ints), max_size=4))
    ref = {k: v for k, v in parts.items() if v != (0, 0)}
    return Coeff(parts), ref


def scalar(c):
    """The NCElement c (a Coeff or an int) times 1."""
    if isinstance(c, int):
        c = Coeff.from_rational(c)
    return NCElement.monomial(D, (0,) * D, 0, c)


@st.composite
def scalars(draw):
    """(scalar NCElement, reference dict), drawn as `coeffs`."""
    c, ref = draw(coeffs())
    return scalar(c), ref


def assert_matches(e, ref):
    """The scalar element e equals the reference: the text, == and hash of
    its coefficient."""
    coeffs_of = e.coeffs()
    assert set(coeffs_of) <= {((0,) * D, 0)}
    c = coeffs_of.get(((0,) * D, 0), Coeff())
    assert str(c) == ref_str(ref)
    assert c == Coeff(ref)
    assert hash(c) == hash(Coeff(ref))


def div_i_lam(e, power=1):
    """e / (i lam)^power: (-i)^power lam^-power."""
    re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[power % 4]
    return e._times(re, im, -power)


class TestCoeff:
    def test_ring_ops_exact(self):
        a = scalar(Coeff.from_rational(3, -1)) + scalar(I_LAM)
        b = scalar(Coeff.from_parts({(2, 1): (1, 0)}))  # beta lam^2
        assert (a + b) - b == a
        assert a * b == b * a
        (c,) = (a * b).coeffs().values()
        assert verify.lam_valuation(c) == 2

    def test_div_i_lam(self):
        z = scaled(scalar(I_LAM), 5)
        assert div_i_lam(z) == scalar(5)
        with pytest.raises(ArithmeticError):
            div_i_lam(NCElement.one(D))

    def test_zero_canonical(self):
        z = scalar(2) - scalar(2)
        assert z.is_zero() and z == NCElement.zero(D)
        for c in (Coeff(), Coeff({(1, 0): (0, 0)}), Coeff.from_rational(0),
                  Coeff.from_parts({})):
            assert is_zero(c) and not c
            assert c == Coeff() and hash(c) == hash(Coeff())
            assert str(c) == "0" and verify.lam_valuation(c) is None

    def test_subs_lam_zero(self):
        z = NCElement.one(D) + scalar(I_LAM)
        assert subs_lam_zero(z) == NCElement.one(D)

    def test_non_integer_parts_refused_by_name(self):
        # the scalars are Z[i][lam, beta]: a part that operator.index
        # refuses, or a bool, is named however the coefficient is built
        for part in (Fraction(1, 2), 0.5, True):
            for build in (lambda: Coeff({(1, 0): (0, part)}),
                          lambda: Coeff.from_rational(part),
                          lambda: elem((1, 0, 0), 0,
                                       Coeff.from_rational(1, part))):
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == (
                    "a coefficient part must be an integer, got %r" % part)


class TestCoeffRing:
    @given(scalars(), scalars(), scalars())
    def test_associative(self, a, b, c):
        (a, ra), (b, rb), (c, rc) = a, b, c
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert_matches((a + b) + c, ref_add(ref_add(ra, rb), rc))
        assert_matches((a * b) * c, ref_mul(ref_mul(ra, rb), rc))

    @given(scalars(), scalars())
    def test_commutative(self, a, b):
        (a, ra), (b, rb) = a, b
        assert a + b == b + a
        assert a * b == b * a
        assert_matches(a * b, ref_mul(ra, rb))

    @given(scalars(), scalars(), scalars())
    def test_distributive(self, a, b, c):
        (a, ra), (b, rb), (c, rc) = a, b, c
        left = a * (b + c)
        assert left == a * b + a * c
        assert_matches(left, ref_mul(ra, ref_add(rb, rc)))

    @given(scalars())
    def test_identities_and_inverse(self, a):
        a, ra = a
        assert_matches(a, ra)
        zero, one = NCElement.zero(D), NCElement.one(D)
        assert a + zero == a and a * one == a
        assert (a * zero).is_zero()
        assert_matches(-a, {k: (-x, -y) for k, (x, y) in ra.items()})
        z = a - a
        assert z.is_zero() and z == zero

    @given(scalars(), st.integers(-4, 4), _ints)
    def test_scale(self, a, n, q):
        a, ra = a
        assert_matches(scaled(a, n), ref_mul(ra, {(0, 0): (n, 0)}))
        assert_matches(scaled(a, Coeff.from_rational(q, n)),
                       ref_mul(ra, {(0, 0): (q, n)}))

    @given(scalars(), st.integers(0, 5))
    def test_div_i_lam_inverts_i_lam_power(self, a, p):
        a, ra = a
        i_lam_p = NCElement.one(D)
        for _ in range(p):
            i_lam_p = i_lam_p * scalar(I_LAM)
        assert div_i_lam(a * i_lam_p, p) == a
        assert_matches(div_i_lam(a * i_lam_p, p), ra)

    @given(scalars(), scalars())
    def test_subs_lam_zero_is_ring_homomorphism(self, a, b):
        (a, ra), (b, rb) = a, b
        assert subs_lam_zero(a + b) == subs_lam_zero(a) + subs_lam_zero(b)
        assert subs_lam_zero(a * b) == subs_lam_zero(a) * subs_lam_zero(b)
        one = NCElement.one(D)
        assert subs_lam_zero(one) == one
        assert_matches(subs_lam_zero(a * b),
                       {k: v for k, v in ref_mul(ra, rb).items() if k[0] == 0})


def key(xpow=(0, 0, 0), n=0, j=0, k=0):
    """Symbol key of x^xpow t^n lam^j beta^k."""
    return (*xpow, n, j, k)


class TestNormalOrder:
    def test_t_past_x(self):
        # t x1 = x1 t - i lam x1
        assert normal_order(D, ["t", ("x", 1)]) == {
            key((1, 0, 0), 1): (1, 0), key((1, 0, 0), j=1): (0, -1)}

    def test_spatial_commute(self):
        assert normal_order(D, [("x", 2), ("x", 1)]) == \
            normal_order(D, [("x", 1), ("x", 2)]) == {key((1, 1, 0)): (1, 0)}

    def test_dt_past_t(self):
        # dt t = t dt - i lam dt + i lam beta theta'
        assert normal_order(D, [DT, "t"]) == {
            DT: {key(n=1): (1, 0), key(j=1): (0, -1)},
            THETA: {key(j=1, k=1): (0, 1)},
        }

    def test_theta_past_t(self):
        assert normal_order(D, [THETA, "t"]) == {
            THETA: {key(n=1): (1, 0), key(j=1): (0, 1)}}

    def test_dx_past_x_same_index(self):
        assert normal_order(D, [dx(1), ("x", 1)]) == {
            dx(1): {key((1, 0, 0)): (1, 0)}, THETA: {key(j=1): (0, 1)}}

    def test_dx_commutes_with_t_and_other_x(self):
        assert normal_order(D, [dx(1), "t"]) == {dx(1): {key(n=1): (1, 0)}}
        assert normal_order(D, [dx(1), ("x", 2)]) == \
            {dx(1): {key((0, 1, 0)): (1, 0)}}

    def test_two_forms_rejected(self):
        with pytest.raises(TwoFormError):
            normal_order(D, [DT, dx(1)])

    @pytest.mark.parametrize("tag", [("y", 1), "q", ("x", 5), ("dx", 0)])
    def test_unknown_tag_rejected(self, tag):
        with pytest.raises(ValueError, match=re.escape(repr(tag))):
            normal_order(D, [tag, "t"])

    def test_confluence_random_words(self):
        # associativity probe: reduce prefix then continue vs reduce whole word
        rng = random.Random(7)
        gens = ["t", ("x", 1), ("x", 2), ("x", 3)]
        for _ in range(60):
            word = [rng.choice(gens) for _ in range(rng.randint(2, 8))]
            form_pos = rng.randrange(len(word) + 1)
            form = rng.choice([DT, THETA, dx(1), dx(2)])
            full = word[:form_pos] + [form] + word[form_pos:]
            whole = normal_order(D, full)
            cut = rng.randrange(1, len(full))
            left = full[:cut]
            right = full[cut:]
            part = normal_order(D, left)
            if any(g in (DT, THETA) or (isinstance(g, tuple) and g[0] == "dx")
                   for g in left):
                for g in right:
                    part = mul_gen(part, g, D)
            else:  # the one-form factor is in `right`
                part = {w: realization_product(part, sym, D)
                        for w, sym in normal_order(D, right).items()}
            assert part == whole


class TestBimoduleAction:
    @pytest.mark.parametrize("form", [dx(1), dx(2), dx(3), DT, THETA],
                             ids=["dx1", "dx2", "dx3", "dt", "theta'"])
    def test_basis_form_on_monomials_matches_normal_order(self, form):
        w = NCOneForm(D, {form: NCElement.one(D)})
        for m in monomials():
            ((xpow, n), _c), = m.coeffs().items()
            assert form_symbol(w.mul_elem(m)) == \
                normal_order(D, [form] + _monomial_word(xpow, n))

    def test_makes_no_generator_push(self, monkeypatch):
        rng = random.Random(19)
        omega = exterior_d(random_element(rng))
        psi = random_element(rng)
        want = form_symbol(omega.mul_elem(psi))

        def push(*_args):
            raise AssertionError("mul_elem pushed a single generator")

        monkeypatch.setattr(verify, "mul_gen", push)
        monkeypatch.setattr(verify, "_push_rules", push)
        assert form_symbol(omega.mul_elem(psi)) == want

    def test_shift_table_is_shared_int_tuple(self):
        # (t + i lam)^3 = t^3 + 3i lam t^2 - 3 lam^2 t - i lam^3, as
        # (q, p, re, im) for (re + i im) lam^p t^q
        table = exactalg._t_power_shifted(3, 1)
        assert table == ((0, 3, 0, -1), (1, 2, -3, 0), (2, 1, 0, 3),
                         (3, 0, 1, 0))
        assert all(type(v) is int for entry in table for v in entry)
        # (t - 2i lam)^2 = t^2 - 4i lam t - 4 lam^2; no shift leaves t^n
        assert exactalg._t_power_shifted(2, -2) == ((0, 2, -4, 0),
                                                    (1, 1, 0, -4),
                                                    (2, 0, 1, 0))
        assert exactalg._t_power_shifted(4, 0) == ((4, 0, 1, 0),)


# small elements for the product properties: degree <= 2, Gaussian-integer
# coefficients
_SMALL_DEGREES = [p for p in itertools.product(range(3), repeat=D + 1)
                  if sum(p) <= 2]
# exponents (x1, x2, x3, t) of total degree <= 4, as random_element draws
_DEGREES = [p for p in itertools.product(range(5), repeat=D + 1)
            if sum(p) <= 4]
_small_terms = st.lists(st.tuples(st.sampled_from(_SMALL_DEGREES),
                                  st.integers(-3, 3), st.integers(-3, 3)),
                        max_size=3)


@st.composite
def small_elements(draw):
    out = NCElement.zero(D)
    for (*xpow, n), re_, im in draw(_small_terms):
        out = out + elem(xpow, n, Coeff.from_rational(re_, im))
    return out


@st.composite
def small_forms(draw):
    forms = draw(st.lists(st.sampled_from([dx(1), dx(2), dx(3), DT, THETA]),
                          unique=True, max_size=3))
    return NCOneForm(D, {w: draw(small_elements()) for w in forms})


@st.composite
def lam_beta_elements(draw, degrees=_SMALL_DEGREES):
    """Elements with Gaussian-integer coefficients times lam^j beta^k."""
    out = NCElement.zero(D)
    for (*xpow, n), re_, im, j, k in draw(st.lists(st.tuples(
            st.sampled_from(degrees), st.integers(-5, 5), st.integers(-5, 5),
            st.integers(0, 2), st.integers(0, 2)), max_size=3)):
        out = out + elem(xpow, n, Coeff({(j, k): (re_, im)}))
    return out


class TestRealizationOracle:
    # the Meljanac-Stojic realization shares no code with the product
    @given(lam_beta_elements(_DEGREES), lam_beta_elements(_DEGREES))
    def test_product_matches_realization(self, f, g):
        assert realization_agrees(f, g)

    def test_monomial_products(self):
        psis = monomials()
        rng = random.Random(29)
        for psi in psis:
            assert realization_agrees(psi, rng.choice(psis))


class TestHalfIntegerElements:
    """The product and the coefficient round trip on elements whose
    coefficients carry lam and beta powers."""

    @given(lam_beta_elements(), lam_beta_elements(), lam_beta_elements())
    def test_product_associative_and_distributive(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h

    @given(lam_beta_elements(_DEGREES))
    def test_coefficient_round_trip(self, f):
        back = element(D, f.coeffs())
        assert back == f
        assert back.to_text() == f.to_text()


class TestNoCoeffInsideTheCalculus:
    def test_calculus_builds_no_coeff(self, monkeypatch):
        rng = random.Random(31)
        f, g = random_element(rng), random_element(rng)
        df, dg = exterior_d(f), exterior_d(g)
        built = []
        real_parts, real_init = Coeff.from_parts, Coeff.__init__

        def counted_parts(_cls, *args):
            built.append("from_parts")
            return real_parts(*args)

        def counted_init(self, *args):
            built.append("__init__")
            real_init(self, *args)

        monkeypatch.setattr(Coeff, "from_parts", classmethod(counted_parts))
        monkeypatch.setattr(Coeff, "__init__", counted_init)
        fg = f * g
        dfg = exterior_d(fg)
        assert dfg == df.mul_elem(g) + dg.lmul(f) == commutator_d(fg)
        assert built == []
        fg.to_text()  # the text is built from Coeffs: the counters work
        assert "from_parts" in built


LIMIT = exactalg.EXPONENT_LIMIT
OVERFLOW = exactalg.ExponentOverflowError
# central factors: 1, -beta, a two-term scalar 2 + 3i lam beta, and
# (1 - 2i) lam
CENTRAL = [Coeff.from_rational(1), Coeff.from_parts({(0, 1): (-1, 0)}),
           Coeff.from_parts({(0, 0): (2, 0), (1, 1): (0, 3)}),
           Coeff.from_parts({(1, 0): (1, -2)})]


def lam_power(j):
    return Coeff.from_parts({(j, 0): (1, 0)})


@st.composite
def coeff_dicts(draw, d):
    """{(xpow, n): Coeff} in d dimensions with every exponent (of the x_i,
    t, lam and beta) anywhere in 0..LIMIT - 1."""
    exps = st.integers(0, LIMIT - 1)
    monos = draw(st.lists(st.tuples(st.tuples(*[exps] * d), exps),
                          unique=True, max_size=4))
    out = {}
    for mono in monos:
        c = Coeff(draw(st.dictionaries(st.tuples(exps, exps),
                                       st.tuples(_ints, _ints),
                                       min_size=1, max_size=3)))
        if c:
            out[mono] = c
    return out


@st.composite
def d_elements(draw, d):
    """Elements of the d-dimensional algebra: up to three terms of degree
    <= 2 in each generator, Gaussian-integer coefficients times
    lam^j beta^k."""
    low = st.integers(0, 2)
    out = NCElement.zero(d)
    for xpow, n, re_, im, j, k in draw(st.lists(st.tuples(
            st.tuples(*[low] * d), low, st.integers(-5, 5),
            st.integers(-5, 5), low, low), max_size=3)):
        c = Coeff({(j, k): (re_, im)})
        out = out + NCElement.monomial(d, xpow, n, c)
    return out


class TestPackedKeys:
    """Keys are fixed-width fields; an exponent at the field limit raises
    instead of carrying into the next field."""

    def test_exponents_below_the_limit_round_trip(self):
        top = LIMIT - 1
        c = Coeff.from_parts({(top, top): (1, -1)})
        psi = elem((top, 0, top), top, c)
        assert psi.coeffs() == {((top, 0, top), top): c}

    @pytest.mark.parametrize("xpow, n, jk", [
        ((LIMIT, 0, 0), 0, (0, 0)), ((0, 0, LIMIT), 0, (0, 0)),
        ((0, 0, 0), LIMIT, (0, 0)), ((0, 0, 0), 0, (LIMIT, 0)),
        ((0, 0, 0), 0, (0, LIMIT))], ids=["x1", "x3", "t", "lam", "beta"])
    def test_monomial_at_the_limit_raises(self, xpow, n, jk):
        with pytest.raises(OVERFLOW, match="8-bit fields") as err:
            elem(xpow, n, Coeff.from_parts({jk: (1, 0)}))
        assert isinstance(err.value, OverflowError)
        assert "reaches %d" % LIMIT in str(err.value)

    @pytest.mark.parametrize("xpow, n, msg", [
        ((1, 0, 0), 2.0, "the power of t must be an integer, got 2.0"),
        ((1.0, 0, 0), 2, "the power of x1 must be an integer, got 1.0"),
        ((1, 0, 1.5), 2, "the power of x3 must be an integer, got 1.5"),
        ((True, 0, 0), 2, "the power of x1 must be an integer, got True"),
        ((1, 0, 0), False, "the power of t must be an integer, got False")])
    def test_monomial_refuses_non_int_exponents(self, xpow, n, msg):
        # refused before the key cache, so whether x1 t^2's int key is
        # cached or not
        exactalg._pack.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                NCElement.monomial(D, xpow, n)
            assert str(info.value) == msg
            assert NCElement.monomial(D, (1, 0, 0), 2).coeffs() == {
                ((1, 0, 0), 2): Coeff.from_rational(1)}

    def test_product_reaching_the_limit_raises(self):
        half = LIMIT // 2
        x, t = elem((0, half, 0), 0), elem((0, 0, 0), half)
        assert (x * elem((0, half - 1, 0), 0)).coeffs() == \
            {((0, LIMIT - 1, 0), 0): Coeff.from_rational(1)}
        with pytest.raises(OVERFLOW, match="power of x2 reaches %d" % LIMIT):
            x * x
        with pytest.raises(OVERFLOW, match="power of t reaches %d" % LIMIT):
            t * t

    def test_lam_power_reaching_the_limit_raises(self):
        # lam^(LIMIT-1) t: one more lam from _times, or from the i lam of
        # the shift t -> t + i lam in theta' psi, reaches the limit
        psi = elem((0, 0, 0), 1, lam_power(LIMIT - 1))
        with pytest.raises(OVERFLOW, match="power of lam reaches %d" % LIMIT):
            psi._times(1, 0, 1)
        with pytest.raises(OVERFLOW, match="power of lam reaches %d" % LIMIT):
            NCOneForm(D, {THETA: NCElement.one(D)}).mul_elem(psi)
        assert psi._times(1, 0, -1).coeffs() == \
            {((0, 0, 0), 1): lam_power(LIMIT - 2)}

    def test_exterior_d_checks_only_its_result(self):
        # d(lam^63 t) = lam^63 dt fits, though S^+ psi holds lam^64; the
        # d of lam^63 t^2 holds -i lam^64 dt and raises
        psi = elem((0, 0, 0), 1, lam_power(LIMIT - 1))
        got = exterior_d(psi)
        assert got == NCOneForm(D, {DT: elem((0, 0, 0), 0,
                                             lam_power(LIMIT - 1))})
        assert form_symbol(got) == \
            exterior_d_leibniz(realization_symbol(psi), D)
        with pytest.raises(OVERFLOW, match="power of lam reaches %d" % LIMIT):
            exterior_d(elem((0, 0, 0), 2, lam_power(LIMIT - 1)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_mul_elem_checks_only_its_result(self, d):
        # each basis one-form w on lam^63 x_j t gives the oracle's w psi
        # where every exponent fits, and refuses lam^64 or lam^65 where it
        # does not; dx_i psi = psi dx_i fits for i != j, though S^+ psi
        # holds lam^64
        fits = 0
        for j, w in itertools.product(range(1, d + 1), [DT, THETA] + [
                dx(i) for i in range(1, d + 1)]):
            xpow = [0] * d
            xpow[j - 1] = 1
            psi = NCElement.monomial(d, xpow, 1, lam_power(LIMIT - 1))
            want = normal_order_action(d, w, psi)
            action = NCOneForm(d, {w: NCElement.one(d)})
            if max(e for sym in want.values() for k in sym for e in k) < LIMIT:
                got = action.mul_elem(psi)
                assert form_symbol(got) == want
                assert got == NCOneForm(d, {w: psi})
                fits += 1
            else:
                with pytest.raises(OVERFLOW, match="power of lam reaches"):
                    action.mul_elem(psi)
        assert fits == d * (d - 1)

    def test_commutator_d_domain_is_narrower(self):
        # [theta, psi] holds lam^64 before the division by lam, so d psi by
        # the commutator refuses lam^63 t, which exterior_d takes
        psi = elem((0, 0, 0), 1, lam_power(LIMIT - 1))
        assert exterior_d(psi) == NCOneForm(D, {DT: elem(
            (0, 0, 0), 0, lam_power(LIMIT - 1))})
        with pytest.raises(OVERFLOW, match="power of lam reaches %d" % LIMIT):
            commutator_d(psi)

    def test_division_by_lam_still_checked(self):
        with pytest.raises(ArithmeticError, match="not divisible by lam"):
            NCElement.one(D)._times(0, 1, -1)

    @pytest.mark.parametrize("d", [1, 2, 4])
    @settings(derandomize=True, max_examples=40)
    @given(data=st.data())
    def test_coefficients_round_trip(self, d, data):
        c = data.draw(coeff_dicts(d))
        assert element(d, c).coeffs() == c

    @pytest.mark.parametrize("d", [1, 2, 4])
    @settings(derandomize=True, max_examples=30)
    @given(data=st.data())
    def test_product_matches_realization(self, d, data):
        f, g = data.draw(d_elements(d)), data.draw(d_elements(d))
        assert realization_agrees(f, g)
        for c in CENTRAL:  # central factors go through _times
            z = NCElement.monomial(d, (0,) * d, 0, c)
            assert realization_agrees(z, f) and realization_agrees(f, z)


class TestWorkCounts:
    """The work the calculus does per identity, in calls: exterior_d and
    the dt action build no intermediate element, S^+ psi is computed at most
    once, and central factors skip the product loop."""

    @staticmethod
    def spy(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_exterior_d_builds_no_intermediate_element(self, monkeypatch):
        # one pass over psi's terms: no shift, sum, scalar factor or
        # product, and one element built per part of the result
        rng = random.Random(37)
        psis = [random_element(rng) for _ in range(10)]
        spies = [self.spy(monkeypatch, NCElement, name) for name in
                 ("_combine", "_times", "__mul__")]
        spies.append(self.spy(monkeypatch, exactalg, "_s_plus_pass"))
        built = self.spy(monkeypatch, exactalg, "_element")
        for psi in psis:
            built.clear()
            dpsi = exterior_d(psi)
            assert spies == [[]] * len(spies)
            assert len(built) == len(dpsi.parts)

    def test_mul_elem_shifts_at_most_once(self, monkeypatch):
        # the S^+ pass runs at most once, shared by the theta' and dx
        # actions, and never for dt alone; before its first product,
        # mul_elem sums and scales nothing, and the elements it builds
        # outside a product or a sum are the parts of the actions
        rng = random.Random(41)
        pairs = [(exterior_d(random_element(rng)), random_element(rng))
                 for _ in range(10)]
        pairs += [(NCOneForm(D, {DT: NCElement.one(D)}), psi)
                  for _omega, psi in pairs[:3]]
        acts = [len(exactalg._s_plus_pass(psi, omega.parts))
                * (set(omega.parts) != {DT}) + len(exactalg._one_pass(
                    psi, exactalg._dt_action_tables, exactalg._J_UNIT, 0, -1))
                * (DT in omega.parts) for omega, psi in pairs]
        passes = self.spy(monkeypatch, exactalg, "_s_plus_pass")
        log, depth = [], [0]
        for owner, name in ((NCElement, "__mul__"), (NCElement, "_combine"),
                            (NCElement, "_times"), (exactalg, "_element")):
            def logged(*args, _real=getattr(owner, name), _name=name):
                if not depth[0]:
                    log.append(_name)
                depth[0] += 1
                try:
                    return _real(*args)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(owner, name, logged)
        for (omega, psi), n_acts in zip(pairs, acts):
            passes.clear()
            log.clear()
            omega.mul_elem(psi)
            assert len(passes) == (set(omega.parts) != {DT})
            assert "_times" not in log and log.count("_element") == n_acts
            assert "_combine" not in log[:log.index("__mul__")]

    def test_commutator_d_multiplies_central_factors_by_times(
            self, monkeypatch):
        rng = random.Random(43)
        psis = [random_element(rng) for _ in range(10)]
        dt = NCOneForm(D, {DT: NCElement.one(D)})
        dt_parts = [len(dt.mul_elem(psi).parts) for psi in psis]
        loop = self.spy(monkeypatch, exactalg, "_x_degree")
        central = self.spy(monkeypatch, NCElement, "_times_scalar")
        products = self.spy(monkeypatch, NCElement, "__mul__")
        for psi, n_dt in zip(psis, dt_parts):
            central.clear()
            products.clear()
            commutator_d(psi)
            # theta = dt - beta theta': 1 times each part of dt psi and
            # -beta times S^+ psi in mul_elem, psi and -beta psi in lmul
            nonzero = [p for p in products if not any(map(is_zero, p))]
            assert len(central) == len(nonzero) == n_dt + 3 <= D + 5
        assert loop == []
        random_element(rng) * random_element(rng)  # the spy sees the loop
        assert loop

    def test_factor_one_returns_the_element_itself(self):
        one, psi = NCElement.one(D), random_element(random.Random(47))
        assert one * psi is psi and psi * one is psi
        two = one._times(2, 0)
        assert psi * two is not psi and psi * two == psi + psi


def scaled_symbol(form, c):
    """The one-form symbol `form` times the coefficient c = (re, im)
    lam^j beta^k, given as the (j, k) part of a symbol key and a pair."""
    (j, k), (re, im) = c
    return {w: {(*key[:-2], key[-2] + j, key[-1] + k):
                (a * re - b * im, a * im + b * re)
                for key, (a, b) in sym.items()}
            for w, sym in form.items()}


def normal_order_action(d, w, psi):
    """The symbol of w psi for a basis one-form w, by `verify.normal_order`
    on each term's word, summed over the terms of psi."""
    want = {}
    for key, c in realization_symbol(psi).items():
        word = [w] + _monomial_word(key[:d], key[d])
        verify._add_form(want, scaled_symbol(normal_order(d, word),
                                             (key[d + 1:], c)))
    return {wp: sym for wp, sym in want.items() if sym}


class TestOneFormsAgainstTheOracles:
    """exterior_d and the bimodule action on multi-term elements with
    lam/beta powers, against the symbol oracles, which share no arithmetic
    with exactalg.  psi is drawn as a product f g, whose
    terms share monomials, so that the results sum over several terms of
    psi at one key."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    @settings(derandomize=True, max_examples=40)
    @given(data=st.data())
    def test_exterior_d_matches_leibniz(self, d, data):
        psi = data.draw(d_elements(d)) * data.draw(d_elements(d))
        assert form_symbol(exterior_d(psi)) == \
            exterior_d_leibniz(realization_symbol(psi), d)

    @pytest.mark.parametrize("d", [1, 2, 4])
    @settings(derandomize=True, max_examples=40)
    @given(data=st.data())
    def test_basis_forms_match_normal_order(self, d, data):
        psi = data.draw(d_elements(d)) * data.draw(d_elements(d))
        for w in [DT, THETA] + [dx(i) for i in range(1, d + 1)]:
            got = NCOneForm(d, {w: NCElement.one(d)}).mul_elem(psi)
            assert form_symbol(got) == normal_order_action(d, w, psi)


class TestProductProperties:
    @given(small_elements(), small_elements(), small_elements())
    def test_element_product_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(small_forms(), small_elements(), small_elements())
    def test_right_action_associative(self, omega, f, g):
        assert omega.mul_elem(f).mul_elem(g) == omega.mul_elem(f * g)

    @given(small_elements(), small_forms(), small_elements())
    def test_left_and_right_actions_commute(self, f, omega, g):
        assert omega.lmul(f).mul_elem(g) == omega.mul_elem(g).lmul(f)


def classical_dt(psi):
    """d/dt of a commuting polynomial, term by term."""
    out = NCElement.zero(D)
    for (xpow, n), c in psi.coeffs().items():
        if n:
            out = out + scaled(elem(xpow, n - 1, c), n)
    return out


class TestClassicalLimit:
    @given(st.lists(st.tuples(st.sampled_from(_DEGREES), coeffs()),
                    max_size=3))
    def test_d0_tends_to_dt(self, terms):
        # coefficients may carry lam and beta: the limit drops them after d0
        psi = NCElement.zero(D)
        for (*xpow, n), (c, _ref) in terms:
            psi = psi + elem(xpow, n, c)
        assert subs_lam_zero(exterior_d(psi).coeff(DT)) == \
            classical_dt(subs_lam_zero(psi))


class TestExteriorD:
    def test_d_generators(self):
        assert exterior_d(gen_t(D)) == NCOneForm(D, {DT: NCElement.one(D)})
        assert exterior_d(gen_x(D, 2)) == \
            NCOneForm(D, {dx(2): NCElement.one(D)})
        assert is_zero(exterior_d(NCElement.one(D)))

    def test_d_x1_squared(self):
        psi = gen_x(D, 1) * gen_x(D, 1)
        got = exterior_d(psi)
        want = NCOneForm(D, {dx(1): scaled(gen_x(D, 1), 2),
                             THETA: scalar(I_LAM)})
        assert got == want

    def test_d_t_squared(self):
        psi = gen_t(D) * gen_t(D)
        got = exterior_d(psi)
        want = NCOneForm(D, {
            DT: scaled(gen_t(D), 2) + scalar(MINUS_I_LAM),
            THETA: scalar(I_LAM_BETA),
        })
        assert got == want

    def test_routes_agree_on_monomials(self):
        for a1, a2, a3, n in itertools.product(range(3), repeat=4):
            if a1 + a2 + a3 + n > 6:
                continue
            psi = NCElement.monomial(D, (a1, a2, a3), n)
            assert exterior_d_leibniz(realization_symbol(psi), D) == \
                form_symbol(exterior_d(psi))

    def test_production_route_skips_the_oracle(self, monkeypatch):
        psi = gen_x(D, 1) * gen_x(D, 1) * gen_t(D)
        want = exterior_d_leibniz(realization_symbol(psi), D)

        def oracle(_psi):
            raise AssertionError("exterior_d reached the Leibniz oracle")

        monkeypatch.setattr(verify, "exterior_d_leibniz", oracle)
        assert form_symbol(exactalg.exterior_d(psi)) == want

    def test_leibniz_product_rule(self):
        rng = random.Random(11)
        for _ in range(20):
            f = random_element(rng)
            g = random_element(rng)
            lhs = exterior_d(f * g)
            rhs = exterior_d(f).mul_elem(g) + exterior_d(g).lmul(f)
            assert lhs == rhs

    def test_inner_property(self):
        rng = random.Random(13)
        for _ in range(20):
            psi = random_element(rng)
            assert exterior_d(psi) == commutator_d(psi)

    def test_commutator_d_examples(self):
        assert commutator_d(gen_x(D, 1)) == \
            NCOneForm(D, {dx(1): NCElement.one(D)})
        assert commutator_d(gen_t(D)) == \
            NCOneForm(D, {DT: NCElement.one(D)})
        assert is_zero(commutator_d(NCElement.one(D)))

    def test_classical_limit(self):
        # at lam = 0 only the gradient and time-derivative terms survive and
        # the theta' coefficient carries an overall lam
        rng = random.Random(17)
        for _ in range(10):
            psi = random_element(rng)
            dpsi = exterior_d(psi)
            theta_part = dpsi.coeff(THETA)
            for c in theta_part.coeffs().values():
                assert verify.lam_valuation(c) >= 1
            classical = subs_lam_zero(dpsi)
            for i in range(1, D + 1):
                assert classical.coeff(dx(i)) == \
                    subs_lam_zero(partial_x(psi, i))


class TestSerialization:
    def test_text_round_stability(self):
        # (3 + 2i) lam^2
        psi = scaled(gen_x(D, 1) * gen_t(D),
                     Coeff.from_parts({(2, 0): (3, 2)}))
        text = psi.to_text()
        assert "lam^2" in text and "x1" in text and "t" in text
        assert psi.to_text() == text  # deterministic

    def test_one_form_text(self):
        w = exterior_d(gen_t(D) * gen_t(D))
        text = w.to_text()
        assert "dt" in text and "theta'" in text

    def test_text_digest_pinned(self):
        # Pins the exact text output: any change to the coefficient
        # arithmetic or to the text format of a coefficient shows here.
        h = hashlib.sha256()
        for m in monomials():
            h.update(exterior_d(m).to_text().encode() + b"\n")
        rng = random.Random(23)
        for _ in range(20):
            f, g = random_element(rng), random_element(rng)
            for v in (f * g, exterior_d(f).mul_elem(g), commutator_d(f * g)):
                h.update(v.to_text().encode() + b"\n")
        assert h.hexdigest() == ("453ab437a4b166fc31d757afe838a5c7"
                                 "949d87de650ab60b182b4567358c5543")

"""Exact identities of the normal-ordering engine and the 5D calculus."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgrav import exactalg
from ncgrav.coeff import Coeff
from ncgrav.exactalg import (
    DT,
    THETA,
    NCElement,
    NCOneForm,
    TwoFormError,
    _monomial_word,
    commutator_d,
    dx,
    exterior_d,
    exterior_d_leibniz,
    normal_order,
)
from ncgrav.verify import monomials, random_element

D = 3


def elem(xpow, tpow, c=None):
    return NCElement.monomial(D, xpow, tpow, c)


class TestCoeff:
    def test_ring_ops_exact(self):
        a = Coeff.from_rational("1/3") + Coeff.i_lam()
        b = Coeff.beta() * Coeff.lam(2)
        assert (a + b) - b == a
        assert a * b == b * a
        assert (a * b).lam_valuation() == 2

    def test_div_i_lam(self):
        z = Coeff.i_lam() * Coeff.from_rational(5)
        assert z.div_i_lam() == Coeff.from_rational(5)
        with pytest.raises(ArithmeticError):
            Coeff.one().div_i_lam()

    def test_zero_canonical(self):
        z = Coeff.from_rational(2) - Coeff.from_rational(2)
        assert z.is_zero()
        assert z == Coeff.zero()
        assert str(z) == "0"

    def test_subs_lam_zero(self):
        z = Coeff.one() + Coeff.i_lam()
        assert z.subs_lam_zero() == Coeff.one()


class TestNormalOrder:
    def test_t_past_x(self):
        # t x1 = x1 t - i lam x1
        got = normal_order(D, ["t", ("x", 1)])
        want = elem((1, 0, 0), 1) + elem((1, 0, 0), 0, -Coeff.i_lam())
        assert got == want

    def test_spatial_commute(self):
        assert normal_order(D, [("x", 2), ("x", 1)]) == \
            normal_order(D, [("x", 1), ("x", 2)])

    def test_dt_past_t(self):
        # dt t = t dt - i lam dt + i lam beta theta'
        got = normal_order(D, [DT, "t"])
        want = NCOneForm(D, {
            DT: NCElement.t(D) + NCElement.scalar(D, -Coeff.i_lam()),
            THETA: NCElement.scalar(D, Coeff.i_lam() * Coeff.beta()),
        })
        assert got == want

    def test_theta_past_t(self):
        got = normal_order(D, [THETA, "t"])
        want = NCOneForm(D, {THETA: NCElement.t(D)
                             + NCElement.scalar(D, Coeff.i_lam())})
        assert got == want

    def test_dx_past_x_same_index(self):
        got = normal_order(D, [dx(1), ("x", 1)])
        want = NCOneForm(D, {dx(1): NCElement.x(D, 1),
                             THETA: NCElement.scalar(D, Coeff.i_lam())})
        assert got == want

    def test_dx_commutes_with_t_and_other_x(self):
        assert normal_order(D, [dx(1), "t"]) == \
            NCOneForm(D, {dx(1): NCElement.t(D)})
        assert normal_order(D, [dx(1), ("x", 2)]) == \
            NCOneForm(D, {dx(1): NCElement.x(D, 2)})

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
            if any(g in (DT, THETA) or (isinstance(g, tuple) and g[0] == "dx")
                   for g in left):
                part = normal_order(D, left)
                for g in right:
                    part = part.mul_gen(g)
            else:
                part = normal_order(D, left)
                rest = normal_order(D, right)
                part = part * rest if isinstance(rest, NCElement) \
                    else rest.lmul(part)
            assert part == whole


class TestBimoduleAction:
    @pytest.mark.parametrize("form", [dx(1), dx(2), dx(3), DT, THETA],
                             ids=["dx1", "dx2", "dx3", "dt", "theta'"])
    def test_basis_form_on_monomials_matches_normal_order(self, form):
        w = NCOneForm(D, {form: NCElement.one(D)})
        for m in monomials():
            ((xpow, n), _c), = m.terms.items()
            assert w.mul_elem(m) == normal_order(D, [form] + _monomial_word(xpow, n))

    def test_makes_no_generator_push(self, monkeypatch):
        rng = random.Random(19)
        omega = exterior_d(random_element(rng))
        psi = random_element(rng)
        want = omega.mul_elem(psi)

        def push(_self, _gen):
            raise AssertionError("mul_elem pushed a single generator")

        monkeypatch.setattr(NCOneForm, "mul_gen", push)
        assert omega.mul_elem(psi) == want

    def test_shift_table_is_shared_tuple(self):
        table = exactalg._t_power_shifted(3, 1)
        assert isinstance(table, tuple)
        assert exactalg._t_power_shifted(3, Fraction(1)) is table


# small elements for the product properties: degree <= 2, Gaussian-integer
# coefficients
_SMALL_DEGREES = [p for p in itertools.product(range(3), repeat=D + 1)
                  if sum(p) <= 2]
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


class TestExteriorD:
    def test_d_generators(self):
        assert exterior_d(NCElement.t(D)) == NCOneForm(D, {DT: NCElement.one(D)})
        assert exterior_d(NCElement.x(D, 2)) == \
            NCOneForm(D, {dx(2): NCElement.one(D)})
        assert exterior_d(NCElement.one(D)).is_zero()

    def test_d_x1_squared(self):
        psi = NCElement.x(D, 1) * NCElement.x(D, 1)
        got = exterior_d(psi)
        want = NCOneForm(D, {dx(1): NCElement.x(D, 1).scale(2),
                             THETA: NCElement.scalar(D, Coeff.i_lam())})
        assert got == want

    def test_d_t_squared(self):
        psi = NCElement.t(D) * NCElement.t(D)
        got = exterior_d(psi)
        want = NCOneForm(D, {
            DT: NCElement.t(D).scale(2) + NCElement.scalar(D, -Coeff.i_lam()),
            THETA: NCElement.scalar(D, Coeff.i_lam() * Coeff.beta()),
        })
        assert got == want

    def test_routes_agree_on_monomials(self):
        for a1, a2, a3, n in itertools.product(range(3), repeat=4):
            if a1 + a2 + a3 + n > 6:
                continue
            psi = NCElement.monomial(D, (a1, a2, a3), n)
            assert exterior_d_leibniz(psi) == exterior_d(psi)

    def test_production_route_skips_the_oracle(self, monkeypatch):
        psi = NCElement.x(D, 1) * NCElement.x(D, 1) * NCElement.t(D)
        want = exterior_d_leibniz(psi)

        def oracle(_psi):
            raise AssertionError("exterior_d reached the Leibniz oracle")

        monkeypatch.setattr(exactalg, "exterior_d_leibniz", oracle)
        assert exactalg.exterior_d(psi) == want

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
        assert commutator_d(NCElement.x(D, 1)) == \
            NCOneForm(D, {dx(1): NCElement.one(D)})
        assert commutator_d(NCElement.t(D)) == \
            NCOneForm(D, {DT: NCElement.one(D)})
        assert commutator_d(NCElement.one(D)).is_zero()

    def test_classical_limit(self):
        # at lam = 0 only the gradient and time-derivative terms survive and
        # the theta' coefficient carries an overall lam
        rng = random.Random(17)
        for _ in range(10):
            psi = random_element(rng)
            dpsi = exterior_d(psi)
            theta_part = dpsi.coeff(THETA)
            for c in theta_part.terms.values():
                assert c.lam_valuation() >= 1
            classical = dpsi.subs_lam_zero()
            for i in range(1, D + 1):
                assert classical.coeff(dx(i)) == psi.partial_x(i).subs_lam_zero()


class TestSerialization:
    def test_text_round_stability(self):
        psi = (NCElement.x(D, 1) * NCElement.t(D)).scale(
            Coeff.from_rational("3/2", 1) * Coeff.lam(2))
        text = psi.to_text()
        assert "lam^2" in text and "x1" in text and "t" in text
        assert psi.to_text() == text  # deterministic

    def test_one_form_text(self):
        w = exterior_d(NCElement.t(D) * NCElement.t(D))
        text = w.to_text()
        assert "dt" in text and "theta'" in text

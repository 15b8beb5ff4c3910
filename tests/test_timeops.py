"""Finite-difference time operators: examples, Leibniz identities, symbols."""

import cmath
import math
import random
import re
import sys
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import tf_constant, tf_isclose
from ncgrav import timeops as T
from ncgrav.timeops import TimeFunction as TF
from ncgrav.waveops import GridField
from ncgrav.verify import (classical_limit_check, random_tf, symbol_d0,
                           symbol_delta0_const, symbol_delta0_general,
                           symbol_delta0_hybrid, symbol_delta0_power)

LAM = 0.3

# a time function as random_tf draws it: p in 0..2, s and c complex
_unit = st.floats(-1.0, 1.0)
time_functions = st.lists(
    st.tuples(st.integers(0, 2), st.builds(complex, _unit, _unit),
              st.builds(complex, _unit, _unit)), max_size=3).map(
    lambda terms: TF({(p, 0.5 * s): c for p, s, c in terms}))
shifts = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))
lams = st.floats(0.1, 0.5)
powers = st.one_of(st.sampled_from([0, 1, 2]), st.floats(2.5, 4.5))
# mu, nu > 0 keep the varying finite difference away from mu = 0 and mu + nu = 0
profile_values = st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0),
                           st.floats(-1.0, 1.0))


# ---------------------------------------------------------------------------
# reference: the operators composed from binomial shifts, scale and +, with
# their own shift, so the stencil kernel is checked against code it shares
# nothing with beyond TimeFunction's ring operations
# ---------------------------------------------------------------------------

def ref_shift(f, a, lam):
    h = 1j * lam * a
    out = {}
    for (p, s), c in f.terms.items():
        base = c * cmath.exp(s * h) if s != 0 else c
        for q in range(p, -1, -1):
            out[q, s] = out.get((q, s), 0) + base * comb(p, q) * h ** (p - q)
    return TF(out)


def ref_d0(f, lam):
    return (f - ref_shift(f, -1, lam)).scale(1.0 / (1j * lam))


def ref_delta0_const(f, lam, beta):
    num = ref_shift(f, 1, lam) + ref_shift(f, -1, lam) - f.scale(2)
    return num.scale(beta / (2 * (1j * lam) ** 2))


def ref_delta0_hybrid(f, lam):
    return (f.deriv() - ref_d0(f, lam)).scale(1.0 / (1j * lam))


def ref_delta0_power(f, lam, n):
    if abs(n - 1) < T.POWER_WINDOW:
        return ref_delta0_hybrid(ref_shift(f, 1, lam), lam)
    if abs(n - 2) < T.POWER_WINDOW:
        return (ref_d0(ref_shift(f, 2, lam), lam)
                - ref_shift(f, 1, lam).deriv()).scale(1.0 / (1j * lam))
    num = (ref_shift(f, 1, lam)
           + ref_shift(f, -(1 - n), lam).scale(1 - n)
           - ref_shift(f, n, lam).scale(2 - n))
    return num.scale(1.0 / ((1j * lam) ** 2 * (2 - n) * (1 - n)))


def ref_delta0_general(f, lam, mu, nu, beta):
    num = (ref_shift(f, 1, lam).scale(nu)
           + ref_shift(f, -(beta / mu - 1), lam).scale(mu)
           - ref_shift(f, 1 - beta / (nu + mu), lam).scale(nu + mu))
    return num.scale(1.0 / (1j * lam) ** 2)


class TestTimeFunction:
    def test_shift_t_squared(self):
        f = TF.monomial(2)
        got = f.shift(1, LAM)
        want = TF({(2, 0j): 1.0, (1, 0j): 2j * LAM, (0, 0j): -LAM ** 2})
        assert tf_isclose(got, want)

    def test_shift_mode(self):
        omega = 0.7
        f = TF.mode(omega)
        got = f.shift(1, LAM)
        want = TF.mode(omega, cmath.exp(omega * LAM))
        assert tf_isclose(got, want)

    def test_shift_constant(self):
        f = tf_constant(3 + 1j)
        assert tf_isclose(f.shift(2.5, LAM), f)

    def test_shift_composes(self):
        rng = random.Random(3)
        f = random_tf(rng, 3)
        assert tf_isclose(f.shift(1, LAM).shift(-1, LAM), f)

    @given(time_functions, time_functions)
    def test_mul_matches_pointwise(self, f, g):
        h = f * g
        for tv in (0.0, 0.4, -1.1):
            assert abs(h.evaluate(tv) - f.evaluate(tv) * g.evaluate(tv)) < 1e-12

    @given(time_functions)
    def test_zero_results_hold_no_terms(self, f):
        assert (f - f).terms == {}
        assert f.scale(0).terms == {}
        assert TF({(1, 0j): 0j, (0, 0j): 2.0}).terms == {(0, 0j): 2.0}

    @given(time_functions, time_functions)
    def test_add_then_sub(self, f, g):
        assert tf_isclose(f + g - g, f)


class TestShiftGroupLaw:
    @given(time_functions, shifts, shifts)
    def test_time_function(self, f, a, b):
        # registry tolerance: 1e-12 relative to the largest coefficient
        assert tf_isclose(f.shift(a, LAM).shift(b, LAM), f.shift(a + b, LAM))


class TestStencilsMatchReference:
    # 1e-12 relative to the largest coefficient (tf_isclose)

    @given(time_functions, shifts, lams)
    def test_shift(self, f, a, lam):
        assert tf_isclose(f.shift(a, lam), ref_shift(f, a, lam))

    @given(time_functions, lams, st.floats(-2.0, 2.0))
    def test_constant_beta_operators(self, f, lam, beta):
        before = dict(f.terms)
        assert tf_isclose(T.d0(f, lam), ref_d0(f, lam))
        assert tf_isclose(T.delta0_const(f, lam, beta),
                          ref_delta0_const(f, lam, beta))
        assert tf_isclose(T.delta0_hybrid(f, lam), ref_delta0_hybrid(f, lam))
        assert f.terms == before

    @given(time_functions, lams, powers)
    def test_delta0_power(self, f, lam, n):
        assert tf_isclose(T.delta0_power(f, lam, n),
                          ref_delta0_power(f, lam, n))

    @given(time_functions, lams, profile_values)
    def test_delta0_general(self, f, lam, profile):
        assert tf_isclose(T.delta0_general(f, lam, *profile),
                          ref_delta0_general(f, lam, *profile))

    @given(time_functions, lams,
           st.lists(st.tuples(st.floats(0.5, 2.0), profile_values),
                    min_size=1, max_size=4))
    def test_delta0_general_on_grid(self, f, lam, nodes):
        # per-node weights and shifts against the reference at each node
        amp = np.array([a for a, _ in nodes])
        mu, nu, beta = (np.array(col) for col in zip(*(p for _, p in nodes)))
        g = GridField(np.arange(1.0, amp.size + 1),
                      {k: c * amp for k, c in f.terms.items()})
        got = T.delta0_general(g, lam, mu, nu, beta)
        for j in range(amp.size):
            want = ref_delta0_general(f.scale(amp[j]), lam, mu[j], nu[j],
                                      beta[j])
            assert tf_isclose(TF({k: v[j] for k, v in got.data.items()}), want)


NAN, INF = float("nan"), float("inf")
MODE = TF.mode(1.0)


class TestNonFiniteRefused:
    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    @pytest.mark.parametrize("name, call", [
        ("lam", lambda v: T.d0(MODE, v)),
        ("lam", lambda v: T.delta0_const(MODE, v, 1.0)),
        ("beta", lambda v: T.delta0_const(MODE, LAM, v)),
        ("lam", lambda v: T.delta0_hybrid(MODE, v)),
        ("lam", lambda v: T.delta0_power(MODE, v, 3)),
        ("n", lambda v: T.delta0_power(MODE, LAM, v)),
        ("lam", lambda v: T.delta0_general(MODE, v, 0.3, 0.2, 0.5)),
        ("a", lambda v: MODE.shift(v, LAM)),
        ("a", lambda v: MODE.shift(complex(1.0, v), LAM)),
        ("lam", lambda v: MODE.shift(1, v)),
    ], ids=["d0", "const-lam", "const-beta", "hybrid", "power-lam", "power-n",
            "general-lam", "shift-a", "shift-complex-a", "shift-lam"])
    def test_scalar_parameter_named(self, name, call, value):
        with pytest.raises(ValueError,
                           match=r"requires a finite %s, got %s = .*%s" % (
                               name, name, re.escape(repr(abs(value))))):
            call(value)

    @pytest.mark.parametrize("name", ["mu", "nu", "beta"])
    def test_general_profile_nodes_named(self, name):
        profile = {"mu": 0.3, "nu": 0.2, "beta": 0.5}
        nodes = {k: np.full(6, v) for k, v in profile.items()}
        profile[name] = NAN
        with pytest.raises(ValueError, match=r"finite %s, not finite at "
                           r"node\(s\) \[0\]" % name):
            T.delta0_general(MODE, LAM, **profile)
        nodes[name][[1, 4]] = [INF, NAN]
        grid = GridField(np.arange(6.0), {(0, -1j): np.ones(6, complex)})
        with pytest.raises(ValueError, match=r"finite %s, not finite at "
                           r"node\(s\) \[1, 4\]" % name):
            T.delta0_general(grid, LAM, **nodes)

    # finite profiles whose shift passes the float range: beta/mu overflows
    # at a subnormal mu, beta/(nu+mu) at a subnormal nu + mu
    @pytest.mark.parametrize("shift, mu, nu", [
        ("1 - beta/mu", 1e-310, 0.2),
        ("1 - beta/(nu+mu)", 1e-300, -1e-300 + 1e-310),
    ], ids=["mu", "nu+mu"])
    def test_general_shift_overflow_named(self, shift, mu, nu):
        message = r"finite shift %s, not finite at node\(s\) \[%s\]"
        with pytest.raises(ValueError, match=message % (re.escape(shift), 0)):
            T.delta0_general(MODE, LAM, mu, nu, 0.2)
        nodes = {"mu": np.full(4, 0.3), "nu": np.full(4, 0.2),
                 "beta": np.full(4, 0.2)}
        nodes["mu"][2], nodes["nu"][2] = mu, nu
        grid = GridField(np.arange(4.0), {(0, -1j): np.ones(4, complex)})
        with pytest.raises(ValueError, match=message % (re.escape(shift), 2)):
            T.delta0_general(grid, LAM, **nodes)


OPERATORS = {
    "d0": lambda lam: T.d0(MODE, lam),
    "delta0_const": lambda lam: T.delta0_const(MODE, lam, 1.0),
    "delta0_hybrid": lambda lam: T.delta0_hybrid(MODE, lam),
    "delta0_power": lambda lam: T.delta0_power(MODE, lam, 3),
    "delta0_power-n1": lambda lam: T.delta0_power(MODE, lam, 1),
    "delta0_power-n2": lambda lam: T.delta0_power(MODE, lam, 2),
    "delta0_general": lambda lam: T.delta0_general(MODE, lam, 0.3, 0.2, 0.5),
}


class TestTinyLamRefused:
    # below LAM_MIN, 1/lam^2 overflows: unrefused, the weights turn the
    # result into nan or 0, or the division fails with no name
    @pytest.mark.parametrize("lam", [1e-160, 1e-320])
    @pytest.mark.parametrize("op", sorted(OPERATORS))
    def test_lam_named(self, op, lam):
        name = op.split("-")[0]
        with pytest.raises(ValueError, match=r"^%s requires lam >= LAM_MIN = "
                           r".*got lam = %s$" % (name, re.escape(repr(lam)))):
            OPERATORS[op](lam)

    @pytest.mark.parametrize("op", sorted(OPERATORS))
    def test_bound_is_where_the_weights_overflow(self, op):
        assert T.LAM_MIN == 1 / math.sqrt(sys.float_info.max)
        out = OPERATORS[op](T.LAM_MIN)
        assert all(cmath.isfinite(c) for c in out.terms.values())
        with pytest.raises(ValueError, match="LAM_MIN"):
            OPERATORS[op](math.nextafter(T.LAM_MIN, 0.0))


class TestOperatorExamples:
    def test_d0_t_squared(self):
        got = T.d0(TF.monomial(2), LAM)
        want = TF({(1, 0j): 2.0, (0, 0j): -1j * LAM})
        assert tf_isclose(got, want)

    def test_d0_constant(self):
        assert tf_isclose(T.d0(tf_constant(4.2), LAM), TF.zero())

    def test_d0_mode(self):
        omega = 0.9
        got = T.d0(TF.mode(omega), LAM)
        fac = (1 - cmath.exp(-omega * LAM)) / (1j * LAM)
        assert tf_isclose(got, TF.mode(omega, fac))

    def test_d0_rejects_lam_zero(self):
        with pytest.raises(ValueError):
            T.d0(TF.monomial(1), 0.0)

    def test_delta0_const_t_squared(self):
        beta = -2.0
        got = T.delta0_const(TF.monomial(2), LAM, beta)
        assert tf_isclose(got, tf_constant(beta))

    def test_delta0_const_kills_affine(self):
        f = TF({(1, 0j): 1.5, (0, 0j): -0.3})
        assert tf_isclose(T.delta0_const(f, LAM, 1.0), TF.zero())

    def test_delta0_const_mode(self):
        omega, beta = 0.6, -1.0
        got = T.delta0_const(TF.mode(omega), LAM, beta)
        fac = -(beta / LAM ** 2) * (cmath.cosh(omega * LAM) - 1)
        assert tf_isclose(got, TF.mode(omega, fac))

    def test_delta0_hybrid_t_squared(self):
        assert tf_isclose(T.delta0_hybrid(TF.monomial(2), LAM),
                          tf_constant(1.0))

    def test_delta0_hybrid_kills_affine(self):
        f = TF({(1, 0j): 2.0, (0, 0j): 1.0})
        assert tf_isclose(T.delta0_hybrid(f, LAM), TF.zero())

    def test_delta0_power_constant(self):
        assert tf_isclose(T.delta0_power(tf_constant(1.0), LAM, 3), TF.zero())

    def test_delta0_power_n0_is_const(self):
        # the constant term of a beta structure is the n = 0 power law
        f = TF({(2, 0j): 1.0, (0, -0.7j): 0.5})
        assert tf_isclose(T.delta0_power(f, LAM, 0),
                          T.delta0_const(f, LAM, 1.0))

    def test_delta0_power_n1_t_squared(self):
        part = T.delta0_power(TF.monomial(2), LAM, 1)
        assert tf_isclose(part, tf_constant(1.0))

    def test_delta0_power_n3_mode(self):
        omega = 0.5
        part = T.delta0_power(TF.mode(omega), LAM, 3)
        e = cmath.exp
        # weights (1, 1-n, -(2-n)) = (1, -2, 1) at shifts (1, n-1, n)
        fac = (e(omega * LAM) - 2 * e(2 * omega * LAM) + e(3 * omega * LAM)) \
            / ((1j * LAM) ** 2 * (2 - 3) * (1 - 3))
        assert tf_isclose(part, TF.mode(omega, fac))

    def test_delta0_general_constant_f(self):
        assert tf_isclose(
            T.delta0_general(tf_constant(2.0), LAM, 0.5, 0.25, 1.0), TF.zero())

    def test_delta0_general_reduces_to_const(self):
        beta = -1.3
        f = TF.monomial(2)
        got = T.delta0_general(f, LAM, beta / 2, beta / 2, beta)
        assert tf_isclose(got, T.delta0_const(f, LAM, beta))

    def test_delta0_general_matches_power_n3(self):
        # closed-form profiles for 1/r^3 at r = 2
        r, n, omega = 2.0, 3, 0.8
        mu = 1.0 / ((2 - n) * r ** n)
        nu = 1.0 / ((2 - n) * (1 - n) * r ** n)
        beta = r ** -n
        f = TF.mode(omega)
        got = T.delta0_general(f, LAM, mu, nu, beta)
        part = T.delta0_power(f, LAM, n)
        want = part.scale(r ** -n)
        assert tf_isclose(got, want, tol=1e-12)

    def test_delta0_general_degenerate(self):
        with pytest.raises(T.DegenerateProfileError):
            T.delta0_general(TF.monomial(1), LAM, 0.0, 1.0, 1.0)
        with pytest.raises(T.DegenerateProfileError):
            T.delta0_general(TF.monomial(1), LAM, 1.0, -1.0, 1.0)


class TestLeibniz:
    def test_constant_beta_identity(self):
        # Delta0(fg) = (Delta0 f) g(t+il) + f(t-il) Delta0 g + (d0 f)(d0 g)(t+il)
        rng = random.Random(21)
        for _ in range(100):
            f, g = random_tf(rng), random_tf(rng)
            lhs = T.delta0_const(f * g, LAM, 1.0)
            rhs = (T.delta0_const(f, LAM, 1.0) * g.shift(1, LAM)
                   + f.shift(-1, LAM) * T.delta0_const(g, LAM, 1.0)
                   + T.d0(f, LAM) * T.d0(g, LAM).shift(1, LAM))
            assert tf_isclose(lhs, rhs, tol=1e-12)

    def test_hybrid_identity(self):
        rng = random.Random(23)
        for _ in range(100):
            f, g = random_tf(rng), random_tf(rng)
            lhs = T.delta0_hybrid(f * g, LAM)
            rhs = (T.delta0_hybrid(f, LAM) * g
                   + f.shift(-1, LAM) * T.delta0_hybrid(g, LAM)
                   + T.d0(f, LAM) * g.deriv())
            assert tf_isclose(lhs, rhs, tol=1e-12)


class TestSymbols:
    def test_symbol_consistency(self):
        rng = random.Random(31)
        for _ in range(20):
            omega = rng.uniform(-2, 2)
            mode = TF.mode(omega)
            checks = [
                (symbol_d0(omega, LAM), T.d0(mode, LAM)),
                (symbol_delta0_const(omega, LAM, -1.0),
                 T.delta0_const(mode, LAM, -1.0)),
                (symbol_delta0_hybrid(omega, LAM),
                 T.delta0_hybrid(mode, LAM)),
                (symbol_delta0_power(omega, LAM, 3),
                 T.delta0_power(mode, LAM, 3)),
                (symbol_delta0_power(omega, LAM, 1),
                 T.delta0_power(mode, LAM, 1)),
                (symbol_delta0_power(omega, LAM, 2),
                 T.delta0_power(mode, LAM, 2)),
                (symbol_delta0_general(omega, LAM, 0.4, 0.3, 0.9),
                 T.delta0_general(mode, LAM, 0.4, 0.3, 0.9)),
            ]
            for sym, applied in checks:
                assert tf_isclose(applied, TF.mode(omega, sym), tol=1e-12)

    def test_special_case_continuity(self):
        rng = random.Random(37)
        for n0 in (1.0, 2.0):
            for eps in (1e-6, -1e-6):
                f = random_tf(rng)
                near = T.delta0_power(f, LAM, n0 + eps)
                exact = T.delta0_power(f, LAM, n0)
                assert tf_isclose(near, exact, tol=1e-5)


class TestClassicalLimit:
    def test_delta0_const_second_order(self):
        f = TF.mode(1.0)
        target = f.deriv().deriv().scale(0.5)  # (beta/2) f'' with beta = 1
        rep = classical_limit_check(
            lambda g, lam: T.delta0_const(g, lam, 1.0), f,
            [0.1, 0.05, 0.025], target)
        assert rep["errors"][0] > rep["errors"][-1]
        assert rep["fitted_order"] >= 1

    def test_d0_first_order(self):
        f = TF.monomial(3)
        rep = classical_limit_check(
            lambda g, lam: T.d0(g, lam), f, [0.1, 0.05, 0.025], f.deriv())
        assert 0.8 < rep["fitted_order"] < 1.3

    def test_constant_exact(self):
        f = tf_constant(2.0)
        rep = classical_limit_check(
            lambda g, lam: T.d0(g, lam), f, [0.1, 0.05], TF.zero())
        assert max(rep["errors"]) < 1e-14

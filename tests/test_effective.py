"""Effective masses, constant potential, extrema, Figure-1 table, dark energy."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncgrav import effective as E
from ncgrav import geometry as G
from ncgrav import spectrum as S
from ncgrav import verify as V


class TestClosedForms:
    def test_x1_values(self):
        assert abs(E.mI_over_mp(1.0) - (1 - math.exp(-2)) / 2) < 1e-12
        assert abs(float(E.mG_over_mp(1.0))
                   - 2 * math.exp(-1) / math.sinh(1)) < 1e-12
        assert abs(float(E.V0_over_mpc2(1.0)) + 0.0359007557) < 1e-9

    def test_classical_limit(self):
        p = E.effective_params(1e-8)
        assert abs(p.m_I / 1e-8 - 1) < 1e-7
        assert abs(p.m_G / 1e-8 - 1) < 1e-7
        assert abs(p.V0) < 1e-12

    def test_effective_params_planck_mass(self):
        u = E.PlanckUnits()
        p = E.effective_params(1.0, u)
        assert abs(p.x - 1.0) < 1e-15
        assert abs(p.m_I - 0.43233235838) < 1e-9
        assert abs(p.V0 + 0.03590075573) < 1e-9

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            E.effective_params(0.0)

    def test_rejects_nan_mass_by_name(self):
        # a nan m passed the m <= 0 test and gave all-nan parameters
        with pytest.raises(ValueError, match="^effective_params: m must be a "
                           "number, got nan$"):
            E.effective_params(math.nan)

    @pytest.mark.parametrize("m, units", [
        # x underflowed to 0, and the 30-digit branch divided by it
        (5e-324, E.PlanckUnits(lam=5e-324, hbar=5e-324)),
        (1e-310, E.PlanckUnits()),              # a subnormal x
        (1e308, E.PlanckUnits(lam=10.0))])      # x overflowed
    def test_x_out_of_normal_range_named(self, m, units):
        with pytest.raises(ValueError) as err:
            E.effective_params(m, units)
        assert str(err.value) == ("effective_params: x = m/m_p leaves the "
                                  "normal float range at m = %r, units = %r"
                                  % (m, units))

    @pytest.mark.parametrize("name", ["lam", "c", "hbar", "G"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_units_refuse_bad_constant_by_name(self, name, value):
        with pytest.raises(ValueError, match="^PlanckUnits: %s must be "
                           "positive and finite, got %r$" % (name, value)):
            E.PlanckUnits(**{name: value})

    @pytest.mark.parametrize("kw", [
        {"c": 1e-310},                  # lam c^2 underflows to 0
        {"c": 1e200},                   # c^2 overflows
        {"hbar": 1e-310},               # m_p subnormal
        {"lam": 1e-310},                # m_p overflows
        {"hbar": 1e300, "lam": 1e-10},  # m_p overflows
    ])
    def test_units_refuse_planck_mass_out_of_range(self, kw):
        with pytest.raises(ValueError, match=r"^PlanckUnits: the Planck mass "
                           r"hbar/\(lam c\^2\) leaves the normal float range "
                           r"at lam = "):
            E.PlanckUnits(**kw)

    def test_units_keep_a_normal_planck_mass(self):
        u = E.PlanckUnits(lam=1e-300)
        assert u.m_p == 1.0 / 1e-300
        assert E.PlanckUnits(lam=5.39e-44, c=3e8, hbar=1.05e-34).m_p > 0

    def test_crossover_continuity(self):
        x = E.SMALL_X
        lo = E._ratios(x * (1 - 1e-12))   # extended-precision branch
        hi = E._ratios(x * (1 + 1e-12))   # double closed-form branch
        for a, b in zip(lo, hi):
            assert abs(a - b) < 1e-10


def _mg_closed_scalar(x):
    """The scalar closed form of m_G/m, one float at a time."""
    den = x / 2 * math.sinh(x)
    if math.isinf(den):
        return (x + math.expm1(-x)) / (x / 2) / math.sinh(x)
    return (x + math.expm1(-x)) / den


class TestColumns:
    def test_small_band_against_mpmath(self):
        # the closed forms cancel about |log10 x| (m_G) and 2 |log10 x| (V0)
        # digits, so the reference carries 50 digits beyond that
        xs = np.geomspace(1e-150, E.SMALL_X, 300, endpoint=False)
        got = np.column_stack([E.mG_over_mp(xs), E.V0_over_mpc2(xs)])
        for x, row in zip(xs.tolist(), got):
            with mpmath.workdps(50 + 2 * int(-math.log10(x))):
                xm = mpmath.mpf(x)
                want = (xm * (xm + mpmath.expm1(-xm))
                        / (xm / 2 * mpmath.sinh(xm)),
                        xm ** 2 / mpmath.sinh(xm) - xm / mpmath.cosh(xm / 2))
                for value, ref in zip(row, want):
                    if abs(ref) < sys.float_info.min:
                        continue  # V0 ~ -x^3/24 is below the normal floats
                    assert abs(value - ref) <= 1e-14 * abs(ref), (x, value)

    @given(st.lists(st.floats(E.SMALL_X, E.X_MAX), min_size=1, max_size=40))
    @example([E.SMALL_X, 704.6, 704.62, 705.0, 710.0, E.X_MAX])
    def test_closed_band_is_the_scalar_form_bit_for_bit(self, xs):
        want = [(x * _mg_closed_scalar(x)).hex() for x in xs]
        assert [v.hex() for v in E.mG_over_mp(np.array(xs)).tolist()] == want
        assert [E._ratios(x)[1].hex() for x in xs] \
            == [_mg_closed_scalar(x).hex() for x in xs]

    def test_bands_keep_order_and_shape(self):
        xs = np.array([[2e-5, 3.0], [0.5, 5e-5]])
        for column in (E.mG_over_mp, E.V0_over_mpc2):
            got = column(xs)
            assert got.shape == (2, 2)
            assert got.ravel().tolist() == [float(column(x))
                                            for x in xs.ravel()]
        assert isinstance(E.mG_over_mp(2e-5), float)

    def test_above_sinh_range_names_the_first_x(self):
        with pytest.raises(ValueError, match="x = m/m_p = 800 is above"):
            E.mG_over_mp([1e-5, 1.0, 800.0, 900.0])


class TestSeries:
    def test_leading_coefficients(self):
        rep = V.series_check()
        assert abs(rep["m_I_linear"] + 1.0) < 1e-4
        assert abs(rep["m_G_linear"] + 1.0 / 3.0) < 1e-4
        assert abs(rep["V0_quadratic"] + 1.0 / 24.0) < 1e-4


class TestExtrema:
    def test_matches_scipy_bounded_minimizer(self):
        # scipy's bounded Brent to the same xatol is the oracle of the
        # registry's golden-section search; V0's minimum is flat, so its
        # argmin agrees to about 1e-7 and its value to about 1e-15
        from scipy.optimize import minimize_scalar
        rep = V.extrema_report()
        for key, f, sign in (("V0", E.V0_over_mpc2, 1),
                             ("mG_over_mI", V.mG_over_mI, -1)):
            ref = minimize_scalar(lambda x: sign * f(x), bounds=(0.1, 50.0),
                                  method="bounded", options={"xatol": 1e-10})
            x = rep["V0_argmin" if sign > 0 else "mG_over_mI_argmax"]
            val = rep["V0_min_over_mpc2" if sign > 0 else "mG_over_mI_peak"]
            assert abs(x - ref.x) < 1e-6, key
            assert abs(val - sign * ref.fun) <= 2e-15 * abs(val), key

    def test_golden_search_reaches_xatol(self):
        for x0 in (0.1 + 1e-3, 1.2345678901234, 49.9):
            x, fx = V._golden_min(lambda x: (x - x0) ** 2, 0.1, 50.0)
            assert abs(x - x0) < 1e-10 and fx < 1e-20

    def test_report(self):
        rep = V.extrema_report()
        assert rep["mI_sup_over_mp"] == 0.5
        assert abs(rep["mI_at_x10_over_mp"] - 0.5) < 1e-6
        assert abs(rep["V0_argmin"] - 4.5) < 0.2
        assert abs(rep["V0_min_over_mpc2"] + 0.49) < 0.01
        assert 1.0 < rep["mG_over_mI_argmax"] < 1.6
        assert abs(rep["mG_over_mI_peak"] - 1.46) < 0.02

    def test_mI_monotone_and_bounded(self):
        # strict growth checkable up to x ~ 15; beyond that the asymptote
        # saturates the double-precision representation of (1 - e^{-2x})/2
        xs = np.linspace(1e-3, 15, 400)
        vals = E.mI_over_mp(xs)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals < 0.5)
        # past saturation the double value equals the supremum exactly
        assert np.all(E.mI_over_mp(np.linspace(1e-3, 100, 400)) <= 0.5)

    def test_decay_at_large_x(self):
        for x in (20.0, 50.0):
            assert abs(float(E.mG_over_mp(x))) < 1e-6
        # V0 decays more slowly (~ x e^{-x/2}): 1.8e-3 at x=20, tiny by x=50
        assert abs(float(E.V0_over_mpc2(20.0))) < 2e-3
        assert abs(float(E.V0_over_mpc2(50.0))) < 1e-8
        assert abs(float(E.V0_over_mpc2(50.0))) < \
            abs(float(E.V0_over_mpc2(20.0)))

    def test_all_bounded_by_half(self):
        xs = np.linspace(1e-3, 100, 500)
        assert np.all(np.abs(E.mI_over_mp(xs)) <= 0.5 + 1e-12)
        assert np.all(np.abs(E.mG_over_mp(xs)) <= 1.0)  # m_G/m_p <= ~0.68
        assert np.all(np.abs(E.V0_over_mpc2(xs)) <= 0.5 + 1e-12)


class TestFigure1:
    def test_shape_and_x1_row(self):
        data = E.figure1_data(x_max=10.0, n_points=500)
        assert data.shape == (500, 4)
        i = np.argmin(np.abs(data[:, 0] - 1.0))
        assert abs(data[i, 0] - 1.0) < 0.02
        assert abs(data[i, 1] - 0.4323) < 0.01
        assert abs(data[i, 3] + 0.0359) < 0.005

    def test_small_x_rows_vanish(self):
        data = E.figure1_data(x_max=1.0, n_points=1000)
        assert np.all(np.abs(data[0, 1:]) < 5e-3)

    def test_large_x_tails(self):
        data = E.figure1_data(x_max=40.0, n_points=400)
        assert abs(data[-1, 1] - 0.5) < 1e-10
        assert abs(data[-1, 2]) < 1e-10
        assert abs(data[-1, 3]) < 1e-6

    @pytest.mark.parametrize("x_max", [float("nan"), float("inf")])
    def test_x_max_not_finite_named(self, x_max):
        # a nan x_max gave all-nan rows
        with pytest.raises(ValueError) as err:
            E.figure1_data(x_max=x_max, n_points=500)
        assert str(err.value) == ("figure1_data: x_max must be finite, got %r"
                                  % x_max)

    @pytest.mark.parametrize("x_max, n_points", [
        (0.0, 500), (-1.0, 500), (-float("inf"), 500), (1.0, 1),
        (float("nan"), 1)])
    def test_nonpositive_x_max_message_kept(self, x_max, n_points):
        with pytest.raises(ValueError, match="^x_max > 0 and n_points >= 2 "
                           "required$"):
            E.figure1_data(x_max=x_max, n_points=n_points)


class TestDarkEnergy:
    def test_headline_number(self):
        rep = E.dark_energy_estimate(1e53, 1e26)
        g_per_cm3 = rep["mass_density"] * 1e3 / 1e6
        assert abs(g_per_cm3 - 1.1e-29) < 0.05e-29
        assert rep["energy_density"] < 0

    def test_zero_mass(self):
        # a zero density is not refused where m_U c^2 would underflow
        for c in (1.0, 1e-150, 1e-160):
            rep = E.dark_energy_estimate(0.0, 1e26, c=c)
            assert rep["mass_density"] == 0.0 == rep["energy_density"]

    def test_r_cubed_scaling(self):
        a = E.dark_energy_estimate(1e53, 1e26)["mass_density"]
        b = E.dark_energy_estimate(1e53, 2e26)["mass_density"]
        assert abs(a / b - 8.0) < 1e-12

    @pytest.mark.parametrize("m_U, r_U, message", [
        # r_U^3 underflowed to a division by zero, or overflowed
        (1e53, 1e-200, "9 r_U^3 leaves the normal float range at "
         "r_U = 1e-200"),
        (1e53, 1e200, "9 r_U^3 leaves the normal float range at "
         "r_U = 1e+200"),
        # nan values, and a mass density of 0.0 at r_U = inf
        (math.nan, 1e26, "m_U must be finite, got nan"),
        (1e53, math.nan, "r_U must be finite, got nan"),
        (1e53, math.inf, "r_U must be finite, got inf"),
        (math.inf, 1e26, "m_U must be finite, got inf")])
    def test_out_of_range_named(self, m_U, r_U, message):
        with pytest.raises(ValueError) as err:
            E.dark_energy_estimate(m_U, r_U)
        assert str(err.value) == "dark_energy_estimate: " + message

    def test_mass_density_overflow_named(self):
        # 9 r_U^3 = 1.1e-306 is normal, but m_U over it passes the float
        # max: the mass density was inf and the energy density -inf
        with pytest.raises(ValueError) as err:
            E.dark_energy_estimate(1e53, 5e-103)
        assert str(err.value) == (
            "dark_energy_estimate: the mass density m_U/(9 r_U^3) overflows "
            "at m_U = 1e+53, r_U = 5e-103")
        assert E.dark_energy_estimate(0.0, 5e-103)["mass_density"] == 0.0

    def test_energy_density_scales_with_c_squared(self):
        rep = E.dark_energy_estimate(1e53, 1e26, c=3.0)
        assert rep["energy_density"] == -rep["mass_density"] * 9.0

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_c_refused_by_name(self, c):
        with pytest.raises(ValueError) as err:
            E.dark_energy_estimate(1e53, 1e26, c=c)
        assert str(err.value) == ("dark_energy_estimate: c must be positive "
                                  "and finite, got %r" % c)

    def test_c_squared_overflow_finite(self):
        # c^2 overflows at c = 1e160, where the energy density is finite:
        # it was refused as "c^2 overflows"
        rep = E.dark_energy_estimate(1e53, 1e26, c=1e160)
        assert rep["energy_density"] == -1.1111111111111108e+294
        assert E.dark_energy_estimate(1e53, 1e26, c=1e170)[
            "energy_density"] == -math.inf

    @pytest.mark.parametrize("c", [1e-150, 1e-141, 1e-155, 1e-160])
    def test_energy_density_underflow_named(self, c):
        # -m_U c^2/(9 r_U^3) was -0.0 (c = 1e-150) or subnormal (1e-141)
        with pytest.raises(ValueError) as err:
            E.dark_energy_estimate(1e53, 1e26, c=c)
        assert str(err.value) == (
            "dark_energy_estimate: the energy density -m_U c^2/(9 r_U^3) "
            "underflows at m_U = 1e+53, r_U = 1e+26, c = %r" % c)

    @pytest.mark.parametrize("m_U, r_U", [
        (-1.0, 1e26), (-math.inf, 1e26), (1e53, 0.0), (1e53, -math.inf)])
    def test_sign_message_kept(self, m_U, r_U):
        with pytest.raises(ValueError, match="^m_U >= 0 and r_U > 0 "
                           "required$"):
            E.dark_energy_estimate(m_U, r_U)


@pytest.mark.parametrize("name, produce", [
    ("nodes", lambda: G.mu_nu_table(0.5, 50, 2.5, n=3)),
    ("n_points", lambda: E.figure1_data(10, 2.5)),
    ("n_max", lambda: S.bohr_oracle(1, 1, 0, 1, 1e-3, 1, n_max=2.5)),
])
def test_non_integral_count_named(name, produce):
    # each count raised a bare TypeError out of numpy or range
    with pytest.raises(ValueError) as err:
        produce()
    assert str(err.value) == "%s must be an integer, got 2.5" % name

"""Effective masses, constant potential, extrema, Figure-1 table, dark energy."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncgrav import effective as E
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
        assert [E._mg_ratio(x).hex() for x in xs] \
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


class TestDarkEnergy:
    def test_headline_number(self):
        rep = E.dark_energy_estimate(1e53, 1e26)
        g_per_cm3 = rep["mass_density"] * 1e3 / 1e6
        assert abs(g_per_cm3 - 1.1e-29) < 0.05e-29
        assert rep["energy_density"] < 0

    def test_zero_mass(self):
        assert E.dark_energy_estimate(0.0, 1e26)["mass_density"] == 0.0

    def test_r_cubed_scaling(self):
        a = E.dark_energy_estimate(1e53, 1e26)["mass_density"]
        b = E.dark_energy_estimate(1e53, 2e26)["mass_density"]
        assert abs(a / b - 8.0) < 1e-12

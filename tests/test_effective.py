"""Effective masses, constant potential, extrema, Figure-1 table, dark energy."""

import math

import numpy as np
import pytest

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

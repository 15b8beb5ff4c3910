"""Radial profiles and the mu/nu ODE system; the static metric and the
weak-field check that `verify` keeps beside its registry checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import scaled_profile
from ncgrav import geometry as G
from ncgrav import verify as V
from ncgrav.timeops import POWER_WINDOW


def log_radii(n=100):
    return G.default_log_grid(0.5, 50.0, n)


class TestRadialProfile:
    def test_power_law_derivatives(self):
        p = G.RadialProfile.power_law(3, 2.0)
        r = np.array([0.7, 1.3, 4.0])
        assert np.allclose(p(r), 2.0 * r ** -3)
        assert np.allclose(p.deriv(r), -6.0 * r ** -4)
        assert np.allclose(p.deriv2(r), 24.0 * r ** -5)

    def test_sum_and_scale(self):
        a = G.RadialProfile.constant(2.0)
        b = G.RadialProfile.power_law(1)
        s = a + scaled_profile(b, 3.0)
        r = np.array([1.0, 2.0])
        assert np.allclose(s(r), 2.0 + 3.0 / r)
        assert np.allclose(s.deriv(r), -3.0 / r ** 2)

    def test_missing_derivative_named(self):
        p = G.RadialProfile(lambda r: np.exp(-r))
        for deriv, order in ((p.deriv, "first"), (p.deriv2, "second")):
            with pytest.raises(ValueError, match="without a %s derivative"
                               % order):
                deriv(np.array([1.0, 2.0]))

    def test_functions_get_float_radii(self):
        # the profile converts r once, so its functions see float64 even
        # where the caller passes a list of ints
        seen = []

        def record(r):
            seen.append(r.dtype)
            return r
        p = G.RadialProfile(record, deriv=record, deriv2=record)
        for call in (p, p.deriv, p.deriv2):
            call([1, 2])
        assert seen == [np.float64] * 3


class TestClosedForms:
    def test_n1_values(self):
        mu, nu = G.mu_nu_closed(1)
        r = np.array([1.0, np.e])
        assert np.allclose(mu(r), 1.0 / r)
        assert np.allclose(nu(r), np.log(r) / r)

    def test_n3_values(self):
        mu, nu = G.mu_nu_closed(3)
        r = 2.0
        assert np.isclose(float(mu(r)), -1.0 / 8)
        assert np.isclose(float(nu(r)), 1.0 / 16)

    def test_ode_residuals_all_profiles(self):
        radii = log_radii(100)
        for n in (1.0, 2.0, 3.0, 0.5, 5.0):
            beta = G.RadialProfile.power_law(n)
            mu, nu = G.mu_nu_closed(n)
            res_mu, res_nu = G.ode_residuals(beta, mu, nu, radii)
            assert res_mu.max() < 1e-10, n
            assert res_nu.max() < 1e-10, n

    def test_newton_values(self):
        beta, mu, nu = G.mu_nu_newton(1.0, 1.0)
        assert np.isclose(float(beta(1.0)), -2.0)
        assert np.isclose(float(mu(1.0)), -1.5)
        assert np.isclose(float(nu(1.0)), -0.5)

    def test_newton_flat_limit(self):
        c = 2.0
        beta, mu, nu = G.mu_nu_newton(1e-12, c)
        r = 1.0
        assert np.isclose(float(beta(r)), -1.0 / c ** 2)
        assert np.isclose(float(mu(r)), -0.5 / c ** 2)

    def test_newton_ode_residuals(self):
        beta, mu, nu = G.mu_nu_newton(1.0, 1.0)
        radii = log_radii(100)
        res_mu, res_nu = G.ode_residuals(beta, mu, nu, radii)
        assert res_mu.max() < 1e-10
        assert res_nu.max() < 1e-10

    def test_newton_requires_positive_params(self):
        with pytest.raises(ValueError):
            G.mu_nu_newton(-1.0, 1.0)

    @pytest.mark.parametrize("gamma, c", [
        (float("nan"), 1.0), (float("inf"), 1.0), (1e-3, float("nan")),
        (1e-3, float("inf")), (1e-3, -float("inf"))])
    def test_newton_refuses_non_finite_params(self, gamma, c):
        with pytest.raises(ValueError, match="^gamma and c must be positive"):
            G.mu_nu_newton(gamma, c)
        with pytest.raises(ValueError, match="^gamma and c must be positive"):
            G.mu_nu_table(0.5, 10, 4, gamma=gamma, c=c)

    def test_newton_structure_decomposition(self):
        gamma, c = 0.3, 2.0
        beta, _, _ = G.mu_nu_newton(gamma, c)
        assert beta.structure == [(0, -1 / c ** 2), (1, -gamma / c ** 2)]
        r = np.array([0.7, 3.0])
        total = sum(coef * r ** -n for n, coef in beta.structure)
        assert np.allclose(total, beta(r))


class TestMuNuTable:
    @pytest.mark.parametrize("profile", [{"n": 3.0}, {"n": 1.0},
                                         {"gamma": 1e-3, "c": 2.0}])
    def test_columns_are_the_profiles(self, profile):
        table = G.mu_nu_table(0.5, 50.0, 40, **profile)
        assert table.dtype.names == ("r", "beta", "mu", "nu", "res_mu",
                                     "res_nu")
        r = G.default_log_grid(0.5, 50.0, 40)
        if "gamma" in profile:
            beta, mu, nu = G.mu_nu_newton(profile["gamma"], profile["c"])
        else:
            beta = G.RadialProfile.power_law(profile["n"])
            mu, nu = G.mu_nu_closed(profile["n"])
        want = [r, beta(r), mu(r), nu(r), *G.ode_residuals(beta, mu, nu, r)]
        for name, column in zip(table.dtype.names, want):
            assert np.array_equal(table[name], column), name

    def test_needs_a_profile(self):
        with pytest.raises(ValueError, match="n or gamma"):
            G.mu_nu_table(0.5, 50.0, 40)

    @pytest.mark.parametrize("rmin, rmax, nodes", [
        (10.0, 1.0, 5),             # a decreasing grid was returned
        (-1.0, 1.0, 5),             # four nan rows
        (0.5, 50.0, 1),             # one row
        (0.0, 1.0, 5), (1.0, 1.0, 5), (0.5, float("inf"), 5)])
    def test_grid_refused_by_name(self, rmin, rmax, nodes):
        with pytest.raises(ValueError) as err:
            G.mu_nu_table(rmin, rmax, nodes, n=3)
        assert str(err.value) == (
            "mu_nu_table needs 0 < rmin < rmax < inf and nodes >= 2, got "
            "rmin = %r, rmax = %r, nodes = %r" % (rmin, rmax, nodes))

    def test_cells_beyond_float_range_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = G.mu_nu_table(0.5, 10.0, 3, n=2000)
        assert np.isinf(table["beta"][0]) and np.isnan(table["res_mu"][0])


class TestNumericIntegration:
    def test_matches_n1_closed_form(self):
        mu1, nu1 = G.mu_nu_closed(1)
        grid = G.default_log_grid(0.5, 10.0, 200)
        mu, nu = G.mu_nu_numeric(G.RadialProfile.power_law(1), 1.0, 1.0, 0.0,
                                 grid)
        assert np.max(np.abs(mu(grid) - mu1(grid))) < 1e-8
        assert np.max(np.abs(nu(grid) - nu1(grid))) < 1e-8

    def test_constant_beta_fixed_point(self):
        beta = 0.8
        grid = G.default_log_grid(0.5, 10.0, 100)
        mu, nu = G.mu_nu_numeric(G.RadialProfile.constant(beta), 1.0,
                                 beta / 2, beta / 2, grid)
        assert np.max(np.abs(mu(grid) - beta / 2)) < 1e-10
        assert np.max(np.abs(nu(grid) - beta / 2)) < 1e-10

    def test_matches_newton_closed_form(self):
        gamma, c = 1.0, 1.0
        beta, mu_c, nu_c = G.mu_nu_newton(gamma, c)
        grid = G.default_log_grid(0.2, 20.0, 200)
        mu, nu = G.mu_nu_numeric(beta, gamma, float(mu_c(gamma)),
                                 float(nu_c(gamma)), grid)
        assert np.max(np.abs(mu(grid) - mu_c(grid))) < 1e-8
        assert np.max(np.abs(nu(grid) - nu_c(grid))) < 1e-8

    def test_linearity_in_beta(self):
        grid = G.default_log_grid(0.5, 10.0, 150)
        b1 = G.RadialProfile.power_law(1)
        b2 = G.RadialProfile.constant(0.5)
        mu1, nu1 = G.mu_nu_numeric(b1, 1.0, 1.0, 0.0, grid)
        mu2, nu2 = G.mu_nu_numeric(b2, 1.0, 0.25, 0.25, grid)
        mu12, nu12 = G.mu_nu_numeric(b1 + b2, 1.0, 1.25, 0.25, grid)
        assert np.max(np.abs(mu12(grid) - mu1(grid) - mu2(grid))) < 1e-10
        assert np.max(np.abs(nu12(grid) - nu1(grid) - nu2(grid))) < 1e-10


# power laws n in [0.5, 5], with n = 1 and 2 themselves (the log forms) but
# not the POWER_WINDOW around them, where mu_nu_closed takes the log forms
POWERS = st.sampled_from([1.0, 2.0]) | st.floats(0.5, 5.0).filter(
    lambda n: min(abs(n - 1), abs(n - 2)) >= POWER_WINDOW)


@st.composite
def quadrature_cases(draw):
    """beta with its closed-form mu, nu, a grid on [0.5, 10], a pin on or off
    it, and radii off the grid inside and outside [0.5, 10].  The pin stays
    in [1, 4]: outward, nu of r^-n falls off faster than the homogeneous
    1/r, so rounding in the pin data alone grows like (r / r_ref)^(n-1)
    (mu_nu_numeric's docstring); from r_ref = 0.5, n = 5 is at 5e-11 by
    r = 12 before any quadrature."""
    if draw(st.booleans()):
        n = draw(POWERS)
        beta = G.RadialProfile.power_law(n)
        mu, nu = G.mu_nu_closed(n)
    else:
        beta, mu, nu = G.mu_nu_newton(draw(st.floats(1e-3, 10.0)),
                                      draw(st.floats(0.5, 2.0)))
    grid = G.default_log_grid(0.5, 10.0, draw(st.integers(16, 400)))
    inner = grid[(grid >= 1.0) & (grid <= 4.0)]
    if draw(st.booleans()):
        pin = float(inner[draw(st.integers(0, inner.size - 1))])
    else:
        pin = draw(st.floats(1.0, 4.0))
    off = draw(st.lists(st.floats(0.5, 10.0), min_size=1, max_size=8))
    outside = draw(st.lists(st.floats(0.05, 0.5, exclude_max=True)
                            | st.floats(10.0, 12.0, exclude_min=True),
                            min_size=1, max_size=4))
    return beta, mu, nu, grid, pin, np.array(off), np.array(outside)


class TestQuadratureAccuracy:
    @given(quadrature_cases())
    def test_matches_closed_forms(self, case):
        beta, mu_c, nu_c, grid, pin, off, outside = case
        mu, nu = G.mu_nu_numeric(beta, pin, float(mu_c(pin)),
                                 float(nu_c(pin)), grid)
        for r in (grid, off, outside):
            b, m, n = beta(r), mu_c(r), nu_c(r)
            # mu vanishes where ln r does (n = 2), nu where its bracket does
            # (n = 1, 2, Newton): each is measured against its source's size
            scale_mu, scale_nu = np.abs(m) + np.abs(b), np.abs(n) + np.abs(m)
            assert np.max(np.abs(mu(r) - m) / scale_mu) <= 1e-10
            assert np.max(np.abs(nu(r) - n) / scale_nu) <= 1e-10
            assert np.max(np.abs(mu.deriv(r) - mu_c.deriv(r)) * r
                          / scale_mu) <= 1e-10
            assert np.max(np.abs(nu.deriv(r) - nu_c.deriv(r)) * r
                          / scale_nu) <= 1e-10

    def test_long_grid_keeps_its_digits(self):
        # the running sums carry each addition's rounding error: 2.8e-11 here
        # with that compensation, 6.6e-10 with a plain np.cumsum
        grid = G.default_log_grid(0.5, 10.0, 2000)
        r = np.concatenate([[0.3], grid, [12.0]])
        for n in (2.5, 3.0, 4.0, 5.0):
            mu_c, nu_c = G.mu_nu_closed(n)
            for pin in (0.5, 1.0, 5.0):
                mu, nu = G.mu_nu_numeric(G.RadialProfile.power_law(n), pin,
                                         float(mu_c(pin)), float(nu_c(pin)),
                                         grid)
                assert np.max(np.abs(mu(r) / mu_c(r) - 1)) <= 1e-10, (n, pin)
                assert np.max(np.abs(nu(r) / nu_c(r) - 1)) <= 1e-10, (n, pin)

    def test_wide_gaps_are_split(self):
        # two nodes 20x apart: the gap takes geometric panels of ratio at
        # most PANEL_RATIO, not one 8-node panel
        mu_c, nu_c = G.mu_nu_closed(3.0)
        mu, nu = G.mu_nu_numeric(G.RadialProfile.power_law(3.0), 1.0,
                                 float(mu_c(1.0)), float(nu_c(1.0)),
                                 [0.5, 10.0])
        r = np.array([0.5, 0.6, 2.0, 7.0, 10.0])
        assert np.max(np.abs(mu(r) / mu_c(r) - 1)) <= 1e-12
        assert np.max(np.abs(nu(r) / nu_c(r) - 1)) <= 1e-12

    def test_complex_constant_beta(self):
        # pinned at mu(1) = nu(1) = 0, off the fixed point beta/2, the
        # solution is mu = beta/2 (1 - 1/r^2), nu = beta/2 (1 + 1/r^2) - beta/r;
        # it stays complex however small its imaginary part
        grid = G.default_log_grid(0.5, 10.0, 100)
        for beta in (0.8 + 0.3j, 1e-9 + 1e-9j):
            mu, nu = G.mu_nu_numeric(G.RadialProfile.constant(beta), 1.0,
                                     0.0, 0.0, grid)
            for r in (grid, np.array([0.3, 0.77, 3.3, 15.0])):
                got_mu, got_nu = mu(r), nu(r)
                assert got_mu.dtype == got_nu.dtype == complex
                assert np.max(np.abs(got_mu - beta / 2 * (1 - r ** -2))) \
                    < 1e-14
                assert np.max(np.abs(got_nu - (beta / 2 * (1 + r ** -2)
                                               - beta / r))) < 1e-14
                assert np.max(np.abs(mu.deriv(r) - beta / r ** 3)) < 1e-14

    def test_real_beta_gives_real_profiles(self):
        grid = G.default_log_grid(0.5, 10.0, 100)
        for beta in (G.RadialProfile.constant(1e-9),
                     G.RadialProfile.power_law(3.0)):
            mu, nu = G.mu_nu_numeric(beta, 1.0, 1e-10, 0.0, grid)
            assert mu(grid).dtype == nu(grid).dtype == np.float64

    def test_on_grid_lookups_call_beta_no_more(self):
        calls = []
        power = G.RadialProfile.power_law(3.0)
        beta = G.RadialProfile(lambda r: calls.append(np.size(r)) or power(r))
        grid = G.default_log_grid(0.5, 10.0, 50)
        mu, nu = G.mu_nu_numeric(beta, 1.0, -1.0, 0.5, grid)
        # one beta call, on every quadrature node and the grid, in the call
        assert len(calls) == 1 and calls[0] >= G.GL_ORDER * grid.size
        for profile in (mu, nu):
            profile(grid), profile.deriv(grid), profile(grid[7])
        assert len(calls) == 1
        mu(0.77)
        assert len(calls) == 2

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            G.mu_nu_numeric(G.RadialProfile.power_law(3.0), 1.0, -1.0, 0.5,
                            [2.0, 1.0, 3.0])

    @pytest.mark.parametrize("name, args", [
        ("r_ref", dict(r_ref=np.inf)),
        ("r_grid", dict(r_grid=np.append(G.default_log_grid(0.5, 10, 49),
                                         np.inf))),
        ("mu_ref", dict(mu_ref=np.nan)),
        ("nu_ref", dict(nu_ref=np.inf))])
    def test_non_finite_inputs_named(self, name, args):
        # an infinite radius once reached numpy's bare "repeats may not
        # contain negative values"; a nan or inf pin gave nan or inf
        # profiles with no error
        call = dict(beta=G.RadialProfile.power_law(3), r_ref=1.0,
                    mu_ref=-1.0, nu_ref=0.5,
                    r_grid=G.default_log_grid(0.5, 10, 50))
        call.update(args)
        with pytest.raises(ValueError, match="^%s must be" % name):
            G.mu_nu_numeric(**call)


class TestStaticMetric:
    def test_signature_guard(self):
        # Phi/c^2 = 1/2 at r = 0.5, where beta = -(1 - 2 Phi/c^2)/c^2 is 0
        phi = G.RadialProfile(lambda r: 0.25 / np.asarray(r, dtype=float))
        with pytest.raises(V.SignatureError, match="^beta >= 0 somewhere"), \
                pytest.warns(UserWarning, match="Phi/c\\^2 not small"):
            V.weak_field_check(phi, G.RadialProfile.constant(0.0), 1.0, 1.0,
                               log_radii(50))

    def test_laplace_beltrami_forms_agree(self):
        beta, _, _ = G.mu_nu_newton(1e-3, 1.0)
        m = V.StaticMetric(beta)
        r = np.geomspace(0.5, 5.0, 1500)
        vals = r * np.exp(-r)
        a = m.laplace_beltrami_static(vals, r)
        b = m.laplace_beltrami_expanded(vals, r)
        scale = np.max(np.abs(b))
        assert np.max(np.abs(a - b)[5:-5]) / scale < 1e-5


class TestFiniteDifferences:
    def test_fd_convergence(self):
        errs = []
        for n in (200, 400, 800):
            r = np.geomspace(1.0, 10.0, n)
            f = np.sin(r)
            e = np.max(np.abs(V.fd2(f, r)[3:-3] + np.sin(r)[3:-3]))
            errs.append(e)
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[2] > 8  # ~second order on smooth data


class TestWeakField:
    @staticmethod
    def plummer(Gn, M, a):
        phi = G.RadialProfile(
            lambda r: -Gn * M / np.sqrt(np.asarray(r, dtype=float) ** 2 + a ** 2))
        rho = G.RadialProfile(
            lambda r: 3 * M * a ** 2
            / (4 * np.pi * (np.asarray(r, dtype=float) ** 2 + a ** 2) ** 2.5))
        return phi, rho

    def test_vacuum_point_mass(self):
        Gn, c, M = 6.674e-11, 3e8, 5.97e24
        phi = G.RadialProfile(
            lambda r: -Gn * M / np.asarray(r, dtype=float))
        rho = G.RadialProfile.constant(0.0)
        grid = G.default_log_grid(6.4e6, 6.4e8, 20000)
        res = V.weak_field_check(phi, rho, c, Gn, grid)
        # 1/r is harmonic: both sides are FD truncation noise, small against
        # the curvature scale GM/r^3 at the inner edge
        surface_scale = Gn * M / grid[0] ** 3
        assert res["max_ricci00"] < 1e-6 * surface_scale
        assert res["max_lap_phi"] < 1e-6 * surface_scale

    def test_plummer_poisson(self):
        Gn, c, M, a = 6.674e-11, 3e8, 5.97e24, 2e6
        phi, rho = self.plummer(Gn, M, a)
        grid = np.geomspace(2e5, 2e8, 3000)
        res = V.weak_field_check(phi, rho, c, Gn, grid)
        assert res["max_poisson_residual"] / res["poisson_scale"] < 1e-5
        assert res["max_rel_deviation"] < 1e-6

    def test_deviation_scales_with_amplitude(self):
        # ricci00 vs lap(Phi) gap is O(Phi/c^2): shrink c by sqrt(10) twice
        Gn, M, a = 6.674e-11, 5.97e24, 2e6
        phi, rho = self.plummer(Gn, M, a)
        grid = np.geomspace(2e5, 2e8, 3000)
        devs = [V.weak_field_check(phi, rho, c, Gn, grid)["max_rel_deviation"]
                for c in (3e7, 3e7 * np.sqrt(10))]
        ratio = devs[0] / devs[1]
        assert 3 < ratio < 30

    def test_uniform_ball_interior(self):
        Gn, c, rho0 = 6.674e-11, 3e8, 5500.0
        phi = G.RadialProfile(
            lambda r: 2 * np.pi * Gn * rho0 * np.asarray(r, dtype=float) ** 2 / 3)
        rho = G.RadialProfile.constant(rho0)
        grid = np.linspace(1e3, 1e6, 2000)
        res = V.weak_field_check(phi, rho, c, Gn, grid)
        assert res["max_poisson_residual"] / res["poisson_scale"] < 1e-8

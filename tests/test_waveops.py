"""Wave-operator variants: coherence, linearity, classical limit."""

import numpy as np
import pytest

from ncgrav import geometry as G
from ncgrav import timeops as T
from ncgrav import waveops as W
from ncgrav.timeops import TimeFunction as TF

LAM = 0.05
C = 1.0
GRID = G.default_log_grid(0.5, 20.0, 80)


def gaussian_profile(width=1.0):
    w2 = width ** 2
    return G.RadialProfile(
        lambda r: np.exp(-np.asarray(r, dtype=float) ** 2 / (2 * w2)),
        deriv=lambda r: -r / w2 * np.exp(-r ** 2 / (2 * w2)),
        deriv2=lambda r: (r ** 2 / w2 - 1) / w2 * np.exp(-r ** 2 / (2 * w2)))


def exp_profile():
    return G.RadialProfile(
        lambda r: np.exp(-np.asarray(r, dtype=float)),
        deriv=lambda r: -np.exp(-r),
        deriv2=lambda r: np.exp(-r))


def field_battery():
    """Ten separable fields mixing profiles and time behavior."""
    fields = []
    for omega in (0.3, 0.8, 1.5):
        fields.append(W.SeparableField.single(exp_profile(), TF.mode(omega)))
        fields.append(W.SeparableField.single(gaussian_profile(1.5),
                                              TF.mode(omega)))
    fields.append(W.SeparableField.time_only(TF.mode(0.6)))
    fields.append(W.SeparableField.single(exp_profile(), TF.monomial(2)))
    fields.append(W.SeparableField.single(gaussian_profile(2.0),
                                          TF.constant(1.0)))
    fields.append(W.SeparableField.single(exp_profile(), TF.mode(0.4))
                  + W.SeparableField.single(gaussian_profile(1.0),
                                            TF.mode(1.1)))
    return fields


def rel_diff(a, b, grid=GRID):
    d, s = W.field_max_diff(a, b, grid)
    return d / s


class TestBoxConst:
    def test_plane_wave_symbol(self):
        omega, k, beta = 0.8, 0.5, -1.0 / C ** 2
        psi = W.SeparableField.single(W.PlaneWave(k), TF.mode(omega))
        box = W.box_const(psi, beta, LAM)
        sym = (-k ** 2 * np.exp(omega * LAM)
               + 2 * T.symbol_delta0_const(omega, LAM, beta))
        got = sum(f.evaluate(0.0) for _, f in box.terms)
        assert abs(got - sym) < 1e-12 * abs(sym)

    def test_constant_field_killed(self):
        psi = W.SeparableField.time_only(TF.constant(2.0))
        box = W.box_const(psi, -1.0, LAM)
        assert rel_diff(box, W.SeparableField.time_only(TF.zero())) < 1e-14

    def test_classical_limit_first_order(self):
        phi = exp_profile()
        omega, beta = 0.8, -1.0
        psi = W.SeparableField.single(phi, TF.mode(omega))
        r = GRID
        classical = ((phi.deriv2(r) + 2 / r * phi.deriv(r))
                     * TF.mode(omega).evaluate(0.2)
                     + beta * phi(r)
                     * TF.mode(omega).deriv().deriv().evaluate(0.2))
        errs = []
        for lam in (0.05, 0.025, 0.0125):
            got = W.box_const(psi, beta, lam).to_grid(r).evaluate(0.2)
            errs.append(np.max(np.abs(got - classical)))
        assert errs[0] > errs[1] > errs[2]
        assert 1.5 < errs[0] / errs[1] < 2.5


class TestBoxGeneral:
    def test_const_profile_equals_box_const_both_modes(self):
        beta0 = -1.0 / C ** 2
        psi = W.SeparableField.single(exp_profile(), TF.mode(0.8))
        bc = W.box_const(psi, beta0, LAM)
        prof = G.RadialProfile.constant(beta0)
        half = G.RadialProfile.constant(beta0 / 2)
        assert rel_diff(W.box_general(psi, prof, half, half, LAM), bc) < 1e-10
        assert rel_diff(W.box_general(psi, prof, half, half, LAM, grid=GRID,
                                      mode="pointwise"), bc) < 1e-10

    def test_power_law_n3_matches_closed_display(self):
        n, omega = 3, 0.8
        beta = G.RadialProfile.power_law(n)
        mu, nu = G.mu_nu_closed(n)
        psi = W.SeparableField.time_only(TF.mode(omega))
        part, weight = T.delta0_power(TF.mode(omega), LAM, n)
        want = W.SeparableField.single(
            G.RadialProfile.power_law(weight), part.scale(2.0))
        got = W.box_general(psi, beta, mu, nu, LAM, grid=GRID,
                            mode="pointwise")
        assert rel_diff(got, want) < 1e-12

    def test_time_independent_drift_visible(self):
        # for beta = 1/r the drift is +(1/2r) d/dr
        phi = exp_profile()
        psi = W.SeparableField.single(phi, TF.constant(1.0))
        beta = G.RadialProfile.power_law(1)
        mu, nu = G.mu_nu_closed(1)
        got = W.box_general(psi, beta, mu, nu, LAM, grid=GRID,
                            mode="pointwise").evaluate(0.0)
        r = GRID
        want = phi.deriv2(r) + 2 / r * phi.deriv(r) + phi.deriv(r) / (2 * r)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    def test_degenerate_profile_reports_node(self):
        psi = W.SeparableField.time_only(TF.mode(0.5))
        beta = G.RadialProfile.power_law(1)
        zero = G.RadialProfile.constant(0.0)
        with pytest.raises(T.DegenerateProfileError):
            W.box_general(psi, beta, zero, zero, LAM, grid=GRID,
                          mode="pointwise")

    def test_plane_wave_rejected(self):
        psi = W.SeparableField.single(W.PlaneWave(0.3), TF.mode(0.5))
        beta = G.RadialProfile.constant(-1.0)
        with pytest.raises(ValueError):
            W.box_general(psi, beta, beta, beta, LAM)


class TestBoxNewton:
    def test_gamma_zero_rejected_use_const(self):
        psi = W.SeparableField.single(exp_profile(), TF.mode(0.5))
        with pytest.raises(ValueError):
            W.box_newton(psi, 0.0, C, LAM)

    def test_time_affine_constant_profile_killed(self):
        psi = W.SeparableField.time_only(
            TF({(1, 0j): 2.0, (0, 0j): 1.0}))
        box = W.box_newton(psi, 1e-3, C, LAM)
        assert rel_diff(box, W.SeparableField.time_only(TF.zero())) < 1e-14

    def test_weak_field_warning(self):
        psi = W.SeparableField.single(exp_profile(), TF.mode(0.5))
        with pytest.warns(UserWarning):
            W.box_newton(psi, 0.4, C, LAM, r_min=1.0)

    def test_agrees_with_box_general_battery(self):
        gamma = 1e-3
        beta, mu, nu = G.mu_nu_newton(gamma, C)
        for psi in field_battery():
            bg = W.box_general(psi, beta, mu, nu, LAM)
            bn = W.box_newton(psi, gamma, C, LAM)
            assert rel_diff(bg, bn) < 1e-8


class TestCoherenceAndLinearity:
    def test_variant_linearity(self):
        gamma = 1e-3
        beta, mu, nu = G.mu_nu_newton(gamma, C)
        f1 = W.SeparableField.single(exp_profile(), TF.mode(0.4))
        f2 = W.SeparableField.single(gaussian_profile(1.5), TF.mode(1.0))
        combo = f1 + f2.scale(2.5)
        for apply_op in (
            lambda p: W.box_const(p, -1.0, LAM),
            lambda p: W.box_newton(p, gamma, C, LAM),
            lambda p: W.box_general(p, beta, mu, nu, LAM),
        ):
            lhs = apply_op(combo)
            rhs = apply_op(f1) + apply_op(f2).scale(2.5)
            assert rel_diff(lhs, rhs) < 1e-12


class TestKGResidual:
    def test_flat_massless_shell(self):
        omega = 0.8
        k = (1 - np.exp(-omega * LAM)) / (C * LAM)
        psi = W.SeparableField.single(W.PlaneWave(k), TF.mode(omega))
        cfg = W.WaveOpConfig(lam=LAM, c=C, variant="const", beta=-1 / C ** 2)
        res = W.kg_residual(psi, cfg, 0.0, 1.0, C)
        total = sum(f.evaluate(0.1) for _, f in res.terms)
        assert abs(total) < 1e-12

    def test_massless_constant_zero(self):
        psi = W.SeparableField.time_only(TF.constant(1.0))
        cfg = W.WaveOpConfig(lam=LAM, c=C, variant="const", beta=-1 / C ** 2)
        res = W.kg_residual(psi, cfg, 0.0, 1.0, C)
        assert rel_diff(res, W.SeparableField.time_only(TF.zero())) < 1e-14

    def test_classical_shell_residual_order_lam(self):
        m, hbar = 0.5, 1.0
        omega = 1.2
        k = np.sqrt(omega ** 2 / C ** 2 - (m * C / hbar) ** 2)
        psi = W.SeparableField.single(W.PlaneWave(k), TF.mode(omega))
        res = []
        for lam in (0.02, 0.01, 0.005):
            cfg = W.WaveOpConfig(lam=lam, c=C, variant="const",
                                 beta=-1 / C ** 2)
            r = W.kg_residual(psi, cfg, m, hbar, C)
            res.append(abs(sum(f.evaluate(0.0) for _, f in r.terms)))
        assert res[0] > res[1] > res[2]
        assert 1.5 < res[0] / res[1] < 2.5

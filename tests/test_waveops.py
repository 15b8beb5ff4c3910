"""Wave-operator variants: coherence, linearity, classical limit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (scaled_profile, shifted_grid, tf_constant, tf_isclose,
                      time_only)
from ncgrav import geometry as G
from ncgrav import timeops as T
from ncgrav import verify as V
from ncgrav import waveops as W
from ncgrav.timeops import TimeFunction as TF
from ncgrav.verify import box_newton_oracle

LAM = 0.05
C = 1.0
GRID = G.default_log_grid(0.5, 20.0, 80)
# complex values on four nodes, parts in [-2, 2]
NODE_VALUES = st.lists(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
                       min_size=4, max_size=4).map(np.array)


def gaussian_profile(width=1.0):
    w2 = width ** 2
    return G.RadialProfile(
        lambda r: np.exp(-np.asarray(r, dtype=float) ** 2 / (2 * w2)),
        deriv=lambda r: -r / w2 * np.exp(-r ** 2 / (2 * w2)),
        deriv2=lambda r: (r ** 2 / w2 - 1) / w2 * np.exp(-r ** 2 / (2 * w2)))


def field_battery():
    """Ten separable fields mixing profiles and time behavior."""
    fields = []
    for omega in (0.3, 0.8, 1.5):
        fields.append(W.SeparableField.single(V.exp_orbital(1.0),
                                              TF.mode(omega)))
        fields.append(W.SeparableField.single(gaussian_profile(1.5),
                                              TF.mode(omega)))
    fields.append(time_only(TF.mode(0.6)))
    fields.append(W.SeparableField.single(V.exp_orbital(1.0), TF.monomial(2)))
    fields.append(W.SeparableField.single(gaussian_profile(2.0),
                                          tf_constant(1.0)))
    fields.append(W.SeparableField.single(V.exp_orbital(1.0), TF.mode(0.4))
                  + W.SeparableField.single(gaussian_profile(1.0),
                                            TF.mode(1.1)))
    return fields


def rel_diff(a, b, grid=GRID):
    d, s = W.field_max_diff(a, b, grid)
    return d / s


def box_general_node_loop(psi, beta, mu, nu, lam, grid):
    """Pointwise box_general evaluated node by node, one scalar
    delta0_general call per node: the oracle for the whole-grid evaluation."""
    dbar = W.SeparableField()
    for sp, f in psi.terms:
        shifted = f.shift(1, lam)
        dbar.terms.append((W._lap_profile(sp), shifted))
        dbar.terms.append((W._drift_profile(sp, beta), shifted))
    out = dbar.to_grid(grid)
    mu_v, nu_v, beta_v = (np.asarray(p(grid), dtype=complex)
                          for p in (mu, nu, beta))
    for sp, f in psi.terms:
        sp_v = np.asarray(sp(grid), dtype=complex)
        for j in range(grid.size):
            g = T.delta0_general(f, lam, complex(mu_v[j]), complex(nu_v[j]),
                                 complex(beta_v[j]))
            for key, c in g.terms.items():
                cur = out.data.setdefault(key,
                                          np.zeros(grid.size, dtype=complex))
                cur[j] += 2.0 * c * sp_v[j]
    return out


def mixed_field():
    """Two radial terms with powers of t up to 2 and nonzero exponents."""
    return (W.SeparableField.single(
                V.exp_orbital(1.0),
                TF({(0, -0.8j): 1.0, (1, -0.5j): 0.3 + 0.1j, (2, 0j): 0.1,
                    (2, 0.2 - 1.1j): -0.05j}))
            + W.SeparableField.single(gaussian_profile(1.5), TF.mode(1.1)))


class TestGridFieldShift:
    def test_matches_time_function_shift_node_by_node(self):
        f = TF({(0, -0.8j): 1.0, (1, 0.3 - 0.5j): 0.4 + 0.2j, (2, 0j): -0.7,
                (2, 0.25j): 0.5j})
        phi = V.exp_orbital(1.0)
        grid = GRID[:16]
        sp_v = phi(grid)
        g = W.SeparableField.single(phi, f).to_grid(grid)
        rng = np.random.default_rng(3)
        real_a = rng.uniform(-2.0, 2.0, grid.size)
        for a in (real_a, real_a + 1j * rng.uniform(-1.0, 1.0, grid.size)):
            shifted = shifted_grid(g, a, LAM)
            for j in range(grid.size):
                want = f.shift(a[j], LAM).scale(sp_v[j])
                assert set(shifted.data) == set(want.terms)
                got = TF({key: arr[j] for key, arr in shifted.data.items()})
                assert tf_isclose(got, want, tol=1e-14)

    @given(st.dictionaries(st.sampled_from([(0, 0j), (1, 0.2 - 0.4j), (2, 0j),
                                            (2, 0.5j)]), NODE_VALUES,
                           min_size=1), NODE_VALUES, NODE_VALUES)
    def test_group_law(self, data, a, b):
        # shifting by a(r) then b(r) is shifting by a(r) + b(r), to 1e-12
        # relative at every node
        g = W.GridField(GRID[:4], data)
        got = shifted_grid(shifted_grid(g, a, LAM), b, LAM)
        want = shifted_grid(g, a + b, LAM)
        for j in range(4):
            assert tf_isclose(TF({k: v[j] for k, v in got.data.items()}),
                              TF({k: v[j] for k, v in want.data.items()}))


class TestBoxConst:
    def test_plane_wave_symbol(self):
        omega, k, beta = 0.8, 0.5, -1.0 / C ** 2
        psi = W.SeparableField.single(W.PlaneWave(k), TF.mode(omega))
        box = W.box_const(psi, beta, LAM)
        sym = (-k ** 2 * np.exp(omega * LAM)
               + 2 * V.symbol_delta0_const(omega, LAM, beta))
        got = sum(f.evaluate(0.0) for _, f in box.terms)
        assert abs(got - sym) < 1e-12 * abs(sym)

    def test_constant_field_killed(self):
        psi = time_only(tf_constant(2.0))
        box = W.box_const(psi, -1.0, LAM)
        assert rel_diff(box, time_only(TF.zero())) < 1e-14

    def test_classical_limit_first_order(self):
        phi = V.exp_orbital(1.0)
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
        psi = W.SeparableField.single(V.exp_orbital(1.0), TF.mode(0.8))
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
        psi = time_only(TF.mode(omega))
        part = T.delta0_power(TF.mode(omega), LAM, n)
        want = W.SeparableField.single(
            G.RadialProfile.power_law(n), part.scale(2.0))
        got = W.box_general(psi, beta, mu, nu, LAM, grid=GRID,
                            mode="pointwise")
        assert rel_diff(got, want) < 1e-12

    def test_time_independent_drift_visible(self):
        # for beta = 1/r the drift is +(1/2r) d/dr
        phi = V.exp_orbital(1.0)
        psi = W.SeparableField.single(phi, tf_constant(1.0))
        beta = G.RadialProfile.power_law(1)
        mu, nu = G.mu_nu_closed(1)
        got = W.box_general(psi, beta, mu, nu, LAM, grid=GRID,
                            mode="pointwise").evaluate(0.0)
        r = GRID
        want = phi.deriv2(r) + 2 / r * phi.deriv(r) + phi.deriv(r) / (2 * r)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12

    @pytest.mark.parametrize("profile", ["power-law-n3", "newton"])
    def test_pointwise_equals_node_loop(self, profile):
        if profile == "newton":
            beta, mu, nu = G.mu_nu_newton(1e-3, C)
        else:
            beta = G.RadialProfile.power_law(3)
            mu, nu = G.mu_nu_closed(3)
        psi = mixed_field()
        got = W.box_general(psi, beta, mu, nu, LAM, grid=GRID,
                            mode="pointwise")
        want = box_general_node_loop(psi, beta, mu, nu, LAM, GRID)
        assert set(got.data) == set(want.data)
        assert rel_diff(got, want) < 1e-12

    def test_structureless_beta_goes_pointwise(self):
        # a scaled power law carries no structure, so auto mode samples it
        # on a grid like any other beta
        beta = scaled_profile(G.RadialProfile.power_law(3), 2.0)
        mu, nu = (scaled_profile(p, 2.0) for p in G.mu_nu_closed(3))
        psi = mixed_field()
        with pytest.raises(ValueError, match="grid"):
            W.box_general(psi, beta, mu, nu, LAM)
        got = W.box_general(psi, beta, mu, nu, LAM, grid=GRID)
        want = W.box_general(psi, G.RadialProfile.power_law(3, 2.0), mu, nu,
                             LAM)
        assert rel_diff(got, want) < 1e-12

    def test_degenerate_profile_reports_node(self):
        psi = time_only(TF.mode(0.5))
        beta = G.RadialProfile.power_law(1)
        zero = G.RadialProfile.constant(0.0)
        with pytest.raises(T.DegenerateProfileError):
            W.box_general(psi, beta, zero, zero, LAM, grid=GRID,
                          mode="pointwise")
        # mu = 0 at nodes 3 and 7, mu + nu = 0 at node 11
        mu = np.ones(GRID.size)
        mu[[3, 7]] = 0.0
        nu = np.full(GRID.size, 0.5)
        nu[11] = -1.0
        g = psi.to_grid(GRID)
        with pytest.raises(T.DegenerateProfileError,
                           match=r"node\(s\) \[3, 7, 11\]"):
            T.delta0_general(g, LAM, mu, nu, beta(GRID))

    def test_plane_wave_rejected(self):
        psi = W.SeparableField.single(W.PlaneWave(0.3), TF.mode(0.5))
        beta = G.RadialProfile.constant(-1.0)
        with pytest.raises(ValueError):
            W.box_general(psi, beta, beta, beta, LAM)

    @pytest.mark.parametrize("mode", ["Pointwise", "grid", ""])
    def test_unknown_mode_named(self, mode):
        # any string but "auto" once took the pointwise route silently
        beta = G.RadialProfile.power_law(3)
        mu, nu = G.mu_nu_closed(3)
        with pytest.raises(ValueError, match='^mode must be "auto" or '
                           '"pointwise", got %r$' % mode):
            W.box_general(mixed_field(), beta, mu, nu, LAM, grid=GRID,
                          mode=mode)

    @pytest.mark.parametrize("mode", ["auto", "pointwise"])
    def test_beta_zero_nodes_named(self, mode):
        # beta = 1 - r vanishes at r = 1, where the drift divides by it; the
        # closed-form route refuses when its result is sampled there
        nodes = np.array([0.5, 1.0, 2.0])
        beta = G.RadialProfile(lambda r: 1 - np.asarray(r, dtype=float),
                               deriv=lambda r: -np.ones(np.shape(r)),
                               structure=[(0, 1.0), (-1, -1.0)])
        half = G.RadialProfile.constant(-0.5)
        psi = W.SeparableField.single(V.exp_orbital(1.0), TF.mode(0.5))
        with pytest.raises(ValueError, match=r"beta, which is 0 at "
                           r"node\(s\) \[1\] \(r = \[1\.0\]\)"):
            box = W.box_general(psi, beta, half, half, LAM, grid=nodes,
                                mode=mode)
            if mode == "auto":
                box.to_grid(nodes)


class TestBoxNewton:
    def test_plane_wave_rejected(self):
        psi = W.SeparableField.single(W.PlaneWave(0.3), TF.mode(0.5))
        with pytest.raises(ValueError, match="box_general needs radial"):
            W.box_newton(psi, 1e-3, C, LAM)

    def test_gamma_zero_rejected_use_const(self):
        psi = W.SeparableField.single(V.exp_orbital(1.0), TF.mode(0.5))
        with pytest.raises(ValueError):
            W.box_newton(psi, 0.0, C, LAM)

    def test_time_affine_constant_profile_killed(self):
        psi = time_only(
            TF({(1, 0j): 2.0, (0, 0j): 1.0}))
        box = W.box_newton(psi, 1e-3, C, LAM)
        assert rel_diff(box, time_only(TF.zero())) < 1e-14

    def test_agrees_with_box_general_battery(self):
        # box_newton is box_general on the Newton beta; the hand-written
        # operator in verify is the second route
        gamma = 1e-3
        for psi in field_battery():
            bn = W.box_newton(psi, gamma, C, LAM)
            oracle = box_newton_oracle(psi, gamma, C, LAM)
            assert rel_diff(bn, oracle) < 1e-8


class TestCoherenceAndLinearity:
    def test_variant_linearity(self):
        gamma = 1e-3
        beta, mu, nu = G.mu_nu_newton(gamma, C)
        f1 = W.SeparableField.single(V.exp_orbital(1.0), TF.mode(0.4))
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
        res = W.kg_residual(W.box_const(psi, -1 / C ** 2, LAM), psi, 0.0, 1.0,
                            C)
        total = sum(f.evaluate(0.1) for _, f in res.terms)
        assert abs(total) < 1e-12

    def test_massless_constant_zero(self):
        psi = time_only(tf_constant(1.0))
        res = W.kg_residual(W.box_const(psi, -1 / C ** 2, LAM), psi, 0.0, 1.0,
                            C)
        assert rel_diff(res, time_only(TF.zero())) < 1e-14

    def test_classical_shell_residual_order_lam(self):
        m, hbar = 0.5, 1.0
        omega = 1.2
        k = np.sqrt(omega ** 2 / C ** 2 - (m * C / hbar) ** 2)
        psi = W.SeparableField.single(W.PlaneWave(k), TF.mode(omega))
        res = []
        for lam in (0.02, 0.01, 0.005):
            r = W.kg_residual(W.box_const(psi, -1 / C ** 2, lam), psi, m,
                              hbar, C)
            res.append(abs(sum(f.evaluate(0.0) for _, f in r.terms)))
        assert res[0] > res[1] > res[2]
        assert 1.5 < res[0] / res[1] < 2.5

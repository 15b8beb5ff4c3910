"""Bound-state spectra vs the closed-form oracle; reduction residual scaling."""

import numpy as np
import pytest

from ncgrav import effective as E
from ncgrav import spectrum as S

M_I = M_G = 1.0
V0 = 0.0
M = 1.0
GN = 1e-3
HBAR = 1.0


class TestBohrOracle:
    def test_classical_levels(self):
        states = S.bohr_oracle(M_I, M_G, 0.0, M, GN, HBAR, 3)
        E1 = -M_I * (GN * M * M_G) ** 2 / (2 * HBAR ** 2)
        got = {(s.n, s.l): s.E for s in states}
        assert abs(got[(1, 0)] - E1) < 1e-18
        assert abs(got[(2, 1)] - E1 / 4) < 1e-18
        assert len(states) == 6  # l < n for n = 1..3

    def test_one_over_n_squared(self):
        states = S.bohr_oracle(M_I, M_G, -0.5, M, GN, HBAR, 2)
        E = {s.n: s.E for s in states if s.l == 0}
        # subtracting V0 = -0.5 reintroduces roundoff at the 1e-9 level
        assert abs((E[1] + 0.5) / (E[2] + 0.5) - 4.0) < 1e-6

    def test_effective_composition(self):
        pars = E.effective_params(1.0, E.PlanckUnits(lam=1.0))
        states = S.bohr_oracle(pars.m_I, pars.m_G, pars.V0, M, GN, HBAR, 1)
        shift = states[0].E - pars.V0
        classical = -pars.m_I * (GN * M * pars.m_G) ** 2 / 2
        assert abs(shift - classical) < 1e-15


class TestSolveRadial:
    def test_matches_oracle_l0(self):
        oracle = {s.n: s.E for s in S.bohr_oracle(M_I, M_G, V0, M, GN, HBAR, 3)
                  if s.l == 0}
        for s in S.solve_radial(M_I, M_G, V0, M, GN, HBAR, l=0, n_states=3):
            rel = abs(s.E - oracle[s.n]) / abs(oracle[s.n] - V0)
            assert rel < 5e-3

    def test_coulomb_degeneracy_l1(self):
        oracle = {s.n: s.E for s in S.bohr_oracle(M_I, M_G, V0, M, GN, HBAR, 3)
                  if s.l == 0}
        for s in S.solve_radial(M_I, M_G, V0, M, GN, HBAR, l=1, n_states=2):
            rel = abs(s.E - oracle[s.n]) / abs(oracle[s.n] - V0)
            assert rel < 5e-3

    def test_grid_doubling_tightens(self):
        a = S.bohr_radius(M_I, M_G, M, GN, HBAR)
        fine = np.linspace(a * 40 / 8000, a * 40, 8000)
        oracle = {s.n: s.E for s in S.bohr_oracle(M_I, M_G, V0, M, GN, HBAR, 3)
                  if s.l == 0}
        for s in S.solve_radial(M_I, M_G, V0, M, GN, HBAR, grid=fine,
                                n_states=3):
            rel = abs(s.E - oracle[s.n]) / abs(oracle[s.n] - V0)
            assert rel < 1e-3

    def test_no_bound_states_without_mass(self):
        states = S.solve_radial(M_I, M_G, V0, 0.0, GN, HBAR,
                                grid=np.linspace(0.1, 100.0, 2500))
        assert states == []

    def test_grid_requirements(self):
        with pytest.raises(ValueError):
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR,
                           grid=np.linspace(0.1, 10, 100))
        with pytest.raises(ValueError):
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR,
                           grid=np.geomspace(0.1, 10, 3000))

    @pytest.mark.parametrize("name", ["m_I", "m_G", "M", "G", "hbar"])
    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_nonpositive_parameter_named(self, name, value):
        kw = dict(m_I=M_I, m_G=M_G, V0=V0, M=M, G=GN, hbar=HBAR)
        kw[name] = value
        with pytest.raises(ValueError, match="^%s must be positive, got "
                           % name):
            S.solve_radial(**kw)

    def test_grid_convergence_guard_passes(self):
        states = S.solve_radial(M_I, M_G, V0, M, GN, HBAR, n_states=2,
                                check_grid=True)
        assert len(states) == 2

    def test_grid_convergence_guard_raises(self):
        # a node per Bohr radius resolves no state: the ground state moves
        # by about 1.2e-1 when the grid is doubled
        a = S.bohr_radius(M_I, M_G, M, GN, HBAR)
        with pytest.raises(S.GridConvergenceError, match="^state n=1 drifts"):
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR,
                           grid=a * np.arange(1, 2001), check_grid=True)

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_default_grid_fixed_up_to_n3(self, n_max):
        a = S.bohr_radius(M_I, M_G, M, GN, HBAR)
        want = np.linspace(a * S.GRID_BOHR / S.GRID_NODES, a * S.GRID_BOHR,
                           S.GRID_NODES)
        got = S.default_grid(M_I, M_G, M, GN, HBAR, n_max=n_max)
        assert np.array_equal(got, want)

    def test_default_grid_grows_with_n_max_squared(self):
        a = S.bohr_radius(M_I, M_G, M, GN, HBAR)
        grid = S.default_grid(M_I, M_G, M, GN, HBAR, n_max=6)
        assert grid.size == 4 * S.GRID_NODES
        assert np.isclose(grid[-1], 4 * a * S.GRID_BOHR, rtol=1e-15)
        with pytest.raises(ValueError, match="n = 31 need a default grid"):
            S.default_grid(M_I, M_G, M, GN, HBAR, n_max=31)

    def test_deeper_with_larger_mG(self):
        e_small = S.solve_radial(M_I, 1.0, V0, M, GN, HBAR, n_states=1)[0].E
        e_big = S.solve_radial(M_I, 1.3, V0, M, GN, HBAR, n_states=1)[0].E
        assert e_big < e_small

    def test_virial(self):
        rep = S.virial_check(M_I, M_G, V0, M, GN, HBAR)
        assert rep["virial_rel"] < 1e-2


class TestReductionResidual:
    M_SCALE = 1.0
    LAM = 0.05

    def test_bookkeeping_identity(self):
        a = 1e3
        grid = np.linspace(a, 6 * a, 300)
        res = S.reduction_residual(self.M_SCALE, 1e-2, self.LAM, 1e-2,
                                   S.exp_orbital(a), grid)
        assert res.gap_i_ii < 1e-8

    def test_eigenstate_stage_three_vanishes(self):
        gamma = 1e-2
        pars = E.effective_params(self.M_SCALE, E.PlanckUnits(lam=self.LAM))
        aB = S.bohr_radius(pars.m_I, pars.m_G, 1.0, gamma / 2, 1.0)
        E1 = pars.V0 - pars.m_I * (gamma / 2 * pars.m_G) ** 2 / 2
        grid = np.linspace(aB / 10, 8 * aB, 400)
        res = S.reduction_residual(self.M_SCALE, gamma, self.LAM, E1,
                                   S.exp_orbital(aB), grid)
        assert res.norm_iii < 1e-8

    def test_gap_quadratic_in_slow_scales(self):
        a0, om0, gamma = 1e3, 1e-2, 1e-2
        gaps = []
        for s in (1.0, 0.5, 0.25, 0.125):
            a = a0 / s
            grid = np.linspace(a, 6 * a, 300)
            res = S.reduction_residual(self.M_SCALE, gamma, self.LAM, om0 * s,
                                       S.exp_orbital(a), grid)
            gaps.append(res.gap_i_iii)
        for hi, lo in zip(gaps, gaps[1:]):
            assert 4 * 0.7 < hi / lo < 4 * 1.3

    def test_ablation_linear_in_gamma(self):
        a0, om0 = 1e3, 1e-2
        grid = np.linspace(a0, 6 * a0, 300)
        devs = []
        for gamma in (1e-2, 2e-2, 4e-2):
            res = S.reduction_residual(self.M_SCALE, gamma, self.LAM, om0,
                                       S.exp_orbital(a0), grid,
                                       ablate_gamma_psidot=True)
            devs.append(res.gap_i_ii)
        assert 1.8 < devs[1] / devs[0] < 2.2
        assert 1.8 < devs[2] / devs[1] < 2.2

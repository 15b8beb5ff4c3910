"""Bound-state spectra vs the closed-form oracle; the Hellmann-Feynman
virial; the LAPACK eigensolve vs scipy's eigh_tridiagonal; the states asked
of it at l > 0; the batched Sturm counts vs dstebz's and scipy's counts; the
certified grid check vs the sequential one; reduction residual scaling."""

import ctypes
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from ncgrav import effective as E
from ncgrav import spectrum as S
from ncgrav import verify as V

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

    @pytest.mark.parametrize("name", ["m_I", "m_G", "hbar"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_nonpositive_parameter_named(self, name, value):
        kw = dict(m_I=M_I, m_G=M_G, V0=V0, M=M, G=GN, hbar=HBAR)
        kw[name] = value
        with pytest.raises(ValueError, match="^%s must be positive, got "
                           % name):
            S.bohr_oracle(**kw)

    @pytest.mark.parametrize("name", ["M", "G"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_coupling_not_positive_named(self, name, value):
        # a negative M gave a bound state, E = -5e-7, for a repulsive coupling
        kw = dict(m_I=M_I, m_G=M_G, V0=V0, M=M, G=GN, hbar=HBAR)
        kw[name] = value
        with pytest.raises(ValueError, match="^%s must be positive, got "
                           % name):
            S.bohr_oracle(**kw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_v0_not_finite_named(self, value):
        # a nan V0 gave E = nan
        with pytest.raises(ValueError) as err:
            S.bohr_oracle(M_I, M_G, value, M, GN, HBAR)
        assert str(err.value) == "V0 must be finite, got %r" % value

    @pytest.mark.parametrize("kw, n", [
        ({"hbar": 1e-160}, 1),          # depth overflows: E was -inf
        ({"hbar": 1e-170}, 1),          # hbar^2 underflows to 0
        ({"G": 1e200, "M": 1e200}, 1),  # (G M m_G)^2 overflows
        ({"hbar": 1e154}, 1),           # depth underflows to 0
        ({"hbar": 2.3e153}, 3),         # depth subnormal from n = 3
    ])
    def test_depth_out_of_range_named(self, kw, n):
        pars = dict(m_I=1.0, m_G=1.0, V0=0.0, M=1.0, G=1.0, hbar=1.0)
        pars.update(kw)
        with pytest.raises(ValueError) as err:
            S.bohr_oracle(**pars)
        assert str(err.value) == (
            "bohr_oracle: the depth m_I (G M m_G)^2/(2 hbar^2 n^2) at n = %d "
            "leaves the normal float range at m_I = 1.0, m_G = 1.0, M = %r, "
            "G = %r, hbar = %r" % (n, pars["M"], pars["G"], pars["hbar"]))

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
        # a Bohr radius of 1e-9: every step of this geometric grid is below
        # 1e-8, and it gave no bound state where E1 = -5e17
        with pytest.raises(ValueError, match="^solve_radial expects a "
                           "uniform grid$"):
            S.solve_radial(M_I, M_G, V0, M, 1e9, HBAR,
                           grid=np.geomspace(1e-11, 4e-8, 4000))

    # a grid through r = 0 gave E1 = -1.07e-5 (the oracle's is -5e-7); a
    # reversed one has an h/2 grid from R/2 down to h, and a false drift
    BAD_GRIDS = {
        "through-zero": (lambda a: np.linspace(-10 * a + 0.123, 40 * a, 8000),
                         "start above r = 0, got r\\[0\\] = -9999.877$"),
        "from-zero": (lambda a: np.linspace(0.0, 40 * a, 8000),
                      "start above r = 0, got r\\[0\\] = 0.0$"),
        "reversed": (lambda a: np.linspace(a / 100, 40 * a, 4000)[::-1],
                     "increase$")}

    @pytest.mark.parametrize("check_grid", [False, True])
    @pytest.mark.parametrize("case", sorted(BAD_GRIDS))
    def test_bad_grid_refused_before_any_solve(self, monkeypatch, case,
                                               check_grid):
        make, message = self.BAD_GRIDS[case]
        solves = []
        monkeypatch.setattr(S, "_eigh_tridiagonal",
                            lambda *args: solves.append(args))
        with pytest.raises(ValueError, match="^solve_radial: the grid must "
                           + message):
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR,
                           grid=make(S.bohr_radius(M_I, M_G, M, GN, HBAR)),
                           check_grid=check_grid)
        assert solves == []

    @pytest.mark.parametrize("name", ["m_I", "m_G", "M", "G", "hbar"])
    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_nonpositive_parameter_named(self, name, value):
        kw = dict(m_I=M_I, m_G=M_G, V0=V0, M=M, G=GN, hbar=HBAR)
        kw[name] = value
        with pytest.raises(ValueError, match="^%s must be positive, got "
                           % name):
            S.solve_radial(**kw)

    @pytest.mark.parametrize("masses, words", [
        # m_I G M m_G overflows: the radius underflows to 0
        ((1e200, 1e200, 1.0, 1.0), "the Bohr radius hbar^2/(m_I G M m_G) "
         "leaves the normal float range at m_I = 1e+200, m_G = 1e+200"),
        # m_I G M m_G underflows to 0: the radius has no float value
        ((1e-200, 1e-200, 1e-100, 1e-100), "the Bohr radius "),
        # a normal radius whose 40-radius box overflows
        ((1.0, 1.0, 1e-7, 1e-300), "the default grid out to 40 Bohr radii "
         "leaves the normal float range at a = 1.0000000000000001e+307"),
    ])
    def test_bohr_scale_named(self, masses, words):
        m_I, m_G, M, G = masses
        with pytest.raises(ValueError) as err:
            S.solve_radial(m_I, m_G, 0.0, M, G, 1.0, check_grid=True)
        assert str(err.value).startswith(words)

    def test_spectrum_table_names_the_bohr_radius(self):
        # at lam = 1e-300 the particle mass is 1e292 and the Bohr radius
        # underflows to 0; the refusal names it, not the grid built from it
        with pytest.raises(ValueError, match=r"^the Bohr radius hbar\^2/"
                           r"\(m_I G M m_G\) leaves the normal float range "
                           r"at m_I = 9\.9+e\+291, "):
            S.spectrum_table(1e-8, 1.0, E.PlanckUnits(lam=1e-300))

    def test_spectrum_table_names_a_depth_that_rounds_to_zero(self):
        # at M = 1e-8 the depth m_I (G M m_G)^2/(2 hbar^2 n^2) of n = 3 is
        # below the spacing of floats near V0 = -1.1e-3, so E_oracle equals
        # V0 and rel_err divided by 0 ("float division by zero")
        with pytest.raises(ValueError, match=r"^spectrum_table: the depth "
                           r"E_oracle - V0 of state n = 3 rounds to 0 against "
                           r"V0 = -0\.00110954\d+ at x = 0\.3, M = 1e-08$"):
            S.spectrum_table(0.3, 1e-8, E.PlanckUnits())

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

    @pytest.mark.parametrize("kw, words", [
        ({"l": 1.5}, "l must be an integer, got 1.5"),
        # a bool is an integer to operator.index, but as an index it is far
        # more likely a misplaced flag: refused
        ({"l": True}, "l must be an integer, got True"),
        ({"n_states": 2.0}, "n_states must be an integer, got 2.0"),
    ])
    def test_non_integer_index_named(self, monkeypatch, kw, words):
        # l = 1.5 gave BoundState(n=2.5, l=1.5) once LAPACK is asked for
        # n_states eigenvalues; before, an unnamed ctypes TypeError
        solves = []
        monkeypatch.setattr(S, "_eigh_tridiagonal",
                            lambda *args: solves.append(args))
        with pytest.raises(ValueError) as err:
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR, **kw)
        assert str(err.value) == words
        with pytest.raises(ValueError) as err:
            S.spectrum_table(1e-8, 1.0, E.PlanckUnits(), **kw)
        assert str(err.value) == words
        assert solves == []

    def test_numpy_integer_index_accepted(self):
        want = S.solve_radial(M_I, M_G, V0, M, GN, HBAR, l=1, n_states=2)
        got = S.solve_radial(M_I, M_G, V0, M, GN, HBAR, l=np.int64(1),
                             n_states=np.int32(2))
        assert _bits(got) == _bits(want)
        assert {type(s.n) for s in got} == {type(s.l) for s in got} == {int}

    @staticmethod
    def _scaled(kin):
        """(G, grid): 4,000 nodes out to 40 Bohr radii (m_I = m_G = M = hbar
        = 1), at the spacing whose hbar^2/(2 m_I h^2) is kin."""
        h = (2 * kin) ** -0.5
        return 1 / (100 * h), h * np.arange(1, 4001)

    # off-diagonal scales outside [KIN_MIN, KIN_MAX): below it every
    # off-diagonal squares under the normal floats and was split off (no
    # bound state, silently); above it |d_j d_j+1| overflows and splits too
    # (no bound state, as at 1e154), and past 1.3e154 dstebz returned
    # INFO = 4
    @pytest.mark.parametrize("kin", [0.99 * S.KIN_MIN, 1.01 * S.KIN_MAX,
                                     1e154])
    def test_off_diagonal_scale_named(self, kin):
        G, grid = self._scaled(kin)
        with pytest.raises(ValueError) as err:
            S.solve_radial(M_I, M_G, V0, M, G, HBAR, grid=grid)
        assert str(err.value) == (
            "solve_radial: on the grid of spacing h = %g, hbar^2/(2 m_I h^2) "
            "= %g lies outside [1.5e-154, 6.7e+153), the scales LAPACK's "
            "bisection can square" % (grid[1] - grid[0], kin))

    @pytest.mark.parametrize("kin", [1.01 * S.KIN_MIN, 0.99 * S.KIN_MAX / 4])
    @pytest.mark.parametrize("l", [0, 1])
    def test_off_diagonal_scale_inside_solves(self, kin, l):
        # just inside the range, on both grids, the states are the oracle's
        G, grid = self._scaled(kin)
        oracle = {s.n: s.E for s in S.bohr_oracle(M_I, M_G, V0, M, G, HBAR,
                                                  l + 2)}
        states = S.solve_radial(M_I, M_G, V0, M, G, HBAR, l=l, grid=grid,
                                n_states=2, check_grid=True)
        assert [s.n for s in states] == [l + 1, l + 2]
        for s in states:
            assert abs(s.E - oracle[s.n]) <= 1e-3 * abs(oracle[s.n])

    def test_off_diagonal_scale_of_h_over_2_only_with_states(self):
        # 1.01 KIN_MAX / 4 at h is inside; the h/2 grid quadruples it past
        # KIN_MAX
        G, grid = self._scaled(1.01 * S.KIN_MAX / 4)
        assert len(S.solve_radial(M_I, M_G, V0, M, G, HBAR, grid=grid)) == 3
        with pytest.raises(ValueError, match="^solve_radial: on the grid of "
                           "spacing h = %g, " % ((grid[-1] - grid[0] / 2)
                                                 / (2 * grid.size - 1))):
            S.solve_radial(M_I, M_G, V0, M, G, HBAR, grid=grid,
                           check_grid=True)
        # no coupling, no state: the h/2 Hamiltonian is not built
        assert S.solve_radial(M_I, M_G, V0, 0.0, G, HBAR, grid=grid,
                              check_grid=True) == []

    def test_deeper_with_larger_mG(self):
        e_small = S.solve_radial(M_I, 1.0, V0, M, GN, HBAR, n_states=1)[0].E
        e_big = S.solve_radial(M_I, 1.3, V0, M, GN, HBAR, n_states=1)[0].E
        assert e_big < e_small

    def test_virial(self):
        rep = V.virial_check(M_I, M_G, V0, M, GN, HBAR)
        assert rep["virial_rel"] < 1e-2

    @pytest.mark.parametrize("kin", [1e145, 1e150])
    def test_virial_finite_at_large_kinetic_scale(self, kin):
        # hbar^2/(2 m_I h^2) = kin on the default grid; the eigenvector of
        # dstein's inverse iteration was all nan from kin = 1e145, and so
        # were T, V and virial_rel
        rep = V.virial_check(M_I, M_G, V0, M, math.sqrt(kin / 5000), HBAR)
        assert all(math.isfinite(v) for v in rep.values())
        assert rep["virial_rel"] < 1e-2


def _grid(box_bohr, nodes):
    a = S.bohr_radius(M_I, M_G, M, GN, HBAR)
    return np.linspace(a * box_bohr / nodes, a * box_bohr, nodes)


def _bits(states):
    return [(s.n, s.l, s.E.hex()) for s in states]


def _sequential_check(grid, n_states, l=0, M=M, G=GN, V0=V0):
    """The grid check made in turn: plain solves at h (n_states states) and
    then at h/2 (as many as h found), and the drift test."""
    pars = (M_I, M_G, V0, M, G, HBAR)
    states = S.solve_radial(*pars, l=l, grid=grid, n_states=n_states)
    if states:
        fine = np.linspace(grid[0] / 2, grid[-1], grid.size * 2)
        ref = S.solve_radial(*pars, l=l, grid=fine, n_states=len(states))
        for s, sr in zip(states, ref):
            drift = abs(s.E - sr.E) / (abs(sr.E - V0) + 1e-300)
            if drift > S.DRIFT_TOL:
                raise S.GridConvergenceError(
                    "state n=%d drifts %.2e under grid doubling"
                    % (s.n, drift))
    return states


def _outcome(check):
    """The states of a grid check, or the message of its
    GridConvergenceError."""
    try:
        return _bits(check())
    except S.GridConvergenceError as err:
        return str(err)


class TestGridCheck:
    """check_grid certifies the h/2 drift by Sturm counts, and solves h/2
    only where they cannot: the same states, errors and messages as
    `_sequential_check`."""

    # (box in Bohr radii, nodes, n_states, l, M, states found): the usual
    # branch, a box too small for the third state, and no coupling
    BRANCHES = {"all": (40, 4000, 3, 0, M, 3), "fewer": (8, 2000, 3, 0, M, 2),
                "none": (40, 2500, 3, 0, 0.0, 0), "l1": (40, 4000, 2, 1, M, 2)}

    def _record(self, monkeypatch):
        calls, solve = [], S._eigh_tridiagonal

        def recorded(d, e, k):
            calls.append((len(d), k))
            return solve(d, e, k)
        monkeypatch.setattr(S, "_eigh_tridiagonal", recorded)
        return calls

    def _record_counts(self, monkeypatch):
        calls, count = [], S._sturm_counts

        def recorded(laebz, d, e2, pivmin, ab):
            calls.append((len(d), ab.shape[1]))
            return count(laebz, d, e2, pivmin, ab)
        monkeypatch.setattr(S, "_sturm_counts", recorded)
        return calls

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_states_bit_identical(self, monkeypatch, branch):
        box, nodes, n_states, l, mass, found = self.BRANCHES[branch]
        grid = _grid(box, nodes)
        want = _sequential_check(grid, n_states, l=l, M=mass)
        calls = self._record(monkeypatch)
        counts = self._record_counts(monkeypatch)
        got = S.solve_radial(M_I, M_G, V0, mass, GN, HBAR, l=l, grid=grid,
                             n_states=n_states, check_grid=True)
        assert len(got) == found and _bits(got) == _bits(want)
        # the counts certify every state found: the solve at h is the only
        # eigensolve, and one count call on the h/2 grid covers every state
        assert calls == [(nodes, n_states)]
        assert counts == ([(2 * nodes, found)] if found else [])

    @pytest.mark.parametrize("lapack", [True, False])
    def test_counts_failing_solve_h_over_2(self, monkeypatch, lapack):
        # with every count failing, or no LAPACK routines loaded (scipy
        # solves both grids), h/2 is solved for the states h found
        grid = _grid(8, 2000)
        want = _sequential_check(grid, 3)
        if lapack:
            monkeypatch.setattr(S, "_sturm_counts", lambda *args: None)
        else:
            monkeypatch.setattr(S, "_lapack", lambda: None)
        calls = self._record(monkeypatch)
        got = S.solve_radial(M_I, M_G, V0, M, GN, HBAR, grid=grid,
                             check_grid=True)
        assert _bits(got) == _bits(want) and len(got) == 2
        assert calls == [(2000, 3), (4000, 2)]

    def test_h_solve_error_first(self, monkeypatch):
        grid, counts = _grid(40, 4000), []

        def failing(d, e, k):
            raise np.linalg.LinAlgError("h solve failed")
        monkeypatch.setattr(S, "_eigh_tridiagonal", failing)
        monkeypatch.setattr(S, "_sturm_counts",
                            lambda *args: counts.append(args))
        with pytest.raises(np.linalg.LinAlgError, match="^h solve failed$"):
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR, grid=grid,
                           check_grid=True)
        assert counts == []

    def test_h_over_2_error_propagates(self, monkeypatch):
        grid, solve = _grid(40, 4000), S._eigh_tridiagonal

        def failing(d, e, k):
            if len(d) == 2 * grid.size:
                raise np.linalg.LinAlgError("h/2 solve failed")
            return solve(d, e, k)
        monkeypatch.setattr(S, "_eigh_tridiagonal", failing)
        # certified: no h/2 solve is made
        assert len(S.solve_radial(M_I, M_G, V0, M, GN, HBAR, grid=grid,
                                  check_grid=True)) == 3
        monkeypatch.setattr(S, "_sturm_counts", lambda *args: None)
        with pytest.raises(np.linalg.LinAlgError, match="^h/2 solve failed$"):
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR, grid=grid,
                           check_grid=True)

    def test_convergence_error_same_message(self):
        # one node per Bohr radius: the ground state drifts by 1.2e-1
        grid = _grid(2000, 2000)
        with pytest.raises(S.GridConvergenceError) as want:
            _sequential_check(grid, 3)
        with pytest.raises(S.GridConvergenceError) as got:
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR, grid=grid,
                           check_grid=True)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("state n=1 drifts 1.2")

    def test_fine_hamiltonian_out_of_range_only_with_states(self):
        # node 0 at 1.2e-154 holds a potential near 1e308, which doubles
        # (Coulomb, l = 0) or quadruples (centrifugal, l = 1) past the float
        # range at half that radius, the first node of the h/2 grid
        grid = 1.2e-154 + 10.0 * np.arange(4000)
        fine = np.linspace(grid[0] / 2, grid[-1], grid.size * 2)
        deep = 1e308 * grid[0]  # G with G M m_G / r0 = 1e308
        with pytest.raises(ValueError, match="leaves the float range") as want:
            _sequential_check(grid, 2, G=deep)
        with pytest.raises(ValueError) as got:
            S.solve_radial(M_I, M_G, V0, M, deep, HBAR, grid=grid,
                           n_states=2, check_grid=True)
        assert str(got.value) == str(want.value)
        # at l = 1 the grid h holds no state below V0, so the h/2
        # Hamiltonian, which is out of range, is not built
        with pytest.raises(ValueError, match="leaves the float range"):
            S.solve_radial(M_I, M_G, V0, M, GN, HBAR, l=1, grid=fine,
                           n_states=2)
        assert S.solve_radial(M_I, M_G, V0, M, GN, HBAR, l=1, grid=grid,
                              n_states=2, check_grid=True) == []

    # spacings in Bohr radii at which some state's drift crosses DRIFT_TOL:
    # about 0.15-0.4 at l = 0, 0.4-0.7 at l = 1, 1.2-2.2 at l = 2
    SPACING = {0: 0.25, 1: 0.55, 2: 1.7}

    @given(l=st.integers(0, 2), stretch=st.floats(0.6, 1.4),
           nodes=st.integers(2000, 2200), n_states=st.integers(1, 3),
           v0=st.sampled_from([V0, -0.5, 2e-6]))
    @example(l=0, stretch=0.6, nodes=2000, n_states=3, v0=V0)   # passes
    @example(l=0, stretch=1.4, nodes=2000, n_states=3, v0=V0)   # drifts
    def test_verdict_and_message_as_sequential(self, l, stretch, nodes,
                                               n_states, v0):
        h = self.SPACING[l] * stretch
        grid = _grid(h * nodes, nodes)
        got = _outcome(lambda: S.solve_radial(
            M_I, M_G, v0, M, GN, HBAR, l=l, grid=grid, n_states=n_states,
            check_grid=True))
        assert got == _outcome(lambda: _sequential_check(grid, n_states, l=l,
                                                         V0=v0))


def _scipy(d, e, k):
    return eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1),
                            eigvals_only=True)


def _hamiltonians(seed, count):
    """(diag, off, k) of seeded radial Hamiltonians as solve_radial builds
    them: 2,000-20,000 nodes, l = 0-3, k = 1-5."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, l, k = (int(rng.integers(lo, hi)) for lo, hi in
                   ((2000, 20001), (0, 4), (1, 6)))
        m_I, m_G = rng.uniform(0.3, 3.0, 2)
        GM, V0 = rng.uniform(1e-4, 1e-2), rng.uniform(-1.0, 1.0)
        box = 40 / (m_I * GM * m_G)
        grid = np.linspace(box / n, box, n)
        kin = 1 / (2 * m_I * (grid[1] - grid[0]) ** 2)
        diag = (2 * kin + l * (l + 1) / (2 * m_I * grid ** 2) + V0
                - GM * m_G / grid)
        yield diag, np.full(n - 1, -kin), k + l


def _stebz_count(d, e, x, bound):
    """N(x) by one LAPACK dstebz call with RANGE = 'V', the reference count
    of `_sturm_counts`: dstebz counts the eigenvalues in (VL, VU] = (-2
    bound, x], and an ABSTOL of 4 bound is wider than that interval, so its
    bisection stops at once and M is the count.  bound is at least |x| and
    the Gershgorin bound of (d, e)."""
    stebz, ref, real = S._lapack()[0], ctypes.byref, ctypes.c_double
    size = len(d)
    n, m, nsplit, info = (ctypes.c_int64(v) for v in (size, 0, 0, 0))
    w, work = np.empty(size), np.empty(4 * size)
    ints = np.empty(5 * size, dtype=np.int64)  # IBLOCK, ISPLIT, IWORK(3N)
    stebz(b"V", b"B", ref(n), ref(real(-2 * bound)), ref(real(x)),
          ref(ctypes.c_int64(1)), ref(ctypes.c_int64(1)),
          ref(real(4 * bound)), d.ctypes, e.ctypes, ref(m), ref(nsplit),
          w.ctypes, ints.ctypes, ints[size:].ctypes, work.ctypes,
          ints[2 * size:].ctypes, ref(info), 1, 1)
    assert info.value == 0
    return m.value


def _batched(d, e, points):
    """`_sturm_counts` at points, given once as the lower ends of the
    intervals and once, reversed, as the upper ends: both rows of NAB in
    the order of points."""
    ab = np.array([points, points[::-1]])
    nab = S._sturm_counts(S._lapack()[1], d, *S._stebz_split(d, e), ab)
    return nab[0].tolist(), nab[1][::-1].tolist()


class TestSturmCountOracle:
    """`_sturm_counts` makes in one dlaebz call the counts that dstebz with
    RANGE = 'V' makes one per call, and each is the number of scipy's
    eigenvalues <= x, also a certificate margin (1024 ulp of the matrix
    norm) away from them."""

    def test_seeded_hamiltonians(self):
        for d, e, k in _hamiltonians(2701, 12):
            w = _scipy(d, e, k + 1)
            tnorm = np.abs(d).max() + 2 * abs(e[0])
            gap = 1024 * np.finfo(float).eps * tnorm
            points = np.concatenate([w - gap, w + gap, [w[0] - 1.0],
                                     (w[:-1] + w[1:]) / 2])
            points = points[points < w[-1] - gap]
            want = [np.count_nonzero(w <= x) for x in points]
            assert [_stebz_count(d, e, x, max(tnorm, abs(x)))
                    for x in points] == want
            assert _batched(d, e, points) == (want, want)

    # |d_1 d_2| ulp^2 = 1e40 * 4.9e-32 = 4.9e8 > 1e3^2: e_1 splits and
    # leaves PIVMIN, which is tiny max(1, 4), not tiny 1e6; an e^2 that
    # underflows to 0 splits too
    @pytest.mark.parametrize("d, e, e2, pivmin", [
        ([1, 1, -1, -1], [0.5, 1e-20, 0.5], [0.25, 0, 0.25], 1),
        ([1, 1e20, 1e20, 1], [2, 1e3, 0.5], [4, 0, 0.25], 4),
        ([3, 0, 3], [1e-200, 1e-200], [0, 0], 1)])
    def test_split_rule(self, d, e, e2, pivmin):
        got = S._stebz_split(np.array(d, float), np.array(e, float))
        assert got[0].tolist() == e2
        assert got[1] == pivmin * np.finfo(float).tiny

    def test_split_off_diagonal(self):
        # e_1 = 1e-20 lies below dstebz's split threshold (e_1^2 = 1e-40
        # against |d_1 d_2| ulp^2 + tiny = 4.9e-32), so the matrix counts
        # as the blocks with eigenvalues {0.5, 1.5} and {-1.5, -0.5}
        d, e = np.array([1.0, 1.0, -1.0, -1.0]), np.array([0.5, 1e-20, 0.5])
        points = np.array([1.5, -1.5, -0.5, 0.5, 0.0, 2.0, -2.0])
        want = [4, 1, 2, 3, 2, 4, 0]
        assert [_stebz_count(d, e, x, 8.0) for x in points] == want
        assert _batched(d, e, points) == (want, want)
        # unsplit, the pivot 0 of x = 1.5 at the end of the first block
        # becomes -PIVMIN, and 1e-40/PIVMIN drops the eigenvalue -0.5
        pivmin = S._stebz_split(d, e)[1]
        ab = np.array([[1.5], [1.5]])
        assert S._sturm_counts(S._lapack()[1], d, e * e, pivmin,
                               ab).tolist() == [[3], [3]]


class TestEigensolveOracle:
    """`_eigh_tridiagonal` calls LAPACK's dstebz in numpy's OpenBLAS as
    scipy's eigh_tridiagonal does: the same bits."""

    def test_seeded_hamiltonians_bit_identical(self):
        for d, e, k in _hamiltonians(2101, 40):
            got = S._eigh_tridiagonal(d, e, k)
            assert got.tobytes() == _scipy(d, e, k).tobytes()

    @pytest.mark.parametrize("x", ["1e-8", "2e-8", "5e-8", "1e-7"])
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_spectrum_table_solves_bit_identical(self, monkeypatch, x, l):
        # the one eigensolve of the cli-tables spectrum rows (the Sturm
        # counts certify the doubling), at l = 0, 1, 2
        calls, solve = [], S._eigh_tridiagonal

        def recorded(d, e, k):
            calls.append((d, e, k, solve(d, e, k)))
            return calls[-1][-1]
        monkeypatch.setattr(S, "_eigh_tridiagonal", recorded)
        table = S.spectrum_table(float(x), 1.0, E.PlanckUnits(), l=l)
        assert len(table) == 3 and len(calls) == 1
        for d, e, k, got in calls:
            assert got.tobytes() == _scipy(d, e, k).tobytes()

    def test_nonzero_info_raises_linalg_error(self):
        d, e = np.arange(10.0), np.ones(9)
        # IU = 11 > N: dstebz refuses argument 7 (INFO = -7)
        with pytest.raises(np.linalg.LinAlgError, match="INFO = -7"):
            S._eigh_tridiagonal(d, e, 11)
        # a nan on the diagonal: bisection fails to converge (INFO > 0)
        d[3] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="dstebz"):
            S._eigh_tridiagonal(d, e, 3)
        assert issubclass(np.linalg.LinAlgError, ValueError)  # CLI exit 2

    def test_scipy_fallback_same_bits(self, monkeypatch):
        cases = list(_hamiltonians(2103, 4))
        want = [S._eigh_tridiagonal(d, e, k) for d, e, k in cases]
        monkeypatch.setattr(S, "_lapack", lambda: None)
        for (d, e, k), w in zip(cases, want):
            assert S._eigh_tridiagonal(d, e, k).tobytes() == w.tobytes()


def _radial_cases(seed):
    """(pars, l, n_states, grid) of seeded solve_radial calls, one for each
    l = 0-3 and n_states = 1-4: 2,000-4,000 nodes out to 5 (l + n_states)^2
    + 20 Bohr radii, so that every state asked for is bound in the box."""
    rng = np.random.default_rng(seed)
    for l in range(4):
        for n_states in range(1, 5):
            m_I, m_G = rng.uniform(0.3, 3.0, 2)
            GM, V0 = rng.uniform(1e-4, 1e-2), rng.uniform(-1.0, 1.0)
            nodes = int(rng.integers(2000, 4001))
            box = (5 * (l + n_states) ** 2 + 20) / (m_I * GM * m_G)
            yield ((m_I, m_G, V0, 1.0, GM, 1.0), l, n_states,
                   np.linspace(box / nodes, box, nodes))


class TestStatesAskedFor:
    """At angular index l the j-th eigenvalue is the state n = l + 1 + j,
    so solve_radial asks LAPACK for the n_states lowest eigenvalues, not
    for n_states + l of them."""

    ULP = np.finfo(float).eps

    @staticmethod
    def _tnorm(d, e):
        return float(np.abs(d).max()) + 2 * abs(float(e[0]))  # Gershgorin

    def test_states_are_the_n_states_lowest(self):
        for pars, l, n_states, grid in _radial_cases(2901):
            states = S.solve_radial(*pars, l=l, grid=grid, n_states=n_states)
            d, e = S._hamiltonian(*pars, l, grid)
            want = _scipy(d, e, n_states)
            assert [s.E.hex() for s in states] == [w.hex() for w in want]
            assert [s.n for s in states] == list(range(l + 1,
                                                       l + 1 + n_states))
            # the n_states + l solve of the parent stops its bisection at
            # about ulp tnorm too: the two agree to within a few of that
            old = _scipy(d, e, n_states + l)[:n_states]
            bound = 4 * self.ULP * self._tnorm(d, e) + S._stebz_split(d, e)[1]
            assert np.abs(want - old).max() <= bound

    # the pinned spectrum tables (n_states = 3), and n_states = 1 and 5
    @pytest.mark.parametrize("x, n_states", [
        ("1e-8", 3), ("2e-8", 3), ("5e-8", 3), ("1e-7", 3), ("1e-8", 1),
        ("1e-8", 5)])
    def test_l0_call_unchanged(self, monkeypatch, x, n_states):
        # every pinned spectrum table is l = 0, where the LAPACK call is the
        # one it has always been: one plain solve for n_states eigenvalues
        calls, solve = [], S._eigh_tridiagonal

        def recorded(d, e, k):
            calls.append((len(d), k))
            return solve(d, e, k)
        monkeypatch.setattr(S, "_eigh_tridiagonal", recorded)
        table = S.spectrum_table(float(x), 1.0, E.PlanckUnits(),
                                 n_states=n_states)
        nodes = math.ceil(S.GRID_NODES * max(1.0, (n_states / 3) ** 2))
        assert len(table) == n_states
        assert calls == [(nodes, n_states)]


class TestReductionResidual:
    M_SCALE = 1.0
    LAM = 0.05

    def test_bookkeeping_identity(self):
        a = 1e3
        grid = np.linspace(a, 6 * a, 300)
        res = V.reduction_residual(self.M_SCALE, 1e-2, self.LAM, 1e-2,
                                   V.exp_orbital(a), grid)
        assert res.gap_i_ii < 1e-8

    def test_eigenstate_stage_three_vanishes(self):
        gamma = 1e-2
        pars = E.effective_params(self.M_SCALE, E.PlanckUnits(lam=self.LAM))
        aB = S.bohr_radius(pars.m_I, pars.m_G, 1.0, gamma / 2, 1.0)
        E1 = pars.V0 - pars.m_I * (gamma / 2 * pars.m_G) ** 2 / 2
        grid = np.linspace(aB / 10, 8 * aB, 400)
        res = V.reduction_residual(self.M_SCALE, gamma, self.LAM, E1,
                                   V.exp_orbital(aB), grid)
        assert res.norm_iii < 1e-8

    def test_gap_quadratic_in_slow_scales(self):
        a0, om0, gamma = 1e3, 1e-2, 1e-2
        gaps = []
        for s in (1.0, 0.5, 0.25, 0.125):
            a = a0 / s
            grid = np.linspace(a, 6 * a, 300)
            res = V.reduction_residual(self.M_SCALE, gamma, self.LAM, om0 * s,
                                       V.exp_orbital(a), grid)
            gaps.append(res.gap_i_iii)
        for hi, lo in zip(gaps, gaps[1:]):
            assert 4 * 0.7 < hi / lo < 4 * 1.3

    def test_ablation_linear_in_gamma(self):
        a0, om0 = 1e3, 1e-2
        grid = np.linspace(a0, 6 * a0, 300)
        devs = []
        for gamma in (1e-2, 2e-2, 4e-2):
            res = V.reduction_residual(self.M_SCALE, gamma, self.LAM, om0,
                                       V.exp_orbital(a0), grid,
                                       ablate_gamma_psidot=True)
            devs.append(res.gap_i_ii)
        assert 1.8 < devs[1] / devs[0] < 2.2
        assert 1.8 < devs[2] / devs[1] < 2.2
